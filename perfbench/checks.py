"""Reference checks for every benchmark operation.

Each check returns None when the output is correct and a one-line reason
when it is not. Closed forms are computed here with plain ``fractions``;
digests of deterministic CLI outputs were recorded at the commit that
defined the benchmark (``references.json``), because CLI output must stay
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import comb
from typing import Optional

from inputs import KERNEL_DIMENSIONS

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# The one check that is red by design, and its documented witness.
VERIFY_KNOWN_FAILURE = "sl2.ds-xs"
VERIFY_WITNESS = (
    "commutator is (-i) + (-i)*y*dy + (-i)*x*dx, which equals -i*(E+1), not E+1"
)
VERIFY_CHECK_COUNT = 40


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def check_verify_all(code: int, stdout: str) -> Optional[str]:
    """Exit 1 with exactly the red-by-design check failing, with its witness."""
    if code != 1:
        return f"exit code {code}, expected 1"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    failed = [c for c in report.get("checks", []) if c.get("status") != "pass"]
    if len(report.get("checks", [])) != VERIFY_CHECK_COUNT:
        return f"{len(report.get('checks', []))} checks, expected {VERIFY_CHECK_COUNT}"
    if report.get("failed") != 1 or report.get("passed") != VERIFY_CHECK_COUNT - 1:
        return f"passed={report.get('passed')} failed={report.get('failed')}"
    if [c["id"] for c in failed] != [VERIFY_KNOWN_FAILURE]:
        return f"failing checks {[c['id'] for c in failed]}"
    if failed[0].get("witness") != VERIFY_WITNESS:
        return f"witness {failed[0].get('witness')!r}"
    return None


def check_digest(key: str, stdout: str, references: dict) -> Optional[str]:
    want = references.get(key)
    if want is None:
        return f"no reference digest for {key!r}"
    return None if digest(stdout) == want else f"digest mismatch for {key!r}"


def _double_factorial_odd(m: int) -> int:
    out = 1
    for t in range(3, 2 * m + 2, 2):
        out *= t
    return out


def check_closed_forms(argv: list, stdout: str) -> Optional[str]:
    """Row j=0 of A^n is C(n,k); monogenic- m has top coefficient 2^m/(2m+1)!!.

    Applies to the JSON outputs that expose these entries directly.
    """
    if argv[-2:] != ["--format", "json"]:
        return None
    if argv[:2] == ["tables", "A"]:
        n = int(argv[2])
        rows = json.loads(stdout)["rows"]
        if rows[0]["j"] != 0 or rows[0]["entries"] != [comb(n, k) for k in range(n + 1)]:
            return f"tables A {n}: row 0 is not the binomial row"
    elif argv[:2] == ["generate", "monogenic-"] and "zzbar" in argv:
        m = int(argv[2])
        terms = {(t["e1"], t["e2"]): t["q"] for t in json.loads(stdout)["terms"]}
        q = terms.get((m, 0), [])
        if len(q) != 2 * m + 2:
            return f"monogenic- {m}: q-degree {len(q) - 1}"
        re_num, re_den, im_num, im_den = q[2 * m + 1]
        want = Fraction(2**m, _double_factorial_odd(m))
        if Fraction(re_num, re_den) != want or im_num != 0:
            return f"monogenic- {m}: top coefficient {q[2 * m + 1]}"
    return None


def check_decompose(spinor_json: dict, stdout: str) -> Optional[str]:
    """Every layer is Dirac-monogenic and sum_j X_s^j m_j gives back the input."""
    from symtwistor.operators import named_operator
    from symtwistor.spinor import Spinor

    s = Spinor.from_json(spinor_json)
    data = json.loads(stdout)
    if data.get("reconstruction_exact") is not True:
        return "reconstruction not reported exact"
    xs = named_operator("xs", s.basis)
    ds = named_operator("ds", s.basis)
    total = Spinor.zero(s.basis)
    for comp in data["components"]:
        m = Spinor.from_json(comp["monogenic"])
        if m.basis is not s.basis:
            return "layer basis differs from the input basis"
        if not ds.apply(m).is_zero():
            return f"layer j={comp['power']} is not in the Dirac kernel"
        if m.homogeneity() != comp["homogeneity"]:
            return f"layer j={comp['power']}: homogeneity mismatch"
        for _ in range(comp["power"]):
            m = xs.apply(m)
        total = total + m
    return None if total == s else "layers do not reassemble the input"


def check_apply_power(spinor_json: dict, base: str, power: int, stdout: str) -> Optional[str]:
    """(base)^power applied once equals base applied power times."""
    from symtwistor.parsing import parse_operator
    from symtwistor.spinor import Spinor

    s = Spinor.from_json(spinor_json)
    op = parse_operator(base, s.basis)
    want = s
    for _ in range(power):
        want = op.apply(want)
    return None if Spinor.from_json(json.loads(stdout)) == want else "result differs"


def check_kernel_op(op: dict, result: dict, operator, basis) -> Optional[str]:
    """Dimension as recorded, basis annihilated, spans equal (oracle ops)."""
    key = (op["kind"], op["m"]) if op["op"] == "oracle" else ("ts", op["m"])
    if len(basis) != KERNEL_DIMENSIONS[key]:
        return f"{key}: kernel dimension {len(basis)}, expected {KERNEL_DIMENSIONS[key]}"
    for v in basis:
        if not operator.apply(v).is_zero():
            return f"{key}: a basis vector is not annihilated"
    if op["op"] == "oracle" and result.get("spans_equal") is not True:
        return f"{key}: recursion and linear spans differ"
    return None
