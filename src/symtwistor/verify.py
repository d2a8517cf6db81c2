"""Named verification checks grouped into suites.

Each check returns None on success or a short witness string on
failure; a check that raises is reported with status "error" and the
exception text. The CLI `verify` command and the acceptance test suite
both run these; the `criterion` tag groups checks under the numbered
acceptance criteria. Randomized sweeps use a fixed seed so output is
reproducible byte for byte.

A check is registered in one of two ways. `_cases` takes rows
(label, got, want) and reports the first row with got != want as
`<label>: got <value>`; every check but one is rows, an operator
identity as one `_residual` row. `sl2.ds-xs` is the one hand-written
check, appended as a `Check` of its own: its prose witness, which names
-i*(E+1), is pinned by tests.

Every display is an expression string in the `parsing` grammar; a spinor
display names the operator p of e^{-q^2/2} * p and is read when its check runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, prod
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .exactnum import GaussianRational, I, MINUS_I, _make
from .weyl import BasisTag, WeylOperator
from .spinor import ODD, QPoly, Spinor
from .operators import named_operator, operator_names
from . import combinatorics as comb_mod
from . import kernels as ker
from .parsing import parse_operator

REPORT_SCHEMA_VERSION = 1

XY, ZZ = BasisTag.XY, BasisTag.ZZBAR

_LATEX_ESCAPES = str.maketrans({
    "\\": r"\textbackslash{}",
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
})


@dataclass(frozen=True)
class Check:
    id: str
    anchor: str  # human-readable statement of the identity being checked
    suite: str
    criterion: Optional[int]
    fn: Callable[[], Optional[str]]


class CheckResult(NamedTuple):
    id: str
    anchor: str
    status: str  # "pass" | "fail" | "error"
    witness: Optional[str]


class VerificationReport(NamedTuple):
    suite: str
    results: Tuple[CheckResult, ...]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status != "pass")

    @property
    def exit_code(self) -> int:
        return 0 if self.failed == 0 else 1

    def to_json(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "checks": [r._asdict() for r in self.results],
        }

    def render_text(self) -> str:
        lines = []
        for r in self.results:
            if r.status == "pass":
                lines.append(f"PASS {r.id}: {r.anchor}")
            else:
                lines.append(f"{r.status.upper()} {r.id}: {r.anchor}; witness: {r.witness}")
        lines.append(
            f"suite {self.suite}: {self.passed} passed, {self.failed} failed"
        )
        return "\n".join(lines)

    def render_latex(self) -> str:
        lines = [r"\begin{tabular}{llp{9cm}}", r"id & status & statement \\", r"\hline"]
        for r in self.results:
            cell = r.anchor.translate(_LATEX_ESCAPES)
            if r.witness:
                cell += r" \newline witness: " + r.witness.translate(_LATEX_ESCAPES)
            lines.append(f"{r.id.translate(_LATEX_ESCAPES)} & {r.status} & {cell} \\\\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)


_CHECKS: List[Check] = []


def all_checks() -> List[Check]:
    return list(_CHECKS)


def suite_names() -> List[str]:
    return [*dict.fromkeys(c.suite for c in _CHECKS), "all"]


def run_suite(name: str, checks: Optional[List[Check]] = None) -> VerificationReport:
    if checks is None:
        if name not in suite_names():
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
        checks = [c for c in _CHECKS if name == "all" or c.suite == name]
    results = []
    for check in checks:
        try:
            witness = check.fn()
            status = "pass" if witness is None else "fail"
        except Exception as exc:  # one broken check must not abort the report
            witness, status = f"{type(exc).__name__}: {exc}", "error"
        results.append(CheckResult(check.id, check.anchor, status, witness))
    return VerificationReport(name, tuple(results))


def _cases(
    id: str,
    anchor: str,
    suite: str,
    criterion: Optional[int],
    rows: Callable[[], Iterable[Tuple[str, object, object]]],
) -> None:
    """Register a check over the (label, got, want) rows that rows() yields.

    The witness is `label: got <got>` for the first row with got != want.
    rows() is called afresh on every run and read lazily, so the check stops
    at its first mismatch and looks registry operators up when it runs.
    """

    def check() -> Optional[str]:
        return next((f"{label}: got {got}" for label, got, want in rows() if got != want), None)

    _CHECKS.append(Check(id, anchor, suite, criterion, check))


# ======================================================================
# algebra suite
# ======================================================================


def _residual(residual: Callable[[], WeylOperator]):
    """One row: residual() against the zero operator of its own basis.

    Residuals look operators up in the registry (named_operator) at call
    time, so a rebound registry entry reaches every check that uses it.
    """

    def rows():
        op = residual()
        yield "remainder", op, WeylOperator.zero(op.basis)

    return rows


_cases("sl2.euler-ds", "[E+1, D_s] = -D_s", "algebra", 1,
       _residual(lambda: (named_operator("euler") + 1).commutator(named_operator("ds"))
                 + named_operator("ds")))
_cases("sl2.euler-xs", "[E+1, X_s] = X_s", "algebra", 1,
       _residual(lambda: (named_operator("euler") + 1).commutator(named_operator("xs"))
                 - named_operator("xs")))


def _sl2_ds_xs() -> Optional[str]:
    e1 = named_operator("euler") + 1
    actual = named_operator("ds").commutator(named_operator("xs"))
    if actual == e1:
        return None
    if actual == e1.scale(MINUS_I):
        return f"commutator is {actual}, which equals -i*(E+1), not E+1"
    return f"commutator is {actual}, not E+1"


_CHECKS.append(Check("sl2.ds-xs", "[D_s, X_s] = E+1", "algebra", 1, _sl2_ds_xs))


_cases("mp2.x-y", "[rhoX, rhoY] = rhoH", "algebra", 1,
       _residual(lambda: named_operator("rhoX").commutator(named_operator("rhoY"))
                 - named_operator("rhoH")))
_cases("mp2.h-x", "[rhoH, rhoX] = 2 rhoX", "algebra", 1,
       _residual(lambda: named_operator("rhoH").commutator(named_operator("rhoX"))
                 - named_operator("rhoX").scale(2)))
_cases("mp2.h-y", "[rhoH, rhoY] = -2 rhoY", "algebra", 1,
       _residual(lambda: named_operator("rhoH").commutator(named_operator("rhoY"))
                 + named_operator("rhoY").scale(2)))
for _a in ("xs", "ds"):
    for _b in ("rhoX", "rhoY", "rhoH"):
        _cases(f"cross.{_a}-{_b}", f"[{_a}, {_b}] = 0", "algebra", 1,
               _residual(lambda a=_a, b=_b: named_operator(a).commutator(named_operator(b))))
_cases("casimir.expansion",
       "rhoH^2 + 1 + 2 rhoX rhoY + 2 rhoY rhoX equals its expanded xy display", "algebra", 1,
       _residual(lambda: named_operator("casimir") - parse_operator(
           "x^2*dx^2 + y^2*dy^2 + 2*x*dx + 4*y*dy + 2*x*y*dx*dy + 1/4"
           " - 2*x*q*dx*dq + 2*y*q*dy*dq + 2*i*y*dx*dq^2 + 2*i*x*q^2*dy")))


def _casimir_central_rows():
    cas = named_operator("casimir")
    for name in ("xs", "ds", "rhoX", "rhoY", "rhoH"):
        yield f"[casimir, {name}]", cas.commutator(named_operator(name)), WeylOperator.zero(XY)


_cases("casimir.central", "the Casimir commutes with xs, ds, rhoX, rhoY, rhoH", "algebra", None,
       _casimir_central_rows)


def _casimir_scalar_rows():
    cas_z = named_operator("casimir", ZZ)
    for make, tag in ((ker.monogenic_plus, "plus"), (ker.monogenic_minus, "minus")):
        for l in range(4):
            chain = ker.raising_chain(make(l), 4 - l)
            c0 = ker.scalar_action(cas_z, chain[0])
            yield f"{tag} l={l}, acts by a scalar", c0 is not None, True
            yield f"{tag} l={l}, scalar (2l+1)^2/4", c0, _make((2 * l + 1) ** 2, 0, 4)
            for j in range(1, 5 - l):
                yield f"{tag} l={l}, j={j}, scalar", ker.scalar_action(cas_z, chain[j]), c0


_cases("casimir.scalar",
       "the Casimir acts by one scalar on each raised Dirac-kernel component (l+j <= 4)",
       "algebra", None, _casimir_scalar_rows)
_cases("zbasis.xs", "converted X_s equals its zzbar display (constant 1)", "algebra", 2,
       _residual(lambda: named_operator("xs", ZZ)
                 - parse_operator("(1/2)*i*((q - dq)*z + (q + dq)*zbar)")))
_cases("zbasis.ds", "converted D_s equals its zzbar display (constant 1)", "algebra", 2,
       _residual(lambda: named_operator("ds", ZZ)
                 + parse_operator("(q + dq)*dz + (-q + dq)*dzbar")))
_cases("zbasis.ts",
       "converted first twistor component equals its zzbar display (constant 1)", "algebra", 2,
       _residual(lambda: named_operator("ts", ZZ)
                 - parse_operator("(1 - q*dq - q^2)*dz + (1 - q*dq + q^2)*dzbar")))
_cases("zbasis.ds2", "D_s composed with itself equals the quadratic zzbar display", "algebra",
       None, _residual(lambda: named_operator("ds2", ZZ) - parse_operator(
           "(q^2 + 2*q*dq + 1 + dq^2)*dz^2 + 2*(-q^2 + dq^2)*dz*dzbar"
           " + (q^2 - 2*q*dq - 1 + dq^2)*dzbar^2")))


def _weyl_roundtrip_rows():
    for name in operator_names():
        op = named_operator(name, XY)
        yield f"roundtrip of {name}", op.change_basis(ZZ).change_basis(XY), op


_cases("weyl.roundtrip", "xy -> zzbar -> xy is the identity on every registry operator",
       "algebra", None, _weyl_roundtrip_rows)


# ======================================================================
# kernels suite
# ======================================================================


def _vacuum(shift: int = 0) -> Spinor:
    return Spinor.monomial(XY, 0, 0, QPoly.monomial(shift))


def _display(text: str) -> Spinor:
    """The spinor e^{-q^2/2} * p for the multiplication operator p that text parses to.

    Displays are read from their terms, not through apply, which the checks test.
    """
    op = parse_operator(text)
    rows: Dict[Tuple[int, int], dict] = {}
    for (a, b, k, *derivatives), c in op.terms.items():
        if any(derivatives):
            raise ValueError(f"display {text!r} has a derivative term")
        rows.setdefault((a, b), {})[k] = c
    return Spinor(op.basis, {key: QPoly([row.get(k, 0) for k in range(max(row) + 1)])
                             for key, row in rows.items()})


def _xs_on_constants_rows():
    for shift, name, want in ((0, "even", "i*q*x - q*y"), (1, "odd", "i*q^2*x + (1 - q^2)*y")):
        yield f"X_s on the {name} constant", ker.raising_chain(_vacuum(shift), 1)[1], _display(want)


_cases("displays.xs-on-constants",
       "X_s images of the two constant spinors match their displays", "kernels", 3,
       _xs_on_constants_rows)

# first twistor component of X_s^n on the constant spinor q^shift, keyed (n, shift)
_TS_ON_XS_POWERS = {
    (0, 0): "0", (0, 1): "0", (1, 0): "0", (1, 1): "0",
    (2, 0): "q^2*x + (i + i*q^2)*y",
    (2, 1): "q^3*x + i*q^3*y",
    (3, 0): "3*i*q^3*x^2 - 6*q^3*x*y - 3*i*q^3*y^2",
    (3, 1): "3*i*q^4*x^2 + (6*q^2 - 6*q^4)*x*y + (3*i + 6*i*q^2 - 3*i*q^4)*y^2",
}


def _ts_xs_powers_rows():
    ts = named_operator("ts")
    chains = {shift: ker.raising_chain(_vacuum(shift), 3) for shift in (0, 1)}
    for (n, shift), want in sorted(_TS_ON_XS_POWERS.items()):
        yield f"n={n}, q-shift={shift}", ts.apply(chains[shift][n]), _display(want)


_cases("displays.ts-xs-powers",
       "first twistor component of X_s^n on both constant spinors matches, n = 0..3",
       "kernels", 3, _ts_xs_powers_rows)


def _exclusion_rows():
    chains = [ker.raising_chain(ker.monogenic_plus(m).change_basis(XY), 8) for m in range(5)]
    for n in range(2, 9):
        for m, chain in enumerate(chains):
            got = ker.verify_exclusion(chain[n], n, m)
            yield f"n={n}, m={m}", got, ker.exclusion_formula(n, m)
            yield f"n={n}, m={m}, coefficient vanished", got.is_zero(), False


_cases("exclusion.sweep",
       "leading exclusion coefficient equals -i^n (n+2m)(n-1)/2 for 2<=n<=8, 0<=m<=4",
       "kernels", 4, _exclusion_rows)
_cases("minus-exclusion.values",
       "q^3 zbar^(m-1) coefficient of the twisted odd element is 2m/3 for m <= 6, zero case at m = 0",
       "kernels", None,
       lambda: ((f"m={m}", ker.verify_minus_exclusion(m), _make(2 * m, 0, 3)) for m in range(7)))


def _minus_family_rows():
    ds_z = named_operator("ds", ZZ)
    for m in range(9):
        s = ker.monogenic_minus(m)
        yield f"m={m}, D_s image", ds_z.apply(s), Spinor.zero(ZZ)
        yield f"m={m}, q-degree", s.q_degree(), 2 * m + 1
        yield (f"m={m}, top coefficient", s.terms[(m, 0)].coefficient(2 * m + 1),
               _make(2**m, 0, prod(range(1, 2 * m + 2, 2))))


_cases("monogenic-minus.family",
       "odd Dirac-kernel elements: annihilated, q-degree 2m+1, top coefficient 2^m/(2m+1)!!, m <= 8",
       "kernels", 5, _minus_family_rows)

_MINUS_DISPLAYS_Z = {
    1: "(-q + 2/3*q^3)*z + q*zbar",
    2: "(q - 4/3*q^3 + 4/15*q^5)*z^2 + (-2*q + 4/3*q^3)*z*zbar + q*zbar^2",
    3: "(-q + 2*q^3 - 4/5*q^5 + 8/105*q^7)*z^3 + (3*q - 4*q^3 + 4/5*q^5)*z^2*zbar"
       " + (-3*q + 2*q^3)*z*zbar^2 + q*zbar^3",
}

_MINUS_DISPLAYS_XY = {
    1: "2/3*q^3*x + (-2*i*q + 2/3*i*q^3)*y",
    2: "4/15*q^5*x^2 + (-8/3*i*q^3 + 8/15*i*q^5)*x*y + (-4*q + 8/3*q^3 - 4/15*q^5)*y^2",
    3: "8/105*q^7*x^3 + (-8/5*i*q^5 + 8/35*i*q^7)*x^2*y + (-8*q^3 + 16/5*q^5 - 8/35*q^7)*x*y^2"
       " + (8*i*q - 8*i*q^3 + 8/5*i*q^5 - 8/105*i*q^7)*y^3",
}


def _minus_displays_rows():
    for m in (1, 2, 3):
        s = ker.monogenic_minus(m)
        yield f"m={m} (zzbar)", s, _display(_MINUS_DISPLAYS_Z[m])
        yield f"m={m} (xy)", s.change_basis(XY), _display(_MINUS_DISPLAYS_XY[m])


_cases("monogenic-minus.displays",
       "odd Dirac-kernel elements match their m = 1, 2, 3 displays in both bases",
       "kernels", 5, _minus_displays_rows)


def _twistor_annihilation_rows():
    ops = ((named_operator("ts", ZZ), "comp1"), (named_operator("ts2", ZZ), "comp2"),
           (named_operator("ds2", ZZ), "ds2"))
    for m in range(9):
        basis = ker.twistor_kernel_basis(m)
        # first (key, q-power, coefficient): 1 and q at m = 0, then X_s of z^(m-1), i*q*z^m,
        # and X_s of the odd element, whose first term is i/2 * zbar^m
        leading = ((((0, 0), 0, 1), ((0, 0), 1, 1)) if m == 0 else
                   (((m, 0), 1, I), ((0, m), 0, I / 2)))
        yield f"m={m}, element count", len(basis), 2
        for idx, (el, lead) in enumerate(zip(basis, leading)):
            key = min(el.terms)
            yield f"m={m}, element {idx}, first term", (key, *next(el.terms[key].nonzero_terms())), lead
            for op, name in ops:
                yield f"m={m}, element {idx}, {name} image", op.apply(el), Spinor.zero(ZZ)


_cases("twistor-basis.annihilation",
       "both twistor-kernel elements are killed by both twistor components and the squared Dirac operator, m <= 8",
       "kernels", 6, _twistor_annihilation_rows)


_TWISTOR_DISPLAYS_Z = {
    1: "(-1 + 2*q^2)*z + zbar",
    2: "(1 - 4*q^2 + 4/3*q^4)*z^2 + (-2 + 4*q^2)*z*zbar + zbar^2",
    3: "(-1 + 6*q^2 - 4*q^4 + 8/15*q^6)*z^3 + (3 - 12*q^2 + 4*q^4)*z^2*zbar"
       " + (-3 + 6*q^2)*z*zbar^2 + zbar^3",
}


def _nonzero_multiple(a: Spinor, b: Spinor) -> bool:
    """Whether a = c*b for some nonzero scalar c."""
    c = ker.scalar_multiple(a, b)
    return c is not None and not c.is_zero()


def _twistor_displays_rows():
    xs_z = named_operator("xs", ZZ)
    for m, text in _TWISTOR_DISPLAYS_Z.items():
        display, base = _display(text), ker.monogenic_minus(m - 1)
        yield (f"m={m}, display is a nonzero multiple of X_s of the odd element",
               _nonzero_multiple(display, xs_z.apply(base)), True)
        comps = ker.howe_decompose(display)
        yield f"m={m}, peeled (homogeneity, power)", [(c.homogeneity, c.power) for c in comps], [(m - 1, 1)]
        yield (f"m={m}, peeled layer is a nonzero multiple of the odd element",
               _nonzero_multiple(comps[0].monogenic, base), True)


_cases("twistor-basis.displays",
       "displayed even twistor solutions m = 1, 2, 3 peel to one raised odd Dirac-kernel layer",
       "kernels", 6, _twistor_displays_rows)


_RANDOM_SEED = 20260817


def _random_rational(rng: random.Random) -> GaussianRational:
    return _make(rng.randint(-9, 9), 0, rng.randint(1, 9))


def _random_gaussian(rng: random.Random) -> GaussianRational:
    """a/d + (b/f) i, drawn in the order of two _random_rational draws."""
    a, d, b, f = rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
    return _make(a * f, b * d, d * f)


def _random_ds_odd_rows():
    rng = random.Random(_RANDOM_SEED)
    xs_z, ts_z = named_operator("xs", ZZ), named_operator("ts", ZZ)
    for trial in range(50):
        m = rng.randint(0, 5)
        seed = QPoly([_random_rational(rng) if k % 2 == 0 else 0 for k in range(7)])
        family = ker.solve_recursion(ker.RecursionKind.DS_ODD, m, seed, 2 * m + 6)
        yield f"trial {trial}, free parameters", family.free_parameters, ()
        # a zero seed gives no element
        for element, truncated in zip(family.basis[:1], family.extends_beyond_truncation):
            yield f"trial {trial}, truncated", truncated, False
            yield (f"trial {trial} (m={m}), raised element in the twistor kernel",
                   ts_z.apply(xs_z.apply(element)).is_zero(), True)


_cases("random.ds-odd-to-twistor",
       "50 random odd Dirac-relation solutions (m <= 5) land in the twistor kernel after raising",
       "kernels", 7, _random_ds_odd_rows)


def _random_twistor_rows():
    rng = random.Random(_RANDOM_SEED + 1)
    ts_z, ds2 = named_operator("ts", ZZ), named_operator("ds2", ZZ)
    bases: Dict[int, Tuple[Spinor, ...]] = {}
    for trial in range(50):
        m = rng.randint(0, 5)
        if m not in bases:
            bases[m] = ker.kernel_linear_solve(ts_z, m, 2 * m + 7).basis
        member = ker.linear_combination([_random_gaussian(rng) for _ in bases[m]], bases[m])
        yield (f"trial {trial} (m={m}), member in the twistor kernel",
               ts_z.apply(member).is_zero(), True)
        yield (f"trial {trial} (m={m}), member in the squared-Dirac kernel",
               ds2.apply(member).is_zero(), True)


_cases("random.twistor-in-ds2",
       "50 random twistor-kernel members (m <= 5) lie in the squared-Dirac kernel",
       "kernels", 7, _random_twistor_rows)


def _recursion_vs_linear_rows(kinds, ms):
    """One row per (kind, m): the recursion span equals the linear-kernel span."""
    for kind in kinds:
        for m in ms:
            qmax = 2 * m + 4
            qdeg = qmax + (1 if kind.parity == ODD else 0)
            linear = ker.kernel_linear_solve(
                ker.operator_for_kind(kind), m, qdeg, parity=kind.parity
            )
            yield (f"{kind.value}, m={m}, recursion and linear spans equal",
                   ker.same_span(ker.recursion_span(kind, m, qmax), linear.basis), True)


_cases("oracle.recursion-vs-linear",
       "recursion solutions and the exact linear-algebra kernel span the same space, all kinds, m <= 4",
       "kernels", 8, lambda: _recursion_vs_linear_rows(ker.RecursionKind, range(5)))


def _random_homogeneous_spinor(rng: random.Random, l: int, basis: BasisTag) -> Spinor:
    terms = {}
    for e1 in range(l + 1):
        poly = QPoly([_random_gaussian(rng) for _ in range(6)])
        if not poly.is_zero():
            terms[(e1, l - e1)] = poly
    return Spinor(basis, terms)


def _howe_roundtrip_rows():
    rng = random.Random(_RANDOM_SEED + 2)
    ops = {b: (named_operator("xs", b), named_operator("ds", b)) for b in (XY, ZZ)}
    for trial in range(100):
        l = rng.randint(0, 4)
        basis = XY if rng.random() < 0.5 else ZZ
        s = _random_homogeneous_spinor(rng, l, basis)
        comps = ker.howe_decompose(s)  # reconstruction is asserted inside
        xs, ds = ops[basis]
        powers = [comp.power for comp in comps]
        yield f"trial {trial}, duplicate layers", len(powers) - len(set(powers)), 0
        for comp in comps:
            yield f"trial {trial}, layer j={comp.power}, degree", comp.homogeneity + comp.power, l
            yield (f"trial {trial}, layer j={comp.power} in the Dirac kernel",
                   ds.apply(comp.monogenic).is_zero(), True)
        yield f"trial {trial}, reassembles", ker.reassemble(comps, xs) == s, True


_cases("howe.roundtrip",
       "100 random homogeneous spinors (l <= 4, q-degree <= 5) peel into Dirac-kernel layers and reassemble",
       "kernels", 10, _howe_roundtrip_rows)


def _ladder_rows():
    ds_z = named_operator("ds", ZZ)
    samples = [ker.monogenic_plus(0), ker.monogenic_plus(1), ker.monogenic_plus(3),
               ker.monogenic_minus(0), ker.monogenic_minus(2)]
    for mono in samples:
        l = mono.homogeneity()
        chain = ker.raising_chain(mono, 4)
        for j in range(1, 5):
            yield (f"l={l}, j={j}", ds_z.apply(chain[j]),
                   chain[j - 1].scale(ker.ladder_constant(l, j)))


_cases("ladder.constants",
       "D_s X_s^j m = -i j (lambda + (j-1)/2) X_s^(j-1) m on sample Dirac-kernel elements",
       "kernels", None, _ladder_rows)
_cases("holomorphic.family", "q e^{-q^2/2} z^n is twistor-annihilated for n <= 10", "kernels", 11,
       lambda: ((f"n={n}", ker.holomorphic_family_check(n), True) for n in range(11)))


def _holomorphic_ode_rows():
    g = QPoly([0, 1])  # stored q-part of f, weight implicit
    yield "q-part of (1 - q^2) f against q f'", g - g.shift(2), g.weighted_dq().shift(1)


_cases("holomorphic.ode", "f = q e^{-q^2/2} solves (1 - q^2) f = q f' as a weighted identity",
       "kernels", 11, _holomorphic_ode_rows)


# ======================================================================
# combinatorics suite
# ======================================================================


def _a_table_rows():
    for n, power in enumerate(named_operator("xs").powers(12)):
        want = comb_mod.a_table(n)
        yield f"n={n}, power expansion", comb_mod.a_table_from_power(power, n), want
        yield (f"n={n}, support", set(want),
               {(j, k) for j in range(n // 2 + 1) for k in range(n - 2 * j + 1)})
        yield f"n={n}, all entries positive", all(v > 0 for v in want.values()), True


_cases("a-table.match",
       "recurrence table equals the normal-ordered raising-power expansion, n <= 12",
       "combinatorics", 9, _a_table_rows)


def _a_table_closed_rows():
    for n in range(13):
        table = comb_mod.a_table(n)
        for k in range(n + 1):
            yield f"n={n}, k={k}, row 0", table.get((0, k), 0), comb(n, k)
        if n >= 2:
            yield f"n={n}, j=1 top entry", table.get((1, n - 2), 0), n * (n - 1) // 2


_cases("a-table.closed-rows", "A^n_{0k} = C(n,k) and A^n_{1,n-2} = n(n-1)/2, n <= 12",
       "combinatorics", 9, _a_table_closed_rows)


def _stirling_rows():
    yield "s(4,2)", comb_mod.stirling(4, 2), 7
    qdq = WeylOperator.generator(XY, "q") * WeylOperator.generator(XY, "dq")
    for n, power in enumerate(qdq.powers(12)):
        for m in range(1, n + 1):
            yield f"n={n}, m={m}", comb_mod.stirling(n, m), comb_mod.stirling_from_power(power, n, m)


_cases("stirling.match",
       "stirling recurrence equals the normal-ordered (q dq)^n expansion, n <= 12, with s(4,2) = 7",
       "combinatorics", 9, _stirling_rows)


def _stirling_tilde_rows():
    qdq = WeylOperator.generator(XY, "q") + WeylOperator.generator(XY, "dq")
    prev = None
    for n, power in enumerate(qdq.powers(12)):
        table = comb_mod.stirling_tilde(n)
        support = sorted((i, r) for i in range(n + 1) for r in range(min(i, n - i) + 1))
        yield f"n={n}, entries outside the support", set(table) - set(support), set()
        for i in range(n + 1):
            yield f"n={n}, i={i}, r=0 slice", table.get((i, 0), 0), comb(n, i)
        yield (f"n={n}, entries where the collapse at qt=1 and the plain Weyl expansion differ",
               comb_mod.stirling_tilde_collapse(table, n).items()
               ^ comb_mod.q_dq_entries(power).items(), set())
        if prev is not None:
            for i, r in support:
                yield (f"n={n}, (i,r)=({i},{r}), recursion", table.get((i, r), 0),
                       prev.get((i - 1, r), 0) + prev.get((i, r), 0)
                       + (i - r + 1) * prev.get((i, r - 1), 0))
        prev = table


_cases("stirling-tilde.structure",
       "marked expansion of (q+dq)^n: support, binomial r=0 slice, collapse at qt=1, 4-term recursion, n <= 12",
       "combinatorics", 9, _stirling_tilde_rows)


_STIRLING_TILDE_DISPLAYS = {
    2: {(0, 0): 1, (2, 0): 1, (1, 0): 2, (1, 1): 1},
    3: {(0, 0): 1, (3, 0): 1, (1, 0): 3, (2, 0): 3, (1, 1): 3, (2, 1): 3},
}

_cases("stirling-tilde.displays", "(q+dq)^2 and (q+dq)^3 marked expansions match their displays",
       "combinatorics", 9,
       lambda: ((f"n={n}", comb_mod.stirling_tilde(n), want)
                for n, want in _STIRLING_TILDE_DISPLAYS.items()))
