"""Seeded inputs of the benchmark workloads.

Everything here is plain data derived from (seed, repetition) through
``random.Random``, so the same seed gives byte-identical inputs in every
process. Spinor inputs are built as JSON in the program's documented
schema; only the X_s^k vacuum targets of ``apply`` need the library.
"""

from __future__ import annotations

import random
from fractions import Fraction

# ---- kernel-solve ----

KERNEL_M = 5  # above the m <= 4 range of the oracle check in `verify`
KINDS = ("ds/odd", "ds/even", "ts/odd", "ts/even", "ds2/even", "ds2/odd")
TS_LINEAR_M = (4, 5)  # kernel_linear_solve(ts, m, 2m+7)

# Kernel dimensions recorded at the commit that defined the benchmark.
KERNEL_DIMENSIONS = {
    ("ds/odd", 5): 3,
    ("ds/even", 5): 8,
    ("ts/odd", 5): 8,
    ("ts/even", 5): 3,
    ("ds2/even", 5): 12,
    ("ds2/odd", 5): 12,
    ("ts", 4): 12,
    ("ts", 5): 13,
}


def _rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{rep}")


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def kernel_round(seed: int, rep: int) -> list:
    """One round of kernel-solve: an oracle per recursion kind, then the ts solves.

    An oracle's seeds form a unitriangular basis of the even seed space
    (q^j plus random rational lower terms), so the recursion span they
    generate is the whole span while every coefficient is a dense rational.
    """
    rng = _rng("kernel-solve", seed, rep)
    qmax = 2 * KERNEL_M + 4
    ops = []
    for kind in KINDS:
        seeds = []
        for j in range(0, qmax + 1, 2):
            coeffs = []
            for k in range(j):
                f = _fraction(rng) if k % 2 == 0 else Fraction(0)
                coeffs.append([f.numerator, f.denominator])
            seeds.append(coeffs + [[1, 1]])
        ops.append({"op": "oracle", "kind": kind, "m": KERNEL_M, "seeds": seeds})
    for m in TS_LINEAR_M:
        ops.append({"op": "ts_linear", "m": m})
    return ops


# ---- cli-session ----

SESSION_SIZE = 25
# (homogeneity, basis); the first five are the l >= 6 class, one command in five.
DECOMPOSE_HEAVY = ((8, "xy"), (7, "xy"), (7, "xy"), (6, "zzbar"), (6, "zzbar"))
DECOMPOSE_LIGHT = (4, 5)
APPLY_BASE = (  # xy expressions; powers of these are applied to random spinors
    "y*dq + i*x*q",
    "i*q*dy - dx*dq",
    "dx - q*dq*dx + i*q^2*dy",
    "x*dx + y*dy",
)
VACUUM_K = (0, 2, 4, 6)  # targets X_s^k of the vacuum, xy basis
VACUUM_EXPRS = (
    "(y*dq + i*x*q)^3",
    "i*q*dy - dx*dq",
    "(i*q*dy - dx*dq)^2",
    "dx - q*dq*dx + i*q^2*dy",
    "x*dx + y*dy + 1",
)
FORMATS = ("json", "text", "latex")
GENERATE_M = {"zzbar": (8, 16, 24, 32), "xy": (8, 12, 16)}
TABLES_N = (6, 9, 12, 15)
COUNTS = {"apply_random": 4, "apply_vacuum": 4, "generate": 3, "tables": 7}


def random_spinor_json(rng: random.Random, l: int, basis: str, qdeg: int = 5) -> dict:
    """Homogeneous degree-l spinor with dense random rational Q(i) coefficients."""
    terms = []
    for e1 in range(l + 1):
        q = []
        for _ in range(qdeg + 1):
            re, im = _fraction(rng), _fraction(rng)
            q.append([re.numerator, re.denominator, im.numerator, im.denominator])
        terms.append({"e1": e1, "e2": l - e1, "q": q})
    return {"basis": basis, "terms": terms}


def generate_pool() -> list:
    return [
        ["generate", kind, str(m), "--basis", basis, "--format", fmt]
        for kind in ("monogenic-", "twistor")
        for basis, ms in GENERATE_M.items()
        for m in ms
        for fmt in FORMATS
    ]


def tables_pool() -> list:
    return [
        ["tables", which, str(n), "--format", fmt] + (["--flat"] if flat else [])
        for which in ("A", "stirling", "stirling-tilde")
        for n in TABLES_N
        for fmt in FORMATS
        for flat in (False, True)
    ]


def vacuum_pool() -> list:
    """(k, argv) for every apply on an X_s^k vacuum target."""
    return [
        (k, ["apply", expr, "-", "--format", fmt])
        for k in VACUUM_K
        for expr in VACUUM_EXPRS
        for fmt in FORMATS
    ]


def digest_key(argv: list, vacuum_k=None) -> str:
    key = " ".join(argv)
    return key if vacuum_k is None else f"{key} <X_s^{vacuum_k} vacuum>"


def cli_session(seed: int, rep: int) -> list:
    """One session of SESSION_SIZE commands, in seeded order.

    Each command is a dict with argv, an optional stdin spinor (JSON
    object, or ("vacuum", k) for an X_s^k target) and what checks it:
    "decompose", "apply_power" (with base and exponent), or a digest key.
    """
    rng = _rng("cli-session", seed, rep)
    cmds = []
    light = [(l, rng.choice(("xy", "zzbar"))) for l in DECOMPOSE_LIGHT]
    for l, basis in DECOMPOSE_HEAVY + tuple(light):
        cmds.append({
            "argv": ["decompose", "-", "--format", "json"],
            "stdin": random_spinor_json(rng, l, basis),
            "check": "decompose",
        })
    for _ in range(COUNTS["apply_random"]):
        base, n = rng.choice(APPLY_BASE), rng.randint(1, 3)
        cmds.append({
            "argv": ["apply", f"({base})^{n}", "-", "--format", "json"],
            "stdin": random_spinor_json(rng, rng.randint(2, 4), rng.choice(("xy", "zzbar"))),
            "check": "apply_power",
            "base": base,
            "power": n,
        })
    for k, argv in rng.sample(vacuum_pool(), COUNTS["apply_vacuum"]):
        cmds.append({"argv": argv, "stdin": ("vacuum", k), "check": digest_key(argv, k)})
    for argv in rng.sample(generate_pool(), COUNTS["generate"]):
        cmds.append({"argv": argv, "stdin": None, "check": digest_key(argv)})
    for argv in rng.sample(tables_pool(), COUNTS["tables"]):
        cmds.append({"argv": argv, "stdin": None, "check": digest_key(argv)})
    rng.shuffle(cmds)
    return cmds
