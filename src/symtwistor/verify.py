"""Named verification checks grouped into suites.

Each check returns None on success or a short witness string on
failure; a check that raises is reported with status "error" and the
exception text. The CLI `verify` command and the acceptance test suite
both run these; the `criterion` tag groups checks under the numbered
acceptance criteria. Randomized sweeps use a fixed seed so output is
reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .exactnum import G, GaussianRational, I, MINUS_I
from .weyl import BasisTag, WeylOperator
from .spinor import EVEN, ODD, QPoly, Spinor
from .operators import (
    build_casimir,
    build_ds,
    build_ds_squared,
    build_euler,
    build_rho_h,
    build_rho_x,
    build_rho_y,
    build_ts_reduced,
    build_xs,
    named_operator,
    operator_names,
)
from . import combinatorics as comb_mod
from . import kernels as ker
from .parsing import parse_operator

REPORT_SCHEMA_VERSION = 1

XY, ZZ = BasisTag.XY, BasisTag.ZZBAR


@dataclass(frozen=True)
class Check:
    id: str
    anchor: str  # human-readable statement of the identity being checked
    suite: str
    criterion: Optional[int]
    fn: Callable[[], Optional[str]]


@dataclass(frozen=True)
class CheckResult:
    id: str
    anchor: str
    status: str  # "pass" | "fail" | "error"
    witness: Optional[str]


@dataclass(frozen=True)
class VerificationReport:
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
            "checks": [
                {
                    "id": r.id,
                    "anchor": r.anchor,
                    "status": r.status,
                    "witness": r.witness,
                }
                for r in self.results
            ],
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


_CHECKS: List[Check] = []


def _check(id: str, anchor: str, suite: str, criterion: Optional[int]):
    def deco(fn):
        _CHECKS.append(Check(id, anchor, suite, criterion, fn))
        return fn

    return deco


def all_checks() -> List[Check]:
    return list(_CHECKS)


def suite_names() -> List[str]:
    return ["algebra", "kernels", "combinatorics", "all"]


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


def _identity(
    id: str,
    anchor: str,
    criterion: Optional[int],
    residual: Callable[[], WeylOperator],
) -> None:
    """Register an algebra check that passes when residual() is the zero operator.

    Residuals name the builders of this module, looked up at call time, so
    a replaced builder reaches every check that uses it.
    """

    def check() -> Optional[str]:
        op = residual()
        return None if op.is_zero() else f"nonzero remainder {op}"

    _CHECKS.append(Check(id, anchor, "algebra", criterion, check))


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
    at its first mismatch and looks builders up through this module's
    globals when it runs.
    """

    def check() -> Optional[str]:
        return next((f"{label}: got {got}" for label, got, want in rows() if got != want), None)

    _CHECKS.append(Check(id, anchor, suite, criterion, check))


# ======================================================================
# algebra suite
# ======================================================================


_identity("sl2.euler-ds", "[E+1, D_s] = -D_s", 1,
          lambda: (build_euler() + 1).commutator(build_ds()) + build_ds())
_identity("sl2.euler-xs", "[E+1, X_s] = X_s", 1,
          lambda: (build_euler() + 1).commutator(build_xs()) - build_xs())


@_check("sl2.ds-xs", "[D_s, X_s] = E+1", "algebra", 1)
def _sl2_ds_xs() -> Optional[str]:
    ds, xs, e1 = build_ds(), build_xs(), build_euler() + 1
    actual = ds.commutator(xs)
    if actual == e1:
        return None
    if actual == e1.scale(MINUS_I):
        return f"commutator is {actual}, which equals -i*(E+1), not E+1"
    return f"commutator is {actual}, not E+1"


_identity("mp2.x-y", "[rhoX, rhoY] = rhoH", 1,
          lambda: build_rho_x().commutator(build_rho_y()) - build_rho_h())
_identity("mp2.h-x", "[rhoH, rhoX] = 2 rhoX", 1,
          lambda: build_rho_h().commutator(build_rho_x()) - build_rho_x().scale(2))
_identity("mp2.h-y", "[rhoH, rhoY] = -2 rhoY", 1,
          lambda: build_rho_h().commutator(build_rho_y()) + build_rho_y().scale(2))
for _a in ("xs", "ds"):
    for _b in ("rhoX", "rhoY", "rhoH"):
        _identity(f"cross.{_a}-{_b}", f"[{_a}, {_b}] = 0", 1,
                  lambda a=_a, b=_b: named_operator(a).commutator(named_operator(b)))
_identity("casimir.expansion",
          "rhoH^2 + 1 + 2 rhoX rhoY + 2 rhoY rhoX equals its expanded xy display", 1,
          lambda: build_casimir() - parse_operator(
              "x^2*dx^2 + y^2*dy^2 + 2*x*dx + 4*y*dy + 2*x*y*dx*dy + 1/4"
              " - 2*x*q*dx*dq + 2*y*q*dy*dq + 2*i*y*dx*dq^2 + 2*i*x*q^2*dy"))


def _casimir_central_rows():
    cas = build_casimir()
    for name in ("xs", "ds", "rhoX", "rhoY", "rhoH"):
        yield f"[casimir, {name}]", cas.commutator(named_operator(name)), WeylOperator.zero(XY)


_cases("casimir.central", "the Casimir commutes with xs, ds, rhoX, rhoY, rhoH", "algebra", None,
       _casimir_central_rows)


@_check(
    "casimir.scalar",
    "the Casimir acts by one scalar on each raised Dirac-kernel component (l+j <= 4)",
    "algebra",
    None,
)
def _casimir_scalar() -> Optional[str]:
    cas_z = named_operator("casimir", ZZ)
    for make, tag in ((ker.monogenic_plus, "plus"), (ker.monogenic_minus, "minus")):
        for l in range(4):
            chain = ker.raising_chain(make(l), 4 - l)
            c0 = ker.scalar_action(cas_z, chain[0])
            if c0 is None:
                return f"not scalar on {tag} monogenic l={l}"
            for j in range(1, 5 - l):
                c = ker.scalar_action(cas_z, chain[j])
                if c != c0:
                    return (
                        f"scalar drifts on component ({tag}, l={l}): {c0} vs {c} at j={j}"
                    )
    return None


_identity("zbasis.xs", "converted X_s equals its zzbar display (constant 1)", 2,
          lambda: build_xs().change_basis(ZZ)
          - parse_operator("(1/2)*i*((q - dq)*z + (q + dq)*zbar)"))
_identity("zbasis.ds", "converted D_s equals its zzbar display (constant 1)", 2,
          lambda: build_ds().change_basis(ZZ)
          + parse_operator("(q + dq)*dz + (-q + dq)*dzbar"))
_identity("zbasis.ts",
          "converted first twistor component equals its zzbar display (constant 1)", 2,
          lambda: build_ts_reduced().change_basis(ZZ)
          - parse_operator("(1 - q*dq - q^2)*dz + (1 - q*dq + q^2)*dzbar"))
_identity("zbasis.ds2", "D_s composed with itself equals the quadratic zzbar display", None,
          lambda: build_ds_squared() - parse_operator(
              "(q^2 + 2*q*dq + 1 + dq^2)*dz^2 + 2*(-q^2 + dq^2)*dz*dzbar"
              " + (q^2 - 2*q*dq - 1 + dq^2)*dzbar^2"))


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


def _xs_on_constants_rows():
    yield ("X_s on the even constant", ker.raising_chain(_vacuum(), 1)[1],
           Spinor(XY, {(1, 0): QPoly([0, I]), (0, 1): QPoly([0, -1])}))
    yield ("X_s on the odd constant", ker.raising_chain(_vacuum(1), 1)[1],
           Spinor(XY, {(1, 0): QPoly([0, 0, I]), (0, 1): QPoly([1, 0, -1])}))


_cases("displays.xs-on-constants",
       "X_s images of the two constant spinors match their displays", "kernels", 3,
       _xs_on_constants_rows)

# first twistor component of X_s^n on the constant spinor q^shift, keyed (n, shift)
_TS_ON_XS_POWERS: Dict[Tuple[int, int], Spinor] = {
    (0, 0): Spinor.zero(XY),
    (0, 1): Spinor.zero(XY),
    (1, 0): Spinor.zero(XY),
    (1, 1): Spinor.zero(XY),
    (2, 0): Spinor(XY, {(1, 0): QPoly([0, 0, 1]), (0, 1): QPoly([I, G(0), I])}),
    (2, 1): Spinor(XY, {(1, 0): QPoly([0, 0, 0, 1]), (0, 1): QPoly([0, 0, 0, I])}),
    (3, 0): Spinor(
        XY,
        {
            (2, 0): QPoly([0, 0, 0, G(0, 3)]),
            (1, 1): QPoly([0, 0, 0, -6]),
            (0, 2): QPoly([0, 0, 0, G(0, -3)]),
        },
    ),
    (3, 1): Spinor(
        XY,
        {
            (2, 0): QPoly([0, 0, 0, 0, G(0, 3)]),
            (1, 1): QPoly([0, 0, 6, 0, -6]),
            (0, 2): QPoly([G(0, 3), G(0), G(0, 6), G(0), G(0, -3)]),
        },
    ),
}


def _ts_xs_powers_rows():
    ts = build_ts_reduced()
    chains = {shift: ker.raising_chain(_vacuum(shift), 3) for shift in (0, 1)}
    for (n, shift), want in sorted(_TS_ON_XS_POWERS.items()):
        yield f"n={n}, q-shift={shift}", ts.apply(chains[shift][n]), want


_cases("displays.ts-xs-powers",
       "first twistor component of X_s^n on both constant spinors matches, n = 0..3",
       "kernels", 3, _ts_xs_powers_rows)


def _exclusion_rows():
    for n in range(2, 9):
        for m in range(5):
            got = ker.verify_exclusion(n, m)
            yield f"n={n}, m={m}", got, ker.exclusion_formula(n, m)
            yield f"n={n}, m={m}, coefficient vanished", got.is_zero(), False


_cases("exclusion.sweep",
       "leading exclusion coefficient equals -i^n (n+2m)(n-1)/2 for 2<=n<=8, 0<=m<=4",
       "kernels", 4, _exclusion_rows)
_cases("minus-exclusion.values",
       "q^3 zbar^(m-1) coefficient of the twisted odd element is 2m/3 for m <= 6, zero case at m = 0",
       "kernels", None,
       lambda: ((f"m={m}", ker.verify_minus_exclusion(m), Fraction(2 * m, 3)) for m in range(7)))


def _double_factorial_odd(m: int) -> int:
    out = 1
    for t in range(3, 2 * m + 2, 2):
        out *= t
    return out


def _minus_family_rows():
    ds_z = named_operator("ds", ZZ)
    for m in range(9):
        s = ker.monogenic_minus(m)
        yield f"m={m}, D_s image", ds_z.apply(s), Spinor.zero(ZZ)
        yield f"m={m}, q-degree", s.q_degree(), 2 * m + 1
        yield (f"m={m}, top coefficient", s.terms[(m, 0)].coefficient(2 * m + 1),
               Fraction(2**m, _double_factorial_odd(m)))


_cases("monogenic-minus.family",
       "odd Dirac-kernel elements: annihilated, q-degree 2m+1, top coefficient 2^m/(2m+1)!!, m <= 8",
       "kernels", 5, _minus_family_rows)

_MINUS_DISPLAYS_Z = {
    1: Spinor(ZZ, {(1, 0): QPoly([0, -1, 0, Fraction(2, 3)]), (0, 1): QPoly([0, 1])}),
    2: Spinor(
        ZZ,
        {
            (2, 0): QPoly([0, 1, 0, Fraction(-4, 3), 0, Fraction(4, 15)]),
            (1, 1): QPoly([0, -2, 0, Fraction(4, 3)]),
            (0, 2): QPoly([0, 1]),
        },
    ),
    3: Spinor(
        ZZ,
        {
            (3, 0): QPoly([0, -1, 0, 2, 0, Fraction(-4, 5), 0, Fraction(8, 105)]),
            (2, 1): QPoly([0, 3, 0, -4, 0, Fraction(4, 5)]),
            (1, 2): QPoly([0, -3, 0, 2]),
            (0, 3): QPoly([0, 1]),
        },
    ),
}

_MINUS_DISPLAYS_XY = {
    1: Spinor(
        XY,
        {
            (1, 0): QPoly([0, 0, 0, Fraction(2, 3)]),
            (0, 1): QPoly([0, G(0, -2), 0, G(0, Fraction(2, 3))]),
        },
    ),
    2: Spinor(
        XY,
        {
            (2, 0): QPoly([0, 0, 0, 0, 0, Fraction(4, 15)]),
            (1, 1): QPoly([0, 0, 0, G(0, Fraction(-8, 3)), 0, G(0, Fraction(8, 15))]),
            (0, 2): QPoly([0, -4, 0, Fraction(8, 3), 0, Fraction(-4, 15)]),
        },
    ),
    3: Spinor(
        XY,
        {
            (3, 0): QPoly([0, 0, 0, 0, 0, 0, 0, Fraction(8, 105)]),
            (2, 1): QPoly([0, 0, 0, 0, 0, G(0, Fraction(-8, 5)), 0, G(0, Fraction(8, 35))]),
            (1, 2): QPoly([0, 0, 0, -8, 0, Fraction(16, 5), 0, Fraction(-8, 35)]),
            (0, 3): QPoly([0, G(0, 8), 0, G(0, -8), 0, G(0, Fraction(8, 5)), 0, G(0, Fraction(-8, 105))]),
        },
    ),
}


def _minus_displays_rows():
    for m in (1, 2, 3):
        s = ker.monogenic_minus(m)
        yield f"m={m} (zzbar)", s, _MINUS_DISPLAYS_Z[m]
        yield f"m={m} (xy)", s.change_basis(XY), _MINUS_DISPLAYS_XY[m]


_cases("monogenic-minus.displays",
       "odd Dirac-kernel elements match their m = 1, 2, 3 displays in both bases",
       "kernels", 5, _minus_displays_rows)


def _twistor_annihilation_rows():
    ops = ((named_operator("ts", ZZ), "comp1"), (named_operator("ts2", ZZ), "comp2"),
           (build_ds_squared(), "ds2"))
    for m in range(9):
        basis = ker.twistor_kernel_basis(m)
        yield f"m={m}, element count", len(basis), 2
        for idx, el in enumerate(basis):
            for op, name in ops:
                yield f"m={m}, element {idx}, {name} image", op.apply(el), Spinor.zero(ZZ)


_cases("twistor-basis.annihilation",
       "both twistor-kernel elements are killed by both twistor components and the squared Dirac operator, m <= 8",
       "kernels", 6, _twistor_annihilation_rows)


_TWISTOR_DISPLAYS_Z = {
    1: Spinor(ZZ, {(1, 0): QPoly([-1, 0, 2]), (0, 1): QPoly([1])}),
    2: Spinor(
        ZZ,
        {
            (2, 0): QPoly([1, 0, -4, 0, Fraction(4, 3)]),
            (1, 1): QPoly([-2, 0, 4]),
            (0, 2): QPoly([1]),
        },
    ),
    3: Spinor(
        ZZ,
        {
            (3, 0): QPoly([-1, 0, 6, 0, -4, 0, Fraction(8, 15)]),
            (2, 1): QPoly([3, 0, -12, 0, 4]),
            (1, 2): QPoly([-3, 0, 6]),
            (0, 3): QPoly([1]),
        },
    ),
}


@_check(
    "twistor-basis.displays",
    "displayed even twistor solutions m = 1, 2, 3 peel to one raised odd Dirac-kernel layer",
    "kernels",
    6,
)
def _twistor_basis_displays() -> Optional[str]:
    xs_z = named_operator("xs", ZZ)
    for m, display in _TWISTOR_DISPLAYS_Z.items():
        base = ker.monogenic_minus(m - 1)
        image = xs_z.apply(base)
        scalar = ker.ratio_at_leading(display, image)
        if scalar is None or scalar.is_zero():
            return f"m={m}: no scalar relates the display to the raised element"
        if image.scale(scalar) != display:
            return f"m={m}: display is not a multiple of the raised element"
        comps = ker.howe_decompose(display)
        if len(comps) != 1 or comps[0].power != 1 or comps[0].homogeneity != m - 1:
            return f"m={m}: peeling gave {[(c.homogeneity, c.power) for c in comps]}"
        mono = comps[0].monogenic
        factor = ker.ratio_at_leading(mono, base)
        if factor.is_zero() or base.scale(factor) != mono:
            return f"m={m}: peeled layer is not proportional to the canonical element"
    return None


_RANDOM_SEED = 20260817


def _random_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-9, 9)
    den = rng.randint(1, 9)
    return Fraction(num, den)


def _random_gaussian(rng: random.Random) -> GaussianRational:
    return G(_random_fraction(rng), _random_fraction(rng))


@_check(
    "random.ds-odd-to-twistor",
    "50 random odd Dirac-relation solutions (m <= 5) land in the twistor kernel after raising",
    "kernels",
    7,
)
def _random_ds_odd_to_twistor() -> Optional[str]:
    rng = random.Random(_RANDOM_SEED)
    xs_z = named_operator("xs", ZZ)
    ts_z = named_operator("ts", ZZ)
    for trial in range(50):
        m = rng.randint(0, 5)
        qmax = 2 * m + 6
        seed = QPoly([_random_fraction(rng) if k % 2 == 0 else 0 for k in range(7)])
        family = ker.solve_recursion(ker.RecursionKind.DS_ODD, m, seed, qmax)
        if family.free_parameters:
            return f"trial {trial}: odd Dirac family reported free parameters"
        if not family.basis:
            continue  # zero seed drawn
        element = family.basis[0]
        if family.extends_beyond_truncation[0]:
            return f"trial {trial}: element unexpectedly truncated"
        if not ts_z.apply(xs_z.apply(element)).is_zero():
            return f"trial {trial} (m={m}): raised element escapes the twistor kernel"
    return None


@_check(
    "random.twistor-in-ds2",
    "50 random twistor-kernel members (m <= 5) lie in the squared-Dirac kernel",
    "kernels",
    7,
)
def _random_twistor_in_ds2() -> Optional[str]:
    rng = random.Random(_RANDOM_SEED + 1)
    ts_z = named_operator("ts", ZZ)
    ds2 = build_ds_squared()
    bases: Dict[int, ker.KernelFamily] = {}
    for trial in range(50):
        m = rng.randint(0, 5)
        if m not in bases:
            bases[m] = ker.kernel_linear_solve(ts_z, m, 2 * m + 7)
        basis = bases[m].basis
        member = ker.linear_combination([_random_gaussian(rng) for _ in basis], basis)
        if member.is_zero():
            continue
        if not ts_z.apply(member).is_zero():
            return f"trial {trial} (m={m}): sampled member is not in the twistor kernel"
        if not ds2.apply(member).is_zero():
            return f"trial {trial} (m={m}): member escapes the squared-Dirac kernel"
    return None


def _spans_equal(a: List[Spinor], b: List[Spinor]) -> bool:
    if not a and not b:
        return True
    cols, n = ker.spinor_columns(a + b)
    return (
        ker.rank(cols[: len(a)], n)
        == ker.rank(cols[len(a) :], n)
        == ker.rank(cols, n)
    )


@_check(
    "oracle.recursion-vs-linear",
    "recursion solutions and the exact linear-algebra kernel span the same space, all kinds, m <= 4",
    "kernels",
    8,
)
def _oracle_recursion_vs_linear() -> Optional[str]:
    for kind in ker.RecursionKind:
        for m in range(5):
            qmax = 2 * m + 4
            qdeg = qmax + (1 if kind.parity == ODD else 0)
            linear = ker.kernel_linear_solve(
                ker.operator_for_kind(kind), m, qdeg, parity=kind.parity
            )
            exact = ker.recursion_span(kind, m, qmax)
            if not _spans_equal(exact, list(linear.basis)):
                return f"{kind.value}, m={m}: spans differ"
    return None


def _random_homogeneous_spinor(rng: random.Random, l: int, basis: BasisTag) -> Spinor:
    terms = {}
    for e1 in range(l + 1):
        poly = QPoly([_random_gaussian(rng) for _ in range(6)])
        if not poly.is_zero():
            terms[(e1, l - e1)] = poly
    return Spinor(basis, terms)


@_check(
    "howe.roundtrip",
    "100 random homogeneous spinors (l <= 4, q-degree <= 5) peel into Dirac-kernel layers and reassemble",
    "kernels",
    10,
)
def _howe_roundtrip() -> Optional[str]:
    rng = random.Random(_RANDOM_SEED + 2)
    ops = {b: (named_operator("xs", b), named_operator("ds", b)) for b in (XY, ZZ)}
    for trial in range(100):
        l = rng.randint(0, 4)
        basis = XY if rng.random() < 0.5 else ZZ
        s = _random_homogeneous_spinor(rng, l, basis)
        if s.is_zero():
            continue
        comps = ker.howe_decompose(s)  # reconstruction is asserted inside
        xs, ds = ops[basis]
        powers = set()
        for comp in comps:
            if comp.power in powers:
                return f"trial {trial}: duplicate layer {comp.power}"
            powers.add(comp.power)
            if comp.homogeneity + comp.power != l:
                return f"trial {trial}: layer degrees do not add up"
            if not ds.apply(comp.monogenic).is_zero():
                return f"trial {trial}: layer j={comp.power} is not in the Dirac kernel"
        if ker.reassemble(comps, xs) != s:
            return f"trial {trial}: reconstruction mismatch"
    return None


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
    for n in range(13):
        want = comb_mod.a_table(n)
        yield f"n={n}, power expansion", comb_mod.a_table_from_power(n), want
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
    for n in range(1, 13):
        for m in range(1, n + 1):
            yield f"n={n}, m={m}", comb_mod.stirling(n, m), comb_mod.stirling_from_power(n, m)


_cases("stirling.match",
       "stirling recurrence equals the normal-ordered (q dq)^n expansion, n <= 12, with s(4,2) = 7",
       "combinatorics", 9, _stirling_rows)


@_check(
    "stirling-tilde.structure",
    "marked expansion of (q+dq)^n: support, binomial r=0 slice, collapse at qt=1, 4-term recursion, n <= 12",
    "combinatorics",
    9,
)
def _stirling_tilde_structure() -> Optional[str]:
    for n in range(13):
        table = comb_mod.stirling_tilde(n)
        support = {
            (i, r) for i in range(n + 1) for r in range(min(i, n - i) + 1)
        }
        if not set(table) <= support:
            return f"n={n}: entries outside the support"
        for i in range(n + 1):
            if table.get((i, 0), 0) != comb(n, i):
                return f"n={n}, i={i}: r=0 slice is not binomial"
        collapsed = comb_mod.stirling_tilde_collapse(n)
        qdq = WeylOperator.generator(XY, "q") + WeylOperator.generator(XY, "dq")
        plain = qdq**n
        want = {}
        for (a, b, c, d, e, f), coeff in plain.terms.items():
            want[(c, f)] = coeff.re.numerator
        if collapsed != want:
            return f"n={n}: collapse disagrees with the plain Weyl expansion"
        if n >= 1:
            prev = comb_mod.stirling_tilde(n - 1)
            for (i, r) in support:
                expect = (
                    prev.get((i - 1, r), 0)
                    + prev.get((i, r), 0)
                    + (i - r + 1) * prev.get((i, r - 1), 0)
                )
                if table.get((i, r), 0) != expect:
                    return f"n={n}, (i,r)=({i},{r}): recursion shape fails"
    return None


_STIRLING_TILDE_DISPLAYS = {
    2: {(0, 0): 1, (2, 0): 1, (1, 0): 2, (1, 1): 1},
    3: {(0, 0): 1, (3, 0): 1, (1, 0): 3, (2, 0): 3, (1, 1): 3, (2, 1): 3},
}

_cases("stirling-tilde.displays", "(q+dq)^2 and (q+dq)^3 marked expansions match their displays",
       "combinatorics", 9,
       lambda: ((f"n={n}", comb_mod.stirling_tilde(n), want)
                for n, want in _STIRLING_TILDE_DISPLAYS.items()))
