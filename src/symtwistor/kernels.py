"""Kernel families, coefficient recursions, and the Howe-type peeling.

The recursion solver works on the coefficient table a[r][k] of the
ansatz

    sum_r A^r(q) z^r zbar^(m-r),   A^r(q) = sum_{k even} a[r][k] q^k,

with an extra overall factor q for the odd-parity kinds. Each of the six
relation families is data (_relation): lead * a[r][k] = sum of w *
a[r-dr][k-dk]. One fill rule serves them all: a slot whose lead is 0 is
an input, anything else is solved bottom-up. Row 0 holds the seed A^0;
the inputs above it are reported as named free parameters instead of
guessed. A free element and its residual do not depend on the seed:
each is computed once per (operator, kind, m, qmax, slot) and cached
(_unit_fill, at most FILL_CACHE_SIZE entries). Every returned element is
verified by exact operator application; a residual supported strictly
below the truncation boundary is a solver bug and raises, on every call.

kernel_linear_solve is the independent oracle: plain exact linear
algebra over Q(i) on the coefficient space, no recursion involved.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactnum import I, ONE, ZERO, GaussianRational, _make
from .weyl import BasisTag, WeylOperator, _require_same_basis
from .spinor import EVEN, ODD, QPoly, Spinor, _from_terms, _unit_images
from .operators import _get_or_build, named_operator


class NonHomogeneousError(ValueError):
    """Input spinor mixes homogeneity degrees."""


class ParityMismatchError(ValueError):
    """Seed polynomial has exponents outside the even support of the A-series."""


class RecursionKind(Enum):
    DS_ODD = "ds/odd"
    DS_EVEN = "ds/even"
    TS_ODD = "ts/odd"
    TS_EVEN = "ts/even"
    DS2_EVEN = "ds2/even"
    DS2_ODD = "ds2/odd"

    # Members are singletons; the identity hash is a C slot, and _relation's cache
    # hashes a kind on every table slot the fill reads.
    __hash__ = object.__hash__

    @property
    def operator_name(self) -> str:
        return self.value.split("/")[0]

    @property
    def parity(self) -> str:
        return ODD if self.value.endswith("odd") else EVEN

    @property
    def second_order(self) -> bool:
        return self.operator_name == "ds2"

    @staticmethod
    def parse(text: str) -> "RecursionKind":
        for kind in RecursionKind:
            if kind.value == text:
                return kind
        raise ValueError(
            f"unknown recursion kind {text!r}; known: "
            + ", ".join(k.value for k in RecursionKind)
        )


def operator_for_kind(kind: RecursionKind) -> WeylOperator:
    """The zzbar-basis operator whose kernel the kind's relations describe."""
    return named_operator(kind.operator_name, BasisTag.ZZBAR)


class KernelFamily(NamedTuple):
    homogeneity: int
    kind: Optional[RecursionKind]
    qmax: int
    basis: Tuple[Spinor, ...]
    free_parameters: Tuple[str, ...]
    extends_beyond_truncation: Tuple[bool, ...]

    def to_json(self) -> dict:
        return {
            "homogeneity": self.homogeneity,
            "kind": self.kind.value if self.kind else None,
            "qmax": self.qmax,
            "free_parameters": list(self.free_parameters),
            "basis": [
                {"spinor": s.to_json(), "extends_beyond_truncation": flag}
                for s, flag in zip(self.basis, self.extends_beyond_truncation)
            ],
        }


# ---- the six relation families ----


@lru_cache(maxsize=1 << 16)  # bounded: one entry per (kind, m, r, k) ever filled
def _relation(kind: RecursionKind, m: int, r: int, k: int):
    """(lead, terms) with lead * a[r][k] = sum of w * a[r-dr][k-dk] over terms (dr, dk, w).

    Only terms with a nonzero weight inside the table are listed. A slot
    whose lead is 0 is an input: no relation fixes it.
    """
    if kind.second_order:
        if k == 0:
            return 0, ()
        j = k - 2
        if kind is RecursionKind.DS2_EVEN:
            K, B = (j + 2) * (j + 1), 2 * j + 1
        else:
            K, B = (j + 2) * (j + 3), 2 * j + 3
        mid = (r - 1) * (m - r + 1)
        low = (m - r + 1) * (m - r + 2)
        lead = r * (r - 1) * K
        terms = ((1, 0, -2 * K * mid), (1, 2, 2 * B * mid),
                 (2, 0, -K * low), (2, 2, 2 * B * low), (2, 4, -4 * low))
    else:
        f = {RecursionKind.DS_ODD: k + 1, RecursionKind.TS_EVEN: k - 1}.get(kind, k)
        lead = r * f
        terms = ((1, 0, -f * (m - r + 1)), (1, 2, 2 * (m - r + 1)))
    return lead, tuple(t for t in terms if t[2] and t[0] <= r and t[1] <= k)


def _inputs(kind: RecursionKind, m: int, qmax: int) -> List[Tuple[int, int]]:
    """The input slots (r, k) in fill order: row 0 is the seed, the rest are free."""
    return [(r, k) for r in range(m + 1) for k in range(0, qmax + 1, 2)
            if _relation(kind, m, r, k)[0] == 0]


def _fill(kind: RecursionKind, m: int, qmax: int, inputs) -> Spinor:
    """The spinor of the table a[r][k], filled bottom-up.

    An input slot takes its value from inputs (zero when absent); every
    other slot solves its relation. Only the nonzero slots are stored, as
    reduced (re, im, d) for (re + im*i)/d; a right-hand side is summed in
    ints and divided by lead with one gcd.
    """
    a: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    for r in range(m + 1):
        for k in range(0, qmax + 1, 2):
            lead, terms = _relation(kind, m, r, k)
            re, im, d = 0, 0, 1
            for dr, dk, w in terms:
                v = a.get((r - dr, k - dk))
                if v is not None:  # most are absent: only nonzero slots are stored
                    x, y, e = v
                    re, im, d = re * e + x * w * d, im * e + y * w * d, d * e
            if lead:
                if re or im:
                    d *= lead
                    g = gcd(re, im, d) if d > 0 else -gcd(re, im, d)
                    a[r, k] = (re // g, im // g, d // g)
            elif re or im:
                raise ArithmeticError(
                    f"inconsistent relation at r={r}, k={k} for {kind.value}"
                )
            else:
                value = inputs.get((r, k))
                if value:
                    a[r, k] = (value._a, value._b, value._d)
    shift = 1 if kind.parity == ODD else 0
    rows: Dict[Tuple[int, int], list] = {}  # key -> [(q-power, re, im, d)], powers ascending
    for (r, k), (re, im, d) in a.items():
        rows.setdefault((r, m - r), []).append((k + shift, re, im, d))
    return Spinor(BasisTag.ZZBAR, {key: _from_terms(row) for key, row in rows.items()})


FILL_CACHE_SIZE = 1 << 10  # bound on the unit fills _unit_fill holds, with their residuals


@lru_cache(maxsize=FILL_CACHE_SIZE)
def _unit_fill(op: WeylOperator, kind: RecursionKind, m: int, qmax: int, slot: Tuple[int, int]):
    """(fill with slot one, other inputs zero; op applied to it). A rebound op is a new key."""
    element = _fill(kind, m, qmax, {slot: ONE})
    return element, op.apply(element)


def _classify_residual(residual: Spinor, qmax: int) -> bool:
    """False = exact global solution, True = truncation artifact; raises on a bug."""
    if residual.is_zero():
        return False
    if residual.min_q_degree() >= qmax:
        return True
    raise ArithmeticError(
        f"recursion produced an invalid element; residual reaches q-degree "
        f"{residual.min_q_degree()} below the truncation boundary {qmax}"
    )


def _check_window(m: int, qmax: int) -> None:
    if m < 0:
        raise ValueError("homogeneity must be nonnegative")
    if qmax % 2 != 0 or qmax < 2 * m + 2:
        raise ValueError("qmax must be even and at least 2m+2")


def solve_recursion(kind: RecursionKind, m: int, seed: QPoly, qmax: int) -> KernelFamily:
    """Solve the kind's relation family for homogeneity m, A-degree <= qmax.

    The first basis element is driven by the seed (all free parameters
    zero); each further element corresponds to one free parameter set to
    one with a zero seed. The free parameters are the input slots above
    row 0: a[r][0] where the leading factor vanishes, plus the whole a[1]
    row for the second-order kinds. Free elements and their residuals are
    computed once per (operator, kind, m, qmax, slot), and classified on every call.
    """
    _check_window(m, qmax)
    if seed.parity() != EVEN:
        raise ParityMismatchError("seed must be supported on even powers of q")
    if seed.degree() is not None and seed.degree() > qmax:
        raise ValueError("seed degree exceeds qmax")

    op = operator_for_kind(kind)
    free = [slot for slot in _inputs(kind, m, qmax) if slot[0] > 0]
    seeded = _fill(kind, m, qmax, {(0, k): seed.coefficient(k) for k in range(0, qmax + 1, 2)})
    pairs = ([(seeded, op.apply(seeded))] if not seeded.is_zero() else []) + [
        _unit_fill(op, kind, m, qmax, slot) for slot in free
    ]
    return KernelFamily(
        homogeneity=m,
        kind=kind,
        qmax=qmax,
        basis=tuple(e for e, _ in pairs),
        free_parameters=tuple(f"a[r={r},k={k}]" for r, k in free),
        extends_beyond_truncation=tuple(_classify_residual(res, qmax) for _, res in pairs),
    )


def recursion_span(kind: RecursionKind, m: int, qmax: int) -> List[Spinor]:
    """Basis of the exact solutions among all tables the kind's relations allow.

    One unit fill per input slot, seed row included, as in solve_recursion; the exact
    combinations are the nullspace of the fills' residuals, each checked likewise.
    """
    _check_window(m, qmax)
    op = operator_for_kind(kind)
    elements, residuals = zip(*(_unit_fill(op, kind, m, qmax, slot)
                                for slot in _inputs(kind, m, qmax)))
    for residual in residuals:
        _classify_residual(residual, qmax)
    columns, nrows = spinor_columns(residuals)
    return [linear_combination(vec, elements) for vec in nullspace(columns, nrows)]


# ---- distinguished kernel elements ----


def monogenic_plus(m: int) -> Spinor:
    """e^{-q^2/2} z^m, in the zzbar basis."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return Spinor.monomial(BasisTag.ZZBAR, m, 0, [1])


def monogenic_minus(m: int) -> Spinor:
    """The odd Dirac-kernel element grown from seed A^0 = 1 (zzbar basis).

    The solution terminates at q-degree 2m+1, so the narrowest window,
    qmax = 2m+2, already holds all of it.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    family = solve_recursion(RecursionKind.DS_ODD, m, QPoly([1]), 2 * m + 2)
    element = family.basis[0]
    if family.free_parameters or family.extends_beyond_truncation[0]:
        raise ArithmeticError("odd Dirac family unexpectedly underdetermined")
    return element


def twistor_kernel_basis(m: int) -> List[Spinor]:
    """Basis of the homogeneity-m twistor kernel (zzbar basis).

    m = 0: e^{-q^2/2} and q e^{-q^2/2}, the m = 0 members monogenic_plus(0) and
    holomorphic_family_member(0) of two families. m >= 1: the raising-operator
    images of the two homogeneity-(m-1) Dirac-kernel representatives.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return [monogenic_plus(0), holomorphic_family_member(0)]
    xs_z = named_operator("xs", BasisTag.ZZBAR)
    return [
        xs_z.apply(monogenic_plus(m - 1)),
        xs_z.apply(monogenic_minus(m - 1)),
    ]


# ---- exclusion coefficients ----


def verify_exclusion(raised: Spinor, n: int, m: int) -> GaussianRational:
    """Exact coefficient of x^(n-1+m) q^n in the first twistor component of
    raised = X_s^n e^{-q^2/2} (x+iy)^m, entry n of any raising chain
    raising_chain(monogenic_plus(m).change_basis(BasisTag.XY), top >= n)."""
    if n < 0 or m < 0 or raised.homogeneity() != n + m:
        raise ValueError("verify_exclusion needs X_s^n of a degree-m spinor, n, m >= 0")
    out = named_operator("ts", BasisTag.XY).apply(raised)
    return out.coefficient_of(n - 1 + m, 0, n)


def exclusion_formula(n: int, m: int) -> GaussianRational:
    """-i^n (n+2m)(n-1)/2, the closed form the sweep is checked against."""
    return I ** n * _make(-(n + 2 * m) * (n - 1), 0, 2)


def verify_minus_exclusion(m: int) -> GaussianRational:
    """Coefficient of q^3 zbar^(m-1) in the first twistor component of the
    odd Dirac-kernel element; zero spinor for m = 0 (returns 0)."""
    out = named_operator("ts", BasisTag.ZZBAR).apply(monogenic_minus(m))
    if m == 0:
        if not out.is_zero():
            raise ArithmeticError("constant odd spinor unexpectedly escaped the kernel")
        return ZERO
    poly = out.terms.get((0, m - 1))
    return poly.coefficient(3) if poly is not None else ZERO


# ---- Howe-type peeling ----


class HoweComponent(NamedTuple):
    homogeneity: int  # of the monogenic part
    power: int  # raising-operator exponent
    monogenic: Spinor


def _ladder_scale() -> GaussianRational:
    """The scalar c with [D_s, X_s] = c (E+1), from the registry operators.

    Stored in the operator registry's cache, keyed like its operators, so a
    rebound registry entry is followed.
    """

    def build() -> GaussianRational:
        bracket = named_operator("ds").commutator(named_operator("xs"))
        c = bracket.terms.get((0,) * 6, ZERO)
        if bracket != (named_operator("euler") + 1).scale(c):
            raise ArithmeticError(f"[D_s, X_s] = {bracket} is not a multiple of E+1")
        return c

    return _get_or_build("ladder-scale", BasisTag.XY, build)


def ladder_constant(monogenic_homogeneity: int, j: int) -> GaussianRational:
    """Scalar with D_s X_s^j m = ladder_constant * X_s^(j-1) m for monogenic m.

    With [D_s, X_s] = c (E+1) and lambda = homogeneity + 1 the (E+1)-eigenvalue
    of m, it is c * j * (lambda + (j-1)/2) = c * j * (2*homogeneity + j + 1)/2.
    """
    return _ladder_scale() * _make(j * (2 * monogenic_homogeneity + j + 1), 0, 2)


def raising_chain(s: Spinor, n: int) -> List[Spinor]:
    """[s, X_s s, ..., X_s^n s], in the basis of s."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    chain = [s]
    if n:
        xs = named_operator("xs", s.basis)
        for _ in range(n):
            chain.append(xs.apply(chain[-1]))
    return chain


def reassemble(components: Sequence[HoweComponent], xs: WeylOperator) -> Spinor:
    """sum_j X_s^j m_j, as m_0 + X_s(m_1 + X_s(m_2 + ...)): one xs apply per power.

    A missing power counts as zero; components of equal power add.
    """
    zero = Spinor.zero(xs.basis)
    layers: Dict[int, Spinor] = {}
    for comp in components:
        layers[comp.power] = layers.get(comp.power, zero) + comp.monogenic
    top = max(layers, default=0)
    out = layers.get(top, zero)
    for power in range(top - 1, -1, -1):
        out = xs.apply(out) + layers.get(power, zero)
    return out


def howe_decompose(s: Spinor) -> List[HoweComponent]:
    """Write s = sum_j X_s^j m_j with every m_j in the Dirac kernel.

    Peels the chain s, D_s s, D_s^2 s, ... from its last nonzero (monogenic)
    entry up. One level down, each layer m at power p becomes m/c at power
    p+1, c its ladder constant, and what the Horner sum reassemble of the
    raised layers leaves of the chain entry is its power-0 layer, listed
    first. Two guards raise ArithmeticError: a chain longer than l + 1
    entries (D_s lowers the position degree by one), and a power-0 remainder
    outside the Dirac kernel. Level 0 takes its remainder from s itself, so
    reassemble(components) == s holds by construction.
    """
    if s.is_zero():
        return []
    l = s.homogeneity()
    if l is None:
        raise NonHomogeneousError("howe_decompose needs a homogeneous spinor")
    xs = named_operator("xs", s.basis)
    ds = named_operator("ds", s.basis)
    chain = [s]
    while not (image := ds.apply(chain[-1])).is_zero():
        if len(chain) > l:
            raise ArithmeticError(
                f"D_s chain of a degree-{l} spinor did not end within {l + 1} steps")
        chain.append(image)
    top = len(chain) - 1
    components = [HoweComponent(l - top, 0, chain[top])]
    for level in range(top - 1, -1, -1):
        components = [
            HoweComponent(h, p + 1, m.scale(ladder_constant(h, p + 1).inverse()))
            for h, p, m in components
        ]
        remainder = chain[level] - reassemble(components, xs)
        if not remainder.is_zero():
            if not ds.apply(remainder).is_zero():
                raise ArithmeticError("peeling left a non-monogenic remainder")
            components.insert(0, HoweComponent(l - level, 0, remainder))
    return components


# ---- independent linear-algebra oracle ----


def kernel_linear_solve(
    op: WeylOperator, m: int, qmax: int, parity: Optional[str] = None
) -> KernelFamily:
    """Exact kernel of op on homogeneity-m spinors with q-degree <= qmax.

    Plain nullspace computation over Q(i); kind is None because no
    recursion family is involved. parity optionally restricts the
    coefficient space to even or odd powers of q. The unknowns are the
    coefficients of the monomial units (position key, q^k). The units'
    images are read straight from op's apply plan as coefficient maps, with
    no per-unit apply, and _columns numbers their rows as it does for
    spinor_columns. Entry c of a nullspace vector is the coefficient at
    unit c: each basis spinor is read straight from its vector, with no
    recombination of the units.
    """
    if m < 0 or qmax < 0:
        raise ValueError("m and qmax must be nonnegative")
    if parity not in (None, EVEN, ODD):
        raise ValueError(f"parity must be None, {EVEN!r} or {ODD!r}, got {parity!r}")
    units = [
        ((e1, m - e1), k)
        for e1 in range(m + 1)
        for k in range(qmax + 1)
        if parity is None or (k % 2 == 0) == (parity == EVEN)
    ]
    basis = []
    for vec in nullspace(*_columns(_unit_images(op, units))):
        rows: Dict[Tuple[int, int], list] = {}  # key -> [(q-power, re, im, d)], powers ascending
        for (key, k), c in zip(units, vec):
            if c._a or c._b:
                rows.setdefault(key, []).append((k, c._a, c._b, c._d))
        basis.append(Spinor(op.basis, {key: _from_terms(row) for key, row in rows.items()}))
    return KernelFamily(
        homogeneity=m,
        kind=None,
        qmax=qmax,
        basis=tuple(basis),
        free_parameters=(),
        extends_beyond_truncation=tuple(False for _ in basis),
    )


def _eliminate(columns: Sequence[Sequence[GaussianRational]], nrows: int):
    """Reduced row echelon form: (rows, {pivot column: its row}).

    Rows are dicts {column: (a, b, d)} of their nonzero entries, the reduced triples of
    GaussianRational. Columns are taken in order; the pivot is the sparsest unused row
    nonzero in the column, the lowest index on a tie (Markowitz). The reduced row echelon
    form is unique, so this choice changes no pivot column and no row. The pivot row is
    normalised and subtracted from the other rows of its column in ints, reduced as in _make.
    """
    rows: List[Dict[int, Tuple[int, int, int]]] = [{} for _ in range(nrows)]
    rows_of_col = [{i for i, v in enumerate(column) if v._a or v._b} for column in columns]
    for j, (column, nonzero) in enumerate(zip(columns, rows_of_col)):
        for i in nonzero:
            rows[i][j] = (column[i]._a, column[i]._b, column[i]._d)
    pivot_of_col: Dict[int, int] = {}
    used = set()
    for col, holders in enumerate(rows_of_col):
        candidates = holders - used
        if not candidates:
            continue
        p = min(candidates, key=lambda r: (len(rows[r]), r))
        a, b, d = rows[p][col]  # dividing by (a + b*i)/d multiplies by d*(a - b*i)/(a*a + b*b)
        pivot = {}
        for j, (c, e, f) in rows[p].items():
            re, im, den = d * (c * a + e * b), d * (e * a - c * b), f * (a * a + b * b)
            g = gcd(re, im, den)
            pivot[j] = (re // g, im // g, den // g)
        rows[p] = pivot
        for r in holders - {p}:
            row = rows[r]
            fa, fb, fd = row[col]
            for j, (c, e, f) in pivot.items():  # row[j] - factor * pivot[j]
                xa, xb, xd = row.get(j, (0, 0, 1))
                d = fd * f
                re, im, d = xa * d - (fa * c - fb * e) * xd, xb * d - (fa * e + fb * c) * xd, xd * d
                if re or im:
                    g = gcd(re, im, d) if d != 1 else 1
                    row[j] = (re // g, im // g, d // g)
                    rows_of_col[j].add(r)
                else:
                    del row[j]
                    rows_of_col[j].discard(r)
        used.add(p)
        pivot_of_col[col] = p
    return rows, pivot_of_col


def nullspace(columns: Sequence[Sequence[GaussianRational]], nrows: int):
    """Basis of {c : sum_i c_i columns[i] = 0}, exact over Q(i).

    Columns are the matrix columns; returns one dense vector per non-pivot
    column, in ascending column order.
    """
    ncols = len(columns)
    rows, pivot_of_col = _eliminate(columns, nrows)
    vectors = []
    for fc in (c for c in range(ncols) if c not in pivot_of_col):
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for pc, pr in pivot_of_col.items():
            if (t := rows[pr].get(fc)) is not None:
                vec[pc] = _make(-t[0], -t[1], t[2])
        vectors.append(vec)
    return vectors


def rank(columns: Sequence[Sequence[GaussianRational]], nrows: int) -> int:
    return len(_eliminate(columns, nrows)[1])


def same_span(a: Sequence[Spinor], b: Sequence[Spinor]) -> bool:
    """Whether the bases a and b span one space: each side independent, no rank gained together."""
    cols, n = spinor_columns([*a, *b])
    return len(a) == rank(cols[: len(a)], n) == len(b) == rank(cols[len(a) :], n) == rank(cols, n)


def spinor_columns(
    spinors: Sequence[Spinor],
) -> Tuple[List[List[GaussianRational]], int]:
    """Coefficient columns of the spinors over their joint support, and the row count."""
    return _columns([{(key, k): c for key, poly in s.terms.items() for k, c in poly.nonzero_terms()}
                     for s in spinors])


def _columns(maps: Sequence[dict]) -> Tuple[List[List[GaussianRational]], int]:
    """Dense columns of the maps {(position key, q-power): nonzero value}, and the row count.

    Rows are the (position key, q-power) pairs of the maps, in order of first appearance.
    """
    rows: Dict[Tuple[Tuple[int, int], int], int] = {}
    entries = [[(rows.setdefault(cell, len(rows)), c) for cell, c in m.items()] for m in maps]
    columns = []
    for column_entries in entries:
        col = [ZERO] * len(rows)
        for row, c in column_entries:
            col[row] = c
        columns.append(col)
    return columns, len(rows)


def linear_combination(
    coeffs: Sequence[GaussianRational], spinors: Sequence[Spinor]
) -> Spinor:
    """sum_i coeffs[i] * spinors[i]; the spinors share one basis and are not empty.

    Each output polynomial is built once, over one denominator.
    """
    parts: Dict[Tuple[int, int], list] = {}
    for c, s in zip(coeffs, spinors):
        if not c.is_zero():
            _require_same_basis(spinors[0], s)
            for key, poly in s.terms.items():
                parts.setdefault(key, []).append((c, poly))
    return Spinor(spinors[0].basis, {key: QPoly.combination(ps) for key, ps in parts.items()})


# ---- scalar action ----


def scalar_multiple(a: Spinor, b: Spinor) -> Optional[GaussianRational]:
    """The exact c with a = c*b, or None if b is zero or no such c exists.

    c is read at b's first nonzero (key, q-power), keys in sorted order.
    """
    if b.is_zero():
        return None
    key = min(b.terms)
    k, lead = next(b.terms[key].nonzero_terms())
    c = a.terms.get(key, QPoly()).coefficient(k) / lead
    return c if a == b.scale(c) else None


def scalar_action(op: WeylOperator, s: Spinor) -> Optional[GaussianRational]:
    """The exact c with op(s) = c*s, or None if op does not act as a scalar."""
    if s.is_zero():
        raise ValueError("scalar action on the zero spinor is undefined")
    return scalar_multiple(op.apply(s), s)


# ---- holomorphic family ----


def holomorphic_family_member(n: int) -> Spinor:
    """q e^{-q^2/2} z^n, in the zzbar basis."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Spinor.monomial(BasisTag.ZZBAR, n, 0, [0, 1])


def holomorphic_family_check(n: int) -> bool:
    """Twistor annihilation of q e^{-q^2/2} z^n."""
    return named_operator("ts", BasisTag.ZZBAR).apply(holomorphic_family_member(n)).is_zero()
