"""Integer coefficient tables behind the operator-power expansions.

Three families:
  * A[n][j,k] - coefficients of the normal-ordered powers of the raising
    operator, via the recurrence
    A^n_{jk} = A^{n-1}_{jk} + A^{n-1}_{j,k-1} + (k+1) A^{n-1}_{j-1,k+1}.
  * stirling(n, m) - coefficients of (q dq)^n = sum_m s(n,m) q^m dq^m.
  * stirling_tilde(n) - coefficients of (q + dq)^n in the three-generator
    algebra where [dq, q] = qt is central, computed by direct expansion.

The *_from_power oracles and q_dq_entries read an operator power that the
caller builds, so a sweep over n walks one WeylOperator.powers sequence.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .exactnum import GaussianRational, I
from .weyl import WeylOperator, _contractions

TableKey = Tuple[int, int]


def a_table(n: int) -> Dict[TableKey, int]:
    """Entries A^n_{jk} on the support 0 <= j <= n//2, 0 <= k <= n-2j."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    table = {(0, 0): 1}
    for step in range(1, n + 1):
        prev = table
        table = {}
        for j in range(step // 2 + 1):
            for k in range(step - 2 * j + 1):
                value = (
                    prev.get((j, k), 0)
                    + prev.get((j, k - 1), 0)
                    + (k + 1) * prev.get((j - 1, k + 1), 0)
                )
                if value:
                    table[(j, k)] = value
    return table


def a_table_from_power(power: WeylOperator, n: int) -> Dict[TableKey, int]:
    """Read A^n_{jk} back out of power, the normal-ordered X_s^n (entry n of X_s.powers).

    Term shape: A^n_{jk} * y^(n-j-k) * (i x)^(j+k) * q^k * dq^(n-2j-k),
    so the monomial (a, b, c, 0, 0, f) yields j = a - c, k = c and the
    table value coeff / i^a.
    """
    out: Dict[TableKey, int] = {}
    for (a, b, c, d, e, f), coeff in power.terms.items():
        if d or e:
            raise AssertionError("unexpected x/y derivative in a raising-operator power")
        j, k = a - c, c
        if b != n - j - k or f != n - 2 * j - k or j < 0:
            raise AssertionError(f"monomial {(a, b, c, d, e, f)} outside the expected shape")
        out[(j, k)] = _integer(coeff * I ** ((4 - a % 4) % 4), (j, k))  # divide by i^a
    return out


def stirling(n: int, m: int) -> int:
    """s(n, m) with (q dq)^n = sum_m s(n, m) q^m dq^m."""
    if n < 1 or m < 1:
        raise ValueError("stirling(n, m) needs n >= 1, m >= 1")
    if m > n:
        return 0
    row = {1: 1}  # n = 1
    for step in range(2, n + 1):
        row = {
            mm: mm * row.get(mm, 0) + row.get(mm - 1, 0)
            for mm in range(1, step + 1)
        }
    return row.get(m, 0)


def stirling_from_power(power: WeylOperator, n: int, m: int) -> int:
    """Oracle: entry (m, m) of q_dq_entries(power), power the normal-ordered (q dq)^n; n, m >= 1."""
    if n < 1 or m < 1:
        raise ValueError("stirling_from_power(power, n, m) needs n >= 1, m >= 1")
    return q_dq_entries(power).get((m, m), 0)


def q_dq_entries(power: WeylOperator) -> Dict[TableKey, int]:
    """{(q exponent, dq exponent): entry} of an operator in q and dq alone, integer entries."""
    out: Dict[TableKey, int] = {}
    for (a, b, c, d, e, f), coeff in power.terms.items():
        if a or b or d or e:
            raise AssertionError(f"monomial {(a, b, c, d, e, f)} is not in q and dq alone")
        out[(c, f)] = _integer(coeff, (c, f))
    return out


def _integer(value: GaussianRational, key) -> int:
    if value._b or value._d != 1:  # the reduced triple (a + b*i)/d
        raise AssertionError(f"non-integer table entry {value} at {key}")
    return value._a


# ---- (q + dq)^n with a central commutator marker ----


def _qt_mul(t1: Tuple[int, int, int], t2: Tuple[int, int, int]) -> Dict[Tuple[int, int, int], int]:
    """Product of q^a1 dq^d1 qt^r1 times q^a2 dq^d2 qt^r2, normal-ordered.

    Moving dq^d1 past q^a2 emits one central qt per contraction, with the
    weights of the Weyl normal ordering (weyl._contractions):
    dq^d q^a = sum_j C(d,j) C(a,j) j! q^(a-j) dq^(d-j) qt^j.
    """
    a1, d1, r1 = t1
    a2, d2, r2 = t2
    return {(a1 + a2 - j, d1 + d2 - j, r1 + r2 + j): w for j, w in _contractions(d1, a2)}


def stirling_tilde(n: int) -> Dict[TableKey, int]:
    """Entries st(n, i, r), where (q + dq)^n = sum st(n,i,r) q^(i-r) dq^(n-i-r) qt^r.

    Support: 0 <= i <= n, 0 <= r <= min(i, n - i). Setting qt = 1
    recovers the ordinary normal-ordered expansion of (q + dq)^n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms: Dict[Tuple[int, int, int], int] = {(0, 0, 0): 1}
    for _ in range(n):
        nxt: Dict[Tuple[int, int, int], int] = {}
        for gen in ((1, 0, 0), (0, 1, 0)):
            for mono, c in terms.items():
                for prod, w in _qt_mul(gen, mono).items():
                    nxt[prod] = nxt.get(prod, 0) + c * w
        terms = {m: c for m, c in nxt.items() if c}
    out: Dict[TableKey, int] = {}
    for (a, d, r), c in terms.items():
        i = a + r
        if d != n - i - r:
            raise AssertionError(f"monomial {(a, d, r)} outside the expected shape")
        out[(i, r)] = c
    return out


def stirling_tilde_collapse(table: Dict[TableKey, int], n: int) -> Dict[TableKey, int]:
    """Evaluate qt -> 1 in table = stirling_tilde(n): entries (i_q, i_dq) of the plain
    Weyl expansion of (q+dq)^n."""
    out: Dict[TableKey, int] = {}
    for (i, r), c in table.items():
        key = (i - r, n - i - r)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}
