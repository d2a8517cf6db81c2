from math import comb

import pytest

from symtwistor.combinatorics import (
    a_table,
    a_table_from_power,
    q_dq_entries,
    stirling,
    stirling_from_power,
    stirling_tilde,
    stirling_tilde_collapse,
)
from symtwistor.exactnum import G
from symtwistor.operators import build_xs
from symtwistor.weyl import BasisTag, WeylOperator


def test_a_table_base_case():
    assert a_table(0) == {(0, 0): 1}


def test_a_table_small_values():
    assert a_table(1) == {(0, 0): 1, (0, 1): 1}
    assert a_table(2) == {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 0): 1}
    t3 = a_table(3)
    assert [t3[(0, k)] for k in range(4)] == [1, 3, 3, 1]
    assert t3[(1, 0)] == 3 and t3[(1, 1)] == 3


def test_a_table_against_operator_expansion():
    for n, power in enumerate(build_xs().powers(6)):
        assert a_table(n) == a_table_from_power(power, n)


def test_a_table_rejects_negative():
    with pytest.raises(ValueError):
        a_table(-1)


def test_xs_power_expand_square():
    # (y dq + i x q)^2 = y^2 dq^2 + 2i xy q dq + i xy - x^2 q^2
    op = build_xs() ** 2
    assert op.terms[(0, 2, 0, 0, 0, 2)] == 1
    assert op.terms[(1, 1, 1, 0, 0, 1)] == G(0, 2)
    assert op.terms[(1, 1, 0, 0, 0, 0)] == G(0, 1)
    assert op.terms[(2, 0, 2, 0, 0, 0)] == -1


def test_stirling_known_row():
    assert [stirling(4, m) for m in range(1, 5)] == [1, 7, 6, 1]
    assert stirling(1, 1) == 1
    assert stirling(6, 6) == 1
    assert stirling(6, 1) == 1


def test_stirling_against_normal_order():
    qdq = WeylOperator.generator(BasisTag.XY, "q") * WeylOperator.generator(BasisTag.XY, "dq")
    for n, power in enumerate(qdq.powers(7)[1:], 1):
        for m in range(1, n + 2):
            assert stirling(n, m) == stirling_from_power(power, n, m)


@pytest.mark.parametrize("n, m", [(0, 0), (2, 0), (0, 1)])
def test_stirling_from_power_has_the_domain_of_stirling(n, m):
    qdq = WeylOperator.generator(BasisTag.XY, "q") * WeylOperator.generator(BasisTag.XY, "dq")
    with pytest.raises(ValueError):
        stirling(n, m)
    with pytest.raises(ValueError):
        stirling_from_power(qdq**n, n, m)


def test_stirling_from_power_refuses_a_power_outside_q_and_dq():
    q, dq, x = (WeylOperator.generator(BasisTag.XY, name) for name in ("q", "dq", "x"))
    with pytest.raises(AssertionError, match="is not in q and dq alone"):
        stirling_from_power(q * dq + x, 1, 1)


def test_stirling_out_of_range():
    with pytest.raises(ValueError):
        stirling(0, 1)
    with pytest.raises(ValueError):
        stirling(3, 0)
    assert stirling(3, 4) == 0  # above the diagonal the expansion has no term


def test_stirling_tilde_base_and_displays():
    assert stirling_tilde(0) == {(0, 0): 1}
    assert stirling_tilde(1) == {(0, 0): 1, (1, 0): 1}
    assert stirling_tilde(2) == {(0, 0): 1, (1, 0): 2, (2, 0): 1, (1, 1): 1}
    assert stirling_tilde(3) == {
        (0, 0): 1,
        (1, 0): 3,
        (2, 0): 3,
        (3, 0): 1,
        (1, 1): 3,
        (2, 1): 3,
    }


def test_stirling_tilde_support_and_binomial_slice():
    for n in range(9):
        table = stirling_tilde(n)
        for (i, r), value in table.items():
            assert 0 <= r <= min(i, n - i)
            assert value > 0
        for i in range(n + 1):
            assert table.get((i, 0), 0) == comb(n, i)


def test_stirling_tilde_collapse_matches_plain_expansion():
    # dropping the marker recovers the plain (q + dq)^n normal ordering,
    # keyed by (q power, dq power)
    assert stirling_tilde_collapse(stirling_tilde(0), 0) == {(0, 0): 1}
    assert stirling_tilde_collapse(stirling_tilde(3), 3) == {
        (3, 0): 1,
        (2, 1): 3,
        (1, 0): 3,
        (1, 2): 3,
        (0, 1): 3,
        (0, 3): 1,
    }
    qdq = WeylOperator.generator(BasisTag.XY, "q") + WeylOperator.generator(
        BasisTag.XY, "dq"
    )
    for n, plain in enumerate(qdq.powers(6)):
        want = {(c, f): coeff.re.numerator for (_, _, c, _, _, f), coeff in plain.terms.items()}
        assert stirling_tilde_collapse(stirling_tilde(n), n) == want == q_dq_entries(plain)
