import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toothpicks import closedform as cf
from toothpicks import recurrences as rec
from toothpicks import series
from toothpicks.series import PowerSeries
from toothpicks.verify import load_fixture

from int_oracles import binary_weight

small_int = st.integers(min_value=-3, max_value=3)


def test_product_examples():
    assert series.product_expand(1, 2, 1, 11).coeffs == list(load_fixture("A151550").terms)
    assert series.product_expand(1, 1, 0, 11).coeffs == list(load_fixture("A160573").terms)
    assert series.product_expand(0, 0, 1, 5).coeffs == [1, 0, 0, 0, 0]


def test_basic_ring_ops():
    one = PowerSeries.one(6)
    assert one.divide_one_minus_x().coeffs == [1] * 6
    s = PowerSeries([1, 2, 3, 0])
    assert s.shift(2).coeffs == [0, 0, 1, 2]
    assert s.scale(-2).coeffs == [-2, -4, -6, 0]
    assert s.add(one).coeffs == [2, 2, 3, 0]
    # dividing by (1 + 2x) inverts multiplying by it
    assert s.mul_sparse({0: 1, 1: 2}).divide_linear(2).coeffs == s.coeffs
    with pytest.raises(ArithmeticError):
        PowerSeries([1, 1]).exact_div_scalar(2)
    with pytest.raises(ValueError):
        PowerSeries([])
    with pytest.raises(ValueError):
        PowerSeries.one(0)


def test_toothpick_series():
    assert series.toothpick_gf(10).coeffs == [0, 1, 2, 4, 4, 4, 8, 12, 8, 4]
    assert series.toothpick_total_gf(17)[16] == 171
    order = 8192
    assert series.toothpick_gf(order).coeffs == rec.prefix("t", order - 1)
    assert series.toothpick_total_gf(order).coeffs == rec.prefix("T", order - 1)


def test_corner_series():
    order = 8192
    assert series.corner_gf(order).coeffs == rec.prefix("c", order - 1)


def test_uw_series():
    g = series.uw_gf(17)
    assert g[4] == 12
    assert g[0] == 0
    assert g[16] == 108
    assert series.uw_gf(4096).coeffs == rec.prefix("u", 4095)


def test_two_displayed_toothpick_inner_forms_agree():
    # 1 + 4x(1+x) * prod_{k>=1} equals 1 + 2x * prod_{k>=0}
    order = 8192
    a = series.product_expand(1, 2, 1, order).mul_sparse({1: 4, 2: 4})
    b = series.product_expand(1, 2, 0, order).mul_sparse({1: 2})
    assert a.coeffs == b.coeffs


def test_weight_product_coefficients():
    for delta in (1, 2, 3):
        p = series.geometric_weight_product(delta, 4096)
        assert all(p[n] == delta ** binary_weight(n) for n in range(4096))


def test_ones_twos_convolution_gives_corner_totals():
    # A151550 convolved with 1, 2, 2, 2, ... gives the corner totals C(n+1)
    order = 4096
    a = series.a151550_gf(order)
    conv = a.add(a.shift(1).scale(2).divide_one_minus_x())
    C = list(accumulate(rec.prefix("c", order)))
    assert all(conv[n] == C[n + 1] for n in range(order - 1))


def test_theorem4_fifty_random_specs():
    rng = random.Random(0x5EED)
    order = 4096
    for _ in range(50):
        a, b, g, d = (rng.randint(-3, 3) for _ in range(4))
        got = series.theorem4_series(a, b, g, d, 1, order).coeffs
        want = rec.RecurrenceSpec(a, b, g, d).prefix(order - 1)
        assert got == want, (a, b, g, d)


@settings(max_examples=30, deadline=None)
@given(small_int, small_int, small_int, small_int)
def test_theorem4_property(alpha, beta, gamma, delta):
    order = 512
    got = series.theorem4_series(alpha, beta, gamma, delta, 1, order).coeffs
    want = rec.RecurrenceSpec(alpha, beta, gamma, delta).prefix(order - 1)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(small_int, small_int, small_int, small_int)
def test_theorem4_start_zero(alpha, beta, gamma, delta):
    order = 512
    got = series.theorem4_series(alpha, beta, gamma, delta, 0, order).coeffs
    want = rec.RecurrenceSpec(alpha, beta, gamma, delta, start_k=0).prefix(order - 1)
    assert got == want


@settings(max_examples=25, deadline=None)
@given(small_int, small_int)
def test_product_coefficients_match_weight_sum(gamma, delta):
    p = series.product_expand(gamma, delta, 0, 300)
    assert all(p[n] == cf.hve_a(gamma, delta, n) for n in range(300))
