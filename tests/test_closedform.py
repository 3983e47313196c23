import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toothpicks import closedform as cf
from toothpicks import recurrences as rec
from toothpicks.intutil import binary_weight
from toothpicks.verify import load_fixture


def test_uw_u_examples():
    assert cf.uw_u(4) == 12
    assert cf.uw_u(8) == 36
    assert cf.uw_u(1) == 1
    assert [cf.uw_u(n) for n in range(50)] == list(load_fixture("A147582").terms)


def test_uw_d_examples():
    assert cf.uw_d(2, 8) == 36
    assert cf.uw_d(1, 5) == 2
    assert cf.uw_d(3, 2) == 6
    with pytest.raises(ValueError):
        cf.uw_d(0, 3)


def test_t_explicit_examples():
    assert cf.t_explicit(6) == 8
    assert cf.t_explicit(8) == 8  # block-end case
    assert cf.t_explicit(14) == 28
    assert [cf.t_explicit(n) for n in range(50)] == list(load_fixture("A139251").terms)


def test_f_explicit_examples():
    assert cf.f_explicit(0) == 4
    assert cf.f_explicit(5) == 28
    assert cf.f_explicit(2) == 12


def test_hve_examples():
    assert cf.hve_a(1, 1, 0) == 2
    assert cf.hve_a(1, 1, 5) == 6
    assert [cf.hve_a(1, 1, n) for n in range(11)] == list(load_fixture("A160573").terms)
    assert all(2 * cf.hve_a(1, 2, i) == cf.f_explicit(i) for i in range(65))


def test_leftist_and_gould():
    assert cf.leftist_l(7) == 4
    assert cf.leftist_l(15) == 8
    assert cf.leftist_l(1) == 1
    assert [cf.leftist_l(n) for n in range(16)] == list(load_fixture("A151565").terms)
    assert cf.gould(0) == 1
    assert cf.gould(4) == 2
    assert cf.gould(7) == 8


def test_ttp_tau():
    assert cf.ttp_tau(2) == 3
    assert cf.ttp_tau(3) == 5
    assert cf.ttp_tau(4) == 9


def test_maltese_m():
    assert cf.maltese_m(5) == 12
    assert cf.maltese_m(6) == 4
    assert cf.maltese_m(2) == 4
    assert cf.maltese_m(0) == 0


def test_rule942():
    assert cf.r942_delta(4) == 24
    assert cf.r942_delta(13) == 12
    assert cf.r942_w(9) == 28
    assert [cf.r942_w(n) for n in range(16)] == list(load_fixture("table7_w").terms)
    assert [cf.r942_delta(n) for n in range(16)] == list(load_fixture("table7_delta").terms)


def test_rule942_excess_structure():
    # w - u is a multiple of 4 and vanishes except at n = 1 (mod 4), n >= 5
    for n in range(1025):
        excess = cf.r942_w(n) - cf.uw_u(n)
        assert excess >= 0 and excess % 4 == 0
        if n % 4 != 1 or n < 5:
            assert excess == 0


def test_closed_forms_match_recurrences_far_out():
    n_max = 1 << 20
    u = rec.prefix("u", n_max)
    weights = [0] + [binary_weight(n) for n in range(n_max)]  # wt(n-1)
    assert u[:2] == [0, 1]
    assert all(u[n] == 4 * 3 ** (weights[n] - 1) for n in range(2, n_max + 1))
    t = rec.prefix("t", 1 << 16)
    assert all(cf.t_explicit(n) == t[n] for n in range(1 << 16))
    F = rec.prefix("F", 1 << 16)
    assert all(cf.f_explicit(n) == F[n] for n in range(1 << 16))


def test_hve_sum_truncation_matches_longer_cutoff():
    # The m <= bit_length(n) + 2 cutoff loses nothing: compare with a
    # much longer explicit sum.
    from toothpicks.intutil import binomial

    for n in range(1 << 12):
        w_long = sum(
            2 ** (binary_weight(n + m) - m) * binomial(binary_weight(n + m), m)
            for m in range(n.bit_length() + 64)
            if binomial(binary_weight(n + m), m)
        )
        assert cf.hve_a(1, 2, n) == w_long


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=1 << 60))
def test_gould_and_weights(n):
    assert cf.gould(n) == 1 << binary_weight(n)
    assert cf.a048883(n) == 3 ** binary_weight(n)


@given(st.integers(min_value=3, max_value=1 << 40))
def test_tau_is_integral(n):
    # the 2/3 factor always clears: 3 divides 3**wt(n-1) + 3**wt(n-2)
    v = cf.ttp_tau(n)
    assert v >= 3 and (3 * (v - 1)) % 2 == 0
