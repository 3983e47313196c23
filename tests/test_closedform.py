import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toothpicks import closedform as cf
from toothpicks import recurrences as rec
from toothpicks.intutil import UINT128_MAX, exact_div
from toothpicks.verify import bindings, load_fixture

from int_oracles import binary_weight, binomial, decompose_block


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


# -- the per-index bodies the range forms replaced, kept as oracles ---------


def old_hve_a(gamma, delta, n):
    total = 0
    for m in range(n.bit_length() + 3):
        w = binary_weight(n + m)
        c = binomial(w, m)
        if c:
            total += gamma**m * delta ** (w - m) * c
    return total


def old_t_explicit(n):
    if n <= 1:
        return n
    k, i = decompose_block(n - 1)
    return 1 << (k + 1) if i == (1 << k) - 1 else 2 * old_hve_a(1, 2, i)


def old_uw_d(d, n):
    return n if n <= 1 else 2 * d * (2 * d - 1) ** (binary_weight(n - 1) - 1)


def old_ttp_tau(n):
    if n <= 2:
        return (0, 1, 3)[n]
    return exact_div(2 * (3 ** binary_weight(n - 1) + 3 ** binary_weight(n - 2)), 3) + 1


def old_maltese_m(n):
    if n <= 2:
        return (0, 1, 4)[n]
    t, r = divmod(n, 3)
    return 4 * 3 ** (binary_weight(t) - (r != 2))


def old_r942_delta(n):
    if n <= 2:
        return (0, 1, 6)[n]
    k = (n - 1).bit_length() - 1
    j = n - (1 << k)
    if j == 1 << k:
        return 4 * 3 ** (k + 1) - 3 * (1 << (k + 1))
    m = (j & -j).bit_length() - 1
    return 4 * (3 ** (m + 1) - (1 << (m + 1))) * 3 ** binary_weight((j >> m) // 2)


def old_r942_w(n):
    base = old_uw_d(2, n)
    return base + 4 * old_r942_delta((n - 1) // 4) if n >= 5 and n % 4 == 1 else base


# name -> (range form, its parameters, oracle of one index)
FORMS = {
    "uw_u": (cf.uw_u_range, (), lambda n: old_uw_d(2, n)),
    "uw_d1": (cf.uw_d_range, (1,), lambda n: old_uw_d(1, n)),
    "uw_d3": (cf.uw_d_range, (3,), lambda n: old_uw_d(3, n)),
    "uw_d4": (cf.uw_d_range, (4,), lambda n: old_uw_d(4, n)),
    "hve_1_1": (cf.hve_a_range, (1, 1), lambda n: old_hve_a(1, 1, n)),
    "hve_1_2": (cf.hve_a_range, (1, 2), lambda n: old_hve_a(1, 2, n)),
    "hve_-2_3": (cf.hve_a_range, (-2, 3), lambda n: old_hve_a(-2, 3, n)),
    "f_explicit": (cf.f_explicit_range, (), lambda n: 2 * old_hve_a(1, 2, n)),
    "t_explicit": (cf.t_explicit_range, (), old_t_explicit),
    "leftist_l": (cf.leftist_l_range, (), lambda n: 0 if n == 0 else 2 ** binary_weight((n + 1) // 2 - 1)),
    "gould": (cf.gould_range, (), lambda n: 2 ** binary_weight(n)),
    "ttp_tau": (cf.ttp_tau_range, (), old_ttp_tau),
    "maltese_m": (cf.maltese_m_range, (), old_maltese_m),
    "r942_delta": (cf.r942_delta_range, (), old_r942_delta),
    "r942_w": (cf.r942_w_range, (), old_r942_w),
    "a048883": (cf.a048883_range, (), lambda n: 3 ** binary_weight(n)),
    "hve_nonzero_terms": (
        cf.hve_nonzero_terms_range, (),
        lambda n: sum(1 for m in range(n.bit_length() + 3) if m <= binary_weight(n + m)),
    ),
}
SCALARS = {
    "uw_u": cf.uw_u, "hve_1_1": lambda n: cf.hve_a(1, 1, n), "f_explicit": cf.f_explicit,
    "t_explicit": cf.t_explicit, "leftist_l": cf.leftist_l, "gould": cf.gould,
    "ttp_tau": cf.ttp_tau, "maltese_m": cf.maltese_m, "r942_delta": cf.r942_delta,
    "r942_w": cf.r942_w, "a048883": cf.a048883, "hve_nonzero_terms": cf.hve_nonzero_terms,
}


def expected(oracle, n):
    """The oracle's value, or OverflowError when its magnitude leaves u128."""
    v = oracle(n)
    return OverflowError if abs(v) > UINT128_MAX else v


def outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowError:
        return OverflowError


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(min_value=0, max_value=1 << 12), st.integers(min_value=0, max_value=1 << 100)))
def test_one_index_matches_the_per_index_oracles(n):
    for name, (terms, params, oracle) in FORMS.items():
        want = expected(oracle, n)
        assert outcome(lambda: terms(*params, n, n + 1)[0]) == want, (name, n)
        if name in SCALARS:
            assert outcome(SCALARS[name], n) == want, (name, n)


# Ranges that straddle a power of two (the hve cutoff and t's blocks change
# there), far ranges, and empty ranges.
EDGES = (
    [(0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (0, 70), (1, 3), (2, 5), (4, 9)]
    + [((1 << k) - 3, (1 << k) + 4) for k in range(2, 13)]
    + [((1 << k) - 2, (1 << k) + 3) for k in (40, 64, 81)]
    + [(1 << 50, 1 << 50), (3 << 20, (3 << 20) + 1), (1000, 3000)]
)


@pytest.mark.parametrize("name", list(FORMS))
def test_ranges_match_the_oracles_at_block_edges(name):
    terms, params, oracle = FORMS[name]
    for lo, hi in EDGES:
        want = [expected(oracle, n) for n in range(lo, hi)]
        if OverflowError in want:
            with pytest.raises(OverflowError):
                terms(*params, lo, hi)
        else:
            assert terms(*params, lo, hi) == want, (name, lo, hi)
    with pytest.raises(ValueError):
        terms(*params, 5, 4)
    with pytest.raises(ValueError):
        terms(*params, -1, 3)


def test_weights_match_bit_count_off_zero():
    spans = [(0, 0), (0, 1), (0, 17), (1, 2), (3, 64), (5, 11), (100, 300),
             (1 << 16, (1 << 16) + 9), ((1 << 40) - 7, (1 << 40) + 7), (7, 7), (1 << 70, 1 << 70)]
    for lo, hi in spans:
        assert cf.weights(lo, hi) == [n.bit_count() for n in range(lo, hi)], (lo, hi)
    assert cf.weights(0, 1 << 17) == [n.bit_count() for n in range(1 << 17)]
    for lo, hi in ((-1, 2), (4, 3)):
        with pytest.raises(ValueError):
            cf.weights(lo, hi)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 100))
def test_hve_columns_past_the_cutoff_add_nothing(n):
    # _hve_sum sums a whole range under its last index's cutoff; that is
    # exact because wt(n + m) < m from each n's own cutoff on.
    b = n.bit_length()
    for m in range(b + 3, b + 70):
        assert (n + m).bit_count() < m, (n, m)


# Each closed form at an index where its value first passes u128.
PAST_U128 = [
    (cf.t_explicit, (1 << 127) - 1),
    (cf.t_explicit, 1 << 128),  # the block end 2**(k+1)
    (cf.f_explicit, (1 << 127) - 1),
    (lambda n: cf.hve_a(1, 2, n), (1 << 128) - 1),
    (lambda n: cf.hve_a(1, 1, n), (1 << 132) - 1 - 66),  # C(132, 66) at m = 66
    (cf.uw_u, (1 << 127) - 1),
    (lambda n: cf.uw_d(3, n), (1 << 127) - 1),
    (cf.leftist_l, (1 << 129) - 1),
    (cf.gould, (1 << 128) - 1),
    (cf.ttp_tau, (1 << 127) - 1),
    (cf.maltese_m, 3 * ((1 << 90) - 1)),
    (cf.r942_delta, (1 << 127) - 1),
    (cf.r942_w, (1 << 127) - 1),
    (cf.a048883, (1 << 127) - 1),
]


@pytest.mark.parametrize("fn, n", PAST_U128)
def test_every_closed_form_refuses_values_past_u128(fn, n):
    with pytest.raises(OverflowError):
        fn(n)


def test_values_just_inside_u128_are_returned():
    assert cf.hve_a(1, 2, (1 << 127) - 1) < 1 << 128  # F there is twice this: 129 bits
    assert cf.gould((1 << 128) - 2) == 1 << 127
    assert cf.t_explicit(1 << 127) == 1 << 127
    # 3**wt(n-2) = 3**81 passes u128, but tau itself does not
    assert cf.ttp_tau((1 << 81) + 1) == 2 * (1 + 3**80) + 1 < 1 << 128


# SHA-256 of each closed-form route's prefix at its full registry bound,
# computed with the per-index formulas before they became range forms.
ROUTE_SHA256 = {
    "toothpick_t": "ad8d0544750bb2247836b3e35aacb0e4f12b647267bceb067d22ae953db67b93",
    "leftist_l": "16a5bbeab74eccde06134c77b18ba022fa488fe870aea4f05487a2cd86629ace",
    "leftist_L": "df9f86503df311403c8d5438bf3c0a302bfcef412a0b34142166635ff39ee793",
    "uw_u": "f2c04193c3f6ed275d7b67b524b5fcd35b4c324ea3ba5314e95e56b273cfafd1",
    "uw_u_d1": "455a29e675213109ad4038ba30ac85afcfe859082dc1d1ff9f0158252d9278af",
    "uw_u_d3": "dba80a1adf5efe4111e57fc64ba6437a706f5dc086c0821bc5b9bce349cdb71d",
    "uw_u_d4": "88f8e903d9b728f81078240bb8346443b8fdaf2265faee3af9ad942b1aac57b7",
    "rule942_w": "179c1a8f005457b706a41ffdf7ff455a05174fba8e62edb9dad2022695fc7e28",
    "rule942_delta": "f846f601cec7e9ed36534b74f6669cdae6791e19499d082998fdef5562e8c4ae",
    "t_toothpick_tau": "9d8f30ed74350a3734bed715ece650f390ee0bdf65fa942da2462740f5dc14fd",
    "maltese_m": "a122f574ebf69b9be7c12af0158b77b2c9b697a6a98dc2b1a4f9bf74f1eca50b",
    "maltese_ca": "a122f574ebf69b9be7c12af0158b77b2c9b697a6a98dc2b1a4f9bf74f1eca50b",
    "f_sequence": "f143c1a08ecd170a3877c0b10c9272da8a6d8c77ca3896353780df4d486719eb",
    "a160573": "2b631c81d16170c2d3a49a8ae10c57f3bd381cc9bd28f505ed6a21b6d9f7f1e0",
    "a048883": "df56d6e769c968b62ecc18165514aebd16d86200cfbb9166479c93597fc5ad4e",
    "a130665": "092bbaa08763051d88c88ed395ce3b040f4d08f3ea7e05297a56be14f60d735d",
    "gould": "68977d498201dc4aa49a62e92862ee5bebe131a71482024d6ce640aaf3681675",
    "hve_terms": "8e47082499154c6a517c809f4b9b5738a224d7714ef71596d2dd78f340fa9e51",
}


def test_closed_form_routes_match_their_pins():
    routes = {
        name: gen for name, b in bindings().items() for gen in b.generators if gen.tag == "closedform"
    }
    assert sorted(routes) == sorted(ROUTE_SHA256)
    for name, gen in routes.items():
        full = gen.make(gen.bound)
        digest = hashlib.sha256(" ".join(map(str, full.terms)).encode()).hexdigest()
        assert digest == ROUTE_SHA256[name], name
        # prefixes that end partway through a block
        for n in (0, 1, 2, 3, 5, 7, 100):
            assert gen.make(n).terms == full.terms[: n + 1], (name, n)
