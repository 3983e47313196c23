import pytest
from hypothesis import given
from hypothesis import strategies as st

from toothpicks.intutil import UINT128_MAX, check_values, checked_pow, exact_div

from int_oracles import binary_weight, binomial, decompose_block


def test_binary_weight_examples():
    assert binary_weight(0) == 0
    assert binary_weight(7) == 3
    assert binary_weight(12) == 2


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(5, 0) == 1


def test_decompose_block_examples():
    assert decompose_block(1) == (0, 0)
    assert decompose_block(10) == (3, 2)
    assert decompose_block(16) == (4, 0)
    with pytest.raises(ValueError):
        decompose_block(0)


@given(st.integers(min_value=0, max_value=127))
def test_weight_of_powers(k):
    assert binary_weight(1 << k) == 1
    assert binary_weight((1 << k) - 1) == k


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_pascal_identity(n, k):
    if k <= n:
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(st.integers(min_value=1, max_value=1 << 80))
def test_decompose_roundtrip(n):
    k, i = decompose_block(n)
    assert (1 << k) + i == n
    assert 0 <= i < (1 << k)


@given(st.integers(min_value=0, max_value=1 << 70), st.integers(min_value=0, max_value=30))
def test_weight_is_additive_over_disjoint_bits(n, shift):
    # Shifting left by more than the bit length keeps the two parts disjoint.
    m = n << (n.bit_length() + shift)
    assert binary_weight(m | n) == 2 * binary_weight(n) if n else True


def test_overflow_checks():
    with pytest.raises(OverflowError):
        checked_pow(3, 100)
    with pytest.raises(OverflowError):
        binomial(200, 100)
    for values in ([1 << 128], [3, -(10**5000)]):  # the second is too long to print
        with pytest.raises(OverflowError):
            check_values(values)
    assert check_values([-UINT128_MAX, UINT128_MAX]) == [-UINT128_MAX, UINT128_MAX]
    assert checked_pow(2, 127) == 1 << 127
    assert checked_pow(0, 0) == 1
    assert UINT128_MAX == (1 << 128) - 1


def test_exact_div():
    assert exact_div(12, 3) == 4
    with pytest.raises(ArithmeticError):
        exact_div(13, 3)
