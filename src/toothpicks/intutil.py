"""Exact integer helpers shared by every engine.

All quantities in this package are nonnegative integers that must fit in
128 unsigned bits.  Python integers never wrap around, so the checks here
exist to turn an out-of-range result into a loud error instead of a
silently absurd sequence value.
"""

import math

UINT128_MAX = (1 << 128) - 1


def check_range(value: int) -> int:
    """Raise OverflowError if value is outside the unsigned 128-bit range."""
    if value < 0 or value > UINT128_MAX:
        raise OverflowError(f"value out of u128 range: {value}")
    return value


def binary_weight(n: int) -> int:
    """Number of 1 bits in the binary expansion of n (A000120)."""
    if n < 0:
        raise ValueError("binary_weight requires n >= 0")
    return n.bit_count()


def binomial(n: int, k: int) -> int:
    """n choose k, with the convention that k > n gives 0."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    if k > n:
        return 0
    return check_range(math.comb(n, k))


def decompose_block(n: int) -> tuple[int, int]:
    """Write n = 2**k + i with 0 <= i < 2**k and return (k, i).

    n = 0 has no such decomposition and is rejected.
    """
    if n < 1:
        raise ValueError("decompose_block requires n >= 1")
    k = n.bit_length() - 1
    return k, n - (1 << k)


def checked_pow(base: int, exp: int) -> int:
    """base**exp with a range check (exp >= 0)."""
    if exp < 0:
        raise ValueError("checked_pow requires exp >= 0")
    # Cheap pre-check so absurd exponents fail fast instead of allocating
    # a huge integer first.
    if base > 1 and exp * (base.bit_length() - 1) > 140:
        raise OverflowError(f"{base}**{exp} exceeds u128 range")
    return check_range(base**exp)


def exact_div(a: int, b: int) -> int:
    """Exact integer division; a remainder is a hard error, not a rounding."""
    q, r = divmod(a, b)
    if r != 0:
        raise ArithmeticError(f"inexact division: {a} / {b}")
    return q
