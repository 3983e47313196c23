"""Integer oracles that the tests check the package against: plain
Python, one value at a time, independent of the package's tables."""

import math

from toothpicks.intutil import check_range


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
