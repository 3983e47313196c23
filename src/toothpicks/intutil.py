"""Exact integer helpers and the box budget, shared by every engine.

All quantities in this package are nonnegative integers that must fit in
128 unsigned bits.  Python integers never wrap around, so the checks here
exist to turn an out-of-range result into a loud error instead of a
silently absurd sequence value: `check_range` for one value, and
`check_values` for a list (the closed forms' and the recurrences' terms),
which checks the largest magnitude once.
"""

UINT128_MAX = (1 << 128) - 1

# The largest box, in bytes, that a stepper allocates: a cell box of
# `gridca` or the occupancy box of an `engine` structure.
BOX_BUDGET = 2 << 30


def check_range(value: int) -> int:
    """Raise OverflowError if value is outside the unsigned 128-bit range.

    The message gives the bit length, not the digits: a value past
    4300 digits cannot be formatted, and that would raise ValueError."""
    if value < 0 or value > UINT128_MAX:
        raise OverflowError(f"value out of u128 range ({value.bit_length()} bits"
                            f"{', negative' if value < 0 else ''})")
    return value


def check_values(values: list[int]) -> list[int]:
    """values, once the largest magnitude among them is checked against u128."""
    check_range(max(map(abs, values), default=0))
    return values


def check_box(size: int, what: str) -> None:
    """Raise ValueError, naming `what`, if a box of `size` bytes is past BOX_BUDGET."""
    if size > BOX_BUDGET:
        raise ValueError(f"{what} need a {size / 2**30:.1f} GiB box, "
                         f"past the {BOX_BUDGET / 2**30:g} GiB budget")


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
