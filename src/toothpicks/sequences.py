"""Finite integer-sequence prefixes.

Every generator in this package (simulation, recurrence, closed form,
generating function, bundled fixture) hands back the same small value
type so the verification harness can compare them pairwise.
"""

from dataclasses import dataclass
from itertools import accumulate


@dataclass(frozen=True)
class IntSequence:
    """A finite prefix a(offset), a(offset+1), ... of an integer sequence."""

    offset: int
    terms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def last_index(self) -> int:
        return self.offset + len(self.terms) - 1

    def value(self, n: int) -> int:
        if not self.offset <= n <= self.last_index:
            raise IndexError(f"index {n} outside [{self.offset}, {self.last_index}]")
        return self.terms[n - self.offset]

    def partial_sums(self) -> "IntSequence":
        """Running totals, keeping offset and assuming zero terms below it."""
        return IntSequence(self.offset, tuple(accumulate(self.terms)))

    def truncated(self, n_max: int) -> "IntSequence":
        """Restrict to indices <= n_max."""
        keep = max(0, n_max - self.offset + 1)
        return IntSequence(self.offset, self.terms[:keep])


def first_divergence(a: IntSequence, b: IntSequence) -> tuple[int, int, int] | None:
    """First (n, a(n), b(n)) where the two prefixes disagree on their overlap.

    Returns None when they agree everywhere both are defined.
    """
    rng = overlap_range(a, b)
    if rng is None:
        return None
    lo, hi = rng
    ta = a.terms[lo - a.offset : hi - a.offset + 1]
    tb = b.terms[lo - b.offset : hi - b.offset + 1]
    if ta == tb:
        return None
    return next((n, va, vb) for n, (va, vb) in enumerate(zip(ta, tb), lo) if va != vb)


def overlap_range(a: IntSequence, b: IntSequence) -> tuple[int, int] | None:
    lo = max(a.offset, b.offset)
    hi = min(a.last_index, b.last_index)
    return (lo, hi) if lo <= hi else None
