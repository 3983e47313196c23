"""Block recurrences of the form a(2**k + i) = p*a(i) + q*a(i+1) + corrections.

Every sequence here is one row of `RULES` (or a `RecurrenceSpec`), and
one evaluator, `prefix`, computes a full prefix a(0..n) a block
[2**k + shift, 2**(k+1) + shift) at a time.  Each block body is a list
built from two slices of earlier terms; the corrections at the block's
ends are added after it.  A flat list is both the fastest and the most
inspectable representation (the triangular "bootstrap" layout of the
sequence is just this list sliced at powers of two).
"""

from dataclasses import dataclass, field
from typing import Callable

from .intutil import check_values, exact_div


@dataclass(frozen=True)
class BlockRule:
    """a(0..) = seeds, then for k >= first_k and n = 2**k + shift + i:

        a(n) = head(k)                                     if i == 0
             = p*P(i) + q*Q(i+1) + const(k) + fixes[i](k)  if 1 <= i < 2**k

    P and Q are this sequence, or the named rule that `reads` gives for
    each.  A key of `fixes` counts from the block's start when it is
    >= 0 and from its end when it is negative (-1 is the last term).
    The body reads the current block only at its head.
    """

    seeds: tuple[int, ...]
    first_k: int
    head: Callable[[int], int]
    p: int
    q: int
    reads: tuple[str | None, str | None] = (None, None)
    shift: int = 0
    const: Callable[[int], int] = lambda k: 0
    fixes: dict[int, Callable[[int], int]] = field(default_factory=dict)


def _T_head(k: int) -> int:
    return exact_div((1 << (2 * k + 1)) + 1, 3)


RULES = {
    # t: toothpicks added per stage (A139251)
    "t": BlockRule((0, 1), 1, lambda k: 1 << k, 2, 1),
    # T: total toothpicks after n stages (A139250)
    "T": BlockRule((0,), 0, _T_head, 2, 1, const=lambda k: _T_head(k) - 1),
    # c: corner-structure additions per stage (A152980)
    "c": BlockRule((0, 1, 2, 3), 2, lambda k: (1 << (k - 1)) + 1, 2, 1,
                   fixes={-1: lambda k: -1}),
    # rho: rectangles added to the corner structure (A168131)
    "rho": BlockRule((0, 0, 1, 2), 2, lambda k: (1 << (k - 1)) - 1, 2, 1,
                     fixes={-2: lambda k: 1, -1: lambda k: 2}),
    # r: rectangles added to the toothpick structure (A160125)
    "r": BlockRule((0, 0, 0, 2), 2, lambda k: (1 << k) - 2, 4, 0, reads=("rho", None),
                   fixes={-1: lambda k: 2}),
    # v1: first corner sequence of the 8-neighbor automaton (A151747);
    # the body's v1(2**k + 1) is 2*1 + 3
    "v1": BlockRule((0, 1, 3, 5), 2, lambda k: (3 * k + 1) * (1 << (k - 2)) + 1, 2, 1,
                    fixes={1: lambda k: 3 * (1 << (k - 1)) - 2, -1: lambda k: -1}),
    # v2: second corner sequence of the 8-neighbor automaton (A151728)
    "v2": BlockRule((0, 1), 1, lambda k: 3 * (1 << k) - 1, 1, 2, reads=(None, "v1"),
                    fixes={-1: lambda k: -2}),
    # v: cells turned on per stage, 8-neighbor automaton (A151726)
    "v": BlockRule((0, 1), 1, lambda k: 6 * (1 << k) - 4, 4, 0, reads=("v2", None)),
    # F: the row-limit sequence of the shifted toothpick triangle (A147646);
    # F(2**(k+1) - 1) = 2**(k+2) + 4, which is the body's 2*(2**(k+1) + 4) + 16 less 20
    "F": BlockRule((4, 8, 12, 12), 2, lambda k: 16, 2, 1,
                   fixes={-2: lambda k: -4, -1: lambda k: -20}),
    # u: the one-of-four-neighbors automaton (A147582).  The block is
    # shifted by one, u(2**k + 1 + i) = 3*u(i + 1): the shift is forced by
    # the published initial values; see tests.
    "u": BlockRule((0, 1), 0, lambda k: 4, 0, 3, shift=1),
}


def prefix(rule: BlockRule | str, n_max: int) -> list[int]:
    """a(0..n_max) for a block rule, or for the row of RULES it names."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    if isinstance(rule, str):
        rule = RULES[rule]
    a = list(rule.seeds[: n_max + 1]) + [0] * (n_max + 1 - len(rule.seeds))
    P, Q = (a if name is None else prefix(name, n_max) for name in rule.reads)
    p, q = rule.p, rule.q
    k = rule.first_k
    while (base := (1 << k) + rule.shift) <= n_max:
        size = min(1 << k, n_max - base + 1)  # terms of this block within n_max
        a[base] = rule.head(k)
        c = rule.const(k)
        a[base + 1 : base + size] = [p * x + q * y + c for x, y in zip(P[1:size], Q[2 : size + 1])]
        for at, fix in rule.fixes.items():
            i = at if at >= 0 else (1 << k) + at
            if i < size:
                a[base + i] += fix(k)
        k += 1
    return check_values(a)


@dataclass(frozen=True)
class RecurrenceSpec:
    """Parameters of the generic product recurrence.

    The series x*(alpha + beta*x) * prod_{k >= start_k}
    (1 + gamma*x**(2**k - 1) + delta*x**(2**k)) has coefficients
    a(0) = 0, a(1) = alpha and, for n = 2**k + i >= 2,

        a(n) = alpha*gamma + beta*delta**(k-1)        if i == 0
             = delta*a(i) + gamma*a(i+1)              if 1 <= i <= 2**k - 2
             = delta*a(i) + gamma*a(i+1) - alpha*gamma**2   if i == 2**k - 1.

    start_k = 0 multiplies one extra factor (1 + gamma) + delta*x into
    the start_k = 1 series.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int
    start_k: int = 1

    def __post_init__(self):
        if self.start_k not in (0, 1):
            raise ValueError("start_k must be 0 or 1")

    def prefix(self, n_max: int) -> list[int]:
        """a(0..n_max); intermediate values may be negative."""
        al, be, g, d = self.alpha, self.beta, self.gamma, self.delta
        row = BlockRule((0, al), 1, lambda k: al * g + be * d ** (k - 1), d, g,
                        fixes={-1: lambda k: -al * g**2})
        a = prefix(row, n_max)
        if self.start_k == 0:
            a = check_values([(1 + g) * a[n] + (d * a[n - 1] if n else 0) for n in range(n_max + 1)])
        return a
