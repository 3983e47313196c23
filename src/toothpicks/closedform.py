"""Binary-weight closed forms, each evaluated over an index range at once.

Each sequence here is one explicit formula in wt(n) = popcount(n),
written as `<name>_range(..., lo, hi)`, which returns a(lo), ...,
a(hi - 1).  A range reads its weights as `int.bit_count` per index
(`weights`), and its powers and hve coefficients from small tables keyed
by the weights that occur; each table entry, or each term built from
several, is checked against u128 once.  Each hve range sums its columns
under the cutoff of its last index.  The scalar `<name>(n)` is the same
code on [n, n + 1).  The verify harness holds these fast generators
against the engines and recurrences term by term.
"""

from functools import partial
from math import comb
from operator import add

from .intutil import check_range, check_values, checked_pow


def _check_span(lo: int, hi: int) -> None:
    if not 0 <= lo <= hi:
        raise ValueError(f"index range must have 0 <= lo <= hi, got [{lo}, {hi})")


def weights(lo: int, hi: int) -> list[int]:
    """wt(n) for lo <= n < hi."""
    _check_span(lo, hi)
    return [n.bit_count() for n in range(lo, hi)]


def _lookup(f, keys: list) -> list[int]:
    """[f(k) for k in keys], with f evaluated and range-checked once per distinct key."""
    table = {k: check_range(f(k)) for k in set(keys)}
    return list(map(table.__getitem__, keys))


def _split(seeds: tuple[int, ...], lo: int, hi: int) -> tuple[list[int], int, int]:
    """Split [lo, hi) at len(seeds): the seeds it reads, and the part [a, b)
    that the formula covers (empty when the range ends among the seeds)."""
    _check_span(lo, hi)
    a = max(lo, len(seeds))
    return list(seeds[lo:hi]), a, max(hi, a)


def _one(terms):
    """The scalar form of a range formula: the one-index range [n, n + 1)."""

    def scalar(*params_and_n: int) -> int:
        *params, n = params_and_n
        return terms(*params, n, n + 1)[0]

    scalar.__name__ = scalar.__qualname__ = terms.__name__.removesuffix("_range")
    scalar.__doc__ = terms.__doc__
    return scalar


def uw_d_range(d: int, lo: int, hi: int) -> list[int]:
    """Per-stage counts for the d-dimensional one-of-2d-neighbors automaton.

    u_d(n) = 2d * (2d - 1)**(wt(n-1) - 1) for n >= 2, and u_d(n) = n below.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    head, a, b = _split((0, 1), lo, hi)
    return head + _lookup(lambda w: 2 * d * checked_pow(2 * d - 1, w - 1), weights(a - 1, b - 1))


def uw_u_range(lo: int, hi: int) -> list[int]:
    """Cells turned on at stage n of the one-of-four-neighbors automaton.

    u(n) = 4 * 3**(wt(n-1) - 1) for n >= 2: the d = 2 member of `uw_d`.
    (The exponent is pinned by u(2) = 4; see the cross-checks against the
    recurrence and the grid engine.)
    """
    return uw_d_range(2, lo, hi)


def _hve_sum(lo: int, hi: int, coef) -> list[int]:
    """sum(coef(m, wt(n + m)) for m < (hi - 1).bit_length() + 3) for lo <= n < hi,
    with coef(m, w) read as 0 for w < m: one column per m, from a table of
    coef(m, .) over the weights it reads, up to the largest weight + 1.

    The last index's cutoff is exact for every n, as wt(n + m) < m for
    m >= b + 3, b = n.bit_length(): if m <= 2**b, wt(n + m) <= b + 1 < m;
    else n + m < 2m, so wt(n + m) <= log2(m) + 2 < m for m >= 5 (and
    m = 3, 4 occur only for n <= 1, where they hold).
    """
    _check_span(lo, hi)
    size = hi - lo
    cut = (hi - 1).bit_length() + 3
    wt = weights(lo, hi + cut - 1)  # wt(n + m) for every n and m read
    total = [0] * size
    for m in range(min(cut, max(wt) + 1)):
        reads = wt[m : m + size]
        col = {w: coef(m, w) if w >= m else 0 for w in set(reads)}
        total = list(map(add, total, map(col.__getitem__, reads)))
    return total


def hve_a_range(gamma: int, delta: int, lo: int, hi: int) -> list[int]:
    """Coefficient of x**n in prod_{k>=0} (1 + gamma*x**(2**k - 1) + delta*x**(2**k)).

    a(n) = sum_m gamma**m * delta**(wt(n+m) - m) * C(wt(n+m), m); the
    binomial vanishes for m > wt(n+m), so the exponent of delta is never
    negative on a contributing term.  Terms vanish for all
    m > bit_length(n) + 2 (validated against a longer cutoff in tests).
    Negative gamma or delta give signed values; their magnitude is checked.
    """
    return check_values(_hve_sum(lo, hi, lambda m, w: gamma**m * delta ** (w - m) * comb(w, m)))


def f_explicit_range(lo: int, hi: int) -> list[int]:
    """F(i) = 2 * sum_m 2**(wt(i+m) - m) * C(wt(i+m), m) (A147646)."""
    return check_values([2 * x for x in hve_a_range(1, 2, lo, hi)])


def t_explicit_range(lo: int, hi: int) -> list[int]:
    """Toothpicks added at stage n, by explicit formula (A139251).

    For n >= 2 write n = 2**k + 1 + i with 0 <= i <= 2**k - 1; the count
    is F(i) except at the block end i = 2**k - 1, where it is 2**(k+1).
    Every block after the first starts at i = 0, so those blocks read one
    shared prefix of F; a first block that starts further in reads its own
    stretch of F.
    """
    head, a, b = _split((0, 1), lo, hi)
    blocks = []  # (k, first i, end i) per block [2**k + 1, 2**(k+1) + 1) met
    n = a
    while n < b:
        k = (n - 1).bit_length() - 1
        end = min(b, (2 << k) + 1)
        blocks.append((k, n - 1 - (1 << k), end - 1 - (1 << k)))
        n = end
    F = f_explicit_range(0, max((min(i1, (1 << k) - 1) for k, i0, i1 in blocks if not i0), default=0))
    out = head
    for k, i0, i1 in blocks:
        e = min(i1, (1 << k) - 1)  # F's part ends before the block end
        out += f_explicit_range(i0, e) if i0 else F[:e]
        if i1 == 1 << k:
            out.append(2 << k)
    return check_values(out)


def leftist_l_range(lo: int, hi: int) -> list[int]:
    """Leftist toothpicks added at stage n: l(2m-1) = l(2m) = 2**wt(m-1) (A151565)."""
    head, a, b = _split((0,), lo, hi)
    ws = weights((a - 1) >> 1, b >> 1)  # wt(m - 1) for each pair 2m - 1, 2m
    start = (a - 1) & 1
    es = [w for w in ws for _ in (0, 1)][start : start + b - a]
    return head + _lookup(partial(checked_pow, 2), es)


def gould_range(lo: int, hi: int) -> list[int]:
    """Gould's sequence 2**wt(n): odd entries in row n of Pascal's triangle (A001316)."""
    return _lookup(partial(checked_pow, 2), weights(lo, hi))


def ttp_tau_range(lo: int, hi: int) -> list[int]:
    """T-toothpicks added at stage n (A160173).

    tau(n) = (2/3) * (3**wt(n-1) + 3**wt(n-2)) + 1 for n >= 3.  Both
    weights are at least 1 there, so the division is exact:
    tau(n) = 2 * (3**(wt(n-1) - 1) + 3**(wt(n-2) - 1)) + 1.
    """
    head, a, b = _split((0, 1, 3), lo, hi)
    p = _lookup(lambda w: checked_pow(3, w - 1), weights(a - 2, b - 1))
    return head + check_values([2 * (x + y) + 1 for x, y in zip(p[1:], p)])


def maltese_m_range(lo: int, hi: int) -> list[int]:
    """Cells labeled n in the Maltese-cross structure (A151906).

    m(3t) = m(3t+1) = 4 * 3**(wt(t)-1) and m(3t+2) = 4 * 3**wt(t) for
    t >= 1, with m(0..2) = 0, 1, 4.
    """
    head, a, b = _split((0, 1, 4), lo, hi)
    ws = weights(a // 3, (b - 1) // 3 + 1)  # wt(t) for each triple 3t, 3t+1, 3t+2
    es = [e for w in ws for e in (w - 1, w - 1, w)][a % 3 : a % 3 + b - a]
    return head + _lookup(lambda e: 4 * checked_pow(3, e), es)


def _r942_delta_at(key: tuple[int, int]) -> int:
    m, w = key
    if w == 1:
        return 4 * checked_pow(3, m) - 3 * (1 << m)
    return 4 * (checked_pow(3, m + 1) - (2 << m)) * checked_pow(3, w - 2)


def r942_delta_range(lo: int, hi: int) -> list[int]:
    """The quarter-excess sequence of the one-or-four-neighbors automaton.

    For n >= 3 write n = 2**k + j with 1 <= j <= 2**k and j = 2**m * (2l+1):
    delta(n) = 4 * (3**(m+1) - 2**(m+1)) * 3**wt(l), except that j = 2**k
    gives 4*3**(k+1) - 3*2**(k+1).  So delta(n) depends only on m = v2(n)
    and w = wt(n): wt(l) = w - 2, and j = 2**k is n = 2**(k+1), the one n
    of its block with w = 1 (there m = k + 1).
    """
    head, a, b = _split((0, 1, 6), lo, hi)
    keys = list(zip([((n & -n).bit_length() - 1) for n in range(a, b)], weights(a, b)))
    return head + _lookup(_r942_delta_at, keys)


def r942_w_range(lo: int, hi: int) -> list[int]:
    """Cells turned on at stage n under the one-or-four-neighbors rule.

    w(n) = u(n) except at n = 4m + 1 >= 5, where w(n) = u(n) + 4*delta(m).
    """
    out = uw_u_range(lo, hi)
    s = max(lo, 5)
    s += (1 - s) % 4  # the first n = 4m + 1 >= 5 in the range
    m0 = (s - 1) // 4
    deltas = r942_delta_range(m0, m0 + len(range(s, hi, 4)))
    out[s - lo :: 4] = check_values([u + 4 * x for u, x in zip(out[s - lo :: 4], deltas)])
    return out


def a048883_range(lo: int, hi: int) -> list[int]:
    """3**wt(n): the corner-growth weights of the one-of-four automaton (A048883)."""
    return _lookup(partial(checked_pow, 3), weights(lo, hi))


def hve_nonzero_terms_range(lo: int, hi: int) -> list[int]:
    """Number of contributing terms in the hve_a sum at index n (A100661)."""
    return _hve_sum(lo, hi, lambda m, w: 1)


uw_d = _one(uw_d_range)
uw_u = _one(uw_u_range)
hve_a = _one(hve_a_range)
f_explicit = _one(f_explicit_range)
t_explicit = _one(t_explicit_range)
leftist_l = _one(leftist_l_range)
gould = _one(gould_range)
ttp_tau = _one(ttp_tau_range)
maltese_m = _one(maltese_m_range)
r942_delta = _one(r942_delta_range)
r942_w = _one(r942_w_range)
a048883 = _one(a048883_range)
hve_nonzero_terms = _one(hve_nonzero_terms_range)
