"""Cell automata on Z^d: one-of-2d (von Neumann), eight-neighbor Moore
variants, the one-or-four rule, the directed-graph encoding of the
toothpick structure, and the three-state Maltese-cross automaton.

Once ON or DEAD a cell never changes.  Every rule, the Maltese cross
included, is a row of data for one numpy frontier stepper, which
examines only the unset neighbors of the previous stage's cells.  `run`
folds the symmetric rules (von Neumann, Moore, one-or-four) to one cell
per orbit and counts orbit sizes; the rest, and `CellGrid`, step flat
keys in a dense box: a neighbor is a key plus a shift, and only a
stage's candidates get coordinates.  A `CellGrid` keeps each stage's
new cells as arrays, read through `cells()`.
"""

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .intutil import check_box
from .sequences import IntSequence

ON = "ON"
DEAD = "DEAD"

RULE_NAMES = (
    "uw_von_neumann",
    "moore8",
    "moore8_corner1",
    "moore8_corner2",
    "rule942",
    "toothpick_digraph",
    "maltese",
)


@dataclass(frozen=True)
class RuleId:
    name: str
    dimension: int = 2

    def __post_init__(self):
        if self.name not in RULE_NAMES:
            raise ValueError(f"unknown rule: {self.name!r}")
        if self.dimension not in ((1, 2, 3, 4) if self.name == "uw_von_neumann" else (2,)):
            raise ValueError(f"{self.name} is not defined in dimension {self.dimension}")


def uw_von_neumann(d: int = 2) -> RuleId:
    return RuleId("uw_von_neumann", d)


MOORE8 = RuleId("moore8")
MOORE8_CORNER1 = RuleId("moore8_corner1")
MOORE8_CORNER2 = RuleId("moore8_corner2")
RULE942 = RuleId("rule942")
TOOTHPICK_DIGRAPH = RuleId("toothpick_digraph")
MALTESE = RuleId("maltese")


def _vn_dirs(d: int):
    return tuple(tuple(s * (i == axis) for i in range(d)) for axis in range(d) for s in (1, -1))


MOORE_DIRS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0))


def _digraph_eligible(codes, cells, stage):
    # Even cells (x+y even) stand for vertical toothpicks and are fed by
    # their horizontal neighbors; odd cells by their vertical neighbors.
    # With the von Neumann offsets, columns 0-1 are the horizontal
    # neighbors and 2-3 the vertical ones.
    even = (cells[:, 0] + cells[:, 1]) % 2 == 0
    return np.where(even, codes[:, 0] + codes[:, 1], codes[:, 2] + codes[:, 3]) == 1


def _corner_blocked(cells):
    # Third-quarter cells are (i, j) with i <= -1, j <= 0; a cell is also
    # barred when 8-adjacent to that quadrant, which works out to
    # x <= 0 and y <= 1.  The stage-1 seed is exempt.
    return (cells[:, 0] <= 0) & (cells[:, 1] <= 1)


# A cell's two outer corners, away from an ON neighbor at each von
# Neumann offset (E, W, N, S), relative to its lower-left corner: cell
# (i, j) is the unit square with corners (i, j)..(i + 1, j + 1).
_OUTER = np.array([((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 1))])


def _maltese_eligible(codes, cells, stage):
    # One ON neighbor, no outer corner shared with another such cell, and
    # no DEAD neighbor, except in stages n = 2 (mod 3), where a DEAD
    # neighbor does not doom.  (Sparing in those stages only the cells
    # declared DEAD in the stage before grows the same cells to n = 2000.
    # With no exception the rule leaves the construction oracle as early
    # as stage 5; this reading tracks it to stage 17.  See verify reports.)
    on = codes == 1
    ok = on.sum(axis=1) == 1
    corners = cells[ok][:, None, :] + _OUTER[on[ok].argmax(axis=1)]
    _, inverse, users = np.unique(corners @ (1 << 32, 1), return_inverse=True, return_counts=True)
    ok[ok] = (users[inverse.reshape(-1, 2)] == 1).all(axis=1)
    return ok if stage % 3 == 2 else ok & ~(codes == 2).any(axis=1)


def _neighborhood(rule: RuleId):
    """A rule's neighbor offsets: Moore for moore8*, else von Neumann."""
    return MOORE_DIRS if rule.name.startswith("moore8") else _vn_dirs(rule.dimension)


def _counting(rule: RuleId):
    """(offsets, eligible, blocked or None, seed, symmetric, mortal) of a rule.

    `eligible` takes the candidates' cell codes (a column per offset), the
    candidates and the stage; a symmetric rule is invariant under signed
    axis permutations, and a mortal rule kills the candidates it refuses.
    """
    origin = (0,) * rule.dimension
    # Only a mortal rule sets a code past 1, so the others sum ON neighbors.
    one = lambda codes, cells, stage: codes.sum(axis=1) == 1
    return (_neighborhood(rule),) + {
        "uw_von_neumann": (one, None, origin, True, False),
        "moore8": (one, None, origin, True, False),
        "moore8_corner1": (one, _corner_blocked, origin, False, False),
        "moore8_corner2": (one, _corner_blocked, (0, 1), False, False),
        "rule942": (lambda codes, cells, stage: np.isin(codes.sum(axis=1), (1, 4)),
                    None, origin, True, False),
        "toothpick_digraph": (_digraph_eligible, None, origin, False, False),
        "maltese": (_maltese_eligible, None, origin, False, True),
    }[rule.name]


def _multiset_rank(c):
    """Rank of each ascending row among all multisets of its size, sum of
    C(c_i + i, i + 1); rows with entries <= r rank below C(r + d, d)."""
    rank = 0
    for i in range(c.shape[1]):
        term = c[:, i]
        for j in range(1, i + 1):
            term = term * (c[:, i] + j) // (j + 1)  # C(c_i + j, j + 1), exact
        rank = rank + term
    return rank


def _orbit_cells(c) -> int:
    """Cells that rows of sorted |x| stand for: d!/prod(m!) * 2^nonzero each."""
    perms, run_length = factorial(c.shape[1]), 1
    for i in range(1, c.shape[1]):
        run_length = np.where(c[:, i] == c[:, i - 1], run_length + 1, 1)
        perms = perms // run_length
    return int((perms << (c > 0).sum(axis=1)).sum())


class _Frontier:
    """One rule's cells, grown a stage at a time, as one uint8 code per
    cell in a flat array that `reserve(n)` must size for every stage n
    stepped: 1 for ON, 2 for DEAD.

    Folded, a cell is kept as its sorted |x|, stands for its whole orbit
    and sits at its multiset rank.  Otherwise a cell is its flat key in a
    dense box of half-width `half`, a neighbor is a key plus a shift, and
    only candidates get coordinates.  `wave` is the last stage's ON cells.
    """

    def __init__(self, rule: RuleId, fold: bool):
        offsets, self.eligible, self.blocked, self.seed, symmetric, self.mortal = _counting(rule)
        self.offsets = np.array(offsets, dtype=np.int64)
        self.fold = fold and symmetric
        self.dim = rule.dimension
        self.stage, self.wave = 0, np.empty(0, dtype=np.int64)
        self.dead = np.empty((0, self.dim), dtype=np.int64)  # set by the last step
        self.half, self.on = 0, np.zeros(1, dtype=np.uint8)  # the origin alone

    def reserve(self, n: int) -> None:
        # Stage n sets cells within n of the origin and looks up their
        # neighbors, so cover |x_i| <= n + 2.  np.zeros maps pages on first
        # write (np.pad would write them all), so the copy goes in by hand.
        half = n + 2
        if half <= self.half:
            return
        size = comb(half + self.dim, self.dim) if self.fold else (2 * half + 1) ** self.dim
        check_box(size, f"{n} stages in dimension {self.dim}")
        if self.fold:
            on = np.zeros(size, dtype=np.uint8)
            on[: self.on.size] = self.on  # a rank does not depend on the bound
        else:
            on = np.zeros((2 * half + 1,) * self.dim, dtype=np.uint8)
            inner = (slice(half - self.half, half + self.half + 1),) * self.dim
            on[inner] = self.on.reshape((2 * self.half + 1,) * self.dim)
            self.strides = (2 * half + 1) ** np.arange(self.dim - 1, -1, -1)
            self.shifts = self.offsets @ self.strides
            self.wave = (self._cells(self.wave) + half) @ self.strides  # into the larger box
        self.on, self.half = on.ravel(), half

    def _cells(self, keys):
        """The box cells at flat keys, one row each."""
        return np.stack(np.unravel_index(keys, (2 * self.half + 1,) * self.dim), axis=1) - self.half

    def _key(self, cells):
        return _multiset_rank(cells) if self.fold else (cells + self.half) @ self.strides

    def _around(self, cells):
        """Every neighbor of each folded cell as sorted |x|, one row each."""
        return np.sort(np.abs((cells[:, None, :] + self.offsets).reshape(-1, self.dim)), axis=1)

    def _candidates(self):
        """The wave's unset neighbors, each once, in key order: (keys, cells)."""
        if self.fold:
            nbrs = self._around(self.wave)
            keys, first = np.unique(self._key(nbrs), return_index=True)
            unset = self.on[keys] == 0
            return keys[unset], nbrs[first[unset]]
        keys = (self.wave[:, None] + self.shifts).ravel()
        keys.sort()
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
        keys = keys[self.on[keys] == 0]
        return keys, self._cells(keys)

    def _codes(self, keys, cells):
        """The codes of each candidate's neighbors, a column per offset."""
        if self.fold:
            return self.on[self._key(self._around(cells))].reshape(len(cells), -1)
        return self.on[keys[:, None] + self.shifts]

    def step(self) -> np.ndarray:
        """Set the next stage's cells and return its ON ones, one per orbit
        if folded; a mortal rule leaves its new DEAD ones in `dead`."""
        self.stage += 1
        if self.stage == 1:
            new = np.array([self.seed], dtype=np.int64)
            keys = self._key(new)
        else:
            keys, cand = self._candidates()
            if self.blocked is not None:
                free = ~self.blocked(cand)
                keys, cand = keys[free], cand[free]
            ok = self.eligible(self._codes(keys, cand), cand, self.stage)
            if self.mortal:
                self.dead = cand[~ok]
                self.on[keys[~ok]] = 2
            new, keys = cand[ok], keys[ok]
        self.on[keys] = 1
        self.wave = new if self.fold else keys
        return new


class CellGrid:
    """Every non-OFF cell of one rule's growth, for rendering, activation
    maps, tree checks and dumps; `grow` resumes where the last call ended."""

    def __init__(self, rule: RuleId):
        self.rule = rule
        self.dimension = rule.dimension
        self.stage = 0
        self.counts = [0]
        self._frontier = _Frontier(rule, fold=False)
        self._placed = [(self._frontier.dead,) * 2]  # (ON, DEAD) cells per stage, none at 0

    def grow(self, stages: int) -> "CellGrid":
        if stages < 0:
            raise ValueError("n must be >= 0")
        self._frontier.reserve(self.stage + stages)
        for _ in range(stages):
            new = self._frontier.step()
            self._placed.append((new, self._frontier.dead))
            self.counts.append(len(new))
            self.stage += 1
        return self

    def added_per_stage(self) -> IntSequence:
        return IntSequence(0, tuple(self.counts))

    def cells(self) -> tuple[np.ndarray, ...]:
        """Every non-OFF cell, stage-major, as arrays (stage, coords, is_on)."""
        parts = [cells for placed in self._placed for cells in placed]
        sizes = [len(cells) for cells in parts]
        return (np.repeat(np.arange(len(parts)) >> 1, sizes), np.concatenate(parts),
                np.repeat(np.arange(len(parts)) % 2 == 0, sizes))

    def on_cells(self) -> list[tuple]:
        _, coords, is_on = self.cells()
        return list(map(tuple, coords[is_on].tolist()))

    def dead_cells(self) -> list[tuple]:
        _, coords, is_on = self.cells()
        return list(map(tuple, coords[~is_on].tolist()))

    def dump(self) -> str:
        """One line per non-OFF cell, `state stage x y [z [w]]`, sorted."""
        stage, coords, is_on = self.cells()
        order = np.lexsort(coords.T[::-1])
        rows = zip(np.where(is_on, ON, DEAD)[order], stage[order].tolist(), coords[order].tolist())
        return "".join(f"{s} {st} {' '.join(map(str, c))}\n" for s, st, c in rows)


def activation_map(grid: CellGrid) -> dict[tuple, int]:
    """Stage at which each non-OFF cell was set; absent cells never changed."""
    stage, coords, _ = grid.cells()
    return dict(zip(map(tuple, coords.tolist()), stage.tolist()))


def run(rule: RuleId, n: int) -> IntSequence:
    """Per-stage activation counts a(0..n) for a rule, a(1) = 1 seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    frontier = _Frontier(rule, fold=True)
    frontier.reserve(n)
    size = _orbit_cells if frontier.fold else len
    counts = [0] + [size(frontier.step()) for _ in range(n)]
    return IntSequence(0, tuple(counts))


def build_maltese_by_construction(n: int) -> IntSequence:
    """Count Maltese-cross cells labeled 1..n by rebuilding the structure.

    Independent oracle: grow the one-of-four automaton, replace each ON
    cell c by a plus-shaped cross centered at 3c, then label cells by
    breadth-first distance from the center (label = distance + 1).  The
    count of cells labeled exactly m is the sequence value m(m).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = [0] * (n + 1)
    if n == 0:
        return IntSequence(0, tuple(counts))
    stages = n // 3 + 4
    uw = CellGrid(uw_von_neumann(2)).grow(stages)
    cross = set()
    for cx, cy in uw.on_cells():
        bx, by = 3 * cx, 3 * cy
        cross.update(((bx, by), (bx + 1, by), (bx - 1, by), (bx, by + 1), (bx, by - 1)))
    # BFS from the center; the built region is wide enough that no cell
    # within distance n - 1 touches an unbuilt cross (checked in tests by
    # comparing two build margins).
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    level = 0
    while frontier and level + 1 <= n - 1:
        level += 1
        nxt = []
        for x, y in frontier:
            for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if q in cross and q not in dist:
                    dist[q] = level
                    nxt.append(q)
        frontier = nxt
    for d in dist.values():
        counts[d + 1] += 1
    return IntSequence(0, tuple(counts))
