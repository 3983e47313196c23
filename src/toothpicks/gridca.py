"""Cell automata on Z^d: one-of-2d (von Neumann), eight-neighbor Moore
variants, the one-or-four rule, the directed-graph encoding of the
toothpick structure, and the three-state Maltese-cross automaton.

Once ON or DEAD a cell never changes.  Each counting rule (all but the
Maltese cross) is a row of data for one numpy frontier stepper, which
examines only the unset neighbors of the previous stage's cells.  `run`
folds the symmetric rules (von Neumann, Moore, one-or-four) to one cell
per orbit and counts orbit sizes; the rest, and `CellGrid`, use a box.
"""

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

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


def _digraph_eligible(on, cells):
    # Even cells (x+y even) stand for vertical toothpicks and are fed by
    # their horizontal neighbors; odd cells by their vertical neighbors.
    # With the von Neumann offsets, columns 0-1 are the horizontal
    # neighbors and 2-3 the vertical ones.
    even = (cells[:, 0] + cells[:, 1]) % 2 == 0
    return np.where(even, on[:, 0] + on[:, 1], on[:, 2] + on[:, 3]) == 1


def _corner_blocked(cells):
    # Third-quarter cells are (i, j) with i <= -1, j <= 0; a cell is also
    # barred when 8-adjacent to that quadrant, which works out to
    # x <= 0 and y <= 1.  The stage-1 seed is exempt.
    return (cells[:, 0] <= 0) & (cells[:, 1] <= 1)


def _neighborhood(rule: RuleId):
    """A rule's neighbor offsets: Moore for moore8*, else von Neumann."""
    return MOORE_DIRS if rule.name.startswith("moore8") else _vn_dirs(rule.dimension)


def _counting(rule: RuleId):
    """(offsets, eligible, blocked or None, seed, symmetric) of a counting rule.

    `eligible` takes the candidates' ON mask (a column per offset) and the
    candidates; a symmetric rule is invariant under signed axis permutations.
    """
    origin = (0,) * rule.dimension
    one = lambda on, cells: on.sum(axis=1) == 1
    return (_neighborhood(rule),) + {
        "uw_von_neumann": (one, None, origin, True),
        "moore8": (one, None, origin, True),
        "moore8_corner1": (one, _corner_blocked, origin, False),
        "moore8_corner2": (one, _corner_blocked, (0, 1), False),
        "rule942": (lambda on, cells: np.isin(on.sum(axis=1), (1, 4)), None, origin, True),
        "toothpick_digraph": (_digraph_eligible, None, origin, False),
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
    """One counting rule's ON set, grown a stage at a time, in a flat
    uint8 bitmap that `reserve(n)` must size for every stage n stepped.

    Folded, a cell is kept as its sorted |x|, stands for its whole orbit
    and sits at its multiset rank; otherwise it sits at its place in a
    dense box of half-width `half`.
    """

    def __init__(self, rule: RuleId, fold: bool):
        offsets, self.eligible, self.blocked, self.seed, symmetric = _counting(rule)
        self.offsets = np.array(offsets, dtype=np.int64)
        self.fold = fold and symmetric
        self.dim = rule.dimension
        self.wave = None
        self.half, self.on = 0, np.zeros(1, dtype=np.uint8)  # the origin alone

    def reserve(self, n: int) -> None:
        # Stage n sets cells within n of the origin and looks up their
        # neighbors, so cover |x_i| <= n + 2.  np.zeros maps pages on first
        # write (np.pad would write them all), so the copy goes in by hand.
        half = n + 2
        if half <= self.half:
            return
        if self.fold:
            on = np.zeros(comb(half + self.dim, self.dim), dtype=np.uint8)
            on[: self.on.size] = self.on  # a rank does not depend on the bound
        else:
            on = np.zeros((2 * half + 1,) * self.dim, dtype=np.uint8)
            inner = (slice(half - self.half, half + self.half + 1),) * self.dim
            on[inner] = self.on.reshape((2 * self.half + 1,) * self.dim)
            self.strides = (2 * half + 1) ** np.arange(self.dim - 1, -1, -1)
        self.on, self.half = on.ravel(), half

    def _around(self, cells):
        """Every neighbor of each cell, one row each; sorted |x| if folded."""
        nbrs = (cells[:, None, :] + self.offsets).reshape(-1, self.dim)
        return np.sort(np.abs(nbrs), axis=1) if self.fold else nbrs

    def _key(self, cells):
        return _multiset_rank(cells) if self.fold else (cells + self.half) @ self.strides

    def step(self) -> np.ndarray:
        """Set the next stage's cells and return them, one per orbit if folded."""
        if self.wave is None:
            new = np.array([self.seed], dtype=np.int64)
        else:
            nbrs = self._around(self.wave)
            keys, first = np.unique(self._key(nbrs), return_index=True)
            cand = nbrs[first[self.on[keys] == 0]]
            if self.blocked is not None:
                cand = cand[~self.blocked(cand)]
            on = self.on[self._key(self._around(cand))].reshape(len(cand), -1)
            new = cand[self.eligible(on, cand)]
        self.on[self._key(new)] = 1
        self.wave = new
        return new


class CellGrid:
    """Every non-OFF cell of one rule's growth, for rendering, activation
    maps, tree checks and dumps; `grow` resumes where the last call ended."""

    def __init__(self, rule: RuleId):
        self.rule = rule
        self.dimension = rule.dimension
        self.stage = 0
        self.counts = [0]
        self.states: dict[tuple, tuple[str, int]] = {}
        if rule.name == "maltese":
            self._frontier = None
            self._on: set[tuple] = set()
            self._last_on: list[tuple] = []
            self._step = self._step_maltese
        else:
            self._frontier = _Frontier(rule, fold=False)
            self._step = self._step_frontier

    def grow(self, stages: int) -> "CellGrid":
        if stages < 0:
            raise ValueError("n must be >= 0")
        if self._frontier is not None:
            self._frontier.reserve(self.stage + stages)
        for _ in range(stages):
            self.stage += 1
            self.counts.append(self._step())
        return self

    def added_per_stage(self) -> IntSequence:
        return IntSequence(0, tuple(self.counts), self.rule.name, "simulate")

    def on_cells(self) -> list[tuple]:
        return [c for c, (s, _) in self.states.items() if s == ON]

    def dead_cells(self) -> list[tuple]:
        return [c for c, (s, _) in self.states.items() if s == DEAD]

    def dump(self) -> str:
        """One line per non-OFF cell, `state stage x y [z [w]]`, sorted."""
        rows = sorted((c, s, st) for c, (s, st) in self.states.items())
        return "".join(f"{s} {st} {' '.join(map(str, c))}\n" for c, s, st in rows)

    def _step_frontier(self) -> int:
        new = self._frontier.step().tolist()
        self.states.update(dict.fromkeys(map(tuple, new), (ON, self.stage)))
        return len(new)

    # -- Maltese cross (three states) --------------------------------------

    def _step_maltese(self) -> int:
        n = self.stage
        states = self.states
        on = self._on
        if n == 1:
            states[(0, 0)] = (ON, 1)
            on.add((0, 0))
            self._last_on = [(0, 0)]
            return 1
        edge = ((1, 0), (-1, 0), (0, 1), (0, -1))
        candidates = set()
        for c in self._last_on:
            for d in edge:
                q = (c[0] + d[0], c[1] + d[1])
                if q not in states:
                    candidates.add(q)
        dead_now = []
        survivors = {}  # candidate -> its single ON parent
        for q in candidates:
            on_nbrs = [
                (q[0] + d[0], q[1] + d[1])
                for d in edge
                if (q[0] + d[0], q[1] + d[1]) in on
            ]
            if len(on_nbrs) >= 2:
                dead_now.append(q)
            else:
                survivors[q] = on_nbrs[0]
        # Shared outer vertex between two same-stage candidates kills both.
        # Cell (i, j) is the unit square with corners (i, j)..(i+1, j+1);
        # the outer vertices are the two corners away from the parent edge.
        vertex_users: dict[tuple, list] = {}
        for q, parent in survivors.items():
            dx, dy = q[0] - parent[0], q[1] - parent[1]
            if dx:  # vertical shared edge; outer corners on the far side
                ox = q[0] + (1 if dx > 0 else 0)
                corners = ((ox, q[1]), (ox, q[1] + 1))
            else:
                oy = q[1] + (1 if dy > 0 else 0)
                corners = ((q[0], oy), (q[0] + 1, oy))
            for v in corners:
                vertex_users.setdefault(v, []).append(q)
        vertex_dead = set()
        for users in vertex_users.values():
            if len(users) >= 2:
                vertex_dead.update(users)
        dead_now.extend(vertex_dead)
        # Adjacency to an established DEAD cell kills, except that in
        # stages n = 2 (mod 3) only a neighbor declared DEAD before the
        # previous stage does.  (Taking the exception at face value --
        # previous stage only -- contradicts the construction oracle as
        # early as stage 5; this reading tracks it.  See verify reports.)
        newly = []
        for q in survivors:
            if q in vertex_dead:
                continue
            doom = False
            for d in edge:
                r = (q[0] + d[0], q[1] + d[1])
                st = states.get(r)
                if st is not None and st[0] == DEAD:
                    if n % 3 != 2 or st[1] <= n - 2:
                        doom = True
                        break
            if doom:
                dead_now.append(q)
            else:
                newly.append(q)
        for q in dead_now:
            states[q] = (DEAD, n)
        for q in newly:
            states[q] = (ON, n)
        on.update(newly)
        self._last_on = newly
        return len(newly)


def activation_map(grid: CellGrid) -> dict[tuple, int]:
    """Stage at which each non-OFF cell was set; absent cells never changed."""
    return {c: st for c, (_, st) in grid.states.items()}


def run(rule: RuleId, n: int) -> IntSequence:
    """Per-stage activation counts a(0..n) for a rule, a(1) = 1 seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if rule.name == "maltese":
        return CellGrid(rule).grow(n).added_per_stage()
    frontier = _Frontier(rule, fold=True)
    frontier.reserve(n)
    size = _orbit_cells if frontier.fold else len
    counts = [0] + [size(frontier.step()) for _ in range(n)]
    label = f"uw_d{rule.dimension}" if rule.name == "uw_von_neumann" else rule.name
    return IntSequence(0, tuple(counts), label, "simulate")


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
        return IntSequence(0, tuple(counts), "maltese", "simulate")
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
    return IntSequence(0, tuple(counts), "maltese", "simulate")
