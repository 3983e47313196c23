"""Segment-placement automata: toothpick, corner, leftist, T- and Y-shaped.

Square-lattice coordinates are doubled so that midpoints and endpoints
of unit segments are exact integer lattice points (a unit toothpick
spans 2 doubled units); the Y variant lives on the triangular lattice in
axial coordinates.  A point is exposed when it is an end of exactly one
element and the center of none; each stage centers an element on every
exposed end, all placements computed from the state at the start of the
stage.

One numpy stepper, `_Structure`, grows every variant, and each variant
is one row of `_ROWS`.  Occupancy is one packed uint8 per point of a box
sized from the live extent: 8 * center flag plus an end count that reads
0, 1, or 2 for two ends or more, so "exposed" is simply occupancy == 1.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intutil import check_box
from .sequences import IntSequence

MID = 8

VARIANTS = ("toothpick", "corner", "leftist", "t", "y")

Y_ARMS = ((1, 0), (-1, 1), (0, -1))

# Every orient in dump order, so that an orient's index sorts like its
# name; a segment as one entry of `_Structure._drawn` is itself, tagged so.
_ORIENTS = ("h", "s", "v", "y0", "y1", "y2")
_AS_SEGMENT = {o: ((0, 0, k),) for k, o in enumerate(_ORIENTS)}


@dataclass(frozen=True)
class Segment:
    """One unit segment (or the corner seed / one Y arm), doubled coordinates.

    orient 'h'/'v' segments are identified by their midpoint, the seed
    ('s') by its left endpoint, Y arms ('y0'..'y2') by their center in
    axial coordinates.
    """

    stage: int
    orient: str
    x: int
    y: int


@dataclass(frozen=True)
class _Row:
    """One variant for the stepper; an element's direction d indexes the tables.

    arms[d] lists the element's ends as (dx, dy, e): the offset from its
    center (doubled square-lattice units, or axial ones for the Y row) and
    the direction e of the element an exposed end spawns, or
    -1 for an end that counts but never spawns.  draws[d] lists its unit
    segments as (orient, dx, dy).  seed is the stage-1 frontier as
    (x, y, d); a frontier point that `blocked` accepts is never placed on.
    """

    arms: tuple
    draws: tuple
    seed: tuple
    half_seed: bool = False  # an uncounted stage-0 half-toothpick from (0, 0) to (1, 0)
    blocked: object = None


# Plain, corner and leftist: a vertical toothpick (direction 0) spawns
# horizontals (direction 1) and back, so orientation follows stage parity.
_V, _H = 0, 1
_PLAIN = (((0, 1, _H), (0, -1, _H)), ((1, 0, _V), (-1, 0, _V)))
_LEFTIST = (_PLAIN[0], ((1, 0, -1), (-1, 0, _V)))  # a horizontal's right end never spawns
_TOOTHPICKS = ((("v", 0, 0),), (("h", 0, 0),))
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # E N W S


# The two ends (x0, y0, x1, y1) of each orient, relative to its (x, y):
# a square-lattice segment's doubled, min then max (the corner seed runs
# east from its left end); a Y arm's axial, its center then its tip.
EXTENTS = dict(s=(0, 0, 1, 0), v=(0, -1, 0, 1), h=(-1, 0, 1, 0),
               **{f"y{i}": (0, 0, ax, ay) for i, (ax, ay) in enumerate(Y_ARMS)})
# The square-lattice segments as unit edges (dx, dy, d) of the doubled
# lattice, d indexing _STEPS: east along a horizontal, north along a vertical.
UNIT_EDGES = {
    o: tuple((x, y0, 0) for x in range(x0, x1)) + tuple((x0, y, 1) for y in range(y0, y1))
    for o, (x0, y0, x1, y1) in EXTENTS.items() if o in ("s", "h", "v")
}
# Both ends of every segment or arm, as (dx, dy, k) with k = 0, 1.
_ENDS = {o: ((x0, y0, 0), (x1, y1, 1)) for o, (x0, y0, x1, y1) in EXTENTS.items()}


def _t_tables():
    """A T with stem direction u (index i): all three ends at doubled distance
    2 from its center, at 2u and +-2v with v = u turned a quarter left; each
    end spawns a T whose stem continues outward."""
    arms, draws = [], []
    for i, (ux, uy) in enumerate(_STEPS):
        vx, vy = _STEPS[(i + 1) % 4]
        stem, bar = ("v", "h") if ux == 0 else ("h", "v")
        arms.append(
            ((2 * ux, 2 * uy, i), (2 * vx, 2 * vy, (i + 1) % 4), (-2 * vx, -2 * vy, (i + 3) % 4))
        )
        draws.append(((stem, ux, uy), (bar, vx, vy), (bar, -vx, -vy)))
    return tuple(arms), tuple(draws)


_ROWS = {
    "toothpick": _Row(_PLAIN, _TOOTHPICKS, ((0, 0, _V),)),
    # A spawn point in the closed third quadrant would put its toothpick
    # across the excluded quadrant or along a negative axis; it stays
    # exposed for ever.
    "corner": _Row(_PLAIN, _TOOTHPICKS, ((0, 0, _V), (1, 0, _V)), half_seed=True,
                   blocked=lambda x, y: (x <= 0) & (y <= 0)),
    "leftist": _Row(_LEFTIST, _TOOTHPICKS, ((0, 0, _H),)),
    "t": _Row(*_t_tables(), ((0, 0, 3),)),  # the first stem points down
    # Every Y keeps the arms of Y_ARMS: no arm is the reverse of another,
    # so a new Y's arms cannot overlap existing ones.
    "y": _Row((tuple((ax, ay, 0) for ax, ay in Y_ARMS),),
              (tuple((f"y{i}", 0, 0) for i in range(3)),), ((0, 0, 0),)),
}


class _Structure:
    """One variant's elements, grown a stage at a time; `grow` resumes where
    the last call ended.

    Per stage it touches only the frontier (the ends made in the previous
    stage), so the total work is proportional to the number of elements;
    the plain variant reaches stage 4096 (about 1.1e7 toothpicks) in 0.6 to
    0.9 s on a 2-core Xeon, well under 2 GB.  An element takes 5 bytes
    (x and y int16, d int8) and a box point 1, whose low bits read 0, 1,
    or 2 for two ends or more: past 1 an undercount, never above the true
    count (at most 4), so clear of the center bit.  The box takes the cells'
    `intutil.BOX_BUDGET`, which also keeps |x| and |y| inside int16.
    """

    def __init__(self, variant: str):
        self.variant, self._row = variant, _ROWS[variant]
        self.stage, self.counts = 0, [0]
        self._arms = np.array([[a[:2] for a in d] for d in self._row.arms], dtype=np.int64)
        self._arm_reach = int(np.abs(self._arms).max())
        # An end's spawn direction + 1 rides in the low 3 bits of its sort key.
        self._tag = np.array([[a[2] + 1 for a in d] for d in self._row.arms], dtype=np.int64)
        self.half, self.occ = 0, np.zeros((1, 1), dtype=np.uint8)
        self._fit(self._arm_reach + 1)
        seed = np.array(self._row.seed, dtype=np.int64)
        self._front = self._key(seed[:, 0], seed[:, 1]) * 8 + seed[:, 2] + 1
        self._placed = [(np.empty(0, dtype=np.int16),) * 2 + (np.empty(0, dtype=np.int8),)]
        if self._row.half_seed:
            self.occ.ravel()[self._key(np.array([0, 1]), np.array([0, 0]))] = 1

    def _key(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x + self.half) * self.occ.shape[1] + (y + self.half)

    def _fit(self, reach: int) -> None:
        # Re-embed the box at half-width 2**j + 2 for the least j that
        # covers `reach`: a box much larger than the structure makes the
        # scattered updates slower.  Under the budget the side is at most
        # 46 340, so half is at most 2**14 + 2 and every center fits int16.
        if reach <= self.half:
            return
        half = (1 << max(reach - 3, 0).bit_length()) + 2
        check_box((2 * half + 1) ** 2,
                  f"stage {self.stage + 1} of the {self.variant} structure would")
        assert half <= np.iinfo(np.int16).max, f"half-width {half} overflows int16 placements"
        occ = np.zeros((2 * half + 1,) * 2, dtype=np.uint8)
        lo, side = half - self.half, 2 * self.half + 1
        occ[lo : lo + side, lo : lo + side] = self.occ
        self.occ, self.half = occ, half
        self._arm_tags = (self._arms[..., 0] * (2 * half + 1) + self._arms[..., 1]) * 8 + self._tag

    def grow(self, stages: int) -> "_Structure":
        if stages < 0:
            raise ValueError("n must be >= 0")
        for _ in range(stages):
            self._step()
        return self

    def _step(self) -> None:
        keys, dirs = self._front >> 3, (self._front & 7) - 1
        x, y = np.divmod(keys, self.occ.shape[1])
        x -= self.half
        y -= self.half
        if self._row.blocked is not None:
            ok = ~self._row.blocked(x, y)
            keys, dirs, x, y = keys[ok], dirs[ok], x[ok], y[ok]
        reach = max(np.abs(x).max(initial=0), np.abs(y).max(initial=0)) + self._arm_reach
        if reach > self.half:
            self._fit(int(reach))
            keys = self._key(x, y)
        flat = self.occ.ravel()
        flat[keys] += MID
        # Sort the ends once and count them into the box in two scatters,
        # once per point and once more per repeated point.  A point left at
        # occupancy 1 is exposed, and it joins the next frontier once.
        tagged = (self._arm_tags.take(dirs, axis=0) + (keys * 8)[:, None]).ravel()
        tagged.sort()
        ends = tagged >> 3
        flat[ends] += 1
        flat[ends[1:][ends[1:] == ends[:-1]]] += 1
        self._front = tagged[(flat[ends] == 1) & (tagged & 7 != 0)]
        self._placed.append((x.astype(np.int16), y.astype(np.int16), dirs.astype(np.int8)))
        self.counts.append(len(keys))
        self.stage += 1

    def added_per_stage(self) -> IntSequence:
        return IntSequence(0, tuple(self.counts))

    def total(self) -> int:
        return sum(self.counts)

    def placements(self) -> tuple[np.ndarray, ...]:
        """Every element placed so far, stage-major, as int64 arrays
        (stage, x, y, d): its center and its direction (the row's index)."""
        x, y, d = (np.concatenate(a, dtype=np.int64) for a in zip(*self._placed))
        return np.repeat(np.arange(self.stage + 1), self.counts), x, y, d

    def _drawn(self, rows, placed, seed: bool) -> tuple[np.ndarray, ...]:
        """For each segment drawn by the `placed` elements (and the half
        seed, if `seed`), the entries (dx, dy, k) of rows[orient] as int64
        arrays (stage, x + dx, y + dy, k), in placement order."""
        # (dx, dy, k) tables indexed [direction, entry]: every direction
        # has the same number of entries.
        tx, ty, tk = np.array(
            [[(dx + ex, dy + ey, k) for o, dx, dy in draws for ex, ey, k in rows[o]]
             for draws in self._row.draws],
            dtype=np.int64,
        ).transpose(2, 0, 1)
        stage, x, y, d = placed
        drawn = (np.repeat(stage, tk.shape[1]), (tx[d] + x[:, None]).ravel(),
                 (ty[d] + y[:, None]).ravel(), tk[d].ravel())
        if seed and self._row.half_seed:
            head = np.array([(0, ex, ey, k) for ex, ey, k in rows["s"]], dtype=np.int64)
            drawn = tuple(np.concatenate(p) for p in zip(head.T, drawn))
        return drawn

    def stage_segments(self, n: int) -> tuple[Segment, ...]:
        """The unit segments (or Y arms) of stage n, for n in 0..stage."""
        if not 0 <= n <= self.stage:
            raise ValueError(f"stage {n} is outside 0..{self.stage}")
        x, y, d = self._placed[n]
        _, *xyk = self._drawn(_AS_SEGMENT, (np.full(len(d), n), x, y, d), n == 0)
        return tuple(Segment(n, _ORIENTS[k], x, y) for x, y, k in zip(*(a.tolist() for a in xyk)))

    def segments(self) -> list[tuple[int, str, int, int]]:
        """Every drawn segment as (stage, orient, x, y), in dump order."""
        stage, x, y, k = self._drawn(_AS_SEGMENT, self.placements(), True)
        order = np.lexsort((y, x, k, stage))
        rows = zip(*(a[order].tolist() for a in (stage, k, x, y)))
        return [(st, _ORIENTS[k], x, y) for st, k, x, y in rows]

    def unit_edges(self) -> tuple[np.ndarray, ...]:
        """Every unit edge drawn so far, stage-major, as int64 arrays
        (stage, x, y, d) on the doubled lattice, d indexing _STEPS (E or N).

        A Y arm has no unit edges, so a Y structure raises ValueError.
        """
        if self.variant == "y":
            raise ValueError("Y arms have no square-lattice unit edges")
        return self._drawn(UNIT_EDGES, self.placements(), True)

    def ends(self) -> tuple[np.ndarray, ...]:
        """Both ends of every drawn segment or Y arm, in placement order, as
        int64 arrays (stage, x, y, k): k is 0 for the start of its
        `EXTENTS` row and 1 for the end."""
        return self._drawn(_ENDS, self.placements(), True)

    def exposed_points(self) -> set[tuple[int, int]]:
        xs, ys = np.nonzero(self.occ == 1)
        return set(zip((xs - self.half).tolist(), (ys - self.half).tolist()))

    def dump(self) -> str:
        """One line per segment, `stage orient x2 y2`, sorted; byte-stable."""
        return "".join(f"{st} {o} {x} {y}\n" for st, o, x, y in self.segments())


def new_structure(variant: str, fast: bool | None = None) -> _Structure:
    """An empty structure of one of the five variants.

    `fast` is accepted and ignored: every variant has one engine.
    """
    if variant not in _ROWS:
        raise ValueError(f"unknown variant: {variant!r} (expected one of {VARIANTS})")
    return _Structure(variant)


def grow(variant: str, stages: int, fast: bool | None = None) -> _Structure:
    """`new_structure(variant)` grown by `stages`; `fast` is ignored."""
    return new_structure(variant).grow(stages)


def bounding_box(structure: _Structure) -> tuple[int, int, int, int]:
    """Doubled (min_x, min_y, max_x, max_y) over all square-lattice segments."""
    if structure.variant == "y":
        raise ValueError("Y arms have no square-lattice bounding box")
    _, x, y, _ = structure.ends()
    if not len(x):
        raise ValueError("empty structure has no bounding box")
    return x.min().item(), y.min().item(), x.max().item(), y.max().item()


@dataclass(frozen=True)
class BoundaryReport:
    """Shape summary of the corner structure at stage 2**k - 1."""

    k: int
    height: Fraction  # of the bounding rectangle, protrusion excluded
    width: Fraction
    top_exposed_ends: int
    has_protruding_half: bool
    interior_exposed_ends: int


def corner_boundary_snapshot(structure: _Structure) -> BoundaryReport:
    """Measure the corner structure against its stage-(2**k - 1) shape.

    The structure is a (2**(k-1) - 1/2) x (2**(k-1) - 1) rectangle with
    its lower-left quarter notch removed, a half-toothpick hanging from
    the lower-right corner, a row of exposed vertical ends along the top
    edge and no exposed ends in the interior.  Exposed ends on the notch
    edges (placements there are forbidden forever) count as boundary.
    """
    if structure.variant != "corner":
        raise ValueError("snapshot is defined for the corner variant")
    n = structure.stage
    k = (n + 1).bit_length() - 1
    if n < 3 or (1 << k) - 1 != n:
        raise ValueError(f"stage must be 2**k - 1 with k >= 2, got {n}")
    mnx, mny, mxx, mxy = bounding_box(structure)
    exposed = structure.exposed_points()
    bottom = mny + 1  # rectangle floor; the protruding half hangs below
    notch_x = mnx + (1 << (k - 1)) - 2
    notch_y = bottom + (1 << (k - 1)) - 1
    interior = [
        p
        for p in exposed
        if mnx < p[0] < mxx
        and bottom < p[1] < mxy
        and not (p[0] <= notch_x and p[1] <= notch_y)
    ]
    return BoundaryReport(
        k=k,
        height=Fraction(mxy - bottom, 2),
        width=Fraction(mxx - mnx, 2),
        top_exposed_ends=sum(1 for p in exposed if p[1] == mxy),
        has_protruding_half=(mxx, mny) in exposed,
        interior_exposed_ends=len(interior),
    )
