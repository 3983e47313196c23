"""Segment-placement automata: toothpick, corner, leftist, T- and Y-shaped.

All square-lattice coordinates are doubled so that midpoints and
endpoints of unit segments are exact integer lattice points (a unit
toothpick spans 2 doubled units).  A point is exposed when it is an
endpoint of exactly one segment and the midpoint of none; each stage
places a perpendicular segment centered on every exposed end, all
placements computed from the state at the start of the stage.

Occupancy is one packed integer per lattice point: endpoint count plus
8 * midpoint flag, so "exposed" is simply occupancy == 1.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sequences import IntSequence

MID = 8

VARIANTS = ("toothpick", "corner", "leftist", "t", "y")


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


class _StructureBase:
    """Shared reporting surface for every engine."""

    variant: str
    stage: int
    counts: list[int]

    def added_per_stage(self) -> IntSequence:
        return IntSequence(0, tuple(self.counts), self.variant, "simulate")

    def total(self) -> int:
        return sum(self.counts)

    def iter_segments(self):
        raise NotImplementedError

    def exposed_points(self) -> set[tuple[int, int]]:
        raise NotImplementedError

    def dump(self) -> str:
        """One line per segment, `stage orient x2 y2`, sorted; byte-stable."""
        rows = sorted((s.stage, s.orient, s.x, s.y) for s in self.iter_segments())
        return "".join(f"{st} {o} {x} {y}\n" for st, o, x, y in rows)

    def grow(self, stages: int):
        if stages < 0:
            raise ValueError("n must be >= 0")
        for _ in range(stages):
            self._step()
        return self

    def _step(self):
        raise NotImplementedError


def _perp(orient: str) -> str:
    return "h" if orient == "v" else "v"


def _ends(orient: str, x: int, y: int):
    if orient == "v":
        return (x, y - 1), (x, y + 1)
    return (x - 1, y), (x + 1, y)


class DictStructure(_StructureBase):
    """Reference engine for the plain, corner and leftist variants.

    The frontier holds candidate spawn points with their parent
    orientation.  Plain and leftist frontiers live for one stage; the
    corner variant keeps points whose placement the quadrant rule
    forbids, since they stay exposed indefinitely.
    """

    def __init__(self, variant: str):
        if variant not in ("toothpick", "corner", "leftist"):
            raise ValueError(f"unknown variant: {variant}")
        self.variant = variant
        self.stage = 0
        self.counts = [0]
        self.occ: dict[tuple[int, int], int] = {}
        self.by_stage: list[list[Segment]] = [[]]
        # (point, parent orientation); right ends of leftist horizontals
        # never enter the frontier at all.
        self.frontier: list[tuple[tuple[int, int], str]] = []
        if variant == "corner":
            # Half-toothpick from the origin to (1/2, 0); uncounted.
            self.occ[(0, 0)] = 1
            self.occ[(1, 0)] = 1
            self.by_stage[0].append(Segment(0, "s", 0, 0))
            self.frontier = [((0, 0), "h"), ((1, 0), "h")]

    def _seed_orient(self) -> str:
        return "h" if self.variant == "leftist" else "v"

    def _stage_orient(self, n: int) -> str:
        # Stage parity fixes the orientation: the seed orientation on odd
        # stages, its perpendicular on even ones.
        seed = self._seed_orient()
        return seed if n % 2 == 1 else _perp(seed)

    def _corner_allowed(self, p: tuple[int, int]) -> bool:
        # A candidate violates the excluded-quadrant rule exactly when its
        # midpoint lies in the closed third quadrant: either it crosses the
        # open quadrant or it lies along a negative axis.
        return not (p[0] <= 0 and p[1] <= 0)

    def _place(self, n: int, orient: str, p: tuple[int, int]) -> None:
        occ = self.occ
        assert occ.get(p, 0) < MID, f"duplicate placement at {p}"
        occ[p] = occ.get(p, 0) + MID
        self.by_stage[n].append(Segment(n, orient, p[0], p[1]))
        leftist_h = self.variant == "leftist" and orient == "h"
        for e in _ends(orient, *p):
            occ[e] = occ.get(e, 0) + 1
            if leftist_h and e[0] > p[0]:
                continue
            self.frontier.append((e, orient))

    def _step(self) -> None:
        n = self.stage + 1
        self.by_stage.append([])
        if n == 1 and self.variant != "corner":
            orient = self._stage_orient(1)
            self.frontier = []
            self._place(1, orient, (0, 0))
            self.counts.append(1)
            self.stage = 1
            return
        orient = self._stage_orient(n)
        occ = self.occ
        spawn: list[tuple[int, int]] = []
        keep: list[tuple[tuple[int, int], str]] = []
        for p, parent in self.frontier:
            if occ[p] != 1:
                continue  # covered: never exposed again
            if _perp(parent) != orient:
                keep.append((p, parent))  # wrong parity; only corner leftovers
                continue
            if self.variant == "corner" and not self._corner_allowed(p):
                keep.append((p, parent))
                continue
            spawn.append(p)
        self.frontier = keep
        for p in spawn:
            self._place(n, orient, p)
        self.counts.append(len(spawn))
        self.stage = n

    def iter_segments(self):
        for segs in self.by_stage:
            yield from segs

    def stage_segments(self, n: int) -> list[Segment]:
        return list(self.by_stage[n])

    def exposed_points(self) -> set[tuple[int, int]]:
        return {p for p, v in self.occ.items() if v == 1}


class FastPlainStructure(_StructureBase):
    """Vectorized plain-variant engine on a dense occupancy array.

    Per stage it touches only the endpoints created in the previous
    stage, so the total work is proportional to the number of segments;
    growing to stage 4096 (about 1.1e7 toothpicks) takes a few seconds
    and well under 2 GB.
    """

    variant = "toothpick"

    def __init__(self):
        self.stage = 0
        self.counts = [0]
        self.half = 0
        self.occ: np.ndarray | None = None
        self.fx = np.empty(0, dtype=np.int64)
        self.fy = np.empty(0, dtype=np.int64)
        self.mids: list[tuple[str, np.ndarray, np.ndarray]] = [("v", self.fx, self.fy)]

    def _extent_for(self, n: int) -> int:
        # After stage n the structure fits inside doubled radius
        # 2**(ceil(log2 n) - 1); pad by 2 for the next stage's endpoints.
        k = max(1, (max(n, 1) - 1).bit_length())
        return (1 << max(0, k - 1)) + 2

    def _ensure(self, target_stage: int) -> None:
        need = self._extent_for(target_stage)
        if need <= self.half:
            return
        w = 2 * need + 1
        occ = np.zeros((w, w), dtype=np.uint8)
        if self.occ is not None:
            old = 2 * self.half + 1
            off = need - self.half
            occ[off : off + old, off : off + old] = self.occ
        self.occ = occ
        self.half = need

    def grow(self, stages: int):
        self._ensure(self.stage + stages)
        return super().grow(stages)

    def _step(self) -> None:
        n = self.stage + 1
        self._ensure(n)
        occ, h = self.occ, self.half
        vertical = n % 2 == 1
        if n == 1:
            qx = np.zeros(1, dtype=np.int64)
            qy = np.zeros(1, dtype=np.int64)
        else:
            vals = occ[self.fx + h, self.fy + h]
            mask = vals == 1
            qx, qy = self.fx[mask], self.fy[mask]
        assert (occ[qx + h, qy + h] < MID).all(), "duplicate placement"
        occ[qx + h, qy + h] += MID
        dx, dy = (0, 1) if vertical else (1, 0)
        ex = np.concatenate([qx + dx, qx - dx])
        ey = np.concatenate([qy + dy, qy - dy])
        flat = occ.ravel()
        idx = (ex + h) * occ.shape[1] + (ey + h)
        uniq, cnt = np.unique(idx, return_counts=True)
        flat[uniq] += cnt.astype(np.uint8)
        self.fx, self.fy = ex, ey
        self.mids.append(("v" if vertical else "h", qx, qy))
        self.counts.append(len(qx))
        self.stage = n

    def iter_segments(self):
        for stage, (orient, qx, qy) in enumerate(self.mids):
            for x, y in zip(qx.tolist(), qy.tolist()):
                yield Segment(stage, orient, x, y)

    def stage_segments(self, n: int) -> list[Segment]:
        orient, qx, qy = self.mids[n]
        return [Segment(n, orient, x, y) for x, y in zip(qx.tolist(), qy.tolist())]

    def stage_midpoints(self, n: int) -> tuple[str, np.ndarray, np.ndarray]:
        return self.mids[n]

    def exposed_points(self) -> set[tuple[int, int]]:
        h = self.occ.shape[0] // 2 if self.occ is not None else 0
        out = set()
        for x, y in zip(self.fx.tolist(), self.fy.tolist()):
            if self.occ[x + h, y + h] == 1:
                out.add((x, y))
        return out


class TToothpickStructure(_StructureBase):
    """T-shaped toothpicks: a length-2 crossbar plus a length-1 stem.

    All three endpoints sit at doubled distance 2 from the midpoint, so
    the outward direction of a new stem is (endpoint - parent midpoint)/2.
    Two same-stage proposals for one location cannot arise (an exposed
    point has a unique parent), which the placement assertion enforces.
    """

    variant = "t"

    def __init__(self):
        self.stage = 0
        self.counts = [0]
        self.occ: dict[tuple[int, int], int] = {}
        self.tees: list[list[tuple[tuple[int, int], tuple[int, int]]]] = [[]]
        self.frontier: list[tuple[tuple[int, int], tuple[int, int]]] = []

    def _place(self, n: int, p: tuple[int, int], u: tuple[int, int]) -> None:
        occ = self.occ
        assert occ.get(p, 0) < MID, f"duplicate T placement at {p}"
        occ[p] = occ.get(p, 0) + MID
        self.tees[n].append((p, u))
        v = (-u[1], u[0])
        for d in (u, v, (-v[0], -v[1])):
            e = (p[0] + 2 * d[0], p[1] + 2 * d[1])
            occ[e] = occ.get(e, 0) + 1
            self.frontier.append((e, d))

    def _step(self) -> None:
        n = self.stage + 1
        self.tees.append([])
        if n == 1:
            self.frontier = []
            self._place(1, (0, 0), (0, -1))  # stem vertical, pointing down
            self.counts.append(1)
            self.stage = 1
            return
        occ = self.occ
        spawn = [(p, u) for p, u in self.frontier if occ[p] == 1]
        self.frontier = []
        for p, u in spawn:
            self._place(n, p, u)
        self.counts.append(len(spawn))
        self.stage = n

    def iter_segments(self):
        for stage, tees in enumerate(self.tees):
            for (px, py), u in tees:
                v = (-u[1], u[0])
                stem_o = "v" if u[0] == 0 else "h"
                yield Segment(stage, stem_o, px + u[0], py + u[1])
                bar_o = _perp(stem_o)
                yield Segment(stage, bar_o, px + v[0], py + v[1])
                yield Segment(stage, bar_o, px - v[0], py - v[1])

    def exposed_points(self) -> set[tuple[int, int]]:
        return {p for p, v in self.occ.items() if v == 1}


Y_ARMS = ((1, 0), (-1, 1), (0, -1))


class YToothpickStructure(_StructureBase):
    """Y-shaped toothpicks on the triangular lattice, axial coordinates.

    Arms follow the three lattice directions of Y_ARMS.  A new Y is
    centered on each exposed arm tip; keeping the parent's orientation is
    the one choice whose arms cannot overlap any existing arm (the
    reversed direction of an arm is never in Y_ARMS).  No closed form is
    known for this variant; the engine is held against a pinned fixture
    only.
    """

    variant = "y"

    def __init__(self):
        self.stage = 0
        self.counts = [0]
        self.occ: dict[tuple[int, int], int] = {}
        self.centers: list[list[tuple[int, int]]] = [[]]
        self.frontier: list[tuple[int, int]] = []

    def _place(self, n: int, p: tuple[int, int]) -> None:
        occ = self.occ
        assert occ.get(p, 0) < MID, f"duplicate Y placement at {p}"
        occ[p] = occ.get(p, 0) + MID
        self.centers[n].append(p)
        for a in Y_ARMS:
            e = (p[0] + a[0], p[1] + a[1])
            occ[e] = occ.get(e, 0) + 1
            self.frontier.append(e)

    def _step(self) -> None:
        n = self.stage + 1
        self.centers.append([])
        if n == 1:
            self.frontier = []
            self._place(1, (0, 0))
            self.counts.append(1)
            self.stage = 1
            return
        occ = self.occ
        spawn = [p for p in self.frontier if occ[p] == 1]
        self.frontier = []
        for p in spawn:
            self._place(n, p)
        self.counts.append(len(spawn))
        self.stage = n

    def iter_segments(self):
        for stage, centers in enumerate(self.centers):
            for cx, cy in centers:
                for i in range(3):
                    yield Segment(stage, f"y{i}", cx, cy)

    def exposed_points(self) -> set[tuple[int, int]]:
        return {p for p, v in self.occ.items() if v == 1}


def new_structure(variant: str, fast: bool | None = None) -> _StructureBase:
    """Build an empty structure for one of the five variants.

    The plain variant defaults to the vectorized engine; pass fast=False
    for the dictionary engine (the two are compared bit-for-bit in tests).
    """
    if variant == "t":
        return TToothpickStructure()
    if variant == "y":
        return YToothpickStructure()
    if variant in ("toothpick", "corner", "leftist"):
        if fast is None:
            fast = variant == "toothpick"
        if fast:
            if variant != "toothpick":
                raise ValueError("fast engine only supports the plain variant")
            return FastPlainStructure()
        return DictStructure(variant)
    raise ValueError(f"unknown variant: {variant!r} (expected one of {VARIANTS})")


def grow(variant: str, stages: int, fast: bool | None = None) -> _StructureBase:
    return new_structure(variant, fast=fast).grow(stages)


def simulate_t_toothpick(n: int) -> IntSequence:
    """Per-stage T-toothpick counts tau(0..n) (A160173)."""
    return TToothpickStructure().grow(n).added_per_stage()


def simulate_y_toothpick(n: int) -> IntSequence:
    """Per-stage Y-toothpick counts y(0..n) (A160121-style additions)."""
    return YToothpickStructure().grow(n).added_per_stage()


def segment_extent(seg: Segment) -> tuple[int, int, int, int]:
    """Doubled (min_x, min_y, max_x, max_y) of one square-lattice segment."""
    if seg.orient == "s":
        return seg.x, seg.y, seg.x + 1, seg.y
    if seg.orient == "v":
        return seg.x, seg.y - 1, seg.x, seg.y + 1
    if seg.orient == "h":
        return seg.x - 1, seg.y, seg.x + 1, seg.y
    raise ValueError(f"no square-lattice extent for orient {seg.orient!r}")


def bounding_box(structure: _StructureBase) -> tuple[int, int, int, int]:
    """Doubled (min_x, min_y, max_x, max_y) over all segments."""
    mnx = mny = mxx = mxy = None
    for seg in structure.iter_segments():
        x0, y0, x1, y1 = segment_extent(seg)
        mnx = x0 if mnx is None else min(mnx, x0)
        mny = y0 if mny is None else min(mny, y0)
        mxx = x1 if mxx is None else max(mxx, x1)
        mxy = y1 if mxy is None else max(mxy, y1)
    if mnx is None:
        raise ValueError("empty structure has no bounding box")
    return mnx, mny, mxx, mxy


@dataclass(frozen=True)
class BoundaryReport:
    """Shape summary of the corner structure at stage 2**k - 1."""

    k: int
    height: Fraction  # of the bounding rectangle, protrusion excluded
    width: Fraction
    top_exposed_ends: int
    has_protruding_half: bool
    interior_exposed_ends: int


def corner_boundary_snapshot(structure: _StructureBase) -> BoundaryReport:
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
