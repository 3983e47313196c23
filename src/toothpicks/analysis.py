"""Derived analyses: bounded-face extraction, exact ratio bounds, the
limit-function sampler, tree checks and the quadrant decomposition.

Everything arithmetic here is exact (integers or Fractions); floats
appear only when a report is printed.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import recurrences as rec
from .engine import _STEPS  # unit steps E N W S, which a unit edge's d indexes
from .engine import _V  # the direction of a vertical toothpick
from .gridca import CellGrid, _neighborhood


class NonRectangularFaceError(AssertionError):
    """A bounded face of the arrangement is not an axis-aligned rectangle."""


@dataclass(frozen=True)
class RectangleReport:
    count: int
    rectangles: tuple[tuple[int, int, int, int], ...]  # doubled (x0, y0, x1, y1)


def _corner_wall_edges(x, y):
    """The excluded-quadrant boundary acts as a wall for corner faces.

    Rectangles of the corner structure may be closed off by the negative
    axes (their mirror images in the full structure are real toothpicks),
    so both rays enter the arrangement, extended past the bounding box of
    the edges that start at (x, y).  Returned as edge arrays
    (stage, x, y, d) at stage -1, before the structure's own, each ray
    outward from the origin so that the walls grow as one piece.
    """
    ys = np.arange(-1, min(int(y.min()), 0) - 3, -1)
    xs = np.arange(-1, min(int(x.min()), 0) - 3, -1)
    wx = np.concatenate([np.zeros_like(ys), xs])
    wy = np.concatenate([ys, np.zeros_like(xs)])
    wd = np.concatenate([np.ones_like(ys), np.zeros_like(xs)])
    return np.full_like(wx, -1), wx, wy, wd


# Segment variants whose faces are read; the corner structure adds the
# excluded quadrant's walls.
FACE_VARIANTS = ("toothpick", "corner")


def _face_edges(structure):
    """A plain or corner structure's unit edges as arrays (stage, x, y, d),
    stage-major; a corner structure's walls come first, at stage -1."""
    if structure.variant not in FACE_VARIANTS:
        raise ValueError("faces are read only on the square-lattice plain and corner "
                         f"structures, not {structure.variant!r}")
    edges = structure.unit_edges()
    if structure.variant == "corner":
        walls = _corner_wall_edges(edges[1], edges[2])
        edges = tuple(np.concatenate(p) for p in zip(walls, edges))
    return edges


# _TURN[d, mask]: arriving along direction d at a vertex whose outgoing
# directions are the set bits of mask, leave by the first one clockwise
# from the reversed d (at a dead end, the reversed d itself; -1 where the
# reversed d is missing, which no walk reaches).
_TURN = np.array([
    [next(((d + 2 - t) % 4 for t in (1, 2, 3, 4) if mask >> ((d + 2 - t) % 4) & 1), -1)
     for mask in range(16)]
    for d in range(4)
])


def extract_faces(edges):
    """Trace every face of the arrangement of unit edges (stage, x, y, d).

    Returns (bounded, unbounded_count) where bounded is an (F, 6) int64
    array, a row (turns, min_x, min_y, max_x, max_y, closing_stage) per
    positive-area face; its closing stage is the latest stage among its
    edges, and an edge given more than once exists from its first stage.
    Each edge is two half-edges, and a face is a cycle of the walk that
    keeps the face interior on the left: at each head vertex it takes the
    first outgoing direction clockwise from the reversed incoming one, so
    spikes (degree-1 vertices) are walked in and out and show up as extra
    turns.
    """
    stage, x, y, d = (np.asarray(a, dtype=np.int64) for a in edges)
    if not len(d):
        return np.empty((0, 6), dtype=np.int64), 0
    steps = np.array(_STEPS)
    hs = np.concatenate([stage, stage])
    hx = np.concatenate([x, x + steps[d, 0]])
    hy = np.concatenate([y, y + steps[d, 1]])
    hd = np.concatenate([d, d ^ 2])
    span = hy.max() - hy.min() + 1
    key = ((hx - hx.min()) * span + hy - hy.min()) * 4 + hd
    # One half-edge per key, at its first stage, sorted by key.
    order = np.lexsort((hs, key))
    order = order[_run_starts(key[order])]
    key, hs, hx, hy, hd = key[order], hs[order], hx[order], hy[order], hd[order]
    # A vertex's half-edges are one run of keys; its mask ORs their d.
    vert = key >> 2
    first = np.flatnonzero(_run_starts(vert))
    mask = np.bitwise_or.reduceat(1 << hd, first)
    head = vert + steps[hd, 0] * span + steps[hd, 1]  # the vertex each one reaches
    nd = _TURN[hd, mask[np.searchsorted(vert[first], head)]]
    nxt = np.searchsorted(key, head * 4 + nd)
    # Label each cycle by its least half-edge: after k rounds a label is
    # the least of the 2^k half-edges from it on.
    label, jump = np.arange(len(key)), nxt
    while not np.array_equal(label, label[nxt]):
        label = np.minimum(label, label[jump])
        jump = jump[jump]
    by = np.argsort(label)
    cut = np.flatnonzero(_run_starts(label[by]))
    per_face = lambda ufunc, a: ufunc.reduceat(a[by], cut)
    area2 = per_face(np.add, hx * steps[hd, 1] - steps[hd, 0] * hy)
    faces = np.stack([
        per_face(np.add, (nd != hd).astype(np.int64)),
        per_face(np.minimum, hx), per_face(np.minimum, hy),
        per_face(np.maximum, hx), per_face(np.maximum, hy),
        per_face(np.maximum, hs),
    ], axis=1)
    bounded = area2 > 0
    return faces[bounded], int((~bounded).sum())


def _run_starts(a):
    """Whether each item of a sorted array starts a run of equal items."""
    return np.concatenate([[True], a[1:] != a[:-1]])


def _rectangles(edges) -> np.ndarray:
    """The walked bounded faces, each checked to be a rectangle (4 turns);
    any other shape raises."""
    bounded, _ = extract_faces(edges)
    bad = bounded[bounded[:, 0] != 4]
    if len(bad):
        turns, mnx, mny, mxx, mxy, _ = bad[0].tolist()
        raise NonRectangularFaceError(
            f"bounded face with {turns} turns inside ({mnx},{mny})..({mxx},{mxy})"
        )
    return bounded


def detect_rectangles(structure) -> RectangleReport:
    """All bounded faces of a toothpick or corner structure, as rectangles.

    A bounded face with any shape other than a plain axis-aligned
    rectangle (4 turns, no spikes) raises NonRectangularFaceError.
    """
    rects = sorted(map(tuple, _rectangles(_face_edges(structure))[:, 1:5].tolist()))
    return RectangleReport(len(rects), tuple(rects))


def rectangles_by_stage(structure) -> list[int]:
    """The bounded faces at each stage 0..stage of a toothpick or corner
    structure, each checked to be a rectangle, from one face walk.

    The walk runs once, at the last stage, and labels each face with its
    closing stage: the latest stage among the unit edges on its perimeter.
    A face whose edges all exist at stage n has no edge inside it then
    either, so it is a face of stage n.  If at every n the faces closed by
    n number E - V + C, they are all the faces of stage n, and each was
    checked; a face split at a later stage makes the counts differ and
    raises NonRectangularFaceError.
    """
    return _rectangles_by_stage(_face_edges(structure), structure.stage)


def _rectangles_by_stage(edges, last: int) -> list[int]:
    closed = np.bincount(_rectangles(edges)[:, 5] + 1, minlength=last + 2)
    walked = closed.cumsum()[1:].tolist()  # a face of walls alone is no face
    euler = _euler_counts(edges, last)
    for n, (w, e) in enumerate(zip(walked, euler)):
        if w != e:
            raise NonRectangularFaceError(
                f"stage {n}: {w} walked faces closed by then, Euler count {e}"
            )
    return walked


def rectangle_counts_by_stage(structure) -> list[int]:
    """R(0..stage) of a toothpick or corner structure by Euler's formula,
    E - V + 1 at each stage (`_euler_counts`)."""
    return _euler_counts(_face_edges(structure), structure.stage)


def _euler_counts(edges, last: int) -> list[int]:
    """E - V + C after each stage 0..last of a stage-major edge list that
    grows as one piece, as a structure's does.

    Each element after stage 1 is centred on an end of an earlier one, and
    a segment's first unit edge ends at its centre, so every edge after the
    first touches an earlier vertex: exactly one edge, the first, has two
    new ends.  Then every stage with a vertex is connected, C = 1; an edge
    list that does not grow as one piece raises ValueError.  The corner
    walls (stage -1) come first, and their own count, zero, is taken off
    every later one.
    """
    stage, x, y, d = edges
    if not len(d):
        return [0] * (last + 1)
    # Endpoint keys in edge order, a0 b0 a1 b1 ..., on a box one wider than
    # the starts on each side, so that an end's key is its start's plus a step.
    span = y.max() - y.min() + 3
    keys = np.empty(2 * len(d), dtype=np.int64)
    keys[0::2] = (x - (x.min() - 1)) * span + (y - (y.min() - 1))
    keys[1::2] = keys[0::2] + (np.array(_STEPS) @ (span, 1))[d]
    # Whether each endpoint is its vertex's first: a stable sort puts the
    # first at the start of the vertex's run.
    order = np.argsort(keys, kind="stable")
    new = np.empty(len(keys), dtype=bool)
    new[order] = _run_starts(keys[order])
    if (new[0::2] & new[1::2]).sum() != 1:
        raise ValueError("the edges do not grow as one piece from the first")
    bins = stage + 1  # stage -1 is bin 0
    E = np.bincount(bins, minlength=last + 2).cumsum()
    V = np.bincount(bins[np.flatnonzero(new) >> 1], minlength=last + 2).cumsum()
    faces = E - V + (V > 0)
    return (faces - faces[0])[1:].tolist()


@dataclass(frozen=True)
class RatioBoundReport:
    n_max: int
    equality_indices: tuple[int, ...]  # exactly the n = 2**k - 1


def ratio_bound_check(n_max: int) -> RatioBoundReport:
    """Verify T(n)/n**2 <= 2/3 + 1/(3n) exactly for 1 <= n <= n_max.

    Comparison is integer (3*n*T(n) vs n**2*(2n+1)); equality must land
    exactly on n = 2**k - 1.  Any violation raises with a witness.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    T = rec.prefix("T", n_max)
    eq = []
    for n in range(1, n_max + 1):
        lhs = 3 * n * T[n]
        rhs = n * n * (2 * n + 1)
        if lhs > rhs:
            raise AssertionError(f"ratio bound violated at n={n}: T={T[n]}")
        if lhs == rhs:
            if (n + 1) & n:
                raise AssertionError(f"unexpected equality at n={n} (not 2**k - 1)")
            eq.append(n)
        elif not (n + 1) & n:
            raise AssertionError(f"missing equality at n={n}")
    return RatioBoundReport(n_max, tuple(eq))


@dataclass(frozen=True)
class RatioSample:
    x: Fraction  # i / 2**k
    value: Fraction  # T(n) / n**2 at n = 2**k + i


@dataclass(frozen=True)
class LimitFunctionSample:
    k: int
    samples: tuple[RatioSample, ...]
    min_x: Fraction
    min_value: Fraction
    left_value: Fraction  # at x = 0
    right_value: Fraction  # at x = 1 (i.e. n = 2**(k+1))


def sample_limit_function(k: int) -> LimitFunctionSample:
    """The k-th sample set of the asymptotic ratio profile.

    Points (i/2**k, T(2**k + i)/(2**k + i)**2) for 0 <= i < 2**k; the
    profile tends to 2/3 at both ends and dips to about 0.4513058 near
    x = 0.427451 (visible from k around 14).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = 1 << k
    T = rec.prefix("T", 2 * base)
    values = [Fraction(T[base + i], (base + i) ** 2) for i in range(base)]
    min_i = min(range(base), key=values.__getitem__)
    return LimitFunctionSample(
        k=k,
        samples=tuple(RatioSample(Fraction(i, base), v) for i, v in enumerate(values)),
        min_x=Fraction(min_i, base),
        min_value=values[min_i],
        left_value=values[0],
        right_value=Fraction(T[2 * base], (2 * base) ** 2),
    )


def local_minima(n_max: int) -> list[int]:
    """Dips of the ratio profile T(n)/n**2, one per dyadic block (A170927).

    The profile oscillates once per block [2**k, 2**(k+1)); its local
    minima are the blockwise minimizers.  (Pointwise strict two-sided
    minima are a different, denser set: small wiggles like n = 10 dip
    below both neighbors without being dips of the profile.)  All
    comparisons are exact cross-multiplications.  A partial final block
    contributes its minimizer only when it is a genuine interior dip.
    """
    if n_max < 0:
        raise ValueError("n must be >= 0")
    T = rec.prefix("T", n_max + 1)

    def less(a: int, b: int) -> bool:  # T(a)/a^2 < T(b)/b^2
        return T[a] * b * b < T[b] * a * a

    out = []
    k = 0
    while (1 << k) <= n_max:
        lo = 1 << k
        hi = min((1 << (k + 1)) - 1, n_max)
        m = lo
        for n in range(lo + 1, hi + 1):
            if less(n, m):
                m = n
        if m == 1 or (m < n_max and less(m, m - 1) and less(m, m + 1)):
            out.append(m)
        k += 1
    return out


def _is_tree(coords, stage, offsets, induced: bool) -> bool:
    """Whether the nodes at `coords` (int64 rows), set at `stage`, make a
    tree; a node's neighbors are at coords + offsets, offsets being one
    (k, dim) block for all nodes or one per node.

    Induced (the graph of every neighbor pair): exactly one node has no
    strictly earlier neighbor, so that all are connected to it, and the
    pairs number N - 1.  Otherwise the activation tree: every node past
    stage 1 has exactly one strictly earlier neighbor, its parent, and
    exactly one node has stage <= 1, the one root; joins to strictly
    earlier parents cannot close a cycle.
    """
    if not len(stage):
        return True
    lo = coords.min(axis=0) - 1
    span = coords.max(axis=0) - lo + 2
    keys = np.ravel_multi_index((coords - lo).T, span)
    order = np.argsort(keys)
    near = np.ravel_multi_index(np.moveaxis(coords[:, None, :] + offsets - lo, -1, 0), span)
    at = order[np.minimum(np.searchsorted(keys[order], near), len(stage) - 1)]
    present = keys[at] == near
    earlier = (present & (stage[at] < stage[:, None])).sum(axis=1)
    if induced:
        return bool((earlier == 0).sum() == 1 and present.sum() == 2 * (len(stage) - 1))
    return bool((stage <= 1).sum() == 1 and (earlier[stage > 1] == 1).all())


# Segment variants whose activation edges the tree check can read: each
# toothpick's parent is a perpendicular neighbor on the square lattice.
TREE_VARIANTS = ("toothpick", "corner", "leftist")


def _toothpicks(structure):
    """`placements()` of a structure whose toothpicks are read one by one."""
    if structure.variant not in TREE_VARIANTS:
        raise ValueError(f"toothpick variants only {TREE_VARIANTS}, not {structure.variant!r}")
    return structure.placements()


def tree_check(obj) -> bool:
    """The grown structure is a tree.

    For a one-of-k-neighbors grid (and the Moore variants) this is the
    full induced subgraph on the ON cells: connected and acyclic.  For
    the directed toothpick model and the segment structures the checked
    graph is the activation tree (each node joined to its strictly
    earlier activator): from stage 6 on, four toothpicks can close a
    pinwheel, each ending on the next one's midpoint, so the full
    contact graph has 4-cycles by construction and the tree property
    lives in the activation edges.
    """
    if isinstance(obj, CellGrid):
        stage, coords, is_on = obj.cells()
        stage, coords = stage[is_on], coords[is_on]  # Maltese keeps DEAD cells
        if obj.rule.name != "toothpick_digraph":
            return _is_tree(coords, stage, np.array(_neighborhood(obj.rule)), induced=True)
        vertical = coords.sum(axis=1) % 2 == 0  # a digraph cell with x + y even
    else:
        stage, x, y, d = _toothpicks(obj)
        coords, vertical = np.stack([x, y], axis=1), d == _V
    # A vertical's perpendicular neighbors are (x +- 1, y), a horizontal's
    # (x, y +- 1); same-axis neighbors are end-on-midpoint contacts.
    offsets = np.where(vertical[:, None, None], ((-1, 0), (1, 0)), ((0, -1), (0, 1)))
    return _is_tree(coords, stage, offsets, induced=False)


def quadrant_Q(n: int) -> int:
    """Q(n) = (T(n) - 3)/4 for n >= 3: toothpicks strictly inside one quadrant."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 2:
        return 0
    T = rec.prefix("T", n)[n]
    q, r = divmod(T - 3, 4)
    if r:
        raise ArithmeticError(f"T(n) - 3 not divisible by 4 at n={n}")
    return q


def quadrant_count_geometric(structure) -> int:
    """Toothpicks whose midpoints lie strictly inside the open first quadrant."""
    _, x, y, _ = _toothpicks(structure)
    return int(((x > 0) & (y > 0)).sum())
