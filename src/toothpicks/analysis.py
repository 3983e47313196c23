"""Derived analyses: bounded-face extraction, exact ratio bounds, the
limit-function sampler, tree checks and the quadrant decomposition.

Everything arithmetic here is exact (integers or Fractions); floats
appear only when a report is printed.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import engine
from . import recurrences as rec
from .engine import _STEPS  # unit steps E N W S, which a unit edge's d indexes
from .gridca import ON, CellGrid, _vn_dirs


class NonRectangularFaceError(AssertionError):
    """A bounded face of the arrangement is not an axis-aligned rectangle."""


@dataclass(frozen=True)
class RectangleReport:
    count: int
    rectangles: tuple[tuple[int, int, int, int], ...]  # doubled (x0, y0, x1, y1)


def _unit_edges(segments):
    """Break square-lattice segments into unit edges of the doubled lattice."""
    table = engine.UNIT_EDGES
    for seg in segments:
        x, y = seg.x, seg.y
        for dx, dy, d in table[seg.orient]:
            yield (x + dx, y + dy, d)


def _find(parent: dict, a):
    """Union-find root of a; every node on the path is relinked to it."""
    root = a
    while parent[root] != root:
        root = parent[root]
    while parent[a] != root:
        parent[a], a = root, parent[a]
    return root


def _corner_wall_edges(structure):
    """The excluded-quadrant boundary acts as a wall for corner faces.

    Rectangles of the corner structure may be closed off by the negative
    axes (their mirror images in the full structure are real toothpicks),
    so both rays enter the arrangement, extended past the bounding box.
    """
    mnx, mny, _, _ = engine.bounding_box(structure)
    for y in range(min(mny, 0) - 2, 0):
        yield (0, y, 1)
    for x in range(min(mnx, 0) - 2, 0):
        yield (x, 0, 0)


def extract_faces(edges):
    """Trace every face of the arrangement of unit edges (x, y, d).

    Returns (bounded, unbounded_count) where bounded is a list of
    (turns, min_x, min_y, max_x, max_y) per positive-area face.  The
    walk keeps the face interior on the left: at each head vertex it
    takes the first outgoing direction clockwise from the reversed
    incoming one, so spikes (degree-1 vertices) are walked in and out
    and show up as extra turns.
    """
    has_edge = set()
    for x, y, d in edges:
        has_edge.add((x, y, d))
        q = (x + _STEPS[d][0], y + _STEPS[d][1])
        has_edge.add((q[0], q[1], (d + 2) % 4))
    visited = set()
    bounded = []
    unbounded = 0
    steps = _STEPS
    for start in has_edge:
        if start in visited:
            continue
        x, y, d = start
        area2 = 0
        turns = 0
        mnx = mxx = x
        mny = mxy = y
        prev_d = None
        first_d = d
        while True:
            visited.add((x, y, d))
            if prev_d is not None and prev_d != d:
                turns += 1
            prev_d = d
            dx, dy = steps[d]
            nx, ny = x + dx, y + dy
            area2 += x * ny - nx * y
            x, y = nx, ny
            mnx = min(mnx, x)
            mxx = max(mxx, x)
            mny = min(mny, y)
            mxy = max(mxy, y)
            back = (d + 2) % 4
            for t in (1, 2, 3, 4):
                nd = (back - t) % 4
                if (x, y, nd) in has_edge:
                    d = nd
                    break
            if (x, y, d) == start:
                break
        if first_d != prev_d:
            turns += 1
        if area2 > 0:
            bounded.append((turns, mnx, mny, mxx, mxy))
        else:
            unbounded += 1
    return bounded, unbounded


# Segment variants whose faces are read; the corner structure adds the
# excluded quadrant's walls.
FACE_VARIANTS = ("toothpick", "corner")


def detect_rectangles(structure) -> RectangleReport:
    """All bounded faces of a toothpick or corner structure, as rectangles.

    A bounded face with any shape other than a plain axis-aligned
    rectangle (4 turns, no spikes) raises NonRectangularFaceError.
    """
    if structure.variant not in FACE_VARIANTS:
        raise ValueError("face extraction applies to the plain and corner variants")
    edges = list(_unit_edges(structure.iter_segments()))
    if structure.variant == "corner":
        edges.extend(_corner_wall_edges(structure))
    bounded, _ = extract_faces(edges)
    rects = []
    for turns, mnx, mny, mxx, mxy in bounded:
        if turns != 4:
            raise NonRectangularFaceError(
                f"bounded face with {turns} turns inside ({mnx},{mny})..({mxx},{mxy})"
            )
        rects.append((mnx, mny, mxx, mxy))
    rects.sort()
    return RectangleReport(len(rects), tuple(rects))


def rectangle_counts_by_stage(structure) -> list[int]:
    """R(0..stage) by Euler's formula, added stage by stage.

    Bounded faces of a connected planar subdivision number E - V + C;
    a union-find over the unit edges keeps all three incremental.
    """
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    find = _find
    V = E = Cmp = 0

    def add_edges(unit_edges):
        nonlocal V, E, Cmp
        for x, y, d in unit_edges:
            a = (x, y)
            b = (x + _STEPS[d][0], y + _STEPS[d][1])
            for p in (a, b):
                if p not in parent:
                    parent[p] = p
                    V += 1
                    Cmp += 1
            E += 1
            ra, rb = find(parent, a), find(parent, b)
            if ra != rb:
                parent[ra] = rb
                Cmp -= 1

    wall_faces = 0
    if structure.variant == "corner" and structure.stage > 0:
        # Walls longer than needed add equal V and E and no cycles, so
        # adding them up front leaves every per-stage count unchanged.
        add_edges(_corner_wall_edges(structure))
        wall_faces = E - V + Cmp  # zero; keeps the formula honest
    counts = []
    for n in range(structure.stage + 1):
        add_edges(_unit_edges(structure.stage_segments(n)))
        counts.append(E - V + Cmp - wall_faces if V else 0)
    return counts


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
    is_local_min: bool


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
    samples = tuple(
        RatioSample(
            Fraction(i, base),
            values[i],
            0 < i < base - 1 and values[i - 1] > values[i] < values[i + 1],
        )
        for i in range(base)
    )
    return LimitFunctionSample(
        k=k,
        samples=samples,
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
    if n_max < 1:
        return []
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


def _is_tree(cells: set, neighbor_pairs) -> bool:
    if not cells:
        return True
    parent = {c: c for c in cells}
    edges = 0
    for a, b in neighbor_pairs:
        edges += 1
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            return False  # cycle
        parent[ra] = rb
    roots = {_find(parent, c) for c in cells}
    return len(roots) == 1 and edges == len(cells) - 1


def _is_activation_tree(nodes) -> bool:
    """Join each node ((x, y), stage, vertical) of a stage past 1 to its
    one strictly earlier perpendicular neighbor, and check that the joins
    make a tree; a node with no such neighbor or two fails.

    A vertical's perpendicular neighbors are (x +- 1, y), a horizontal's
    (x, y +- 1); same-axis neighbors are end-on-midpoint contacts.
    """
    nodes = list(nodes)
    stage = {c: st for c, st, _ in nodes}
    pairs = []
    for c, st, vertical in nodes:
        if st <= 1:
            continue
        x, y = c
        nbrs = ((x - 1, y), (x + 1, y)) if vertical else ((x, y - 1), (x, y + 1))
        parents = [q for q in nbrs if stage.get(q, st) < st]
        if len(parents) != 1:
            return False
        pairs.append((parents[0], c))
    return _is_tree(set(stage), pairs)


# Segment variants whose activation edges the tree check can read: each
# toothpick's parent is a perpendicular neighbor on the square lattice.
TREE_VARIANTS = ("toothpick", "corner", "leftist")


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
    if isinstance(obj, CellGrid) and obj.rule.name != "toothpick_digraph":
        cells = set(obj.on_cells())  # the Maltese cross also keeps DEAD cells
        if obj.rule.name in ("moore8", "moore8_corner1", "moore8_corner2"):
            half = ((1, 0), (0, 1), (1, 1), (1, -1))
        else:
            half = tuple(v for v in _vn_dirs(obj.dimension) if v > (0,) * obj.dimension)
        pairs = (
            (c, tuple(c[i] + d[i] for i in range(len(d))))
            for c in cells
            for d in half
            if tuple(c[i] + d[i] for i in range(len(d))) in cells
        )
        return _is_tree(cells, pairs)
    if isinstance(obj, CellGrid):
        # A digraph cell with x + y even stands for a vertical toothpick.
        return _is_activation_tree(
            (c, st, (c[0] + c[1]) % 2 == 0) for c, (s, st) in obj.states.items() if s == ON
        )
    if obj.variant not in TREE_VARIANTS:
        raise ValueError(f"tree checks apply to square-lattice toothpicks, not {obj.variant!r}")
    return _is_activation_tree(
        ((s.x, s.y), s.stage, s.orient == "v")
        for s in obj.iter_segments()
        if s.orient in ("h", "v")
    )


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
    return sum(
        1 for s in structure.iter_segments() if s.orient in ("h", "v") and s.x > 0 and s.y > 0
    )
