import copy
import random
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest

from toothpicks import analysis
from toothpicks import recurrences as rec
from toothpicks.engine import UNIT_EDGES, bounding_box, grow, new_structure
from toothpicks.gridca import (
    MALTESE,
    MOORE8,
    RULE_NAMES,
    TOOTHPICK_DIGRAPH,
    CellGrid,
    RuleId,
    uw_von_neumann,
)


def test_detect_rectangles_examples():
    assert analysis.detect_rectangles(grow("toothpick", 7)).count == 18
    assert analysis.detect_rectangles(grow("toothpick", 3)).count == 2
    assert analysis.detect_rectangles(grow("toothpick", 2)).count == 0


def test_detect_rectangles_extents():
    rep = analysis.detect_rectangles(grow("toothpick", 3))
    assert rep.rectangles == ((-1, -1, 0, 1), (0, -1, 1, 1))


def _walk_every_stage(variant, stages):
    """The brute-force oracle: one face walk after every stage."""
    s = new_structure(variant)
    walked = [analysis.detect_rectangles(s).count]
    for n in range(1, stages + 1):
        s.grow(1)
        walked.append(analysis.detect_rectangles(s).count)
        if n <= 64:
            assert analysis.rectangles_by_stage(s) == walked, n
    return s, walked


def test_rectangles_match_recurrence_per_stage():
    R = list(accumulate(rec.prefix("r", 96)))
    s, walked = _walk_every_stage("toothpick", 96)
    assert walked == R
    assert analysis.rectangle_counts_by_stage(s) == R


def test_corner_rectangles_count_against_quadrant_walls():
    sums = list(accumulate(rec.prefix("rho", 96)))
    s, walked = _walk_every_stage("corner", 96)
    assert walked == sums
    assert analysis.rectangle_counts_by_stage(s) == sums


def test_euler_and_walk_agree_far_out():
    s = grow("toothpick", 512)
    assert analysis.rectangle_counts_by_stage(s) == list(accumulate(rec.prefix("r", 512)))


STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # E N W S


def _find(parent, a):
    """Dict union-find root of a; every node on the path is relinked to it."""
    root = a
    while parent[root] != root:
        root = parent[root]
    while parent[a] != root:
        parent[a], a = root, parent[a]
    return root


def _dict_euler(stages, walls=()):
    """The reference Euler count: E - V + C after each stage, from a dict
    union-find fed one unit edge (x, y, d) at a time; walls go first."""
    parent = {}
    V = E = C = 0
    find = lambda a: _find(parent, a)

    def add_edges(edges):
        nonlocal V, E, C
        for x, y, d in edges:
            a = (x, y)
            b = (x + STEPS[d][0], y + STEPS[d][1])
            for p in (a, b):
                if p not in parent:
                    parent[p] = p
                    V += 1
                    C += 1
            E += 1
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                C -= 1

    add_edges(walls)
    wall_faces = E - V + C
    counts = []
    for edges in stages:
        add_edges(edges)
        counts.append(E - V + C - wall_faces if V else 0)
    return counts


def _segment_edges(structure):
    """Per stage, the unit edges of its Segments, and the corner walls,
    both worked out from the Segments."""
    stages = [
        [(g.x + dx, g.y + dy, d) for g in structure.stage_segments(n)
         for dx, dy, d in UNIT_EDGES[g.orient]]
        for n in range(structure.stage + 1)
    ]
    walls = []
    if structure.variant == "corner" and structure.stage > 0:
        mnx = min(x for edges in stages for x, _, _ in edges)
        mny = min(y for edges in stages for _, y, _ in edges)
        walls = [(0, y, 1) for y in range(min(mny, 0) - 2, 0)]
        walls += [(x, 0, 0) for x in range(min(mnx, 0) - 2, 0)]
    return stages, walls


def _staged(stages):
    """Per-stage edge lists as the arrays (stage, x, y, d)."""
    rows = [(n, *e) for n, edges in enumerate(stages) for e in edges]
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 4).T)


@pytest.mark.parametrize("variant", ["toothpick", "corner"])
def test_euler_count_matches_the_dict_union_find(variant):
    for n in list(range(65)) + [512]:
        s = grow(variant, n)
        got = analysis.rectangle_counts_by_stage(s)
        assert got == _dict_euler(*_segment_edges(s)), n
        assert type(got) is list and all(type(c) is int for c in got)


def test_euler_count_refuses_two_components():
    square = lambda x, y: [(x, y, 0), (x, y + 1, 0), (x, y, 1), (x + 1, y, 1)]
    # Two unit squares apart (C = 2 at stage 1): the count reads C = 1,
    # so an edge list that does not grow as one piece is refused.
    stages = [square(0, 0), square(5, 0)]
    assert _dict_euler(stages) == [1, 2]
    with pytest.raises(ValueError, match="one piece"):
        analysis._euler_counts(_staged(stages), 1)


def _unique_euler(edges, last):
    """The Euler count as it was first written, by np.unique over every
    endpoint key with its inverse: the reference for `_euler_counts`."""
    stage, x, y, d = edges
    if not len(d):
        return [0] * (last + 1)
    steps = np.array(STEPS)
    # Endpoints in edge order: a0 b0 a1 b1 ...
    ex = np.stack([x, x + steps[d, 0]], axis=1).ravel()
    ey = np.stack([y, y + steps[d, 1]], axis=1).ravel()
    mny = ey.min()
    keys = (ex - ex.min()) * (ey.max() - mny + 1) + (ey - mny)
    _, first, vert = np.unique(keys, return_index=True, return_inverse=True)
    if (first[vert[first ^ 1]] > first).sum() != 1:
        raise ValueError("the edges do not grow as one piece from the first")
    bins = stage + 1  # stage -1 is bin 0
    E = np.bincount(bins, minlength=last + 2).cumsum()
    V = np.bincount(bins[first >> 1], minlength=last + 2).cumsum()
    faces = E - V + (V > 0)
    return (faces - faces[0])[1:].tolist()


@pytest.mark.parametrize("variant, n", [("toothpick", 512), ("corner", 256)])
def test_euler_count_matches_the_unique_count(variant, n):
    edges = analysis._face_edges(grow(variant, n))
    assert analysis._euler_counts(edges, n) == _unique_euler(edges, n)


def _euler_or_refusal(count, edges, last):
    try:
        return count(edges, last)
    except ValueError as exc:
        return str(exc)


def test_euler_count_matches_the_unique_count_on_random_edge_lists():
    rng = random.Random(19)
    for trial in range(300):
        # Each edge leaves or enters a vertex already drawn, in any of the
        # four directions, and may repeat one; every tenth list also gets
        # an edge apart from the rest, which neither count may accept.
        x, y = rng.randrange(-9, 9), rng.randrange(-9, 9)
        rows, verts = [], [(x, y)]
        for _ in range(rng.randrange(1, 60)):
            x, y = rng.choice(verts)
            d = rng.randrange(4)
            far = (x + STEPS[d][0], y + STEPS[d][1])
            if rng.random() < 0.5:
                x, y = x - STEPS[d][0], y - STEPS[d][1]
                far = (x, y)
            rows.append((x, y, d))
            verts.append(far)
        if trial % 10 == 0:
            rows.insert(rng.randrange(1, len(rows) + 1), (40, 40, rng.randrange(4)))
        stages = sorted(rng.randrange(-1, 6) for _ in rows)
        edges = tuple(np.array([(st, *r) for st, r in zip(stages, rows)], dtype=np.int64).T)
        want = _euler_or_refusal(_unique_euler, edges, 5)
        assert _euler_or_refusal(analysis._euler_counts, edges, 5) == want
        assert isinstance(want, str) == (trial % 10 == 0)


def test_a_face_split_later_is_an_error():
    # A 2 x 1 rectangle closed at stage 1 and split in two at stage 2: the
    # final walk sees two squares closed at stage 2, Euler one face at stage 1.
    # Stage 1 lists the bottom, then both sides, then the top, so that each
    # edge touches an earlier one.
    stages = [[], [(0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 0, 1), (0, 1, 0), (1, 1, 0)], [(1, 0, 1)]]
    assert _dict_euler(stages) == [0, 1, 2]
    with pytest.raises(analysis.NonRectangularFaceError, match="stage 1"):
        analysis._rectangles_by_stage(_staged(stages), 2)
    assert analysis._rectangles_by_stage(_staged(stages[:2]), 1) == [0, 1]
    # In the order bottom, top, sides, the top starts a second piece: refused.
    unordered = [[], [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (2, 0, 1)], [(1, 0, 1)]]
    with pytest.raises(ValueError, match="one piece"):
        analysis._rectangles_by_stage(_staged(unordered), 2)


def test_non_rectangular_face_is_an_error():
    # an L-shaped closed region (6 corners) must trip the falsification channel
    edges = [
        (0, 0, 0), (1, 0, 0),  # bottom
        (2, 0, 1), (2, 1, 1),  # right
        (2, 2, 2),             # top of the tall part
        (1, 2, 3),             # down the inner notch
        (1, 1, 2),             # across the notch
        (0, 1, 3),             # down the left side
    ]
    bounded, _ = analysis.extract_faces(_staged([edges]))
    assert len(bounded) == 1 and bounded[0][0] == 6


# Arriving along d, the directions clockwise from the reversed d (d + 2).
CLOCKWISE_FROM_REVERSED = tuple(((d + 1) % 4, d, (d + 3) % 4, d ^ 2) for d in range(4))


def _dict_faces(edges):
    """The reference face walk over unit edges (x, y, d), one step at a
    time through a dict of per-vertex direction bitmasks.

    Returns (bounded, unbounded_count) with bounded a list of (turns,
    min_x, min_y, max_x, max_y) per positive-area face.  The face
    interior stays on the left: at each head vertex the walk leaves by
    the first direction clockwise from the reversed incoming one.
    """
    out = {}  # vertex -> bitmask of the directions of its edges
    for x, y, d in edges:
        out[x, y] = out.get((x, y), 0) | 1 << d
        q = (x + STEPS[d][0], y + STEPS[d][1])
        out[q] = out.get(q, 0) | 1 << (d ^ 2)
    left = dict(out)  # the directed edges no walk has taken yet
    bounded = []
    unbounded = 0
    for start in out:
        while left[start]:
            first_d = d = (left[start] & -left[start]).bit_length() - 1
            p = start
            x, y = p
            area2 = turns = 0
            mnx = mxx = x
            mny = mxy = y
            while True:
                left[p] &= ~(1 << d)
                dx, dy = STEPS[d]
                nx, ny = x + dx, y + dy
                area2 += x * ny - nx * y
                x, y = nx, ny
                if x < mnx:
                    mnx = x
                elif x > mxx:
                    mxx = x
                if y < mny:
                    mny = y
                elif y > mxy:
                    mxy = y
                p = (x, y)
                mask = out[p]
                for nd in CLOCKWISE_FROM_REVERSED[d]:
                    if mask >> nd & 1:
                        break
                if nd != d:
                    turns += 1
                d = nd
                if d == first_d and p == start:
                    break
            if area2 > 0:
                bounded.append((turns, mnx, mny, mxx, mxy))
            else:
                unbounded += 1
    return bounded, unbounded


def _assert_walk_matches_the_dict_walk(edges):
    bounded, unbounded = analysis.extract_faces(edges)
    want_bounded, want_unbounded = _dict_faces(zip(*(a.tolist() for a in edges[1:])))
    assert sorted(map(tuple, bounded[:, :5].tolist())) == sorted(want_bounded)
    assert unbounded == want_unbounded and type(unbounded) is int
    assert bounded.dtype == np.int64 and bounded.shape[1] == 6
    return bounded


def _assert_closing_stages(edges, bounded):
    """Each rectangle's closing stage is the latest of its perimeter edges'
    first stages, read from a dict of the edges (x, y, d) with d E or N."""
    least = {}
    for st, x, y, d in zip(*(a.tolist() for a in edges)):
        if d >= 2:  # the same edge, from its other end
            x, y, d = x + STEPS[d][0], y + STEPS[d][1], d - 2
        least[x, y, d] = min(st, least.get((x, y, d), st))
    for turns, x0, y0, x1, y1, closing in bounded.tolist():
        if turns != 4:
            continue
        perimeter = [(x, y, 0) for x in range(x0, x1) for y in (y0, y1)]
        perimeter += [(x, y, 1) for x in (x0, x1) for y in range(y0, y1)]
        assert closing == max(least[e] for e in perimeter), (x0, y0, x1, y1)


@pytest.mark.parametrize("variant", ["toothpick", "corner"])
def test_face_walk_matches_the_dict_walk(variant):
    s = new_structure(variant)
    for n in range(65):
        edges = analysis._face_edges(s.grow(min(n, 1)))
        _assert_closing_stages(edges, _assert_walk_matches_the_dict_walk(edges))
    edges = analysis._face_edges(grow(variant, 256))
    _assert_closing_stages(edges, analysis.extract_faces(edges)[0])
    _assert_walk_matches_the_dict_walk(analysis._face_edges(grow(variant, 512)))


def test_face_walk_matches_the_dict_walk_on_random_edge_sets():
    bounded, unbounded = analysis.extract_faces(_staged([]))
    assert bounded.shape == (0, 6) and unbounded == 0
    rng = random.Random(20)
    for _ in range(300):
        w = rng.randrange(1, 7)
        rows = [
            (rng.randrange(4), rng.randrange(-w, w), rng.randrange(-w, w), rng.randrange(4))
            for _ in range(rng.randrange(1, 50))
        ]
        # Repeated edges at other stages, some given from their other end.
        rows += [(rng.randrange(4), x, y, d) for _, x, y, d in rng.choices(rows, k=3)]
        rows += [
            (rng.randrange(4), x + STEPS[d][0], y + STEPS[d][1], d ^ 2)
            for _, x, y, d in rng.choices(rows, k=3)
        ]
        # A spike: an edge out of the box, with a free far end.
        rows.append((rng.randrange(4), w, rng.randrange(-w, w), 0))
        edges = tuple(np.array(rows, dtype=np.int64).T)
        _assert_closing_stages(edges, _assert_walk_matches_the_dict_walk(edges))


def test_ratio_bound():
    rep = analysis.ratio_bound_check(1 << 12)
    assert rep.equality_indices == tuple((1 << k) - 1 for k in range(1, 13))
    # the two stated boundary cases, exhibited exactly
    T = rec.prefix("T", 16)
    assert Fraction(T[15], 15 * 15) == Fraction(2, 3) + Fraction(1, 45)
    assert Fraction(T[16], 16 * 16) < Fraction(2, 3) + Fraction(1, 48)
    assert Fraction(T[1], 1) == Fraction(2, 3) + Fraction(1, 3)


def test_limsup_witness():
    # T(2**k - 1) = (2**k - 1)(2**(k+1) - 1)/3 makes the bound exact
    T = rec.prefix("T", (1 << 20) - 1)
    for k in range(1, 21):
        n = (1 << k) - 1
        assert 3 * T[n] == n * ((1 << (k + 1)) - 1)


def test_local_minima():
    assert analysis.local_minima(100) == [1, 2, 5, 12, 21, 44, 89]
    assert analysis.local_minima(3000)[-2:] == [1459, 2921]
    assert analysis.local_minima(1) == [1]
    assert analysis.local_minima(0) == []


def test_sample_limit_function_small():
    ls = analysis.sample_limit_function(2)
    assert [s.value for s in ls.samples] == [
        Fraction(11, 16),
        Fraction(15, 25),
        Fraction(23, 36),
        Fraction(35, 49),
    ]
    assert ls.left_value == Fraction(11, 16)


def test_sample_limit_function_block_start_value():
    # at i = 0 the ratio is exactly 2/3 + 4**(-k)/3
    for k in (3, 6, 10):
        ls = analysis.sample_limit_function(k)
        assert ls.left_value == Fraction(2, 3) + Fraction(1, 3 * 4**k)


def test_tree_checks():
    assert analysis.tree_check(CellGrid(uw_von_neumann(2)).grow(16))
    assert analysis.tree_check(CellGrid(TOOTHPICK_DIGRAPH).grow(32))
    assert analysis.tree_check(grow("toothpick", 64))
    assert analysis.tree_check(grow("corner", 64))
    assert analysis.tree_check(grow("leftist", 64))
    # the graph is on the ON cells only; a DEAD cell is not part of it
    assert analysis.tree_check(CellGrid(MALTESE).grow(20))
    # no tree claim for the eight-neighbor rule; informational only
    assert analysis.tree_check(CellGrid(MOORE8).grow(8)) is False


@pytest.mark.parametrize("variant", ["t", "y"])
def test_tree_check_rejects_t_and_y(variant):
    # a T or a Y is one element drawn as three segments, so the
    # one-parent-per-toothpick walk does not apply
    with pytest.raises(ValueError):
        analysis.tree_check(grow(variant, 8))
    # nor are a T's bar or a Y's arms toothpicks for the quadrant count
    with pytest.raises(ValueError, match="toothpick variants"):
        analysis.quadrant_count_geometric(grow(variant, 16))


def _with_stage(grid, cells):
    """A copy of a 2-D `grid` with `cells` switched ON as one more grown stage."""
    altered = copy.copy(grid)
    altered._placed = grid._placed + [(np.array(cells), np.empty((0, 2), dtype=np.int64))]
    return altered


def test_activation_walk_rejects_a_digraph_node_with_two_parents_or_none():
    grid = CellGrid(TOOTHPICK_DIGRAPH).grow(6)
    assert analysis.tree_check(grid)
    on = set(grid.on_cells())
    # An OFF cell whose two in-neighbors are both ON is the one the rule
    # refused; switching it on gives it two earlier parents.
    two = next(
        (x, y)
        for x in range(-8, 9)
        for y in range(-8, 9)
        if (x, y) not in on
        and all(q in on for q in (((x - 1, y), (x + 1, y)) if (x + y) % 2 == 0
                                  else ((x, y - 1), (x, y + 1))))
    )
    assert analysis.tree_check(_with_stage(grid, [two])) is False
    assert analysis.tree_check(_with_stage(grid, [(20, 20)])) is False  # no ON neighbor at all


def test_activation_walk_rejects_a_toothpick_with_two_parents_or_none():
    s = grow("toothpick", 6)
    placed = s.placements()
    segs = s.segments()
    mids = {(x, y) for _, _, x, y in segs}
    # Two verticals meeting end to end leave a point where a horizontal
    # would touch both of them at its midpoint.
    x, y = next(
        (x, y - 1) for _, o, x, y in segs
        if o == "v" and (x, y - 2) in mids and (x, y - 1) not in mids
    )
    horizontal = placed[3][placed[0] == 2][0]  # stage 2 is horizontal
    for extra in ((7, x, y, horizontal), (3, 40, 40, horizontal)):
        rows = tuple(np.append(a, v) for a, v in zip(placed, extra))
        altered = SimpleNamespace(variant="toothpick", placements=lambda r=rows: r)
        assert analysis.tree_check(altered) is False
    assert analysis.tree_check(SimpleNamespace(variant="toothpick", placements=lambda: placed))


def test_induced_tree_check_rejects_a_cycle_or_a_second_component():
    grid = CellGrid(uw_von_neumann(2)).grow(8)
    assert analysis.tree_check(grid)
    on = set(grid.on_cells())
    # An OFF cell with two ON neighbors is one the rule refused; switching
    # it on closes a cycle.
    two = next(
        (x, y)
        for x in range(-10, 11)
        for y in range(-10, 11)
        if (x, y) not in on
        and sum(q in on for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))) == 2
    )
    lone = (40, 40)  # no ON neighbor at all
    # Both together give N - 1 neighbor pairs, yet two components.
    for extra in ((two,), (lone,), (two, lone)):
        altered = _with_stage(grid, extra)
        assert analysis.tree_check(altered) is False, extra
        assert _dict_tree(altered) is False, extra


def _union_find_tree(nodes, pairs) -> bool:
    parent = {c: c for c in nodes}
    for a, b in pairs:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            return False  # cycle
        parent[ra] = rb
    return len({_find(parent, c) for c in nodes}) <= 1


def _dict_tree(obj) -> bool:
    """The reference tree check, a dict union-find over the nodes' joins.

    A grid's ON cells are joined to every ON neighbor (Moore for the
    moore8 rules, von Neumann otherwise); the directed toothpick grid's
    cells (x + y even for a vertical) and the segment structures'
    toothpicks past stage 1 are joined to their one strictly earlier
    perpendicular neighbor, and a second one or none fails.
    """
    if isinstance(obj, CellGrid):
        st, coords, is_on = obj.cells()
        stage = dict(zip(map(tuple, coords[is_on].tolist()), st[is_on].tolist()))
        if obj.rule.name != "toothpick_digraph":
            moore = ((1, 0), (0, 1), (1, 1), (1, -1))
            dim = obj.dimension
            axes = tuple(tuple(int(i == j) for i in range(dim)) for j in range(dim))
            half = moore if obj.rule.name.startswith("moore8") else axes
            pairs = [
                (c, q) for c in stage for q in (tuple(map(sum, zip(c, h))) for h in half)
                if q in stage
            ]
            return _union_find_tree(stage, pairs)
        vertical = {c: (c[0] + c[1]) % 2 == 0 for c in stage}
    else:
        toothpicks = [(st, o, x, y) for st, o, x, y in obj.segments() if o in ("h", "v")]
        stage = {(x, y): st for st, _, x, y in toothpicks}
        vertical = {(x, y): o == "v" for _, o, x, y in toothpicks}
    pairs = []
    for (x, y), st in stage.items():
        if st <= 1:
            continue
        nbrs = ((x - 1, y), (x + 1, y)) if vertical[x, y] else ((x, y - 1), (x, y + 1))
        parents = [q for q in nbrs if stage.get(q, st) < st]
        if len(parents) != 1:
            return False
        pairs.append((parents[0], (x, y)))
    return _union_find_tree(stage, pairs)


@pytest.mark.parametrize("variant", analysis.TREE_VARIANTS)
def test_tree_check_matches_the_dict_union_find_on_structures(variant):
    for n in (0, 1, 2, 3, 7, 64, 256):
        s = grow(variant, n)
        assert analysis.tree_check(s) is _dict_tree(s), n


GRID_RULES = [uw_von_neumann(d) for d in (1, 2, 3, 4)] + [
    RuleId(name) for name in RULE_NAMES if name != "uw_von_neumann"
]


@pytest.mark.parametrize("rule", GRID_RULES, ids=[f"{r.name}_d{r.dimension}" for r in GRID_RULES])
def test_tree_check_matches_the_dict_union_find_on_grids(rule):
    for n in (0, 1, 2, 5, 8, 20, 64):
        if rule.dimension >= 3 and n > 12:
            break
        grid = CellGrid(rule).grow(n)
        assert analysis.tree_check(grid) is _dict_tree(grid), n


def test_quadrant_Q():
    assert analysis.quadrant_Q(3) == 1
    assert analysis.quadrant_Q(9) == 11
    assert analysis.quadrant_Q(0) == 0
    s = grow("toothpick", 128)
    assert analysis.quadrant_count_geometric(s) == analysis.quadrant_Q(128)


def test_detect_rectangles_rejects_other_variants():
    with pytest.raises(ValueError):
        analysis.detect_rectangles(grow("t", 3))
    for variant in ("t", "leftist"):
        with pytest.raises(ValueError, match="square.lattice"):
            analysis.rectangle_counts_by_stage(grow(variant, 3))
    # Y arms have no square-lattice unit edges or extents
    with pytest.raises(ValueError, match="square.lattice"):
        analysis.rectangle_counts_by_stage(grow("y", 3))
    with pytest.raises(ValueError, match="square.lattice"):
        bounding_box(grow("y", 3))
