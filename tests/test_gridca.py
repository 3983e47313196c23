import numpy as np
import pytest

from toothpicks import closedform as cf
from toothpicks import analysis, engine, gridca
from toothpicks import recurrences as rec
from toothpicks.gridca import (
    DEAD,
    MALTESE,
    MOORE8,
    MOORE8_CORNER1,
    MOORE8_CORNER2,
    ON,
    RULE942,
    TOOTHPICK_DIGRAPH,
    CellGrid,
    activation_map,
    build_maltese_by_construction,
    run,
    uw_von_neumann,
)
from toothpicks import verify
from toothpicks.verify import load_fixture


def two_adic(n):
    return (n & -n).bit_length() - 1


def _states(grid):
    """{cell: (state, stage)} of every non-OFF cell, read from `cells()`."""
    stage, coords, is_on = grid.cells()
    states = {tuple(c): (ON if on else DEAD, st)
              for c, on, st in zip(coords.tolist(), is_on.tolist(), stage.tolist())}
    assert len(states) == len(coords)  # no cell is set twice
    return states


def _dict_maltese(n):
    """The reference Maltese-cross stepper, a dict of (state, stage) per
    cell grown stage by stage, and its per-stage ON counts."""
    edge = ((1, 0), (-1, 0), (0, 1), (0, -1))
    states, on, last_on, counts = {}, set(), [], [0]
    for stage in range(1, n + 1):
        if stage == 1:
            states[(0, 0)] = (ON, 1)
            on.add((0, 0))
            last_on = [(0, 0)]
            counts.append(1)
            continue
        candidates = {
            (c[0] + d[0], c[1] + d[1]) for c in last_on for d in edge
            if (c[0] + d[0], c[1] + d[1]) not in states
        }
        dead_now = []
        survivors = {}  # candidate -> its single ON parent
        for q in candidates:
            on_nbrs = [(q[0] + d[0], q[1] + d[1]) for d in edge if (q[0] + d[0], q[1] + d[1]) in on]
            if len(on_nbrs) >= 2:
                dead_now.append(q)
            else:
                survivors[q] = on_nbrs[0]
        # Shared outer vertex between two same-stage candidates kills both.
        # Cell (i, j) is the unit square with corners (i, j)..(i+1, j+1);
        # the outer vertices are the two corners away from the parent edge.
        vertex_users = {}
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
        vertex_dead = {q for users in vertex_users.values() if len(users) >= 2 for q in users}
        dead_now.extend(vertex_dead)
        # Adjacency to an established DEAD cell kills, except that in
        # stages n = 2 (mod 3) only a neighbor declared DEAD before the
        # previous stage does.
        newly = []
        for q in survivors:
            if q in vertex_dead:
                continue
            doom = any(
                states.get((q[0] + d[0], q[1] + d[1]), (ON,))[0] == DEAD
                and (stage % 3 != 2 or states[q[0] + d[0], q[1] + d[1]][1] <= stage - 2)
                for d in edge
            )
            (dead_now if doom else newly).append(q)
        for q in dead_now:
            states[q] = (DEAD, stage)
        for q in newly:
            states[q] = (ON, stage)
        on.update(newly)
        last_on = newly
        counts.append(len(newly))
    return states, counts


def _coordinate_stepper(rule, n):
    """The reference box stepper, which builds every neighbor as a
    coordinate row, keys it by a matmul and removes duplicates with
    np.unique; its per-stage (ON, DEAD) arrays, as `CellGrid._placed`."""
    offsets, eligible, blocked, seed, _, mortal = gridca._counting(rule)
    offsets, dim, half = np.array(offsets, dtype=np.int64), rule.dimension, n + 2
    on = np.zeros((2 * half + 1) ** dim, dtype=np.uint8)
    key = lambda cells: (cells + half) @ (2 * half + 1) ** np.arange(dim - 1, -1, -1)
    around = lambda cells: (cells[:, None, :] + offsets).reshape(-1, dim)
    none = np.empty((0, dim), dtype=np.int64)
    placed = [(none, none)]
    for stage in range(1, n + 1):
        dead = none
        if stage == 1:
            new = np.array([seed], dtype=np.int64)
        else:
            nbrs = around(new)
            keys, first = np.unique(key(nbrs), return_index=True)
            cand = nbrs[first[on[keys] == 0]]
            if blocked is not None:
                cand = cand[~blocked(cand)]
            ok = eligible(on[key(around(cand))].reshape(len(cand), -1), cand, stage)
            new = cand[ok]
            if mortal:
                dead = cand[~ok]
                on[key(dead)] = 2
        on[key(new)] = 1
        placed.append((new, dead))
    return placed


def test_uw_counts():
    seq = run(uw_von_neumann(2), 49)
    assert list(seq.terms) == list(load_fixture("A147582").terms)
    assert seq.value(16) == 108
    assert sum(seq.terms[:17]) == 341


COUNTING_RULES = (
    uw_von_neumann(1), uw_von_neumann(2), uw_von_neumann(3), uw_von_neumann(4),
    MOORE8, MOORE8_CORNER1, MOORE8_CORNER2, RULE942, TOOTHPICK_DIGRAPH,
)


def rule_id(rule):
    return f"{rule.name}-d{rule.dimension}"


@pytest.mark.parametrize("rule", COUNTING_RULES, ids=rule_id)
def test_folded_and_plain_engines_agree(rule):
    # run() folds the symmetric rules; CellGrid keeps every cell.
    n = 32 if rule.dimension == 4 else 128
    folded = run(rule, n)
    plain = CellGrid(rule).grow(n)
    assert list(folded.terms) == plain.counts
    assert sum(plain.counts) == len(_states(plain))


@pytest.mark.parametrize("rule", COUNTING_RULES[:3] + COUNTING_RULES[4:] + (MALTESE,), ids=rule_id)
def test_resumed_growth_matches_one_call(rule):
    whole = CellGrid(rule).grow(40)
    resumed = CellGrid(rule).grow(0).grow(3).grow(1).grow(36)
    assert resumed.dump() == whole.dump()
    assert resumed.counts == whole.counts and resumed.stage == whole.stage == 40


def test_uw_dimension_formula():
    for d, n_max in ((1, 128), (2, 128), (3, 64), (4, 24)):
        got = run(uw_von_neumann(d), n_max)
        assert list(got.terms) == [cf.uw_d(d, n) for n in range(n_max + 1)], d
    assert run(uw_von_neumann(3), 2).value(2) == 6
    with pytest.raises(ValueError):
        uw_von_neumann(5)


def test_moore8_counts():
    seq = run(MOORE8, 29)
    assert list(seq.terms) == list(load_fixture("A151726").terms)
    totals = [sum(seq.terms[: i + 1]) for i in range(1, 9)]
    assert totals == [1, 9, 13, 33, 37, 57, 77, 121]


def test_moore8_corners():
    v1 = CellGrid(MOORE8_CORNER1).grow(29).added_per_stage()
    v2 = CellGrid(MOORE8_CORNER2).grow(29).added_per_stage()
    assert list(v1.terms) == rec.prefix("v1", 29)
    assert list(v2.terms) == rec.prefix("v2", 29)
    assert v1.value(8) == 21
    assert v2.value(8) == 23


def test_rule942_counts():
    seq = run(RULE942, 40)
    assert seq.value(9) == 28
    assert list(seq.terms) == [cf.r942_w(n) for n in range(41)]


def test_digraph_counts():
    seq = run(TOOTHPICK_DIGRAPH, 64)
    assert list(seq.terms) == rec.prefix("t", 64)
    assert seq.value(7) == 12
    assert seq.value(1) == 1
    assert seq.value(16) == 16


def test_maltese_construction_oracle():
    seq = build_maltese_by_construction(64)
    assert list(seq.terms) == [cf.maltese_m(n) for n in range(65)]
    assert seq.value(3) == 4
    assert seq.value(6) == 4
    assert seq.value(0) == 0
    # label counts are margin-stable: a wider build changes nothing
    wide = build_maltese_by_construction(32)
    assert list(wide.terms) == list(seq.terms)[:33]


def test_maltese_ca_matches_through_17_then_diverges():
    seq = run(MALTESE, 24)
    formula = [cf.maltese_m(n) for n in range(25)]
    assert list(seq.terms[:18]) == formula[:18]
    assert seq.value(1) == 1 and seq.value(2) == 4 and seq.value(5) == 12
    # the reconstructed rules leave the block-end arm tips alive at
    # stage 18; this pins the first divergence so a change is loud
    assert seq.value(18) == 20 and formula[18] == 12


@pytest.mark.parametrize("n", (17, 18, 64, 300))
def test_maltese_matches_the_dict_stepper(n):
    states, counts = _dict_maltese(n)
    grid = CellGrid(MALTESE).grow(n)
    assert _states(grid) == states  # cell for cell, state and stage
    assert grid.counts == counts


# Every rule CellGrid steps, bar uw4, whose box at 200 stages is too large,
# then one resumed growth: each call re-keys the wave into a larger box.
FLAT_KEY_CASES = [(rule, (48,) if rule.dimension == 3 else (200,))
                  for rule in COUNTING_RULES[:3] + COUNTING_RULES[4:] + (MALTESE,)]
FLAT_KEY_CASES.append((uw_von_neumann(3), (0, 1, 6, 17, 24)))


@pytest.mark.parametrize("rule, calls", FLAT_KEY_CASES,
                         ids=[f"{rule_id(r)}-{'+'.join(map(str, c))}" for r, c in FLAT_KEY_CASES])
def test_flat_keys_match_the_coordinate_stepper(rule, calls):
    grid = CellGrid(rule)
    for n in calls:
        grid.grow(n)
    want = _coordinate_stepper(rule, sum(calls))
    assert len(grid._placed) == len(want)
    for stage, (got, placed) in enumerate(zip(grid._placed, want)):
        for a, b in zip(got, placed):
            assert a.dtype == b.dtype and np.array_equal(a, b), (stage, a, b)


def test_maltese_run_matches_the_dict_stepper():
    assert list(run(MALTESE, 64).terms) == _dict_maltese(64)[1]


def test_maltese_dead_codes_and_the_stage_2_mod_3_exception():
    # The stepper codes a cell ON 1 and DEAD 2.  A DEAD neighbor dooms a
    # candidate except in stages n = 2 (mod 3).  The eligibility test is
    # called on two made-up candidates, far apart, each with an ON west
    # neighbor; only the first has a DEAD north one.
    grid = CellGrid(MALTESE).grow(20)
    stage, coords, is_on = grid.cells()
    frontier = grid._frontier
    assert (frontier.on[frontier._key(coords)] == np.where(is_on, 1, 2)).all()
    cells = np.array([(5, 0), (0, 5)])
    codes = np.array([(0, 1, 2, 0), (0, 1, 0, 0)], dtype=np.uint8)
    assert [gridca._maltese_eligible(codes, cells, n).tolist() for n in (4, 5, 6)] == [
        [False, True], [True, True], [False, True]]


def test_maltese_states_monotone():
    g = _states(CellGrid(MALTESE).grow(20))
    assert all(st in (ON, DEAD) for st, _ in g.values())
    regrow = _states(CellGrid(MALTESE).grow(12))
    for cell, (state, stage) in regrow.items():
        assert g[cell] == (state, stage)  # once set, never changes


def test_activation_map():
    g = CellGrid(uw_von_neumann(2)).grow(16)
    am = activation_map(g)
    assert am[(0, 0)] == 1
    assert am[(1, 0)] == 2
    assert am[(2, 1)] == 4  # unequal 2-adic valuations: reachable
    assert (1, 1) not in am
    assert (2, 2) not in am
    assert (3, 1) not in am


def test_uw_eventual_on_characterization():
    # within |x|, |y| <= 32: reachable iff on an axis or the 2-adic
    # valuations of x and y differ; settled well before stage 160
    g160 = CellGrid(uw_von_neumann(2)).grow(160)
    g256 = CellGrid(uw_von_neumann(2)).grow(256)
    box = lambda g: {
        c for c in _states(g) if max(abs(c[0]), abs(c[1])) <= 32
    }
    assert box(g160) == box(g256)
    on = box(g256)
    for x in range(-32, 33):
        for y in range(-32, 33):
            expected = x == 0 or y == 0 or two_adic(x) != two_adic(y)
            assert ((x, y) in on) == expected, (x, y)


def test_symmetry_dihedral():
    for rule in (uw_von_neumann(2), MOORE8):
        g = CellGrid(rule).grow(21)
        cells = set(_states(g))
        for x, y in cells:
            for p in ((-x, y), (x, -y), (y, x), (-y, -x)):
                assert p in cells


def test_dump_format():
    g = CellGrid(uw_von_neumann(2)).grow(2)
    assert g.dump() == (
        "ON 2 -1 0\nON 2 0 -1\nON 1 0 0\nON 2 0 1\nON 2 1 0\n"
    )
    g3 = CellGrid(uw_von_neumann(3)).grow(1)
    assert g3.dump() == "ON 1 0 0 0\n"


def test_rule_validation():
    bad = (("moore8", 3), ("life", 2), ("uw_von_neumann", 0), ("uw_von_neumann", 5),
           ("uw_von_neumann", 6), ("maltese", 1))
    for name, d in bad:
        with pytest.raises(ValueError):
            CellGrid(gridca.RuleId(name, d))
        with pytest.raises(ValueError):
            run(gridca.RuleId(name, d), 5)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: run(uw_von_neumann(2), -3), id="run-folded"),
    pytest.param(lambda: run(MOORE8_CORNER1, -1), id="run-box"),
    pytest.param(lambda: CellGrid(RULE942).grow(-2), id="grid"),
    pytest.param(lambda: CellGrid(TOOTHPICK_DIGRAPH).grow(4).grow(-1), id="grid-resumed"),
    pytest.param(lambda: run(MALTESE, -2), id="run-maltese"),
    pytest.param(lambda: run(TOOTHPICK_DIGRAPH, -1), id="run-digraph"),
    pytest.param(lambda: build_maltese_by_construction(-1), id="maltese-construction"),
    pytest.param(lambda: engine.grow("toothpick", -3), id="engine-toothpick"),
    pytest.param(lambda: engine.grow("corner", -1), id="engine-corner"),
    *(pytest.param(lambda r=r: rec.prefix(r, -1), id=f"prefix-{r}") for r in rec.RULES),
    pytest.param(lambda: rec.RecurrenceSpec(1, 1, 1, 2).prefix(-1), id="prefix-spec"),
    pytest.param(lambda: rec.RecurrenceSpec(1, 1, 1, 1, 0).prefix(-1), id="prefix-spec-k0"),
    pytest.param(lambda: analysis.local_minima(-1), id="local-minima-1"),
    pytest.param(lambda: analysis.local_minima(-3), id="local-minima-3"),
    *(pytest.param(lambda b=b: verify.crosscheck(verify.bindings()[b], n_max=-1),
                   id=f"crosscheck-{b}") for b in verify.bindings()),
    # refused before any route runs
    pytest.param(lambda: verify.crosscheck(verify.SequenceBinding("unrun", None, (
        verify.Generator("simulate", lambda n: 1 / 0, 8),)), n_max=-1), id="crosscheck-unrun"),
])
def test_negative_stage_count_rejected(call):
    with pytest.raises(ValueError, match="n must be >= 0"):
        call()


def test_maltese_totals_through_eight():
    # total labeled cells through 8: 0+1+4+4+4+12+4+4+12
    seq = build_maltese_by_construction(8)
    assert sum(seq.terms) == 45
    assert sum(run(MALTESE, 8).terms) == 45  # CA still agrees this early
