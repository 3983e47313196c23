"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Tolerances and ranges are pinned here, not configurable.
"""

import math
import random
import resource
import time
from fractions import Fraction
from itertools import accumulate

import pytest

from toothpicks import analysis, closedform as cf, engine, gridca
from toothpicks import recurrences as rec
from toothpicks import series, verify

from int_oracles import binary_weight


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def crosscheck_sweep():
    """One full sweep of every binding at its own generator bounds,
    shared by criteria 2 and 9."""
    t0 = time.perf_counter()
    reports = {
        name: verify.crosscheck(binding)
        for name, binding in verify.bindings().items()
    }
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_1_table_goldens():
    t0 = time.perf_counter()
    fx = {
        name: list(verify.load_fixture(name).terms)
        for name in (
            "A139251", "A139250", "A152980", "A153006", "A168131", "A160125",
            "A160124", "A147582", "A147562", "A151565", "A151566", "A151726",
            "A151725", "A151747", "A151728", "table7_w", "table7_delta",
        )
    }
    # toothpick t, T for n <= 49, every generator
    assert rec.prefix("t", 49) == fx["A139251"]
    assert [cf.t_explicit(n) for n in range(50)] == fx["A139251"]
    assert series.toothpick_gf(50).coeffs == fx["A139251"]
    assert engine.grow("toothpick", 49).counts == fx["A139251"]
    assert list(gridca.run(gridca.TOOTHPICK_DIGRAPH, 49).terms) == fx["A139251"]
    assert rec.prefix("T", 49) == fx["A139250"]
    assert series.toothpick_total_gf(50).coeffs == fx["A139250"]
    # corner c, C for n <= 39
    assert rec.prefix("c", 39) == fx["A152980"]
    assert series.corner_gf(40).coeffs == fx["A152980"]
    assert engine.grow("corner", 39).counts == fx["A152980"]
    assert list(accumulate(rec.prefix("c", 39))) == fx["A153006"]
    # rectangles rho, r, R for n <= 15, recurrence and geometry
    assert rec.prefix("rho", 15) == fx["A168131"]
    assert rec.prefix("r", 15) == fx["A160125"]
    assert list(accumulate(rec.prefix("r", 15))) == fx["A160124"]
    s = engine.grow("toothpick", 15)
    assert analysis.rectangle_counts_by_stage(s) == fx["A160124"]
    sc = engine.grow("corner", 15)
    assert analysis.rectangle_counts_by_stage(sc) == [
        sum(fx["A168131"][: i + 1]) for i in range(16)
    ]
    # one-of-four u, U for n <= 49
    assert rec.prefix("u", 49) == fx["A147582"]
    assert [cf.uw_u(n) for n in range(50)] == fx["A147582"]
    assert series.uw_gf(50).coeffs == fx["A147582"]
    assert list(gridca.run(gridca.uw_von_neumann(2), 49).terms) == fx["A147582"]
    assert list(accumulate(rec.prefix("u", 49))) == fx["A147562"]
    # leftist l, L for n <= 15
    assert engine.grow("leftist", 15).counts == fx["A151565"]
    assert [cf.leftist_l(n) for n in range(16)] == fx["A151565"]
    acc, L = 0, []
    for n in range(16):
        acc += cf.leftist_l(n)
        L.append(acc)
    assert L == fx["A151566"]
    # one-or-four w, u, w', delta for n <= 15
    assert [cf.r942_w(n) for n in range(16)] == fx["table7_w"]
    assert list(gridca.run(gridca.RULE942, 15).terms) == fx["table7_w"]
    assert [w - u for w, u in zip(fx["table7_w"], fx["A147582"])] == [
        0, 0, 0, 0, 0, 4, 0, 0, 0, 24, 0, 0, 0, 16, 0, 0,
    ]
    assert [cf.r942_delta(n) for n in range(16)] == fx["table7_delta"]
    # eight-neighbor v, V, v1, v2 for n <= 29
    assert rec.prefix("v", 29) == fx["A151726"]
    assert list(accumulate(rec.prefix("v", 29))) == fx["A151725"]
    assert rec.prefix("v1", 29) == fx["A151747"]
    assert rec.prefix("v2", 29) == fx["A151728"]
    assert list(gridca.run(gridca.MOORE8, 29).terms) == fx["A151726"]
    assert list(gridca.CellGrid(gridca.MOORE8_CORNER1).grow(29).added_per_stage().terms) == fx["A151747"]
    assert list(gridca.CellGrid(gridca.MOORE8_CORNER2).grow(29).added_per_stage().terms) == fx["A151728"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"table goldens took {elapsed:.2f}s"
    _report(1, f"published tables reproduced by every generator in {elapsed:.2f}s")


def test_criterion_2_cross_oracle_agreement(crosscheck_sweep):
    reports, elapsed = crosscheck_sweep
    must = [name for name, bd in verify.bindings().items() if bd.must_agree]
    failures = []
    for name in must:
        rep = reports[name]
        if not rep.agreed:
            failures.extend(rep.lines())
    assert not failures, "\n".join(failures)
    # simulation routes reach n = 512 where the criterion demands it
    for name in ("toothpick_t", "corner_c", "uw_u", "eight_v", "eight_v1",
                 "eight_v2", "rule942_w", "t_toothpick_tau", "uw_u_d3", "rect_R"):
        sim_pairs = [p for p in reports[name].pairs if "simulate" in (p.tag_a, p.tag_b)]
        assert any(p.checked and p.checked[1] >= 512 for p in sim_pairs), name
    # recurrence vs closed form to 2**16 where both exist
    for name in ("toothpick_t", "uw_u", "f_sequence"):
        rc = [
            p for p in reports[name].pairs
            if {p.tag_a, p.tag_b} == {"recurrence", "closedform"}
        ]
        assert any(p.checked and p.checked[1] >= (1 << 16) - 1 for p in rc), name
    assert elapsed < 60.0, f"cross-oracle sweep took {elapsed:.1f}s"
    _report(2, f"{len(must)} must-agree bindings agree on all routes in {elapsed:.1f}s")


def test_criterion_3_theorem4_property():
    rng = random.Random(53278)
    order = 4096
    for trial in range(50):
        a, b, g, d = (rng.randint(-3, 3) for _ in range(4))
        got = series.theorem4_series(a, b, g, d, 1, order).coeffs
        want = rec.RecurrenceSpec(a, b, g, d).prefix(order - 1)
        assert got == want, (trial, a, b, g, d)
    _report(3, "50 random product expansions match the block recurrence at order 4096")


def test_criterion_4_structural_theorems():
    # corner shape at stages 2**k - 1
    for k in range(2, 9):
        rep = engine.corner_boundary_snapshot(engine.grow("corner", (1 << k) - 1))
        assert rep.height == Fraction(1 << (k - 1)) - Fraction(1, 2)
        assert rep.width == (1 << (k - 1)) - 1
        assert rep.top_exposed_ends == 1 << (k - 1)
        assert rep.has_protruding_half and rep.interior_exposed_ends == 0
    # toothpick bounding box at stages 2**k
    for k in range(2, 9):
        s = engine.grow("toothpick", 1 << k)
        half = 1 << (k - 1)
        assert engine.bounding_box(s) == (-half, -half, half, half)
        assert s.exposed_points() == {(a * half, b * half) for a in (-1, 1) for b in (-1, 1)}
    # every bounded face is a rectangle at every stage through 256,
    # and the counts match the recurrence (one face walk at 256, each
    # face labelled with the stage that closes it; raises on a
    # non-rectangle or on a face split at a later stage)
    R = list(accumulate(rec.prefix("r", 256)))
    assert analysis.rectangles_by_stage(engine.grow("toothpick", 256)) == R
    # trees: full induced subgraph for the one-of-four rule (acyclic at
    # 256 implies acyclic at every earlier stage; tree_check also checks
    # that every cell but the seed touches an earlier one, so the cells
    # set by any stage are connected);
    # activation tree for the directed toothpick model (the uniqueness
    # of each node's earlier feeder is checked for every node at once).
    assert analysis.tree_check(gridca.CellGrid(gridca.uw_von_neumann(2)).grow(256))
    assert analysis.tree_check(gridca.CellGrid(gridca.uw_von_neumann(2)).grow(100))
    assert analysis.tree_check(gridca.CellGrid(gridca.TOOTHPICK_DIGRAPH).grow(256))
    assert analysis.tree_check(gridca.CellGrid(gridca.TOOTHPICK_DIGRAPH).grow(100))
    _report(4, "corner/toothpick shapes, rectangular faces (n <= 256) and tree checks hold")


def test_criterion_5_asymptotics():
    t0 = time.perf_counter()
    rep = analysis.ratio_bound_check(1 << 16)
    assert rep.equality_indices == tuple((1 << k) - 1 for k in range(1, 17))
    assert analysis.local_minima(3000) == [
        1, 2, 5, 12, 21, 44, 89, 180, 362, 728, 1459, 2921,
    ]
    ls = analysis.sample_limit_function(14)
    assert abs(float(ls.min_value) - 0.4513058) < 1e-3
    assert abs(float(ls.min_x) - 0.427451) < 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"asymptotics took {elapsed:.1f}s"
    _report(
        5,
        f"exact ratio bound to 2**16, minima prefix, and sample-14 dip "
        f"({float(ls.min_value):.7f} at x={float(ls.min_x):.6f}) in {elapsed:.1f}s",
    )


def test_criterion_6_identities():
    n_max = 4096
    t = rec.prefix("t", n_max + 1)
    c = rec.prefix("c", n_max)
    T = rec.prefix("T", n_max + 1)
    C = list(accumulate(rec.prefix("c", n_max)))
    Q = [0] * (n_max + 2)
    for n in range(3, n_max + 2):
        Q[n] = (T[n] - 3) // 4
        assert (T[n] - 3) % 4 == 0
    for n in range(2, n_max):
        assert C[n] == 2 * Q[n] + Q[n + 1] + 2
    for n in range(1, n_max + 1):
        assert 4 * c[n] == 2 * t[n] + t[n + 1]
    for n in range(3, n_max + 1):
        assert Q[n] - Q[n - 1] == t[n] // 4 and t[n] % 4 == 0
    for k in range(0, 12):
        base = 1 << k
        assert sum(t[base : 2 * base]) == base * (2 * base - 1)
    for delta in (1, 2, 3):
        p = series.geometric_weight_product(delta, n_max)
        assert all(p[n] == delta ** binary_weight(n) for n in range(n_max))
    a = series.a151550_gf(n_max)
    conv = a.add(a.shift(1).scale(2).divide_one_minus_x())
    assert all(conv[n] == C[n + 1] for n in range(n_max - 1))
    order = 8192
    lhs = series.product_expand(1, 2, 1, order).mul_sparse({1: 4, 2: 4})
    rhs = series.product_expand(1, 2, 0, order).mul_sparse({1: 2})
    assert lhs.coeffs == rhs.coeffs
    _report(6, "corner/quadrant/block-sum/weight-product identities exact to n = 4096")


def test_criterion_7_leftist_sierpinski():
    s = engine.grow("leftist", 127)
    rows: dict[int, set[int]] = {}
    for stage, orient, _, y in s.segments():
        if orient == "h" and stage % 2 == 1:
            rows.setdefault((stage - 1) // 2, set()).add(y)
    for r in range(64):
        want = {2 * j - r for j in range(r + 1) if math.comb(r, j) % 2 == 1}
        assert rows[r] == want, r
        assert len(rows[r]) == cf.gould(r)
    long = engine.grow("leftist", 1 << 12)
    assert long.counts == [cf.leftist_l(n) for n in range((1 << 12) + 1)]
    _report(7, "64 leftist rows equal Pascal mod 2; counts match 2**wt to n = 4096")


def test_criterion_8_maltese():
    construction = gridca.build_maltese_by_construction(256)
    assert list(construction.terms) == [cf.maltese_m(n) for n in range(257)]
    ca = gridca.run(gridca.MALTESE, 64)
    formula = [cf.maltese_m(n) for n in range(65)]
    div = next((n for n in range(65) if ca.terms[n] != formula[n]), None)
    # The CA-rule reconstruction is reported, not required: its expected
    # first divergence is stage 18 (block-end arm tips survive that the
    # true structure lacks).  Agreement would also be acceptable.
    assert div is None or div == 18, f"divergence moved to n={div}"
    note = "agrees" if div is None else f"first divergence at n={div} (documented)"
    _report(8, f"construction oracle exact to n = 256; CA rules: {note}")


def test_criterion_9_fixture_agreement(crosscheck_sweep):
    reports, _ = crosscheck_sweep
    regs = verify.bindings()
    soft_lines = []
    for name, binding in regs.items():
        has_fixture = any(g.tag == "fixture" for g in binding.generators)
        if not has_fixture:
            continue
        fixture_pairs = [
            p for p in reports[name].pairs if "fixture" in (p.tag_a, p.tag_b)
        ]
        assert fixture_pairs, name
        if binding.must_agree:
            for p in fixture_pairs:
                assert p.divergence is None, (name, p)
        else:
            soft_lines.extend(reports[name].lines())
    for line in soft_lines:
        print("  [soft] " + line)
    # the Y binding must still match its pinned snapshot for n <= 64
    y = reports["y_toothpick"]
    assert all(p.divergence is None for p in y.pairs)
    _report(9, "bundled fixture prefixes match their generators (soft bindings reported)")


def test_criterion_10_performance():
    t0 = time.perf_counter()
    s = engine.grow("toothpick", 4096)
    sim_elapsed = time.perf_counter() - t0
    assert s.total() == rec.prefix("T", 4096)[4096] == 11184811
    assert sim_elapsed < 10.0, f"4096-stage simulation took {sim_elapsed:.1f}s"
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 1024 * 1024, f"peak rss {peak_kb} kB"
    n_far = (1 << 40) + 12345
    best = min(
        _timed(lambda: cf.t_explicit(n_far))[1] for _ in range(5)
    )
    assert best < 1e-3, f"closed form took {best * 1e3:.3f} ms"
    n_near = (1 << 20) + 12345
    assert cf.t_explicit(n_near) == rec.prefix("t", n_near)[n_near]
    _report(
        10,
        f"4096 stages in {sim_elapsed:.1f}s ({peak_kb // 1024} MB peak); "
        f"closed form at 2**40+12345 in {best * 1e6:.0f} us, cross-checked at 2**20+12345",
    )


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0
