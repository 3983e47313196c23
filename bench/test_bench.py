"""Tests of the benchmark's own checks and statistics.

    python3 -m pytest bench/test_bench.py

Each output check is shown a correct answer from the program, then the
same answer deliberately corrupted, and must reject the corruption.
"""

import contextlib
import dataclasses
import io
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

TP, _ = worker.set_up()


def sequence(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = TP.cli.main(["sequence", *argv])
    return code, out.getvalue()


def test_lookup_check_rejects_a_wrong_term():
    code, text = sequence("--name", "toothpick_t", "--terms", "40")
    want = workloads._References(TP).values("toothpick_t", "closedform", 39)
    assert checks.judge_terms(code, text, want, may_refuse=False) == checks.OK
    terms = text.split()
    terms[17] = str(int(terms[17]) + 1)
    assert checks.judge_terms(code, " ".join(terms), want, may_refuse=False) == checks.WRONG


def test_lookup_check_rejects_a_prefix_cut_short():
    code, text = sequence("--name", "gould", "--terms", "40")
    want = [1 << checks.wt(i) for i in range(40)]
    assert checks.judge_terms(code, text, want, may_refuse=False) == checks.OK
    short = " ".join(text.split()[:-1])
    assert code == 0
    for may_refuse in (False, True):
        assert checks.judge_terms(0, short, want, may_refuse) == checks.FAILED


def test_lookup_check_on_refusals_and_past_bound_queries():
    want = [0, 1, 3]
    assert checks.judge_terms(2, "", want, may_refuse=True) == checks.OK
    assert checks.judge_terms(2, "", want, may_refuse=False) == checks.FAILED
    assert checks.judge_terms(1, "", want, may_refuse=True) == checks.WRONG
    assert checks.judge_terms(0, "0 1 3 7", want, may_refuse=False) == checks.WRONG
    # The program truncates this past-bound query today.
    code, text = sequence("--name", "gould", "--method", "genfunc", "--terms", "9000")
    want = [1 << checks.wt(i) for i in range(9000)]
    assert checks.judge_terms(code, text, want, may_refuse=True) == checks.FAILED


def test_face_check_rejects_a_count_off_by_one():
    s = TP.engine.new_structure("toothpick", fast=False)
    faces = [TP.analysis.detect_rectangles(s).count]
    for _ in range(16):
        s.grow(1)
        faces.append(TP.analysis.detect_rectangles(s).count)
    segs = [[(g.orient, g.x, g.y) for g in s.stage_segments(n)] for n in range(17)]
    euler = checks.euler_face_counts(segs)
    assert euler == TP.analysis.rectangle_counts_by_stage(s)
    assert checks.check_face_counts(faces, euler) == []
    faces[11] += 1
    assert checks.check_face_counts(faces, euler) == [
        f"stage 11: {faces[11]} faces walked, Euler count {euler[11]}"
    ]


def test_svg_check_rejects_a_missing_element():
    s = TP.engine.grow("toothpick", 8)
    svg = TP.render.render_structure(s)
    assert checks.check_svg(svg, svg, "line", s.total()) == []
    lines = svg.splitlines()
    cut = "\n".join(ln for i, ln in enumerate(lines) if i != next(
        k for k, ln in enumerate(lines) if ln.startswith("<line")))
    assert checks.check_svg(cut, cut, "line", s.total()) == [
        f"{s.total() - 1} <line> elements, expected {s.total()}"
    ]
    assert checks.check_svg(svg, cut, "line", s.total()) == ["two renders of the same input differ"]
    assert checks.check_svg("<svg", "<svg", "line", 0)[0].startswith("SVG does not parse")


def test_sweep_check_rejects_divergence_and_short_comparison():
    sweep = workloads.Sweep(TP, 0)
    binding = TP.verify.bindings()["gould"]
    scaled = dataclasses.replace(binding, generators=tuple(
        dataclasses.replace(g, bound=workloads.sweep_bound(g.bound)) for g in binding.generators))
    report = TP.verify.crosscheck(scaled)
    passed = workloads.PassResult([0.0], [False], [(scaled, report)])
    assert sweep.check(passed) == []
    pair = report.pairs[0]
    diverged = dataclasses.replace(pair, divergence=(5, 4, 5))
    short = dataclasses.replace(pair, checked=(pair.checked[0], pair.checked[1] - 1))
    for bad in (diverged, short):
        rep = dataclasses.replace(report, pairs=(bad,) + report.pairs[1:])
        assert sweep.check(workloads.PassResult([0.0], [False], [(scaled, rep)])) != []


def test_reference_formulas_match_published_terms():
    pub = checks.read_bfiles(TP.fixture_dir)
    assert "A001316" not in pub  # pinned from a closed form, never a reference
    t = pub["A139251"]
    totals = checks.partial_sums(t[i] for i in range(len(t)))
    assert [totals[1 << k] for k in range(6)] == [
        checks.toothpick_total_at_power_of_two(k) for k in range(6)
    ]
    assert [checks.leftist_l(i) for i in range(16)] == [pub["A151565"][i] for i in range(16)]
    assert [checks.uw_d(2, i) for i in range(50)] == [pub["A147582"][i] for i in range(50)]
    y = TP.verify.load_fixture("y_toothpick_added")
    assert checks.y_toothpick_counts(len(y.terms) - 1) == list(y.terms)


@pytest.mark.parametrize("per_pass", [1, 5, 11, 17, 32, 52, 80])
@pytest.mark.parametrize("min_passes", [1, 2, 3, 5])
def test_tail_never_has_fewer_than_ten_beyond(per_pass, min_passes):
    if per_pass * min_passes <= checks.MIN_BEYOND:
        with pytest.raises(ValueError):
            checks.tail_class(per_pass, min_passes)
        return
    j = checks.tail_class(per_pass, min_passes)
    for passes in range(min_passes, min_passes + 6):
        pooled = [float(i) for i in range(per_pass * passes)]
        tail = checks.class_sample(pooled, per_pass, j)
        assert sum(v > tail for v in pooled) >= checks.MIN_BEYOND
    if j < per_pass:  # the next class up would leave fewer than ten
        n = per_pass * min_passes
        assert n - math.ceil(min_passes * (j + 0.5)) < checks.MIN_BEYOND


def test_op_statistics_read_class_middles():
    per_pass = 4
    ops = [10.0, 20.0, 30.0, math.inf]
    pooled = [v + 0.1 * k for k in range(5) for v in ops]
    with pytest.raises(ValueError):
        checks.op_statistics(pooled, per_pass, 2)  # two passes leave no tail
    with pytest.raises(ValueError):
        checks.op_statistics(pooled, per_pass, 6)  # fewer samples than promised
    pooled = [v + 0.1 * k for k in range(9) for v in ops]
    stats = checks.op_statistics(pooled, per_pass, 9)
    assert stats["p50"] == pytest.approx(25.4)
    assert stats["tail"] == pytest.approx(30.4) and stats["tail_percentile"] == 62.5
