import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toothpicks import closedform as cf
from toothpicks import analysis, engine, gridca, render, verify
from toothpicks.sequences import IntSequence, first_divergence
from toothpicks.verify import (
    SequenceBinding,
    bindings,
    crosscheck,
    fetch_bfile,
    format_bfile,
    load_fixture,
    parse_bfile,
)


def test_parse_bfile_examples():
    s = parse_bfile("0 0\n1 1\n2 3\n")
    assert s.offset == 0 and s.terms == (0, 1, 3)
    s = parse_bfile("# comment\n1 1\n2 2\n")
    assert s.offset == 1 and s.terms == (1, 2)
    with pytest.raises(ValueError):
        parse_bfile("1 1\n3 2\n")
    with pytest.raises(ValueError):
        parse_bfile("1 1 extra\n")
    with pytest.raises(ValueError):
        parse_bfile("# nothing\n")


@given(
    st.integers(min_value=-5, max_value=5),
    st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1, max_size=40),
)
def test_bfile_round_trip(offset, values):
    seq = IntSequence(offset, tuple(values))
    assert parse_bfile(format_bfile(seq)).terms == seq.terms
    assert parse_bfile(format_bfile(seq)).offset == seq.offset


def test_sequences_overlap_logic():
    a = IntSequence(0, (0, 1, 2, 3))
    b = IntSequence(2, (2, 3, 4))
    assert first_divergence(a, b) is None
    c = IntSequence(2, (2, 9))
    assert first_divergence(a, c) == (3, 3, 9)
    assert a.partial_sums().terms == (0, 1, 3, 6)
    assert a.truncated(1).terms == (0, 1)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        # unequal offsets, agreeing on the overlap [3..4]
        (IntSequence(0, (0, 1, 2, 3, 4)), IntSequence(3, (3, 4, 5)), None),
        # divergence at the first overlapping index
        (IntSequence(0, (0, 1, 2, 3)), IntSequence(2, (7, 3)), (2, 2, 7)),
        # divergence at the last overlapping index
        (IntSequence(1, (1, 2, 3)), IntSequence(0, (0, 1, 2, 9, 4)), (3, 3, 9)),
        # one prefix of the other
        (IntSequence(0, (5, 6)), IntSequence(0, (5, 6, 7)), None),
        # no overlap
        (IntSequence(0, (1, 2)), IntSequence(5, (3,)), None),
        (IntSequence(0, ()), IntSequence(0, (1,)), None),
    ],
)
def test_first_divergence_cases(a, b, expected):
    assert first_divergence(a, b) == expected
    swapped = None if expected is None else (expected[0], expected[2], expected[1])
    assert first_divergence(b, a) == swapped


@pytest.mark.parametrize(
    "name, fixture, term",
    [("leftist_L", "A151566", cf.leftist_l), ("a130665", "A130665", cf.a048883)],
)
def test_linear_totals_match_quadratic_definition(name, fixture, term):
    gen = next(g for g in bindings()[name].generators if g.tag == "closedform")
    seq = gen.make(1024)
    assert seq.offset == 0
    terms = [term(i) for i in range(1025)]
    assert list(seq.terms) == [sum(terms[: n + 1]) for n in range(1025)]
    assert first_divergence(seq, load_fixture(fixture)) is None
    assert seq.last_index >= load_fixture(fixture).last_index


def test_fixture_route_bound_is_its_last_index():
    fixture_gens = [g for b in bindings().values() for g in b.generators if g.tag == "fixture"]
    assert len(fixture_gens) >= 20
    for gen in fixture_gens:
        seq = gen.make(gen.bound)
        assert seq.last_index == gen.bound and seq.offset == gen.offset
        assert gen.make(gen.bound + 100) == seq  # nothing lies past the bound


def test_local_minima_route_evaluates_only_the_blocks_it_returns():
    # One minimum per dyadic block: the first n come from below 2**n.
    full = analysis.local_minima(4096)
    for n in range(13):
        assert verify._local_minima(n) == full[:n], n


def test_totals_reuse_the_per_stage_simulation(monkeypatch):
    calls = []
    real_grow = engine.grow

    def grow(*args, **kwargs):
        calls.append(args)
        return real_grow(*args, **kwargs)

    monkeypatch.setattr(engine, "grow", grow)
    verify._sim_counts.cache_clear()
    regs = bindings()
    sim = [
        next(g for g in regs[name].generators if g.tag == "simulate")
        for name in ("toothpick_t", "toothpick_T")
    ]
    counts, totals = sim[0].make(40), sim[1].make(40)
    assert calls == [("toothpick", 40)]
    assert totals.terms == counts.partial_sums().terms
    assert totals.terms[:8] == (0, 1, 3, 7, 11, 15, 23, 35)


def test_import_does_not_load_network_modules():
    code = "import sys, toothpicks.verify, toothpicks.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(verify.__file__).parents[1])},
    )
    assert out.stdout.strip() == "False"


def test_formula_modules_import_without_numpy():
    code = ("import sys, toothpicks.closedform, toothpicks.recurrences, toothpicks.series, "
            "toothpicks.sequences; print('numpy' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(verify.__file__).parents[1])},
    )
    assert out.stdout.strip() == "False"


def test_binding_requires_generators():
    with pytest.raises(ValueError):
        SequenceBinding("empty", None, ())


def test_fixture_agreement_offline():
    assert fetch_bfile("A139250").terms[:8] == (0, 1, 3, 7, 11, 15, 23, 35)
    assert load_fixture("A147562").terms[:9] == (0, 1, 5, 9, 21, 25, 37, 49, 85)
    with pytest.raises(KeyError):
        fetch_bfile("A000000", online=False)


# Every binding's must_agree and its routes' (tag, bound, offset), in
# order, as the imperative registry declared them before it became a table.
DECLARED_ROUTES = {
    "toothpick_t": (True, (
        ("simulate", 512, 0), ("simulate", 512, 0), ("recurrence", 65536, 0),
        ("closedform", 65536, 0), ("genfunc", 8192, 0), ("fixture", 49, 0),
    )),
    "toothpick_T": (True, (
        ("simulate", 512, 0), ("recurrence", 65536, 0), ("genfunc", 8192, 0), ("fixture", 49, 0),
    )),
    "corner_c": (True, (
        ("simulate", 512, 0), ("recurrence", 65536, 0), ("recurrence", 65536, 0),
        ("genfunc", 8192, 0), ("fixture", 39, 0),
    )),
    "corner_C": (True, (("simulate", 512, 0), ("recurrence", 65536, 0), ("fixture", 39, 0))),
    "leftist_l": (True, (("simulate", 512, 0), ("closedform", 65536, 0), ("fixture", 15, 0))),
    "leftist_L": (True, (("simulate", 512, 0), ("closedform", 4096, 0), ("fixture", 15, 0))),
    "uw_u": (True, (
        ("simulate", 512, 0), ("recurrence", 1048576, 0), ("closedform", 1048576, 0),
        ("genfunc", 8192, 0), ("fixture", 49, 0),
    )),
    "uw_U": (True, (("simulate", 512, 0), ("recurrence", 65536, 0), ("fixture", 49, 0))),
    "uw_u_d1": (True, (("simulate", 512, 0), ("closedform", 65536, 0))),
    "uw_u_d3": (True, (("simulate", 512, 0), ("closedform", 65536, 0))),
    "uw_u_d4": (True, (("simulate", 64, 0), ("closedform", 65536, 0))),
    "rect_rho": (True, (("simulate", 256, 0), ("recurrence", 65536, 0), ("fixture", 15, 0))),
    "rect_r": (True, (("recurrence", 65536, 0), ("fixture", 15, 0))),
    "rect_R": (True, (("simulate", 512, 0), ("recurrence", 65536, 0), ("fixture", 15, 0))),
    "eight_v": (True, (("simulate", 512, 0), ("recurrence", 65536, 0), ("fixture", 29, 0))),
    "eight_V": (True, (("simulate", 512, 0), ("recurrence", 65536, 0), ("fixture", 29, 0))),
    "eight_v1": (True, (("simulate", 512, 0), ("recurrence", 65536, 0), ("fixture", 29, 0))),
    "eight_v2": (True, (("simulate", 512, 0), ("recurrence", 65536, 0), ("fixture", 29, 0))),
    "rule942_w": (True, (("simulate", 512, 0), ("closedform", 65536, 0), ("fixture", 15, 0))),
    "rule942_delta": (True, (("closedform", 65536, 0), ("fixture", 15, 0))),
    "t_toothpick_tau": (True, (
        ("simulate", 512, 0), ("closedform", 65536, 0), ("fixture", 1000, 0),
    )),
    "maltese_m": (True, (("simulate", 300, 0), ("closedform", 65536, 0), ("fixture", 1000, 0))),
    "maltese_ca": (False, (("simulate", 64, 0), ("closedform", 65536, 0))),
    "y_toothpick": (False, (("simulate", 128, 0), ("fixture", 128, 0))),
    "f_sequence": (True, (
        ("recurrence", 65536, 0), ("closedform", 65536, 0), ("genfunc", 8192, 0),
        ("fixture", 10, 0),
    )),
    "a151550": (True, (("genfunc", 8192, 0), ("recurrence", 65536, 0), ("fixture", 10, 0))),
    "a160573": (True, (("genfunc", 8192, 0), ("closedform", 65536, 0), ("fixture", 10, 0))),
    "a048883": (True, (("closedform", 65536, 0), ("genfunc", 8192, 0), ("fixture", 1000, 0))),
    "a130665": (True, (("closedform", 4096, 0), ("genfunc", 8192, 0), ("fixture", 1000, 0))),
    "gould": (True, (("closedform", 65536, 0), ("genfunc", 8192, 0), ("fixture", 1000, 0))),
    "hve_terms": (True, (("closedform", 65536, 0), ("fixture", 1000, 0))),
    "local_minima": (True, (("recurrence", 12, 1), ("fixture", 12, 1))),
}


def test_registry_shape():
    regs = bindings()
    assert list(regs) == list(DECLARED_ROUTES)
    for name, bd in regs.items():
        routes = tuple((g.tag, g.bound, g.offset) for g in bd.generators)
        assert (bd.must_agree, routes) == DECLARED_ROUTES[name], name
    # every binding has at least two generators except pure-fixture pins
    for name, bd in regs.items():
        assert len(bd.generators) >= 2, name
    # the sequences named in the harness contract all have fixture routes
    for name in (
        "toothpick_t", "toothpick_T", "corner_c", "corner_C", "uw_u", "uw_U",
        "leftist_l", "leftist_L", "rect_rho", "rect_r", "rect_R", "eight_v",
        "eight_V", "eight_v1", "eight_v2", "rule942_w", "rule942_delta",
        "t_toothpick_tau", "maltese_m", "y_toothpick", "f_sequence",
        "a151550", "a160573", "a048883", "a130665", "gould", "hve_terms",
        "local_minima",
    ):
        assert any(g.tag == "fixture" for g in regs[name].generators), name
    # each route yields exactly a(offset..n), as `crosscheck` and `sequence` assume
    for name, bd in regs.items():
        for g in bd.generators:
            for n in (0, 1, 5, min(g.bound, 64)):
                seq = g.make(n)
                assert (seq.offset, seq.last_index) == (g.offset, n), (name, g.tag, n)


def test_registry_contracts_the_benchmark_relies_on(monkeypatch):
    # bench/tracing.py replaces the entries of the dict it is handed
    first = bindings()
    first["toothpick_t"] = None
    again = bindings()
    assert again is not first and isinstance(again["toothpick_t"], SequenceBinding)
    # bench/workloads.py rebuilds routes with dataclasses.replace
    assert [f.name for f in dataclasses.fields(verify.Generator)] == [
        "tag", "make", "bound", "offset",
    ]
    assert [f.name for f in dataclasses.fields(SequenceBinding)] == [
        "name", "oeis_id", "generators", "must_agree", "note",
    ]
    sim = again["toothpick_t"].generators[0]
    assert dataclasses.replace(sim, bound=7).bound == 7
    # a simulate route looks engine.grow up when it runs, not when it is made
    calls = []
    real_grow = engine.grow
    monkeypatch.setattr(engine, "grow", lambda *a: calls.append(a) or real_grow(*a))
    verify._sim_counts.cache_clear()
    assert sim.make(5).terms == (0, 1, 2, 4, 4, 4)
    assert calls == [("toothpick", 5)]


def test_layer_contracts_the_benchmark_relies_on(monkeypatch):
    # bench/workloads.py grows structures with `fast=False`
    s = engine.new_structure("toothpick", fast=False).grow(5)
    assert s.counts == engine.grow("toothpick", 5, fast=False).counts == [0, 1, 2, 4, 4, 4]
    assert s.total() == 15
    g = s.stage_segments(3)[0]
    assert (g.orient, g.x, g.y) in {("v", x, y) for x in (-1, 1) for y in (-1, 1)}
    # bench/tracing.py counts faces by wrapping the module-level
    # `extract_faces`, which `detect_rectangles` must look up when it runs
    assert inspect.isfunction(analysis.extract_faces)
    assert analysis.extract_faces.__qualname__ == "extract_faces"
    walked = []
    real = analysis.extract_faces
    monkeypatch.setattr(analysis, "extract_faces", lambda *a: walked.append(real(*a)) or walked[-1])
    assert analysis.detect_rectangles(engine.grow("toothpick", 3)).count == 2
    bounded, unbounded = walked[0]
    assert len(bounded) == 2 and isinstance(unbounded, int)
    assert analysis.rectangle_counts_by_stage(s) == [0, 0, 0, 2, 4, 4]
    grid = gridca.CellGrid(gridca.MALTESE).grow(5)
    assert analysis.tree_check(grid) and analysis.tree_check(s)
    assert len(grid.on_cells()) == 25 and len(grid.dead_cells()) > 0
    assert render.render_structure(s).count("<line") == 15
    assert render.render_grid(grid).count("<rect") == 25


def test_crosscheck_small():
    regs = bindings()
    rep = crosscheck(regs["toothpick_t"], n_max=64)
    assert rep.agreed
    assert all(p.checked is not None for p in rep.pairs)
    assert any("agree" in line for line in rep.lines())
    payload = rep.to_json()
    assert payload[0]["name"] == "toothpick_t"


def test_crosscheck_reports_divergence_instead_of_raising():
    regs = bindings()
    rep = crosscheck(regs["maltese_ca"], n_max=32)
    assert not rep.agreed
    assert not rep.must_agree
    div = [p.divergence for p in rep.pairs if p.divergence]
    assert div and div[0][0] == 18


def test_y_binding_is_pinned_snapshot():
    regs = bindings()
    assert regs["y_toothpick"].must_agree is False
    assert "pin" in regs["y_toothpick"].note
    rep = crosscheck(regs["y_toothpick"], n_max=64)
    assert rep.agreed  # engine still matches its own pinned snapshot


def test_fetch_bfile_online_uses_content_addressed_cache(tmp_path, monkeypatch):
    import urllib.request

    calls = []

    class FakeResponse:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self):
            return b"# header\n0 5\n1 7\n2 11\n"

    def fake_urlopen(url, timeout=0):
        calls.append(url)
        return FakeResponse()

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    seq = fetch_bfile("A000042", online=True, cache_dir=str(tmp_path))
    assert seq.terms == (5, 7, 11)
    assert len(calls) == 1
    blobs = [p.name for p in tmp_path.iterdir()]
    assert any(name.startswith("sha256-") for name in blobs)
    # second call is served from the cache, no network
    again = fetch_bfile("A000042", online=True, cache_dir=str(tmp_path))
    assert again.terms == (5, 7, 11)
    assert len(calls) == 1
