import csv
import json
from pathlib import Path

import numpy as np
import pytest

from toothpicks import analysis, engine, gridca, intutil
from toothpicks.cli import main
from toothpicks.verify import parse_bfile

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sequence_plain(capsys):
    code, out, _ = run(capsys, "sequence", "--name", "toothpick_T",
                       "--method", "recurrence", "--terms", "10")
    assert code == 0
    assert out.strip() == "0 1 3 7 11 15 23 35 43 47"


def test_sequence_zero_terms(capsys):
    code, out, _ = run(capsys, "sequence", "--name", "toothpick_T", "--terms", "0")
    assert code == 0
    assert out == ""


def test_sequence_default_method_prefers_formula(capsys):
    code, out, _ = run(capsys, "sequence", "--name", "uw_u", "--terms", "6")
    assert code == 0
    assert out.strip() == "0 1 4 4 12 4"


def test_sequence_formula_alias(capsys):
    code, out, _ = run(capsys, "sequence", "--name", "toothpick_t",
                       "--method", "formula", "--terms", "8")
    assert code == 0
    assert out.strip() == "0 1 2 4 4 4 8 12"


def test_sequence_bfile_round_trips(capsys):
    code, out, _ = run(capsys, "sequence", "--name", "corner_c",
                       "--method", "recurrence", "--terms", "12", "--format", "bfile")
    assert code == 0
    seq = parse_bfile(out)
    assert seq.offset == 0
    assert list(seq.terms) == [0, 1, 2, 3, 3, 4, 7, 8, 5, 4, 7, 9]


def test_sequence_csv(capsys):
    code, out, _ = run(capsys, "sequence", "--name", "gould", "--terms", "4",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,2", "2,2", "3,4"]


def test_sequence_unknown_name(capsys):
    code, _, err = run(capsys, "sequence", "--name", "nope", "--terms", "3")
    assert code == 2
    assert "unknown sequence binding" in err


def test_usage_error_exit_code(capsys):
    assert main(["sequence", "--bogus-flag"]) == 2
    assert main([]) == 2


def test_analyze_local_minima(capsys):
    code, out, _ = run(capsys, "analyze", "--check", "local-minima", "--nmax", "100")
    assert code == 0
    assert out.strip() == "1 2 5 12 21 44 89"


def test_analyze_ratio_bound(capsys):
    code, out, _ = run(capsys, "analyze", "--check", "ratio-bound", "--nmax", "64")
    assert code == 0
    assert "equality exactly at: 1 3 7 15 31 63" in out


def test_analyze_tree(capsys):
    code, out, _ = run(capsys, "analyze", "--check", "tree", "--variant", "uw",
                       "--nmax", "16")
    assert code == 0
    assert "tree" in out


@pytest.mark.parametrize("variant", ["bogus", "t", "y"])
def test_analyze_tree_refuses_other_variants(capsys, variant):
    code, out, err = run(capsys, "analyze", "--check", "tree", "--variant", variant,
                         "--nmax", "20")
    assert code == 2
    assert out == ""
    assert "invalid choice" in err


def test_analyze_tree_on_segment_variant(capsys):
    code, out, _ = run(capsys, "analyze", "--check", "tree", "--variant", "leftist",
                       "--nmax", "20")
    assert code == 0
    assert out.strip() == "leftist at n=20: tree"


def test_analyze_tree_defaults_to_uw(capsys):
    code, out, _ = run(capsys, "analyze", "--check", "tree", "--nmax", "16")
    assert code == 0
    assert out.strip() == "uw at n=16: tree"


@pytest.mark.parametrize("variant, faces", [(None, 24), ("toothpick", 24), ("corner", 20)])
def test_analyze_rectangles_reads_its_variant(capsys, variant, faces):
    argv = ["analyze", "--check", "rectangles", "--nmax", "8"]
    code, out, _ = run(capsys, *argv, *(["--variant", variant] if variant else []))
    assert code == 0
    assert out.strip() == f"bounded faces after 8 stages: {faces}, all rectangles"


@pytest.mark.parametrize("argv", [
    ["--check", "rectangles", "--variant", "leftist"],
    ["--check", "rectangles", "--variant", "uw"],
    ["--check", "ratio-bound", "--variant", "toothpick"],
    ["--check", "local-minima", "--variant", "uw"],
    ["--check", "limit-sample", "--variant", "corner"],
])
def test_analyze_refuses_a_variant_its_check_does_not_read(capsys, monkeypatch, argv):
    def no_growth(*_):
        raise AssertionError("grew a structure the check cannot read")

    monkeypatch.setattr(gridca.CellGrid, "grow", no_growth)
    monkeypatch.setattr(engine, "grow", no_growth)
    code, out, err = run(capsys, "analyze", *argv, "--nmax", "8")
    assert code == 2
    assert out == ""
    assert "does not read --variant" in err


@pytest.mark.parametrize("argv, flag", [
    (["render", "--variant", "uw", "--stages", "3", "--out", "x.svg", "--show-exposed"],
     "--show-exposed"),
    (["analyze", "--check", "ratio-bound", "--csv"], "--csv"),
    (["analyze", "--check", "local-minima", "--csv"], "--csv"),
    (["analyze", "--check", "rectangles", "--nmax", "8", "--csv"], "--csv"),
    (["analyze", "--check", "tree", "--nmax", "8", "--csv"], "--csv"),
    (["verify", "--binding", "toothpick", "--online"], "--online"),
    (["analyze", "--check", "tree", "--k", "3"], "does not read --k 3"),
    (["analyze", "--check", "ratio-bound", "--k", "9"], "does not read --k 9"),
    (["analyze", "--check", "limit-sample", "--k", "2", "--nmax", "5"], "does not read --nmax 5"),
], ids=["render-grid-exposed", "ratio-bound-csv", "local-minima-csv", "rectangles-csv",
        "tree-csv", "verify-online", "tree-k", "ratio-bound-k", "limit-sample-nmax"])
def test_an_option_the_command_does_not_read_exits_two(tmp_path, capsys, monkeypatch, argv, flag):
    def no_growth(*_):
        raise AssertionError("grew a structure for a refused command")

    monkeypatch.setattr(gridca.CellGrid, "grow", no_growth)
    monkeypatch.setattr(engine, "grow", no_growth)
    for check in ("ratio_bound_check", "local_minima", "sample_limit_function"):
        monkeypatch.setattr(analysis, check, no_growth)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err
    assert list(tmp_path.iterdir()) == []  # no file written


def test_analyze_limit_sample_summary(capsys):
    code, out, err = run(capsys, "analyze", "--check", "limit-sample", "--k", "2")
    assert code == 0
    assert out.splitlines() == [
        "k=2 samples=4",
        "min at x=1/4 = 0.250000, value=0.6000000",
        "endpoints: f(0)=0.687500 f(1)=0.671875",
    ]
    assert err == ""


def test_analyze_limit_sample_csv_writes_only_rows_to_stdout(capsys):
    code, out, err = run(capsys, "analyze", "--check", "limit-sample", "--k", "2", "--csv")
    assert code == 0
    assert out.splitlines() == ["0/1,11/16", "1/4,3/5", "1/2,23/36", "3/4,5/7"]
    assert [len(row) for row in csv.reader(out.splitlines())] == [2, 2, 2, 2]
    assert "k=2 samples=4" in err


def test_simulate_and_dump(tmp_path, capsys):
    dump = tmp_path / "s.dump"
    code, out, _ = run(capsys, "simulate", "--variant", "toothpick",
                       "--stages", "10", "--dump", str(dump))
    assert code == 0
    assert out.strip().split() == "0 1 2 4 4 4 8 12 8 4 8".split()
    assert dump.read_text().count("\n") == 55


def test_simulate_grid(capsys):
    code, out, _ = run(capsys, "simulate", "--variant", "uw", "--stages", "8")
    assert code == 0
    assert out.strip() == "0 1 4 4 12 4 12 12 36"


@pytest.mark.parametrize("argv", [
    ["simulate", "--variant", "uw4", "--stages", "128"],
    ["analyze", "--check", "tree", "--variant", "uw4", "--nmax", "128"],
    ["render", "--variant", "uw", "--stages", "40000", "--out", "x.svg"],
], ids=["simulate", "analyze-tree", "render"])
def test_a_grid_past_the_box_budget_exits_two_before_allocating(
        tmp_path, capsys, monkeypatch, argv):
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert np.prod(shape) < 1 << 20, f"allocated a box of shape {shape}"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(gridca.np, "zeros", small_zeros)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "GiB budget" in err
    assert list(tmp_path.iterdir()) == []  # no file written


@pytest.mark.parametrize("argv", [
    ["simulate", "--variant", "t", "--stages", "300"],
    ["render", "--variant", "t", "--stages", "300", "--out", "x.svg"],
    ["analyze", "--check", "rectangles", "--nmax", "300"],
    ["analyze", "--check", "tree", "--variant", "leftist", "--nmax", "300"],
], ids=["simulate", "render", "analyze-rectangles", "analyze-tree"])
def test_a_structure_past_the_box_budget_exits_two_before_allocating(
        tmp_path, capsys, monkeypatch, argv):
    budget = 1 << 16
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert np.prod(shape) < budget, f"allocated a box of shape {shape}"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(intutil, "BOX_BUDGET", budget)
    monkeypatch.setattr(engine.np, "zeros", small_zeros)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "structure would need" in err and "GiB budget" in err
    assert list(tmp_path.iterdir()) == []  # no file written


def test_render_writes_svg(tmp_path, capsys):
    out_file = tmp_path / "pic.svg"
    code, _, _ = run(capsys, "render", "--variant", "toothpick", "--stages", "6",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().count("<line") == 23


@pytest.mark.parametrize("argv", [
    ["simulate", "--variant", "y", "--stages", "3", "--dump"],
    ["render", "--variant", "toothpick", "--stages", "3", "--out"],
], ids=["simulate-dump", "render"])
def test_an_unwritable_output_path_exits_two_and_prints_nothing(tmp_path, capsys, argv):
    path = tmp_path / "no-such-dir" / "x"
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{argv[0]}: ") and "no-such-dir" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("variant", ["uw1", "uw3", "uw4"])
def test_render_refuses_grids_off_the_plane(tmp_path, capsys, monkeypatch, variant):
    def no_growth(*_):
        raise AssertionError("grew a grid that cannot be rendered")

    monkeypatch.setattr(gridca.CellGrid, "grow", no_growth)
    out_file = tmp_path / "pic.svg"
    code, _, err = run(capsys, "render", "--variant", variant, "--stages", "2",
                       "--out", str(out_file))
    assert code == 2
    assert "invalid choice" in err
    assert not out_file.exists()


def test_verify_single_binding(capsys):
    code, out, _ = run(capsys, "verify", "--binding", "f_sequence", "--nmax", "64")
    assert code == 0
    assert "agree" in out


def test_verify_divergence_is_informational(capsys):
    code, out, _ = run(capsys, "verify", "--binding", "maltese_ca", "--nmax", "32")
    assert code == 0  # not a must-agree binding
    assert "FIRST DIVERGENCE at n=18" in out
    assert "[informational]" in out


def test_verify_whole_registry_diverges_only_where_documented(capsys):
    code, out, _ = run(capsys, "verify", "--nmax", "20")
    assert code == 0
    assert [line for line in out.splitlines() if "DIVERGENCE" in line] == [
        "maltese_ca: simulate vs closedform [0..20] FIRST DIVERGENCE at n=18: 20 != 12"
        " [informational]"
    ]
    # the whole report: tag order, checked ranges and flags
    assert out == (GOLDEN / "verify_n20.txt").read_text()


@pytest.mark.parametrize("name", ["nope", ""])
def test_verify_unknown_binding_exits_two(capsys, name):
    code, out, err = run(capsys, "verify", "--binding", name)
    assert code == 2
    assert out == ""
    assert err.startswith(f"verify: unknown sequence binding: {name!r}")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--binding", "gould", "--nmax", "32",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0][0]["name"] == "gould"
    assert payload[0][0]["first_divergence"] is None


def test_verify_exit_one_on_must_agree_divergence(capsys, monkeypatch):
    from toothpicks import cli
    from toothpicks.sequences import IntSequence
    from toothpicks.verify import Generator, SequenceBinding

    bad = SequenceBinding(
        "synthetic",
        None,
        (
            Generator("recurrence", lambda n: IntSequence(0, tuple(range(n + 1))), 64),
            Generator("closedform", lambda n: IntSequence(0, tuple(0 for _ in range(n + 1))), 64),
        ),
        must_agree=True,
    )
    monkeypatch.setattr(cli.verify, "bindings", lambda: {"synthetic": bad})
    code = cli.main(["verify", "--binding", "synthetic", "--nmax", "16"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FIRST DIVERGENCE at n=1" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--variant", "toothpick", "--stages", "-3"],
        ["render", "--variant", "toothpick", "--stages", "-2", "--out", "{out}"],
        ["verify", "--nmax", "-1"],
        ["analyze", "--check", "limit-sample", "--k", "0"],
        ["analyze", "--check", "ratio-bound", "--nmax", "0"],
    ],
)
def test_bad_numeric_argument_exits_two(tmp_path, capsys, argv):
    out_file = tmp_path / "pic.svg"
    code, out, err = run(capsys, *(a.format(out=out_file) for a in argv))
    assert code == 2
    assert out == ""
    assert "must be >=" in err
    assert not out_file.exists()


def _recording_binding(monkeypatch, bound, reach=1 << 30):
    """Register one recurrence route `rec` with the given bound; it
    returns the terms asked for, up to index `reach`."""
    from toothpicks import cli
    from toothpicks.sequences import IntSequence
    from toothpicks.verify import Generator, SequenceBinding

    asked = []

    def make(n):
        asked.append(n)
        return IntSequence(0, tuple(range(min(n, reach) + 1)))

    binding = SequenceBinding("rec", None, (Generator("recurrence", make, bound),))
    monkeypatch.setattr(cli.verify, "bindings", lambda: {"rec": binding})
    return asked


def test_sequence_evaluates_only_the_terms_asked(capsys, monkeypatch):
    asked = _recording_binding(monkeypatch, bound=1 << 20)
    code, out, _ = run(capsys, "sequence", "--name", "rec", "--terms", "5")
    assert code == 0
    assert out.split() == ["0", "1", "2", "3", "4"]
    assert asked == [4]


def test_sequence_prints_exactly_bound_plus_one_terms(capsys, monkeypatch):
    asked = _recording_binding(monkeypatch, bound=8)
    code, out, _ = run(capsys, "sequence", "--name", "rec", "--terms", "9")
    assert code == 0
    assert out.split() == [str(i) for i in range(9)]
    code, out, err = run(capsys, "sequence", "--name", "rec", "--terms", "10")
    assert code == 2
    assert out == ""
    assert "reaches index 8" in err and "index 9 asked" in err
    assert asked == [8]  # the refused query evaluated nothing


def test_sequence_real_route_to_its_bound(capsys):
    code, out, _ = run(capsys, "sequence", "--name", "maltese_ca",
                       "--method", "simulate", "--terms", "65")
    assert code == 0
    assert len(out.split()) == 65


@pytest.mark.parametrize(
    "argv, reach",
    [
        (["--name", "toothpick_t", "--method", "fixture", "--terms", "5000"], "reaches index 49"),
        (["--name", "local_minima", "--terms", "20"], "reaches index 12"),
        (["--name", "toothpick_t", "--method", "recurrence", "--terms", "70000"],
         "reaches index 65536"),
    ],
)
def test_sequence_past_reach_exits_two_and_prints_nothing(capsys, argv, reach):
    code, out, err = run(capsys, "sequence", *argv)
    assert code == 2
    assert out == ""
    assert reach in err


def test_sequence_route_that_ends_early_exits_two_and_prints_nothing(capsys, monkeypatch):
    asked = _recording_binding(monkeypatch, bound=8, reach=5)
    code, out, err = run(capsys, "sequence", "--name", "rec", "--terms", "8")
    assert code == 2
    assert out == ""
    assert err == "sequence: rec recurrence route ends at index 5; index 7 asked\n"
    assert asked == [7]


def test_sequence_route_the_binding_lacks_exits_two(capsys):
    code, out, err = run(capsys, "sequence", "--name", "rect_r", "--method", "simulate",
                         "--terms", "3")
    assert code == 2
    assert out == ""
    assert "has no 'simulate' generator" in err
