import re
from pathlib import Path

import pytest

from toothpicks import closedform as cf
from toothpicks.engine import VARIANTS, grow, new_structure
from toothpicks.gridca import (
    MALTESE,
    MOORE8,
    MOORE8_CORNER1,
    MOORE8_CORNER2,
    RULE942,
    TOOTHPICK_DIGRAPH,
    CellGrid,
    uw_von_neumann,
)
from toothpicks.render import RenderConfig, render_grid, render_structure

GOLDEN = Path(__file__).parent / "golden"


def test_line_counts():
    svg = render_structure(grow("toothpick", 10))
    assert svg.count("<line") == 55
    svg = render_structure(grow("corner", 7))
    assert svg.count('class="seed"') == 1
    assert svg.count("<line") == 29  # 28 toothpicks + the half-length seed mark


def test_empty_structure_renders():
    svg = render_structure(new_structure("toothpick"))
    assert svg.startswith("<?xml")
    assert svg.count("<line") == 0


def test_grid_rect_counts():
    svg = render_grid(CellGrid(uw_von_neumann(2)).grow(8))
    assert svg.count("<rect") == 85
    m = CellGrid(MALTESE).grow(5)
    svg = render_grid(m)
    assert svg.count("<rect") == sum(cf.maltese_m(i) for i in range(6)) == 25
    assert svg.count('class="dead"') == len(m.dead_cells())


def test_byte_determinism():
    a = render_structure(grow("toothpick", 9))
    b = render_structure(grow("toothpick", 9))
    assert a == b


def test_monochrome_and_exposed():
    cfg = RenderConfig(color_mode="monochrome", show_exposed=True)
    svg = render_structure(grow("toothpick", 4), cfg)
    assert "<circle" in svg
    assert 'class="s"' in svg
    with pytest.raises(ValueError):
        RenderConfig(color_mode="rainbow")
    with pytest.raises(ValueError):
        RenderConfig(scale=0)


def test_t_and_y_render():
    assert render_structure(grow("t", 2)).count("<line") == 12  # 3 per T
    assert render_structure(grow("y", 2)).count("<line") == 12  # 3 per Y


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_circle_per_exposed_end_on_a_drawn_line_end(variant):
    structure = grow(variant, 5)
    svg = render_structure(structure, RenderConfig(scale=7, show_exposed=True))
    ends = set(re.findall(r'x1="([^"]+)" y1="([^"]+)"', svg))
    ends |= set(re.findall(r'x2="([^"]+)" y2="([^"]+)"', svg))
    circles = re.findall(r'<circle class="exposed" cx="([^"]+)" cy="([^"]+)"', svg)
    assert len(circles) == len(structure.exposed_points()) > 0
    assert set(circles) <= ends


def test_three_dimensional_grid_rejected():
    with pytest.raises(ValueError):
        render_grid(CellGrid(uw_von_neumann(3)).grow(2))


@pytest.mark.parametrize(
    "name,make",
    [
        ("toothpick_n6.svg", lambda: render_structure(grow("toothpick", 6))),
        ("corner_n7.svg", lambda: render_structure(grow("corner", 7))),
        ("t_n6.svg", lambda: render_structure(grow("t", 6))),
        ("y_n6.svg", lambda: render_structure(grow("y", 6))),
        ("toothpick_n5_mono_exposed.svg", lambda: render_structure(
            grow("toothpick", 5), RenderConfig(color_mode="monochrome", show_exposed=True))),
        ("toothpick_n6_scale7_exposed.svg", lambda: render_structure(
            grow("toothpick", 6), RenderConfig(scale=7, show_exposed=True))),
        ("corner_n7_scale7_exposed.svg", lambda: render_structure(
            grow("corner", 7), RenderConfig(scale=7, show_exposed=True))),
        ("uw_n4.svg", lambda: render_grid(CellGrid(uw_von_neumann(2)).grow(4))),
        ("maltese_n5.svg", lambda: render_grid(CellGrid(MALTESE).grow(5))),
        ("corner_n7.dump", lambda: grow("corner", 7).dump()),
        ("leftist_n8.dump", lambda: grow("leftist", 8).dump()),
        ("t_n6.dump", lambda: grow("t", 6).dump()),
        ("y_n6.dump", lambda: grow("y", 6).dump()),
        ("uw_n4.dump", lambda: CellGrid(uw_von_neumann(2)).grow(4).dump()),
        ("uw3_n4.dump", lambda: CellGrid(uw_von_neumann(3)).grow(4).dump()),
        ("moore8_n8.dump", lambda: CellGrid(MOORE8).grow(8).dump()),
        ("moore8_corner1_n8.dump", lambda: CellGrid(MOORE8_CORNER1).grow(8).dump()),
        ("moore8_corner2_n8.dump", lambda: CellGrid(MOORE8_CORNER2).grow(8).dump()),
        ("rule942_n8.dump", lambda: CellGrid(RULE942).grow(8).dump()),
        ("toothpick_digraph_n8.dump", lambda: CellGrid(TOOTHPICK_DIGRAPH).grow(8).dump()),
        ("maltese_n8.dump", lambda: CellGrid(MALTESE).grow(8).dump()),
    ],
)
def test_golden_files(name, make):
    assert make() == (GOLDEN / name).read_text()
