"""Deterministic SVG output for segment structures and cell grids.

Identical inputs yield identical bytes: elements follow the dump-format
order, colors come from a fixed 16-entry palette keyed by stage mod 16,
and there are no timestamps or random ids.  Every element is placed by
one pixel map, `_to_px`, from doubled units: a unit segment, a Y arm and
a cell side are each two doubled units long.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .engine import EXTENTS
from .gridca import CellGrid

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf", "#393b79", "#ad494a",
    "#637939", "#8c6d31", "#7b4173", "#3182bd",
)

SQRT3 = 1.7320508075688772

# The class of a stage's elements in each color mode, indexed by stage mod 16.
_CLASSES = {"by-stage": tuple(f"s{i}" for i in range(16)), "monochrome": ("s",) * 16}


@dataclass(frozen=True)
class RenderConfig:
    scale: int = 16  # pixels per unit length
    color_mode: str = "by-stage"  # or "monochrome"
    show_exposed: bool = False

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.color_mode not in _CLASSES:
            raise ValueError(f"unknown color mode: {self.color_mode!r}")


def _fmt(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _to_px(box, cfg: RenderConfig):
    """The map from doubled-unit (x, y) to formatted pixel (x, y) strings:
    y grows downward from the top of `box`, inside a margin of one unit.
    Each axis formats a value once per map, so once per document."""
    mnx, _, _, mxy = box
    px, pad = cfg.scale / 2, cfg.scale
    fx = cache(lambda x: _fmt((x - mnx) * px + pad))
    fy = cache(lambda y: _fmt((mxy - y) * px + pad))
    return lambda x, y: (fx(x), fy(y))


def _style(cfg: RenderConfig, kind: str) -> list[str]:
    out = ["<style>"]
    prop = "stroke" if kind == "line" else "fill"
    if cfg.color_mode == "by-stage":
        for i, color in enumerate(PALETTE):
            out.append(f".s{i} {{ {prop}: {color}; }}")
    else:
        out.append(f".s {{ {prop}: #000000; }}")
    out.append(".dead { stroke: #aaaaaa; }")
    out.append(".seed { stroke: #000000; }")
    out.append(".exposed { fill: none; stroke: #ff0000; }")
    out.append("</style>")
    return out


def _document(body: list[str], box, cfg: RenderConfig, kind: str) -> str:
    mnx, mny, mxx, mxy = box
    px = cfg.scale / 2  # pixels per doubled unit
    pad = cfg.scale
    w = (mxx - mnx) * px + 2 * pad
    h = (mxy - mny) * px + 2 * pad
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f"<metadata>color-mode={cfg.color_mode}; palette=stage mod 16 -> "
        + ",".join(PALETTE)
        + "</metadata>",
    ]
    head.extend(_style(cfg, kind))
    return "\n".join(head + body + ["</svg>"]) + "\n"


def render_structure(structure, cfg: RenderConfig = RenderConfig()) -> str:
    """One line element per unit segment or Y arm, in dump order (so output
    is byte-stable), then with `show_exposed` one circle per exposed end.

    Both lattices take one pixel map: a Y structure's axial (x, y) is drawn
    at doubled Euclidean (2x + y, sqrt(3) y), so an arm is two doubled
    units long, like a unit segment.
    """
    rows = structure.segments()
    axial = structure.variant == "y"
    # The box spans every drawn end; Python scalars keep `_fmt` off numpy.
    _, x, y, _ = structure.ends()
    x, sy = (2 * x + y, SQRT3) if axial else (x, 1)
    box = (0, 0, 0, 0)
    if len(x):
        box = (x.min().item(), y.min().item() * sy, x.max().item(), y.max().item() * sy)
    to_px = _to_px(box, cfg)
    place = (lambda x, y: to_px(2 * x + y, y * SQRT3)) if axial else to_px
    classes, width = _CLASSES[cfg.color_mode], _fmt(cfg.scale / 8)
    body = []
    for stage, orient, x, y in rows:
        x0, y0, x1, y1 = EXTENTS[orient]
        ax, ay = place(x + x0, y + y0)
        bx, by = place(x + x1, y + y1)
        cls = "seed" if orient == "s" else classes[stage % 16]
        body.append(f'<line class="{cls}" x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                    f'stroke-width="{width}"/>')
    if cfg.show_exposed:
        r = _fmt(cfg.scale / 6)
        for p in sorted(structure.exposed_points()):
            cx, cy = place(*p)
            body.append(f'<circle class="exposed" cx="{cx}" cy="{cy}" r="{r}"/>')
    return _document(body, box, cfg, "line")


def render_grid(grid: CellGrid, cfg: RenderConfig = RenderConfig()) -> str:
    """One rect per ON cell; DEAD cells are drawn as distinct cross marks.

    Cell (x, y) is the doubled square (2x, 2y)..(2x + 2, 2y + 2), placed by
    the structures' pixel map.  The element-count contract (one rect per
    active cell) is what the golden tests pin down.
    """
    if grid.dimension != 2:
        raise ValueError("only two-dimensional grids can be rendered")
    stage, coords, is_on = grid.cells()
    order = np.lexsort(coords.T[::-1])
    lo, hi = (coords.min(axis=0), coords.max(axis=0)) if len(coords) else (np.zeros(2, int),) * 2
    box = (*(2 * lo).tolist(), *(2 * hi + 2).tolist())
    to_px = _to_px(box, cfg)
    classes, side, back = _CLASSES[cfg.color_mode], _fmt(cfg.scale), _fmt(-cfg.scale)
    body = []
    for (cx, cy), on, st in zip(*(a[order].tolist() for a in (coords, is_on, stage))):
        x, y = to_px(2 * cx, 2 * cy + 2)  # the top left corner
        if on:
            body.append(f'<rect class="{classes[st % 16]}" x="{x}" y="{y}" '
                        f'width="{side}" height="{side}"/>')
        else:
            right, _ = to_px(2 * cx + 2, 0)
            body.append(f'<path class="dead" d="M {x} {y} l {side} {side} '
                        f'M {right} {y} l {back} {side}"/>')
    return _document(body, box, cfg, "rect")
