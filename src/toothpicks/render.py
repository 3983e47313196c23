"""Deterministic SVG output for segment structures and cell grids.

Identical inputs yield identical bytes: elements follow the dump-format
order, colors come from a fixed 16-entry palette keyed by stage mod 16,
and there are no timestamps or random ids.
"""

from dataclasses import dataclass

import numpy as np

from .engine import EXTENTS, Y_ARMS, bounding_box
from .gridca import CellGrid

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf", "#393b79", "#ad494a",
    "#637939", "#8c6d31", "#7b4173", "#3182bd",
)

SQRT3_2 = 0.8660254037844386


@dataclass(frozen=True)
class RenderConfig:
    scale: int = 16  # pixels per unit length
    color_mode: str = "by-stage"  # or "monochrome"
    show_exposed: bool = False

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.color_mode not in ("by-stage", "monochrome"):
            raise ValueError(f"unknown color mode: {self.color_mode!r}")


def _fmt(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.4f}".rstrip("0").rstrip(".")


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


def _class_for(cfg: RenderConfig, stage: int) -> str:
    return f"s{stage % 16}" if cfg.color_mode == "by-stage" else "s"


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
    """One line element per unit segment; Y structures use three per Y.

    Element order is the dump order, so output is byte-stable.
    """
    if structure.variant == "y":
        return _render_y(structure, cfg)
    rows = structure.segments()
    box = bounding_box(structure) if rows else (0, 0, 0, 0)
    mnx, _, _, mxy = box
    px = cfg.scale / 2
    pad = cfg.scale

    def to_px(x, y):
        return (x - mnx) * px + pad, (mxy - y) * px + pad

    body = []
    for stage, orient, x, y in rows:
        x0, y0, x1, y1 = EXTENTS[orient]
        ax, ay = to_px(x + x0, y + y0)
        bx, by = to_px(x + x1, y + y1)
        cls = "seed" if orient == "s" else _class_for(cfg, stage)
        body.append(
            f'<line class="{cls}" x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
            f'x2="{_fmt(bx)}" y2="{_fmt(by)}" stroke-width="{_fmt(cfg.scale / 8)}"/>'
        )
    if cfg.show_exposed:
        for p in sorted(structure.exposed_points()):
            cx, cy = to_px(*p)
            body.append(
                f'<circle class="exposed" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(cfg.scale / 6)}"/>'
            )
    return _document(body, box, cfg, "line")


def _render_y(structure, cfg: RenderConfig) -> str:
    # Axial (x, y) -> Euclidean (x + y/2, y * sqrt(3)/2); arms have unit length.
    pts = []
    for stage, orient, x, y in structure.segments():
        ax = Y_ARMS[int(orient[1])]
        ex, ey = x + y / 2, y * SQRT3_2
        tx, ty = x + ax[0] + (y + ax[1]) / 2, (y + ax[1]) * SQRT3_2
        pts.append((stage, ex, ey, tx, ty))
    if pts:
        mnx = min(min(p[1], p[3]) for p in pts)
        mxx = max(max(p[1], p[3]) for p in pts)
        mny = min(min(p[2], p[4]) for p in pts)
        mxy = max(max(p[2], p[4]) for p in pts)
    else:
        mnx = mny = mxx = mxy = 0
    box = (2 * mnx, 2 * mny, 2 * mxx, 2 * mxy)  # doubled, like the square case
    px = cfg.scale
    pad = cfg.scale
    body = []
    for stage, ex, ey, tx, ty in pts:
        cls = _class_for(cfg, stage)
        body.append(
            f'<line class="{cls}" x1="{_fmt((ex - mnx) * px + pad)}" '
            f'y1="{_fmt((mxy - ey) * px + pad)}" '
            f'x2="{_fmt((tx - mnx) * px + pad)}" '
            f'y2="{_fmt((mxy - ty) * px + pad)}" '
            f'stroke-width="{_fmt(cfg.scale / 8)}"/>'
        )
    return _document(body, box, cfg, "line")


def render_grid(grid: CellGrid, cfg: RenderConfig = RenderConfig()) -> str:
    """One rect per ON cell; DEAD cells are drawn as distinct cross marks.

    The element-count contract (one rect per active cell) is what the
    golden tests pin down.
    """
    if grid.dimension != 2:
        raise ValueError("only two-dimensional grids can be rendered")
    stage, coords, is_on = grid.cells()
    order = np.lexsort(coords.T[::-1])
    box = (coords.min(axis=0), coords.max(axis=0)) if len(coords) else ((0, 0),) * 2
    (mnx, mny), (mxx, mxy) = np.array(box).tolist()
    px = cfg.scale
    pad = cfg.scale

    def corner(cx, cy):
        return (cx - mnx) * px + pad, (mxy - cy) * px + pad

    body = []
    for (cx, cy), on, st in zip(coords[order].tolist(), is_on[order].tolist(), stage[order].tolist()):
        x, y = corner(cx, cy)
        if on:
            cls = _class_for(cfg, st)
            body.append(
                f'<rect class="{cls}" x="{_fmt(x)}" y="{_fmt(y)}" '
                f'width="{_fmt(px)}" height="{_fmt(px)}"/>'
            )
        else:
            body.append(
                f'<path class="dead" d="M {_fmt(x)} {_fmt(y)} l {_fmt(px)} {_fmt(px)} '
                f'M {_fmt(x + px)} {_fmt(y)} l {_fmt(-px)} {_fmt(px)}"/>'
            )
    # A cell is one unit wide: two doubled units.
    return _document(body, (2 * mnx, 2 * mny, 2 * mxx + 2, 2 * mxy + 2), cfg, "rect")
