"""Minimal static SVG line charts, one panel per emitter count.

Hand-rolled on purpose: the output must be byte-deterministic and free of
plotting-library dependencies.  Coordinates are rounded to 0.01 px so the
documents diff cleanly across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PANEL_W = 900
PANEL_H = 600
MARGIN_L = 80
MARGIN_R = 80
MARGIN_T = 50
MARGIN_B = 60
TICKS = 5
COLUMNS = 2  # panels per row
X_LABEL = "γ₀/ω₀"
Y_LEFT_LABEL = "τ_QSL/τ"


@dataclass(frozen=True)
class Series:
    """One polyline over its panel's x, on the left y scale or on the right
    one, which draws it with a dash pattern."""

    y: tuple[float, ...]
    label: str
    color: str = "#1f77b4"
    right: bool = False


@dataclass(frozen=True)
class Panel:
    title: str
    x: tuple[float, ...]
    series: tuple[Series, ...]
    y_right_label: str

    def __post_init__(self):
        if any(len(s.y) != len(self.x) for s in self.series):
            raise ValueError("every series needs one y per panel x")
        if {s.right for s in self.series} != {False, True}:
            raise ValueError("a panel needs a left and a right series")


def _limits(values) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _panel_svg(panel: Panel, ox: float, oy: float) -> list[str]:
    x0, x1 = ox + MARGIN_L, ox + PANEL_W - MARGIN_R
    y0, y1 = oy + PANEL_H - MARGIN_B, oy + MARGIN_T  # y grows downward in SVG

    xlo, xhi = _limits(panel.x)
    yllo, ylhi = _limits([v for s in panel.series if not s.right for v in s.y])
    yrlo, yrhi = _limits([v for s in panel.series if s.right for v in s.y])

    def px(v: float) -> float:
        return x0 + (v - xlo) / (xhi - xlo) * (x1 - x0)

    def py(v: float, right: bool) -> float:
        lo, hi = (yrlo, yrhi) if right else (yllo, ylhi)
        return y0 + (v - lo) / (hi - lo) * (y1 - y0)

    out = [f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
           f'height="{_fmt(y0 - y1)}" fill="none" stroke="#333333"/>']
    out.append(f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(oy + 30)}" '
               f'text-anchor="middle" font-size="20">{panel.title}</text>')

    for i in range(TICKS):
        frac = i / (TICKS - 1)
        tx = xlo + frac * (xhi - xlo)
        gx = px(tx)
        out.append(f'<line x1="{_fmt(gx)}" y1="{_fmt(y0)}" x2="{_fmt(gx)}" '
                   f'y2="{_fmt(y0 + 6)}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(gx)}" y="{_fmt(y0 + 24)}" text-anchor="middle" '
                   f'font-size="14">{_tick_label(tx)}</text>')
        tl = yllo + frac * (ylhi - yllo)
        gy = py(tl, False)
        out.append(f'<line x1="{_fmt(x0 - 6)}" y1="{_fmt(gy)}" x2="{_fmt(x0)}" '
                   f'y2="{_fmt(gy)}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(x0 - 10)}" y="{_fmt(gy + 5)}" text-anchor="end" '
                   f'font-size="14">{_tick_label(tl)}</text>')
        tr = yrlo + frac * (yrhi - yrlo)
        gy = py(tr, True)
        out.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(gy)}" x2="{_fmt(x1 + 6)}" '
                   f'y2="{_fmt(gy)}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(x1 + 10)}" y="{_fmt(gy + 5)}" '
                   f'text-anchor="start" font-size="14">{_tick_label(tr)}</text>')

    out.append(f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y0 + 45)}" '
               f'text-anchor="middle" font-size="16">{X_LABEL}</text>')
    cx, cy = x0 - 55, (y0 + y1) / 2
    out.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
               f'font-size="16" transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">'
               f'{Y_LEFT_LABEL}</text>')
    cx = x1 + 60
    out.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
               f'font-size="16" transform="rotate(90 {_fmt(cx)} {_fmt(cy)})">'
               f'{panel.y_right_label}</text>')

    x_text = [f"{v:.2f}" for v in px(np.asarray(panel.x, dtype=float)).tolist()]
    for k, s in enumerate(panel.series):
        ys = py(np.asarray(s.y, dtype=float), s.right).tolist()
        pts = " ".join([f"{x},{y:.2f}" for x, y in zip(x_text, ys)])
        dash = ' stroke-dasharray="7,4"' if s.right else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                   f'stroke-width="1.5"{dash}/>')
        ly = y1 + 22 + 18 * k
        lx = x1 - 150
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 28)}" '
                   f'y2="{_fmt(ly - 4)}" stroke="{s.color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{_fmt(lx + 34)}" y="{_fmt(ly)}" font-size="13">'
                   f'{s.label}</text>')
    return out


def render_figure(panels) -> str:
    """Compose panels into one SVG 1.1 document, COLUMNS per row."""
    panels = list(panels)
    if not panels:
        raise ValueError("need at least one panel")
    columns = min(COLUMNS, len(panels))
    rows = (len(panels) + columns - 1) // columns
    width = columns * PANEL_W
    height = rows * PANEL_H
    body = []
    for i, panel in enumerate(panels):
        ox = (i % columns) * PANEL_W
        oy = (i // columns) * PANEL_H
        body.extend(_panel_svg(panel, ox, oy))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
