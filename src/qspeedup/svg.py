"""The survey figure as a static SVG document, one panel per emitter count.

Hand-rolled on purpose: the output must be byte-deterministic and free of
plotting-library dependencies.  Coordinates are rounded to 0.01 px so the
documents diff cleanly across runs on one host (numpy's transcendental
functions may round differently on another CPU).
"""

from __future__ import annotations

import itertools

import numpy as np

from .sweep import SweepTable

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
# the ratio of the k-th theta of a panel takes colour k, its right-axis series
# k + ANGLES, so no two series of a panel share a colour
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
ANGLES = len(PALETTE) // 2  # most angles a panel draws
BOUND_PLOT_FLOOR = 1e-4  # bound energies of smaller magnitude are drawn at 0


def _limits(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _fmt(v: float) -> str:
    return f"{v:.2f}"


# "00" to "99", each two ASCII bytes read as one uint16 in memory order
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"),
                       dtype=np.uint16)
_POINT, _COMMA, _SPACE = np.frombuffer(b".\0,\0 \0", dtype=np.uint16)
_TIE_BAND = 1e-9  # 100*v this close to a half-integer is rounded by Python itself


def _divmod100(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod(n, 100) of integers n >= 0, without its slower remainder."""
    q = n // 100
    return q, n - 100 * q


def _fixed2(values) -> np.ndarray:
    """f"{v:.2f}" of every v in [0, 1e4) as a row of 12 bytes: the ASCII
    text with 0 bytes in and after it, the last two left 0 for a separator.

    The text of v is that of the integer k = round(100*v), half to even on
    the exact binary value as Python rounds.  For v < 1e4, fl(100*v) is
    within 1.2e-10 of 100*v, so np.rint of it gives that k unless it lies
    within _TIE_BAND of a half-integer; those few take k from Python.  A
    value that is non-finite, negative (-0.0 included) or >= 1e4 raises
    ValueError, so no text is ever wrong."""
    v = np.asarray(values, dtype=float)
    if not (np.all(v < 1e4) and not np.signbit(v).any()):  # NaN fails
        raise ValueError("an SVG coordinate must be finite and in [0, 1e4)")
    scaled = 100.0 * v
    k = np.rint(scaled)
    near = np.flatnonzero(np.abs(scaled - k) > 0.5 - _TIE_BAND)
    k = k.astype(np.int32)
    for i in near.tolist():
        k.flat[i] = int(f"{v.flat[i]:.2f}".replace(".", ""))
    q, frac = _divmod100(k)  # q reaches 10000 for v near 1e4
    hi, lo = _divmod100(q)
    top, mid = _divmod100(hi)
    words = np.empty(v.shape + (6,), dtype=np.uint16)
    words[..., 0] = _PAIRS[top]
    words[..., 1] = _PAIRS[mid]
    words[..., 2] = _PAIRS[lo]
    words[..., 3] = _POINT
    words[..., 4] = _PAIRS[frac]
    words[..., 5] = 0
    out = words.view(np.uint8)
    # blank the leading zeros of the integer part, keeping its units digit
    out[..., 0] = 0
    out[..., 1] *= q >= 10000
    out[..., 2] *= q >= 1000
    out[..., 3] *= q >= 100
    out[..., 4] *= q >= 10
    return out


def _text(row: np.ndarray) -> str:
    """The ASCII text of a byte row, its 0 bytes dropped."""
    return row[row != 0].tobytes().decode("ascii")


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _panel_svg(title: str, x: np.ndarray, series: list[tuple], right_label: str,
               ox: float, oy: float) -> list[str]:
    """One panel at (ox, oy); each series is (y, label, colour, right) with
    y a float array the length of x, and one on the right axis is dashed."""
    x0, x1 = ox + MARGIN_L, ox + PANEL_W - MARGIN_R
    y0, y1 = oy + PANEL_H - MARGIN_B, oy + MARGIN_T  # y grows downward in SVG

    xlo, xhi = _limits(x)
    yllo, ylhi = _limits(np.array([y for y, *_, right in series if not right]))
    yrlo, yrhi = _limits(np.array([y for y, *_, right in series if right]))

    def px(v: float) -> float:
        return x0 + (v - xlo) / (xhi - xlo) * (x1 - x0)

    def py(v: float, right: bool) -> float:
        lo, hi = (yrlo, yrhi) if right else (yllo, ylhi)
        return y0 + (v - lo) / (hi - lo) * (y1 - y0)

    out = [f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
           f'height="{_fmt(y0 - y1)}" fill="none" stroke="#333333"/>']
    out.append(f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(oy + 30)}" '
               f'text-anchor="middle" font-size="20">{title}</text>')

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
               f'{right_label}</text>')

    # every polyline's points in one formatting pass: per point the x text,
    # a comma, the y text and a space, but no space after the last point
    coords = np.empty((len(series), len(x), 2))
    coords[:, :, 0] = px(x)
    for k, (y, *_, right) in enumerate(series):
        coords[k, :, 1] = py(y, right)
    points = _fixed2(coords)
    words = points.view(np.uint16)
    words[:, :, 0, 5] = _COMMA
    words[:, :-1, 1, 5] = _SPACE
    for k, (_, label, color, right) in enumerate(series):
        pts = _text(points[k])
        dash = ' stroke-dasharray="7,4"' if right else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        ly = y1 + 22 + 18 * k
        lx = x1 - 150
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 28)}" '
                   f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{_fmt(lx + 34)}" y="{_fmt(ly)}" font-size="13">'
                   f'{label}</text>')
    return out


def render_figure(table: SweepTable, right_axis: str) -> str:
    """The survey figure of a sweep as one SVG 1.1 document: a panel per N,
    COLUMNS per row.  Per theta a panel draws tau_QSL/tau solid on the left
    axis and the right_axis column ("nonmarkov" or "bound_energy") dashed on
    the right one.  An unknown right_axis, or a panel of more angles than
    PALETTE has colour pairs, raises ValueError."""
    if right_axis not in ("nonmarkov", "bound_energy"):
        raise ValueError('right_axis must be "nonmarkov" or "bound_energy"')
    right_label = "ℜ" if right_axis == "nonmarkov" else "E_b/ω₀"
    body = []
    gamma0 = np.array(table.gamma0, dtype=float)
    # the table keeps the curves of one N adjacent
    panels = itertools.groupby(table.curves, key=lambda curve: curve[0])
    for i, (n, group) in enumerate(panels):
        curves = list(group)
        if len(curves) > ANGLES:
            raise ValueError(f"a panel draws at most {ANGLES} angles, "
                             f"{len(curves)} given for N = {n}")
        series = []
        for k, (_, theta, ratio, nonmarkov, bound_energy, _) in enumerate(curves):
            suffix = f", θ={theta:g}" if len(curves) > 1 else ""
            left = np.array(ratio, dtype=float)
            if right_axis == "nonmarkov":
                right = np.array(nonmarkov, dtype=float)
            else:
                # None reads NaN, which fails the comparison and is drawn at 0
                energy = np.array(bound_energy, dtype=float)
                right = np.where(np.abs(energy) >= BOUND_PLOT_FLOOR, energy, 0.0)
            series += [(left, Y_LEFT_LABEL + suffix, PALETTE[k], False),
                       (right, right_label + suffix, PALETTE[k + ANGLES], True)]
        body += _panel_svg(f"N = {n}", gamma0, series, right_label,
                           (i % COLUMNS) * PANEL_W, (i // COLUMNS) * PANEL_H)
    width, height = COLUMNS * PANEL_W, (i // COLUMNS + 1) * PANEL_H
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
