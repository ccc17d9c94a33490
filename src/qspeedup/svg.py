"""The survey figure as a static SVG document, one panel per emitter count.

Hand-rolled on purpose: the output must be byte-deterministic and free of
plotting-library dependencies.  Coordinates are rounded to 0.01 px so the
documents diff cleanly across runs on one host (numpy's transcendental
functions may round differently on another CPU).  A panel reads its own
curves; _line writes each of its <line>s and _label each of its <text>s.
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


def _line(x1: float, y1: float, x2: float, y2: float, style: str) -> str:
    """A <line> from (x1, y1) to (x2, y2); style holds its stroke attributes."""
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'


def _label(x: float, y: float, body: str, size: int, anchor: str = "",
           turn: int = 0) -> str:
    """A <text> of body at (x, y) and font-size size; an empty anchor writes
    no text-anchor, and a nonzero turn rotates it by turn degrees about (x, y)."""
    anchored = f' text-anchor="{anchor}"' if anchor else ""
    turned = f' transform="rotate({turn} {_fmt(x)} {_fmt(y)})"' if turn else ""
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchored} font-size="{size}"{turned}>'
            f'{body}</text>')


def _panel_svg(n: int, gamma0: np.ndarray, curves: list[tuple], right_axis: str,
               ox: float, oy: float) -> list[str]:
    """The panel of N = n at (ox, oy), its curves those of SweepTable.curves:
    per theta the ratio solid on the left axis and the right_axis column
    dashed on the right one."""
    if len(curves) > ANGLES:
        raise ValueError(f"a panel draws at most {ANGLES} angles, "
                         f"{len(curves)} given for N = {n}")
    _, thetas, ratio, nonmarkov, bound_energy, _ = zip(*curves)
    left = np.array(ratio, dtype=float)
    if right_axis == "nonmarkov":
        right, right_label = np.array(nonmarkov, dtype=float), "ℜ"
    else:
        # None reads NaN, which fails the comparison and is drawn at 0
        energy = np.array(bound_energy, dtype=float)
        right = np.where(np.abs(energy) >= BOUND_PLOT_FLOOR, energy, 0.0)
        right_label = "E_b/ω₀"
    x0, x1 = ox + MARGIN_L, ox + PANEL_W - MARGIN_R
    y0, y1 = oy + PANEL_H - MARGIN_B, oy + MARGIN_T  # y grows downward in SVG
    (xlo, xhi), left_lim, right_lim = _limits(gamma0), _limits(left), _limits(right)

    def px(v: float) -> float:
        return x0 + (v - xlo) / (xhi - xlo) * (x1 - x0)

    def py(v: float, lo: float, hi: float) -> float:
        return y0 + (v - lo) / (hi - lo) * (y1 - y0)

    # each y axis: its limits, the frame edge it sits on, the side its ticks
    # face (-1 left, +1 right) and the anchor of its tick labels
    axes = ((left_lim, x0, -1, "end"), (right_lim, x1, 1, "start"))
    tick = 'stroke="#333333"'
    out = [f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
           f'height="{_fmt(y0 - y1)}" fill="none" stroke="#333333"/>',
           _label((x0 + x1) / 2, oy + 30, f"N = {n}", 20, "middle")]
    for i in range(TICKS):
        frac = i / (TICKS - 1)
        tx = xlo + frac * (xhi - xlo)
        gx = px(tx)
        out.append(_line(gx, y0, gx, y0 + 6, tick))
        out.append(_label(gx, y0 + 24, _tick_label(tx), 14, "middle"))
        for (lo, hi), edge, side, anchor in axes:
            ty = lo + frac * (hi - lo)
            gy, tip = py(ty, lo, hi), edge + 6 * side
            out.append(_line(min(edge, tip), gy, max(edge, tip), gy, tick))
            out.append(_label(edge + 10 * side, gy + 5, _tick_label(ty), 14, anchor))
    out.append(_label((x0 + x1) / 2, y0 + 45, X_LABEL, 16, "middle"))
    cy = (y0 + y1) / 2
    out.append(_label(x0 - 55, cy, Y_LEFT_LABEL, 16, "middle", -90))
    out.append(_label(x1 + 60, cy, right_label, 16, "middle", 90))

    # every polyline's points in one formatting pass: per point the x text,
    # a comma, the y text and a space, but no space after the last point;
    # per theta the ratio's row, then its right-axis row
    coords = np.empty((2 * len(curves), len(gamma0), 2))
    coords[:, :, 0] = px(gamma0)
    coords[0::2, :, 1] = py(left, *left_lim)
    coords[1::2, :, 1] = py(right, *right_lim)
    points = _fixed2(coords)
    words = points.view(np.uint16)
    words[:, :, 0, 5] = _COMMA
    words[:, :-1, 1, 5] = _SPACE
    for j, row in enumerate(points):
        k, dashed = divmod(j, 2)
        suffix = f", θ={thetas[k]:g}" if len(curves) > 1 else ""
        style = (f'stroke="{PALETTE[k + ANGLES * dashed]}" stroke-width="1.5"'
                 + (' stroke-dasharray="7,4"' if dashed else ""))
        out.append(f'<polyline points="{_text(row)}" fill="none" {style}/>')
        lx, ly = x1 - 150, y1 + 22 + 18 * j
        out.append(_line(lx, ly - 4, lx + 28, ly - 4, style))
        out.append(_label(lx + 34, ly, (right_label if dashed else Y_LEFT_LABEL) + suffix, 13))
    return out


def render_figure(table: SweepTable, right_axis: str) -> str:
    """The survey figure of a sweep as one SVG 1.1 document: a panel per N,
    COLUMNS per row.  Per theta a panel draws tau_QSL/tau solid on the left
    axis and the right_axis column ("nonmarkov" or "bound_energy") dashed on
    the right one.  An unknown right_axis, or a panel of more angles than
    PALETTE has colour pairs, raises ValueError."""
    if right_axis not in ("nonmarkov", "bound_energy"):
        raise ValueError('right_axis must be "nonmarkov" or "bound_energy"')
    body = []
    gamma0 = np.array(table.gamma0, dtype=float)
    # the table keeps the curves of one N adjacent
    panels = itertools.groupby(table.curves, key=lambda curve: curve[0])
    for i, (n, group) in enumerate(panels):
        body += _panel_svg(n, gamma0, list(group), right_axis,
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
