import functools
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qspeedup.svg import (COLUMNS, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PANEL_H, PANEL_W,
                          _fixed2, _text, render_figure)
from qspeedup.spectral import AtomKind
from qspeedup.sweep import SweepConfig, figure_preset, run_sweep

# SHA-256 of each preset's document; a change here is a change of figure
DIGESTS = {
    2: "0387917afbd76ec50fb9ee7df0de8f2cc7abd4f14cbf79986d54c4602593ee4a",
    3: "412bac751ad05f431afe0f3ee3a12769987176f33d0d2fa36f23d0d3cea296e2",
    4: "3722830d9d96472764c116c4ac50942b78b5a8ff09a2e230edf9bfc48f1c0810",
    5: "17b772b4ec8ac60c75170cbd2c34a50b8a53ec26d856154f620997ea56f2a401",
}


@functools.cache
def _figure(k: int):
    preset = figure_preset(k)
    table = run_sweep(preset.config)
    return table, render_figure(table, preset.right_axis)


def _polylines(svg: str) -> list[tuple[list[str], list[str], str, bool]]:
    """(x texts, y texts, colour, dashed) of each polyline in document order."""
    out = []
    for points, color, rest in re.findall(
            r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)"([^>]*)/>', svg):
        xs, ys = zip(*(pair.split(",") for pair in points.split()))
        out.append((list(xs), list(ys), color, 'stroke-dasharray="7,4"' in rest))
    return out


def _panels(svg: str) -> list[str]:
    """The document cut at each panel's frame, the panels in order."""
    return re.split(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" fill="none"',
                    svg)[1:]


@pytest.mark.parametrize("k,count", [(2, 8), (4, 16)])
def test_every_polyline_sits_on_the_panel_x(k, count):
    table, svg = _figure(k)
    lines = _polylines(svg)
    assert len(lines) == count
    # the x range is the gamma0 grid padded by 5% of its span on each side
    g0 = table.gamma0
    pad = 0.05 * (g0[-1] - g0[0])
    lo, hi = g0[0] - pad, g0[-1] + pad
    per_panel = count // 4
    for i, (xs, *_) in enumerate(lines):
        ox = (i // per_panel % COLUMNS) * PANEL_W
        x0, x1 = ox + MARGIN_L, ox + PANEL_W - MARGIN_R
        assert xs == [f"{x0 + (v - lo) / (hi - lo) * (x1 - x0):.2f}" for v in g0]


def test_right_axis_series_alone_are_dashed():
    _, svg = _figure(4)
    panels = _panels(svg)
    assert len(panels) == 4
    # per theta: the ratio solid, then the backflow dashed, each colour drawing
    # one polyline and one legend line beside its label
    expected = (("#1f77b4", False, "τ_QSL/τ, θ=0"), ("#2ca02c", True, "ℜ, θ=0"),
                ("#d62728", False, "τ_QSL/τ, θ=1"), ("#9467bd", True, "ℜ, θ=1"))
    for panel in panels:
        assert [(color, dashed) for *_, color, dashed in _polylines(panel)] == [
            (color, dashed) for color, dashed, _ in expected]
        for color, dashed, label in expected:
            marks = re.findall(rf'<(?:polyline|line) [^>]*stroke="{color}"[^>]*/>', panel)
            assert len(marks) == 2
            assert all(('stroke-dasharray="7,4"' in mark) is dashed for mark in marks)
            assert re.search(rf'stroke="{color}"[^>]*/>\n<text [^>]*>{label}</text>', panel)


def test_small_and_missing_bound_energies_sit_at_zero():
    table, svg = _figure(3)
    right = [line for line in _polylines(svg) if line[3]]
    assert len(right) == len(table.curves) == 4
    floored = 0
    for i, ((_, ys, *_), (*_, energies, _)) in enumerate(zip(right, table.curves)):
        plotted = [0.0 if b is None or abs(b) < 1e-4 else b for b in energies]
        # the right axis spans the plotted values padded by 5% of their span
        pad = 0.05 * (max(plotted) - min(plotted))
        lo, hi = min(plotted) - pad, max(plotted) + pad
        oy = (i // COLUMNS) * PANEL_H
        y0, y1 = oy + PANEL_H - MARGIN_B, oy + MARGIN_T
        zero = f"{y0 + (0.0 - lo) / (hi - lo) * (y1 - y0):.2f}"
        small = [y for y, b in zip(ys, energies) if b is None or abs(b) < 1e-4]
        assert small == [zero] * len(small)
        floored += len(small)
        # gamma0 = 0 has no energy; the rest of the curve is drawn as solved
        assert energies[0] is None and any(b is not None and b <= -1e-4 for b in energies)
    assert floored > len(right)


@pytest.mark.parametrize("k", sorted(DIGESTS))
def test_figure_bytes_are_pinned(k):
    _, svg = _figure(k)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == DIGESTS[k]


@pytest.mark.parametrize("right_axis", ["bound_enrgy", "ratio", ""])
def test_unknown_right_axis_is_refused(right_axis):
    table, _ = _figure(2)
    with pytest.raises(ValueError, match="right_axis"):
        render_figure(table, right_axis)


def test_a_panel_of_three_angles_is_refused():
    # the ratios take PALETTE[k], the right axes PALETTE[k + 2]: a third
    # angle would reuse the first angle's colours
    table = run_sweep(SweepConfig(kind=AtomKind.THREE_LEVEL_V, theta_list=(0.0, 0.5, 1.0)))
    with pytest.raises(ValueError, match="at most 2 angles, 3 given for N = 1"):
        render_figure(table, "nonmarkov")


def _texts(values) -> list[str]:
    """The texts _fixed2 gives for values, one per value."""
    rows = _fixed2(np.array(values, dtype=float))
    return [_text(row) for row in rows.reshape(-1, rows.shape[-1])]


@given(st.lists(st.floats(min_value=0.0, max_value=1e4, exclude_max=True),
                min_size=1, max_size=40))
def test_fixed2_is_python_format(values):
    assert _texts(values) == [f"{v:.2f}" for v in values]


@pytest.mark.parametrize("values", [
    # exact binary ties, which both sides round half to even
    [100.125, 0.375, 0.125, 0.625, 2.875] + [k / 8 for k in range(0, 80000, 7)],
    # float near-ties, most a hair below or above k + 1/2 hundredths
    [k / 100 + 0.005 for k in range(2000)] + [k / 100 + 0.005 for k in range(2000, 999999, 97)],
    # the width edges, and their neighbours that carry into a new digit
    [9.995, 99.995, 999.995, 9999.995, 9.996, 99.996, 999.996, 9999.996, 9999.999,
     math.nextafter(1e4, 0.0), 10.0, 100.0, 1000.0],
    [0.0, 0.004999, 0.005, 5e-324, 0.01, 0.995, 1.0],
], ids=["binary-ties", "near-ties", "width-edges", "zero"])
def test_fixed2_examples(values):
    assert _texts(values) == [f"{v:.2f}" for v in values]


def test_fixed2_keeps_the_shape():
    values = np.array([[0.0, 12.345], [9999.999, 700.5]])
    assert _fixed2(values).shape == (2, 2, 12)
    assert _texts(values) == ["0.00", "12.35", "10000.00", "700.50"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.01, -0.0, 1e4])
def test_fixed2_refuses_a_value_outside_its_range(bad):
    with pytest.raises(ValueError, match=r"finite and in \[0, 1e4\)"):
        _fixed2([1.0, bad, 2.0])
