import re

import pytest

from qspeedup.svg import MARGIN_L, MARGIN_R, PANEL_W, Panel, Series, render_figure

X = (0.0, 0.5, 1.0, 2.0)
LEFT = (1.0, 0.8, 0.7, 0.9)
RIGHT = (0.0, 0.1, 0.3, 0.2)


def _polyline_xs(svg: str) -> list[list[str]]:
    return [[pair.split(",")[0] for pair in points.split()]
            for points in re.findall(r'<polyline points="([^"]*)"', svg)]


def test_every_polyline_sits_on_the_panel_x():
    svg = render_figure([Panel("p", X, (Series(LEFT, "a"), Series(RIGHT, "b", right=True),
                                        Series(RIGHT, "c")), "r")])
    # the x range is the panel's x padded by 5% of its span on each side
    lo, hi = -0.1, 2.1
    x0, x1 = MARGIN_L, PANEL_W - MARGIN_R
    px = [f"{x0 + (v - lo) / (hi - lo) * (x1 - x0):.2f}" for v in X]
    assert _polyline_xs(svg) == [px, px, px]


def test_right_axis_series_alone_are_dashed():
    svg = render_figure([Panel("p", X, (Series(LEFT, "a", "#000001"),
                                        Series(RIGHT, "b", "#000002", right=True),
                                        Series(LEFT, "c", "#000003")), "r")])
    # each series draws one polyline and one legend line in its colour
    for color, dashed in (("#000001", False), ("#000002", True), ("#000003", False)):
        marks = re.findall(rf'<(?:polyline|line) [^>]*stroke="{color}"[^>]*/>', svg)
        assert len(marks) == 2
        assert all(('stroke-dasharray="7,4"' in mark) is dashed for mark in marks)


def test_series_of_another_length_is_refused():
    with pytest.raises(ValueError, match="one y per panel x"):
        Panel("p", X, (Series(LEFT, "a"), Series(RIGHT[:-1], "b", right=True)), "r")


@pytest.mark.parametrize("right", [False, True])
def test_panel_with_an_empty_side_is_refused(right):
    with pytest.raises(ValueError, match="a left and a right series"):
        Panel("p", X, (Series(LEFT, "a", right=right), Series(RIGHT, "b", right=right)), "r")
