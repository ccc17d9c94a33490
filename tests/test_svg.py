import re

from qspeedup.svg import MARGIN_L, MARGIN_R, PANEL_W, Panel, Series, render_figure

X = (0.0, 0.5, 1.0, 2.0)
LEFT = (1.0, 0.8, 0.7, 0.9)
RIGHT = (0.0, 0.1, 0.3, 0.2)


def _polyline_xs(svg: str) -> list[list[str]]:
    return [[pair.split(",")[0] for pair in points.split()]
            for points in re.findall(r'<polyline points="([^"]*)"', svg)]


def test_equal_x_tuples_render_like_one_shared_tuple():
    copy = tuple(list(X))
    assert copy == X and copy is not X
    shared = render_figure([Panel("p", (Series(X, LEFT, "a"),
                                        Series(X, RIGHT, "b", axis="right")))])
    separate = render_figure([Panel("p", (Series(X, LEFT, "a"),
                                          Series(copy, RIGHT, "b", axis="right")))])
    assert separate == shared


def test_series_with_another_x_keeps_its_coordinates():
    other = (0.0, 1.0, 3.0, 4.0)
    svg = render_figure([Panel("p", (Series(X, LEFT, "a"),
                                     Series(other, RIGHT, "b", axis="right"),
                                     Series(X, RIGHT, "c")))])
    # the panel's x range is the padded span of every series
    lo, hi = -0.2, 4.2
    x0, x1 = MARGIN_L, PANEL_W - MARGIN_R

    def px(values):
        return [f"{x0 + (v - lo) / (hi - lo) * (x1 - x0):.2f}" for v in values]

    assert _polyline_xs(svg) == [px(X), px(other), px(X)]
