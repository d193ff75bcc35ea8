from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import pytest

from welfair.svgchart import line_chart


def _circles(svg: str) -> list[ET.Element]:
    return [el for el in ET.fromstring(svg).iter() if el.tag.endswith("circle")]


@pytest.mark.parametrize(
    "ys",
    [[2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [-3.0, -3.0, -3.0]],
    ids=["flat", "flat-zero", "flat-negative"],
)
def test_flat_series(ys):
    # a zero y range still spans the plot: every point drawn at one height,
    # with finite coordinates
    svg = line_chart([("a", [2.0, 3.0, 4.0], ys)], "t", "k", "R")
    circles = _circles(svg)
    assert len(circles) == 3
    heights = {c.get("cy") for c in circles}
    assert len(heights) == 1 and math.isfinite(float(heights.pop()))


def test_all_non_finite_series():
    # nothing to draw: the axes, ticks and legend are still written, and no
    # point
    series = [("a", [2.0, 3.0], [math.nan, math.inf]), ("b", [2.0], [-math.inf])]
    svg = line_chart(series, "t", "k", "R")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert _circles(svg) == []
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "a" in texts and "b" in texts
    assert "nan" not in svg and "inf" not in svg


def test_single_x_value():
    # one k: a zero x range, like a flat series, still spans the plot
    svg = line_chart([("a", [5.0], [1.5])], "t", "k", "R")
    (circle,) = _circles(svg)
    assert math.isfinite(float(circle.get("cx")))
