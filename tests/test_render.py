import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from cycleregions.embedding import construct_even, construct_odd
from cycleregions.formulas import BadInput
from cycleregions.render import RenderOptions, to_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def parsed(svg_text):
    return ET.fromstring(svg_text)


def test_pentagram_defaults():
    root = parsed(to_svg(construct_odd(5)))
    lines = root.findall(f"{SVG_NS}line")
    corners = [c for c in root.findall(f"{SVG_NS}circle") if c.get("class") == "corner"]
    labels = root.findall(f"{SVG_NS}text")
    assert len(lines) == 5
    assert len(corners) == 5
    assert len(labels) == 5


def test_viewport_and_version():
    svg = to_svg(construct_odd(5), RenderOptions(width=800, height=500))
    root = parsed(svg)
    assert root.get("width") == "800"
    assert root.get("height") == "500"
    assert root.get("version") == "1.1"
    assert root.get("viewBox") == "0 0 800 500"


@pytest.mark.parametrize("size,shown", [((0, 640), "0x640"), ((640, -1), "640x-1")])
def test_rejects_a_size_that_is_not_positive(size, shown):
    # A zero or negative viewBox side is an SVG error.
    opts = RenderOptions(width=size[0], height=size[1])
    with pytest.raises(ValueError, match=f"render size must be positive, got {shown}"):
        to_svg(construct_odd(5), opts)


@pytest.mark.parametrize(
    "size,shown",
    [((640.5, 640), "640.5x640"), ((640, Fraction(1281, 2)), "640xFraction(1281, 2)"), ((True, 9), "Truex9")],
)
def test_rejects_a_size_that_is_not_an_int(size, shown):
    # The screen coordinates are exact integer ratios; a float side would
    # round them early, and True would print as a width.
    opts = RenderOptions(width=size[0], height=size[1])
    with pytest.raises(BadInput, match=re.escape(f"render size must be integers, got {shown}")):
        to_svg(construct_odd(5), opts)


@pytest.mark.parametrize("size", [(10**400, 640), (640, 10**400)])
def test_rejects_a_size_past_the_float_range(size):
    # Screen coordinates are floats, so a side that float() cannot hold
    # would end the render in an OverflowError.
    opts = RenderOptions(width=size[0], height=size[1])
    with pytest.raises(BadInput, match=r"^render size must be at most 1\.8e\+308$"):
        to_svg(construct_odd(5), opts)


@pytest.mark.parametrize("field", ["stroke", "splitter_stroke", "fill"])
@pytest.mark.parametrize("color", ['red" onload="alert(1)', "rød"])
def test_rejects_a_color_that_would_leave_its_attribute(field, color):
    # Colours are written into SVG attributes unescaped, so a library caller
    # is held to the rule the command line applies.
    opts = RenderOptions(highlight_splitters=True, shade_regions=True)._replace(**{field: color})
    with pytest.raises(BadInput, match=f"^{field} must not contain"):
        to_svg(construct_odd(5), opts)


@pytest.mark.parametrize("field,color", [("fill", None), ("stroke", 123), ("splitter_stroke", b"red")])
def test_rejects_a_color_that_is_not_a_string(field, color):
    # Without the check these end the render in an AttributeError or a
    # TypeError instead of a refusal.
    opts = RenderOptions(highlight_splitters=True, shade_regions=True)._replace(**{field: color})
    with pytest.raises(BadInput, match=f"^{re.escape(f'{field} must be a string, got {color!r}')}$"):
        to_svg(construct_odd(5), opts)


def test_coordinates_use_six_fractional_digits():
    svg = to_svg(construct_odd(5))
    root = parsed(svg)
    for line in root.findall(f"{SVG_NS}line"):
        for attr in ("x1", "y1", "x2", "y2"):
            whole, _, frac = line.get(attr).partition(".")
            assert len(frac) == 6


def test_coordinates_stay_inside_margin():
    opts = RenderOptions(width=640, height=640)
    root = parsed(to_svg(construct_odd(7), opts))
    for line in root.findall(f"{SVG_NS}line"):
        for attr in ("x1", "x2"):
            assert 31.9 <= float(line.get(attr)) <= 608.1
        for attr in ("y1", "y2"):
            assert 31.9 <= float(line.get(attr)) <= 608.1


def test_splitter_highlighting():
    opts = RenderOptions(highlight_splitters=True)
    root = parsed(to_svg(construct_even(4), opts))
    highlighted = [
        ln
        for ln in root.findall(f"{SVG_NS}line")
        if ln.get("class") == "segment splitter"
    ]
    assert len(highlighted) == 2
    assert all(ln.get("stroke") == opts.splitter_stroke for ln in highlighted)
    plain = [
        ln for ln in root.findall(f"{SVG_NS}line") if ln.get("class") == "segment"
    ]
    assert all(ln.get("stroke") == opts.stroke for ln in plain)


def test_no_highlight_by_default():
    root = parsed(to_svg(construct_even(4)))
    assert all(
        ln.get("class") == "segment" for ln in root.findall(f"{SVG_NS}line")
    )


def test_shading_path():
    root = parsed(to_svg(construct_odd(5), RenderOptions(shade_regions=True)))
    paths = root.findall(f"{SVG_NS}path")
    assert len(paths) == 1
    assert paths[0].get("fill-rule") == "evenodd"
    assert paths[0].get("d").endswith("Z")
    assert not parsed(to_svg(construct_odd(5))).findall(f"{SVG_NS}path")


def test_labels_can_be_disabled():
    root = parsed(to_svg(construct_odd(5), RenderOptions(label_corners=False)))
    assert not root.findall(f"{SVG_NS}text")


def test_byte_deterministic():
    a = to_svg(construct_even(6), RenderOptions(highlight_splitters=True))
    b = to_svg(construct_even(6), RenderOptions(highlight_splitters=True))
    assert a.encode("ascii") == b.encode("ascii")
