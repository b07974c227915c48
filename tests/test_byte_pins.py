"""sha256 pins of output bytes that tests/test_golden.py does not cover.

The golden SVGs are all square 640x640 renders of constructions. These pin
the other branch of the viewport fit (a drawing limited by its height), a
drawing with no y-span, one with no span at all, negative coordinates over
unequal denominators, a degenerate drawing repaired by `perturb`, and the
file format's reduction of a coordinate to lowest terms.
"""

import hashlib
from fractions import Fraction

import pytest

from cycleregions.embedding import construct, format_embedding, parse_embedding, perturb
from cycleregions.render import RenderOptions, to_svg

ON = RenderOptions(highlight_splitters=True, shade_regions=True)


def digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def drawing(rows):
    """An embedding file with one `corner x y` line per row."""
    return "".join([f"n {len(rows)}\n", *(f"corner {x} {y}\n" for x, y in rows)])


FILES = {
    # Collinear on y = 1/3: the y-span is zero, so only the width fits.
    "flat": drawing([("0/1", "1/3"), ("5/2", "1/3"), ("1/1", "1/3")]),
    # No span at all, so the scale is 1 and every corner lands mid-screen.
    "coincident": drawing([("-1/2", "2/3")] * 3),
    "mixed": drawing(
        [("-3/7", "1/2"), ("5/3", "-7/4"), ("-11/6", "-2/5"), ("9/10", "13/9"), ("0/1", "-5/2")]
    ),
    # Segments 0, 2 and 4 meet at (2, 2).
    "star": drawing(
        [("0/1", "0/1"), ("4/1", "4/1"), ("4/1", "0/1"), ("0/1", "4/1"), ("2/1", "0/1"), ("2/1", "4/1")]
    ),
}

SVG = {
    ("construct(7)", 800, 500): "eec8516bf86eb3f441cfedfc75b83a6a47e6dff0ae77d3477d537f79b58b2aa7",
    ("construct(7)", 300, 900): "ee5e6761414c6fd7d5d533a06ba04d35dd1ff92d974e2e367062a22c2902947c",
    ("flat", 300, 100): "4e5b72f2263ff9852e988fafd63ae451b329d955f9354a094a43dc764c39ece2",
    ("coincident", 640, 640): "6c4a981815fc3a94f59ab82011cdcee7415c861d433654bbb58046f11d7d3acf",
    ("mixed", 640, 640): "07dee5609c703ffe26a5c588384fb11af35e2fb0114a27c3e1c54daba806847a",
    ("mixed", 300, 900): "4ffab9a3a7316900ae9ee633c3039b0d9c504da5767ef49e593d2af709456bf9",
}
REPAIRED_STAR_FILE = "4cf6cb17af95a368225287174d658e422380c364068e02749d091d85a047e145"
REPAIRED_STAR_SVG = "6dfdb4de5973f24901aadcb66b808664899f516e25b650fbef43e6ca10e38f0e"


@pytest.mark.parametrize("name,width,height", sorted(SVG))
def test_svg_bytes(name, width, height):
    emb = construct(7) if name == "construct(7)" else parse_embedding(FILES[name])
    opts = ON._replace(width=width, height=height)
    assert digest(to_svg(emb, opts)) == SVG[name, width, height]


def test_repaired_star_bytes():
    fixed = perturb(parse_embedding(FILES["star"]), Fraction(1, 1000), seed=0)
    assert digest(format_embedding(fixed)) == REPAIRED_STAR_FILE
    assert digest(to_svg(fixed, ON)) == REPAIRED_STAR_SVG


def test_coordinates_come_back_in_lowest_terms():
    text = "n 3\ncorner 2/4 0/3\ncorner -6/9 -4/8\ncorner 10/5 3/6\n"
    assert format_embedding(parse_embedding(text)) == (
        "n 3\ncorner 1/2 0/1\ncorner -2/3 -1/2\ncorner 2/1 1/2\n"
    )
