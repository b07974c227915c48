"""What every public consumer of a drawing does with each kind of degeneracy.

Six small drawings, one per kind, go through the general-position check,
both region counters, splitter analysis and the splitter-highlighting
renderer. The counters refuse them all; splitter analysis and rendering
still work where one intersection per segment pair is well defined.
"""

from fractions import Fraction

import pytest

from cycleregions.arrangement import (
    DegenerateInput,
    build_arrangement,
    region_count_traversal,
    splitter_analysis,
)
from cycleregions.embedding import (
    CycleEmbedding,
    DegeneracyReport,
    regular_polygon_points,
    validate_general_position,
)
from cycleregions.geometry import Point
from cycleregions.render import RenderOptions, to_svg


def P(x, y):
    return Point(Fraction(x), Fraction(y))


def on_polygon(k, labels):
    poly = regular_polygon_points(k)
    return CycleEmbedding(len(labels), tuple(poly[i] for i in labels))


DRAWINGS = {
    "triple_point": on_polygon(6, (0, 3, 1, 4, 2, 5)),
    "corner_incidence": CycleEmbedding(5, (P(0, 0), P(4, 0), P(4, 4), P(2, 0), P(0, 4))),
    "collinear_overlap": CycleEmbedding(4, (P(0, 0), P(2, 0), P(1, 0), P(1, 2))),
    "coincident_corners": on_polygon(4, (0, 1, 0, 3)),
    "adjacent_coincident_corners": CycleEmbedding(3, (P(0, 0), P(0, 0), P(1, 1))),
    "fold_back": CycleEmbedding(4, (P(0, 0), P(4, 0), P(2, 0), P(2, 3))),
}

REPORTS = {
    "triple_point": DegeneracyReport(triple_points=((P(0, 0), (0, 2, 4)),)),
    "corner_incidence": DegeneracyReport(corner_incidences=((3, 0),)),
    "collinear_overlap": DegeneracyReport(
        corner_incidences=((2, 0),), collinear_overlaps=((0, 1),)
    ),
    "coincident_corners": DegeneracyReport(
        collinear_overlaps=((0, 1), (2, 3)), coincident_corners=((0, 2),)
    ),
    "adjacent_coincident_corners": DegeneracyReport(coincident_corners=((0, 1),)),
    "fold_back": DegeneracyReport(corner_incidences=((2, 0),), collinear_overlaps=((0, 1),)),
}

# Segments met per segment, or the exception splitter_analysis raises.
SPLITTERS = {
    "triple_point": [5, 4, 4, 4, 5, 2],
    "corner_incidence": [4, 2, 3, 3, 2],
    "collinear_overlap": DegenerateInput,
    "coincident_corners": DegenerateInput,
    "adjacent_coincident_corners": DegenerateInput,
    "fold_back": DegenerateInput,
}

# Splitter lines in the highlighted SVG, or the exception to_svg raises.
SVG_SPLITTER_LINES = {
    "triple_point": 2,
    "corner_incidence": 1,
    "collinear_overlap": 0,
    "coincident_corners": 0,
    "adjacent_coincident_corners": 0,
    "fold_back": 0,
}

CASES = sorted(DRAWINGS)


@pytest.mark.parametrize("name", CASES)
def test_report(name):
    assert validate_general_position(DRAWINGS[name]) == REPORTS[name]


@pytest.mark.parametrize("counter", (build_arrangement, region_count_traversal))
@pytest.mark.parametrize("name", CASES)
def test_counters_refuse(name, counter):
    with pytest.raises(DegenerateInput) as info:
        counter(DRAWINGS[name])
    assert info.value.report == REPORTS[name]


@pytest.mark.parametrize("name", CASES)
def test_splitter_analysis(name):
    want = SPLITTERS[name]
    if isinstance(want, list):
        assert [c for c, _ in splitter_analysis(DRAWINGS[name]).per_segment] == want
        return
    with pytest.raises(want) as info:
        splitter_analysis(DRAWINGS[name])
    assert type(info.value) is want  # DegenerateInput is itself a ValueError
    if want is DegenerateInput:
        assert info.value.report == REPORTS[name]


@pytest.mark.parametrize("name", CASES)
def test_render(name):
    want = SVG_SPLITTER_LINES[name]
    opts = RenderOptions(highlight_splitters=True)
    if isinstance(want, int):
        svg = to_svg(DRAWINGS[name], opts)
        assert svg.count('class="segment splitter"') == want
        assert svg.count("<line ") == DRAWINGS[name].n
        return
    with pytest.raises(want) as info:
        to_svg(DRAWINGS[name], opts)
    assert type(info.value) is want
