"""The integer pair classification agrees with the drawing's pair table,
and its empty degeneracy fields are exactly general position."""

import itertools
import random

from cycleregions.embedding import CycleEmbedding, Point, pair_table
from cycleregions.pairs import classify_pairs

GRID = [(x, y) for x in range(3) for y in range(3)]


def grid_drawings():
    """Every 4-cycle on the 3x3 grid, repeated corners included, and
    2000 seeded 5- and 6-cycles on it."""
    yield from itertools.product(GRID, repeat=4)
    rng = random.Random(2024)
    for _ in range(1000):
        for n in (5, 6):
            yield tuple(rng.choice(GRID) for _ in range(n))


def test_classes_are_the_pair_table_of_the_drawing():
    for corners in grid_drawings():
        pairs = classify_pairs(corners)
        table = pair_table(CycleEmbedding(len(corners), (Point(x, y) for x, y in corners)))
        report = table.report
        assert (pairs.meets, pairs.chains, pairs.signs) == (table.meets, table.chains, table.signs)
        assert (pairs.coincident, pairs.incidences, pairs.overlaps) == (
            report.coincident_corners,
            report.corner_incidences,
            report.collinear_overlaps,
        )
        assert bool(pairs.ties) == bool(report.triple_points), corners
        general = not (pairs.coincident or pairs.incidences or pairs.overlaps or pairs.ties)
        assert general == report.is_empty(), corners


def test_three_segments_through_one_point_tie():
    # Segments 0, 2 and 4 of this star all pass through (2, 2).
    corners = [(0, 0), (4, 4), (4, 0), (0, 4), (2, 0), (2, 4)]
    pairs = classify_pairs(corners)
    assert pairs.ties
    assert not (pairs.coincident or pairs.incidences or pairs.overlaps)


def test_collapsed_segment_has_no_pairs():
    assert classify_pairs([(0, 0), (0, 0), (1, 1)]) == (((0, 1),), (), (), (), None, None, None)
