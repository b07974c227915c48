"""The integer pair classification is the drawing's pair table, and it is
degenerate exactly when the drawing's report is not empty."""

import itertools
import random

from cycleregions.embedding import CycleEmbedding, pair_table, validate_general_position
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
        emb = CycleEmbedding(len(corners), corners)
        assert pair_table(emb) == pairs, corners
        report = validate_general_position(emb)
        assert bool(pairs.ties) == bool(report.triple_points), corners
        assert pairs.degenerate != report.is_empty(), corners
        # A positive-length overlap puts a corner strictly inside the other
        # segment or makes two corners coincide, so the overlaps term of
        # `degenerate` never decides it alone; it stays as the definition.
        assert not pairs.overlaps or pairs.incidences or pairs.coincident, corners


def test_collapsed_segment_has_no_pairs():
    assert classify_pairs([(0, 0), (0, 0), (1, 1)]) == (((0, 1),), (), (), (), None, None, None)
