import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycleregions.arrangement import (
    build_arrangement,
    region_count_euler,
    region_count_traversal,
    splitter_analysis,
)
from cycleregions.embedding import (
    POLYGON_DIGITS,
    CycleEmbedding,
    construct,
    construct_even,
    construct_odd,
    perturb,
    regular_polygon_points,
    validate_general_position,
)
from cycleregions.formulas import f_max, predicted_edges, predicted_vertices


def P(x, y):
    return (x, y)


def convex(n):
    return CycleEmbedding(n, tuple(regular_polygon_points(n)), 10**POLYGON_DIGITS)


class TestBuildArrangement:
    def test_pentagram(self):
        arr = build_arrangement(construct_odd(5))
        assert (arr.vertex_count, arr.edge_count, arr.face_count) == (10, 15, 6)

    def test_hourglass(self):
        arr = build_arrangement(construct_even(4))
        assert (arr.vertex_count, arr.edge_count, arr.face_count) == (5, 6, 2)

    def test_ten_cycle(self):
        arr = build_arrangement(construct_even(10))
        assert (arr.vertex_count, arr.edge_count, arr.face_count) == (41, 72, 32)

    def test_convex_polygon_has_single_region(self):
        arr = build_arrangement(convex(6))
        assert (arr.vertex_count, arr.edge_count, arr.face_count) == (6, 6, 1)

    def test_one_more_crossing_one_more_region(self):
        square = regular_polygon_points(4)
        plain = CycleEmbedding(4, tuple(square), 10**POLYGON_DIGITS)
        hourglass = CycleEmbedding(4, (square[0], square[2], square[1], square[3]), 10**POLYGON_DIGITS)
        assert build_arrangement(plain).face_count == 1
        assert build_arrangement(hourglass).face_count == 2


class TestTraversalCounter:
    @pytest.mark.parametrize(
        "emb,expected",
        [
            (convex(4), 1),
            (convex(6), 1),
            (construct_odd(5), 6),
            (construct_even(8), 18),
        ],
        ids=["square", "hexagon", "pentagram", "even-8"],
    )
    def test_known_counts(self, emb, expected):
        assert region_count_traversal(emb) == expected

    def test_agrees_with_euler_on_constructions(self):
        for n in range(3, 11):
            emb = construct(n)
            assert region_count_traversal(emb) == region_count_euler(
                build_arrangement(emb)
            )

    def test_agrees_after_repairing_a_degenerate_drawing(self):
        poly = regular_polygon_points(6)
        star = CycleEmbedding(6, tuple(poly[i] for i in (0, 3, 1, 4, 2, 5)), 10**POLYGON_DIGITS)
        fixed = perturb(star, Fraction(1, 1000), seed=0)
        assert region_count_traversal(fixed) == region_count_euler(
            build_arrangement(fixed)
        ) == 7

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_euler_on_random_embeddings(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        pts = []
        seen = set()
        while len(pts) < n:
            xy = (rng.randint(0, 500), rng.randint(0, 500))
            if xy not in seen:
                seen.add(xy)
                pts.append(P(*xy))
        order = [0] + rng.sample(range(1, n), n - 1)
        emb = CycleEmbedding(n, tuple(pts[i] for i in order))
        assume(validate_general_position(emb).is_empty())
        assert region_count_traversal(emb) == region_count_euler(
            build_arrangement(emb)
        )


class TestSplitterAnalysis:
    def test_convex_hexagon_has_no_splitters(self):
        report = splitter_analysis(convex(6))
        assert report.splitter_count == 0
        assert report.meets == (2,) * 6
        assert report.splitters == (False,) * 6
        assert report.one_off_count == 0

    def test_odd_construction_all_splitters(self):
        for n in (3, 5, 7, 9):
            report = splitter_analysis(construct_odd(n))
            assert report.splitter_count == n
            assert all(count == n - 1 for count in report.meets)
            assert report.splitters == (True,) * n

    def test_even_construction_two_splitters(self):
        report = splitter_analysis(construct_even(10))
        assert report.splitter_count == 2
        assert report.one_off_count == 8


def test_counts_match_size_predictions():
    for n in range(3, 13):
        arr = build_arrangement(construct(n))
        assert arr.vertex_count == predicted_vertices(n)
        assert arr.edge_count == predicted_edges(n)
        assert arr.face_count == f_max(n)


@pytest.mark.parametrize("n", (100, 101))
def test_certificate_at_one_hundred(n):
    emb = construct(n)
    arr = build_arrangement(emb)
    assert (arr.vertex_count, arr.edge_count) == (predicted_vertices(n), predicted_edges(n))
    assert region_count_euler(arr) == region_count_traversal(emb) == f_max(n)
    report = splitter_analysis(emb)
    if n % 2 == 0:
        assert (report.splitter_count, report.one_off_count) == (2, n - 2)
    else:
        assert report.splitter_count == n
