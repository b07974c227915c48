from fractions import Fraction

import pytest

from cycleregions import embedding, formulas
from cycleregions.arrangement import build_arrangement
from cycleregions.embedding import (
    CycleEmbedding,
    PerturbationFailed,
    _place,
    construct,
    construct_even,
    construct_odd,
    format_embedding,
    load_embedding,
    parse_embedding,
    perturb,
    regular_polygon_points,
    save_embedding,
    validate_general_position,
)
from cycleregions.formulas import InvalidN
from cycleregions.geometry import Point


def P(x, y):
    return Point(Fraction(x), Fraction(y))


def hexagon_star():
    """Regular hexagon visited in star order: the three long diagonals
    run through the origin exactly, a genuine triple point."""
    poly = regular_polygon_points(6, 1, 6)
    return CycleEmbedding(6, tuple(poly[i] for i in (0, 3, 1, 4, 2, 5)))


class TestRegularPolygonPoints:
    def test_square_is_exact(self):
        # cos/sin of multiples of pi/2 round to exact unit values
        assert regular_polygon_points(4, 1, 6) == [
            P(1, 0),
            P(0, 1),
            P(-1, 0),
            P(0, -1),
        ]

    def test_points_lie_near_unit_circle(self):
        for p in regular_polygon_points(11, 1, 6):
            assert abs(p.x * p.x + p.y * p.y - 1) < Fraction(1, 10**5)

    def test_scale_multiplies_coordinates(self):
        unit = regular_polygon_points(5, 1, 8)
        scaled = regular_polygon_points(5, Fraction(7, 2), 8)
        assert scaled == [P(Fraction(7, 2) * p.x, Fraction(7, 2) * p.y) for p in unit]

    def test_pairwise_distinct(self):
        for k in (3, 7, 12, 30):
            pts = regular_polygon_points(k, 1, 4)
            assert len(set(pts)) == k

    def test_rejects_few_digits(self):
        with pytest.raises(ValueError):
            regular_polygon_points(5, 1, 3)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            regular_polygon_points(2, 1, 6)

    @pytest.mark.parametrize("scale", [0, Fraction(-1, 2)])
    def test_rejects_non_positive_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            regular_polygon_points(5, scale, 6)

    def test_rejects_collapsed_vertices(self):
        # Neighbouring vertices of a 70000-gon are about 9e-5 apart, so at
        # four digits some round to one point.
        with pytest.raises(ValueError, match="rounding collapsed two polygon vertices"):
            regular_polygon_points(70000, 1, 4)


class TestCycleEmbedding:
    def test_segments_close_the_cycle(self):
        emb = CycleEmbedding(3, (P(0, 0), P(1, 0), P(0, 1)))
        segs = emb.segments()
        assert [s.cycle_index for s in segs] == [0, 1, 2]
        assert segs[2].a == P(0, 1) and segs[2].b == P(0, 0)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidN):
            CycleEmbedding(2, (P(0, 0), P(1, 0)))

    def test_rejects_wrong_corner_count(self):
        with pytest.raises(ValueError):
            CycleEmbedding(4, (P(0, 0), P(1, 0), P(0, 1)))


class TestValidate:
    def test_pentagram_is_general_position(self):
        assert validate_general_position(construct_odd(5)).is_empty()

    def test_triple_point_detected(self):
        report = validate_general_position(hexagon_star())
        assert not report.is_empty()
        assert len(report.triple_points) == 1
        point, segs = report.triple_points[0]
        assert point == P(0, 0)
        assert len(segs) == 3

    def test_coincident_corners_detected(self):
        sq = regular_polygon_points(4, 1, 6)
        emb = CycleEmbedding(4, (sq[0], sq[1], sq[0], sq[3]))
        report = validate_general_position(emb)
        assert report.coincident_corners == ((0, 2),)

    def test_adjacent_coincident_corners_short_circuit(self):
        emb = CycleEmbedding(3, (P(0, 0), P(0, 0), P(1, 1)))
        report = validate_general_position(emb)
        assert report.coincident_corners == ((0, 1),)

    def test_corner_incidence_detected(self):
        # corner 3 sits in the interior of segment 0
        emb = CycleEmbedding(
            5, (P(0, 0), P(4, 0), P(4, 4), P(2, 0), P(0, 4))
        )
        report = validate_general_position(emb)
        assert (3, 0) in report.corner_incidences

    def test_collinear_overlap_detected(self):
        emb = CycleEmbedding(4, (P(0, 0), P(2, 0), P(1, 0), P(1, 2)))
        report = validate_general_position(emb)
        assert (0, 1) in report.collinear_overlaps

    def test_summary_mentions_counts(self):
        s = validate_general_position(hexagon_star()).summary()
        assert "1 triple point(s)" in s


class TestPerturb:
    def test_repairs_triple_point(self):
        fixed = perturb(hexagon_star(), Fraction(1, 1000), seed=0)
        assert validate_general_position(fixed).is_empty()

    def test_deterministic(self):
        a = perturb(hexagon_star(), Fraction(1, 1000), seed=9)
        b = perturb(hexagon_star(), Fraction(1, 1000), seed=9)
        assert a == b

    def test_seed_changes_output(self):
        a = perturb(hexagon_star(), Fraction(1, 1000), seed=0)
        b = perturb(hexagon_star(), Fraction(1, 1000), seed=1)
        assert a != b

    def test_valid_embedding_keeps_region_count(self):
        emb = construct_odd(7)
        before = build_arrangement(emb).face_count
        after = build_arrangement(perturb(emb, Fraction(1, 10**4), seed=5)).face_count
        assert before == after == 15

    def test_offsets_bounded_by_epsilon(self):
        eps = Fraction(1, 500)
        emb = construct_odd(5)
        moved = perturb(emb, eps, seed=3)
        for p, q in zip(emb.corners, moved.corners):
            assert (p.x - q.x) ** 2 + (p.y - q.y) ** 2 <= eps * eps

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            perturb(hexagon_star(), 0)
        with pytest.raises(ValueError):
            perturb(hexagon_star(), Fraction(-1, 10))

    def test_exhausted_retries_raise(self):
        with pytest.raises(PerturbationFailed):
            perturb(hexagon_star(), Fraction(1, 1000), seed=0, max_retries=0)

    def test_rejects_negative_seed(self):
        # random.Random(-s) is random.Random(s): -1 would repeat seed 1.
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            perturb(hexagon_star(), Fraction(1, 1000), seed=-1)


@pytest.mark.parametrize("build,n", [(construct, 8), (construct_odd, 7), (construct_even, 8)])
def test_construct_rejects_negative_seed(build, n):
    # Raised even where the placement needs no perturbation and so no seed.
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        build(n, seed=-1)


class TestConstructOdd:
    def test_visit_order_is_bijection(self):
        for n in range(3, 100, 2):
            step = (n - 1) // 2
            assert len({(i * step) % n for i in range(n)}) == n

    @pytest.mark.parametrize("n,regions", [(3, 1), (5, 6), (7, 15)])
    def test_region_counts(self, n, regions):
        assert build_arrangement(construct_odd(n)).face_count == regions

    def test_pentagram_visits_vertices_two_apart(self):
        poly = regular_polygon_points(5, 1, 12)
        emb = construct_odd(5)
        assert emb.corners == tuple(poly[(2 * i) % 5] for i in range(5))

    def test_deterministic(self):
        assert construct_odd(9) == construct_odd(9)

    def test_rejects_even_or_small_n(self):
        with pytest.raises(InvalidN):
            construct_odd(6)
        with pytest.raises(InvalidN):
            construct_odd(1)


class TestConstructEven:
    @pytest.mark.parametrize("n,regions", [(4, 2), (6, 8), (8, 18)])
    def test_region_counts(self, n, regions):
        assert build_arrangement(construct_even(n)).face_count == regions

    def test_hourglass_shape_for_n4(self):
        # one crossing, two regions: the footnote case
        arr = build_arrangement(construct_even(4))
        assert (arr.vertex_count, arr.edge_count, arr.face_count) == (5, 6, 2)

    def test_raw_placement_leaves_one_polygon_vertex_unused(self):
        n = 8
        raw = _place(n)
        poly = set(regular_polygon_points(n + 1, 1, 12))
        used = set(raw.corners)
        assert used < poly
        assert len(poly - used) == 1

    def test_connection_pairs_form_single_cycle(self):
        for n in range(4, 17, 2):
            order = formulas.construction_order(n)
            assert sorted(order) == list(range(n))
            # Every {c, c + s} but the parallel pair {0, s}, {h, n - 1},
            # which the crossing pair {0, h}, {s, n - 1} replaces.
            h, s = n // 2, n // 2 - 1
            links = {frozenset((c, (c + s) % n)) for c in range(n)}
            swapped = {frozenset((0, s)), frozenset((h, n - 1))}
            crossing = {frozenset((0, h)), frozenset((s, n - 1))}
            edges = {frozenset((order[i], order[i - 1])) for i in range(n)}
            assert edges == (links - swapped) | crossing

    def test_deterministic(self):
        assert construct_even(10) == construct_even(10)

    def test_rejects_odd_or_small_n(self):
        with pytest.raises(InvalidN):
            construct_even(7)
        with pytest.raises(InvalidN):
            construct_even(2)


def test_construct_perturbs_a_degenerate_placement(monkeypatch):
    # Even n = 8 on the regular 8-gon, not the 9-gon, has triple points, so
    # construct must fall back on perturb. Its post-check counts crossing
    # pairs, not distinct points, so it would pass the degenerate drawing.
    octagon = regular_polygon_points(8)
    monkeypatch.setattr(embedding, "regular_polygon_points", lambda k: octagon)
    assert len(validate_general_position(_place(8)).triple_points) == 4
    calls = []

    def counting_perturb(*args):
        calls.append(args)
        return perturb(*args)

    monkeypatch.setattr(embedding, "perturb", counting_perturb)
    emb = construct(8)
    assert len(calls) == 1
    assert validate_general_position(emb).is_empty()
    assert build_arrangement(emb).face_count == formulas.f_max(8)


def test_construct_dispatches_on_parity():
    assert construct(5) == construct_odd(5)
    assert construct(6) == construct_even(6)
    with pytest.raises(InvalidN):
        construct(2)


class TestFileFormat:
    def test_round_trip_is_bit_exact(self):
        for n in (4, 5, 7):
            emb = construct(n)
            text = format_embedding(emb)
            assert parse_embedding(text) == emb
            assert format_embedding(parse_embedding(text)) == text

    def test_format_shape(self):
        emb = CycleEmbedding(
            3, (P(0, 0), Point(Fraction(-3, 7), Fraction(1, 2)), P(1, 0))
        )
        text = format_embedding(emb)
        assert text.splitlines() == [
            "n 3",
            "corner 0/1 0/1",
            "corner -3/7 1/2",
            "corner 1/1 0/1",
        ]

    def test_save_load(self, tmp_path):
        emb = construct(6)
        path = tmp_path / "hexagon.txt"
        save_embedding(emb, str(path))
        assert load_embedding(str(path)) == emb

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "m 3\ncorner 0/1 0/1\ncorner 1/1 0/1\ncorner 0/1 1/1\n",
            "n 3\ncorner 0/1 0/1\ncorner 1/1 0/1\n",
            "n three\ncorner 0/1 0/1\ncorner 1/1 0/1\ncorner 0/1 1/1\n",
            "n 3\ncorner 0 0\ncorner 1/1 0/1\ncorner 0/1 1/1\n",
            "n 3\ncorner 0/0 0/1\ncorner 1/1 0/1\ncorner 0/1 1/1\n",
            "n 3\ncorner 0/1\ncorner 1/1 0/1\ncorner 0/1 1/1\n",
        ],
    )
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(ValueError):
            parse_embedding(text)

    @pytest.mark.parametrize(
        "coord",
        ["1_0/1", "+1/1", "1/-1", "1/+1", "1/0", "1/00", "-/1", "1/", "/1", "1.0/1", "1/1/1", "\uff11/1", "--1/1"],
    )
    def test_coordinate_outside_the_grammar_rejected(self, coord):
        with pytest.raises(ValueError):
            parse_embedding(f"n 3\ncorner {coord} 0/1\ncorner 1/1 0/1\ncorner 0/1 1/1\n")

    @pytest.mark.parametrize("count", ["+3", "3_0", "-3", "\uff13", "3.0"])
    def test_count_outside_the_grammar_rejected(self, count):
        with pytest.raises(ValueError):
            parse_embedding(f"n {count}\ncorner 0/1 0/1\ncorner 1/1 0/1\ncorner 0/1 1/1\n")

    def test_coordinate_grammar_edges_accepted(self):
        emb = parse_embedding("n 3\ncorner -0/1 07/014\ncorner 1/1 0/1\ncorner 0/1 1/1\n")
        assert emb.corners[0] == Point(Fraction(0), Fraction(1, 2))

    def test_blank_lines_ignored(self):
        emb = construct(5)
        text = format_embedding(emb).replace("\n", "\n\n")
        assert parse_embedding(text) == emb
