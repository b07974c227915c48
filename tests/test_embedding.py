import math
import re
from fractions import Fraction

import pytest

from cycleregions import embedding, formulas
from cycleregions.arrangement import build_arrangement
from cycleregions.cli import main
from cycleregions.embedding import (
    PERTURB_RETRIES,
    POLYGON_DIGITS,
    CycleEmbedding,
    PerturbationFailed,
    _place,
    construct,
    construct_even,
    construct_odd,
    format_embedding,
    load_embedding,
    pair_table,
    parse_embedding,
    perturb,
    regular_polygon_points,
    save_embedding,
    validate_general_position,
)
from cycleregions.formulas import BadInput, ConstructionCheckFailed, InvalidN
from cycleregions.geometry import Point, corner_points

UNIT = 10**POLYGON_DIGITS


def P(x, y):
    return (x, y)


def hexagon_star():
    """Regular hexagon visited in star order: the three long diagonals
    run through the origin exactly, a genuine triple point."""
    poly = regular_polygon_points(6)
    return CycleEmbedding(6, tuple(poly[i] for i in (0, 3, 1, 4, 2, 5)), UNIT)


class TestRegularPolygonPoints:
    def test_square_is_exact(self):
        # cos/sin of multiples of pi/2 round to exact unit values
        assert regular_polygon_points(4) == [
            P(UNIT, 0),
            P(0, UNIT),
            P(-UNIT, 0),
            P(0, -UNIT),
        ]

    def test_points_lie_near_unit_circle(self):
        for x, y in regular_polygon_points(11):
            assert abs(x * x + y * y - UNIT * UNIT) < UNIT * UNIT // 10**11

    def test_pairwise_distinct(self):
        for k in (3, 7, 12, 30):
            pts = regular_polygon_points(k)
            assert len(set(pts)) == k

    def test_rejects_small_k(self):
        with pytest.raises(InvalidN, match="polygon vertex count must be at least 3, got 2"):
            regular_polygon_points(2)

    @pytest.mark.parametrize("k", [3.0, True])
    def test_rejects_a_k_that_is_not_an_int(self, k):
        # range(3.0) would raise TypeError, and True would count as 1.
        with pytest.raises(InvalidN, match=f"polygon vertex count must be an integer, got {k}"):
            regular_polygon_points(k)


class TestCycleEmbedding:
    def test_rejects_small_n(self):
        with pytest.raises(InvalidN, match="cycle length must be at least 3, got 2"):
            CycleEmbedding(2, (P(0, 0), P(1, 0)))

    def test_rejects_non_integer_n(self):
        # 4.0 == 4 corners, so only the type check stops it before the
        # pair table, which needs an int n.
        with pytest.raises(InvalidN, match="cycle length must be an integer, got 4.0"):
            CycleEmbedding(4.0, (P(0, 0), P(1, 0), P(1, 1), P(0, 1)))

    def test_rejects_wrong_corner_count(self):
        with pytest.raises(ValueError):
            CycleEmbedding(4, (P(0, 0), P(1, 0), P(0, 1)))

    @pytest.mark.parametrize(
        "bad", [0.5, "1", Fraction(1, 2), True], ids=["float", "str", "Fraction", "bool"]
    )
    def test_rejects_a_coordinate_that_is_not_an_int(self, bad):
        # math.gcd raises TypeError on the first three and takes True as 1.
        message = f"corner coordinate must be an integer, got {bad!r}"
        with pytest.raises(BadInput, match=re.escape(message)):
            CycleEmbedding(3, (P(0, 0), P(1, bad), P(0, 1)))


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
        for p, q in zip(corner_points(emb), corner_points(moved)):
            assert (p.x - q.x) ** 2 + (p.y - q.y) ** 2 <= eps * eps

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            perturb(hexagon_star(), 0)
        with pytest.raises(ValueError):
            perturb(hexagon_star(), Fraction(-1, 10))

    @pytest.mark.parametrize("eps", [-1, Fraction(0), 0.001, 1.0, True, "1/1000", None])
    def test_rejects_any_epsilon_but_a_positive_int_or_rational(self, monkeypatch, eps):
        # A float 0.001 would be its binary expansion
        # 1152921504606847/2**60, and True would be read as 1.
        monkeypatch.setattr(embedding, "pair_table", None)  # no attempt runs
        message = f"epsilon must be a positive int or rational, got {eps!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            perturb(hexagon_star(), eps)

    def test_takes_an_int_or_a_fraction(self):
        # Epsilon 1 on the drawing scaled by 1000 is epsilon 1/1000 on the
        # drawing itself: the same offsets, and so the same repaired drawing.
        def scaled(emb):
            return CycleEmbedding(emb.n, ((1000 * x, 1000 * y) for x, y in emb.corners), emb.den)

        star = CycleEmbedding(6, ((0, 0), (4, 4), (4, 0), (0, 4), (2, 0), (2, 4)))
        fixed = perturb(star, Fraction(1, 1000), seed=2)
        assert perturb(scaled(star), 1, seed=2) == scaled(fixed) != scaled(star)

    def test_exhausted_retries_raise(self, monkeypatch):
        attempts = []
        star_table = embedding.pair_table(hexagon_star())
        assert star_table.degenerate

        def never_general(emb):
            attempts.append(emb)
            return star_table

        monkeypatch.setattr(embedding, "pair_table", never_general)
        with pytest.raises(PerturbationFailed, match=f"within {PERTURB_RETRIES} attempts"):
            perturb(hexagon_star(), Fraction(1, 1000), seed=0)
        assert len(attempts) == PERTURB_RETRIES

    def test_rejects_negative_seed(self):
        # random.Random(-s) is random.Random(s): -1 would repeat seed 1.
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            perturb(hexagon_star(), Fraction(1, 1000), seed=-1)


class TestConstructOdd:
    def test_visit_order_is_bijection(self):
        for n in range(3, 100, 2):
            step = (n - 1) // 2
            assert len({(i * step) % n for i in range(n)}) == n

    @pytest.mark.parametrize("n,regions", [(3, 1), (5, 6), (7, 15)])
    def test_region_counts(self, n, regions):
        assert build_arrangement(construct_odd(n)).face_count == regions

    def test_pentagram_visits_vertices_two_apart(self):
        poly = regular_polygon_points(5)
        emb = construct_odd(5)
        assert emb.corners == tuple(poly[(2 * i) % 5] for i in range(5))

    def test_deterministic(self):
        assert construct_odd(9) == construct_odd(9)

    def test_rejects_even_or_small_n(self):
        with pytest.raises(InvalidN):
            construct_odd(6)
        with pytest.raises(InvalidN):
            construct_odd(1)
        with pytest.raises(InvalidN, match="n must be an integer, got '5'"):
            construct_odd("5")


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
        poly = set(regular_polygon_points(n + 1))
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
        with pytest.raises(InvalidN, match="n must be an integer, got None"):
            construct_even(None)


def test_construct_refuses_a_degenerate_placement(monkeypatch, tmp_path, capsys):
    # Even n = 8 on the regular 8-gon, not the 9-gon, has triple points.
    # Its crossing pairs and splitter classes are still those of f(8), so
    # only the post-check's `degenerate` refuses it; nothing repairs it.
    octagon = regular_polygon_points(8)
    monkeypatch.setattr(embedding, "regular_polygon_points", lambda k: octagon)
    assert len(validate_general_position(_place(8)).triple_points) == 4
    calls = []
    monkeypatch.setattr(embedding, "perturb", lambda *args: calls.append(args))
    message = (
        "n=8: (degenerate, crossings, splitters, one-offs) (True, 17, 2, 6) != (False, 17, 2, 6)"
    )
    with pytest.raises(ConstructionCheckFailed) as caught:
        construct(8)
    assert str(caught.value) == message
    path = tmp_path / "c8.txt"
    assert main(["construct", "--n", "8", "--out", str(path)]) == 5
    assert capsys.readouterr() == ("", f"construction check failed: {message}\n")
    assert not path.exists()
    assert calls == []


def test_every_placement_up_to_120_is_in_general_position():
    # construct keeps no fallback: each regular-polygon placement passes
    # its post-check as placed. It also does for n = 121..450 and at
    # n = 1000, too slow to check here.
    for n in range(3, 121):
        emb = construct(n)
        assert emb == _place(n)
        assert not pair_table(emb).degenerate, n  # the table construct read


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
        emb = CycleEmbedding(3, (P(0, 0), P(-6, 7), P(14, 0)), 14)
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
        assert corner_points(emb)[0] == Point(Fraction(0), Fraction(1, 2))

    def test_unreduced_denominators_parse_as_lowest_terms(self):
        # Each coordinate is scaled by its own 40-digit factor, so no two
        # denominators are equal and none is in lowest terms.
        lowest = "n 3\ncorner 1/2 0/1\ncorner -2/3 -1/2\ncorner 2/1 1/2\n"
        factors = iter(range(10**39 + 1, 10**39 + 7))

        def scale(match):
            k = next(factors)
            return f"{int(match[1]) * k}/{int(match[2]) * k}"

        unreduced = re.sub(r"(-?\d+)/(\d+)", scale, lowest)
        assert all(len(q) == 40 for q in re.findall(r"/(\d+)", unreduced))
        assert parse_embedding(unreduced) == parse_embedding(lowest)

    def test_common_denominator_is_taken_over_lowest_terms(self, monkeypatch):
        # Each coordinate is reduced as it is read, so the lcm of the file's
        # denominators is never taken over an unreduced one.
        taken = []
        lcm = math.lcm

        def spy(*dens):
            taken.append(dens)
            return lcm(*dens)

        monkeypatch.setattr(math, "lcm", spy)
        emb = parse_embedding("n 3\ncorner 2/4 0/6\ncorner -6/9 -3/6\ncorner 8/4 5/10\n")
        assert taken == [(2, 1, 3, 2, 1, 2)]
        assert emb == (3, ((3, 0), (-4, -3), (12, 3)), 6)

    def test_blank_lines_ignored(self):
        emb = construct(5)
        text = format_embedding(emb).replace("\n", "\n\n")
        assert parse_embedding(text) == emb
