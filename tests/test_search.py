import hashlib
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleregions import embedding, pairs, probes, search
from cycleregions.arrangement import (
    build_arrangement,
    region_count_euler,
    region_count_traversal,
)
from cycleregions.embedding import (
    POLYGON_DIGITS,
    CycleEmbedding,
    construction_order,
    format_embedding,
    perturb,
    regular_polygon_points,
    validate_general_position,
)
from cycleregions.formulas import BadInput, InvalidN, f_max, max_crossings
from cycleregions.search import (
    ORACLE_MAX_N,
    CyclicPermutation,
    NTooLarge,
    _bound,
    _chord_cap,
    _chord_table,
    _crossing_count,
    crossing_count_convex,
    oracle_max_regions_convex,
    random_search,
)
from cycleregions.probes import _random_corners, best_region_count, splitter_bound_check


def _canonical_orders(n):
    """Every cycle order starting at 0 that is not the reversal of an
    earlier one, in lexicographic order."""
    for rest in permutations(range(1, n)):
        if rest[0] < rest[-1]:
            yield (0,) + rest


def _reference_oracle(n):
    """Brute force over all (n-1)!/2 orders: (max regions, the first
    witness, orders evaluated)."""
    best = -1
    witness = ()
    evaluated = 0
    for order in _canonical_orders(n):
        evaluated += 1
        c = _crossing_count(order)
        if c > best:
            best = c
            witness = order
    return best + 1, witness, evaluated


def realize_on_circle(order):
    """Place label k at vertex k of a regular polygon and visit in the
    given cycle order; nudge into general position if needed."""
    n = len(order)
    poly = regular_polygon_points(n)
    emb = CycleEmbedding(n, tuple(poly[lbl] for lbl in order), 10**POLYGON_DIGITS)
    if not validate_general_position(emb).is_empty():
        emb = perturb(emb, Fraction(1, 10**4), seed=0)
    return emb


class TestCyclicPermutation:
    def test_canonical_rotates_to_zero(self):
        assert CyclicPermutation.canonical((2, 0, 1)).order == (0, 1, 2)

    def test_canonical_prefers_smaller_reflection(self):
        # (0,3,1,2) reversed reads (0,2,1,3), which is smaller
        assert CyclicPermutation.canonical((0, 3, 1, 2)).order == (0, 2, 1, 3)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            CyclicPermutation.canonical((0, 1, 1))
        with pytest.raises(ValueError, match="not a permutation"):
            CyclicPermutation((0, 1, 1))

    def test_rejects_non_canonical_direct_construction(self):
        with pytest.raises(ValueError):
            CyclicPermutation((1, 0, 2))
        with pytest.raises(ValueError):
            CyclicPermutation((0, 3, 1, 2))

    def test_rejects_short_orders(self):
        with pytest.raises(ValueError):
            CyclicPermutation.canonical((0, 1))

    @given(st.permutations(list(range(6))), st.integers(0, 5), st.booleans())
    def test_canonical_is_dihedral_invariant(self, seq, shift, flip):
        n = len(seq)
        moved = [seq[(i + shift) % n] for i in range(n)]
        if flip:
            moved.reverse()
        assert (
            CyclicPermutation.canonical(moved).order
            == CyclicPermutation.canonical(seq).order
        )


class TestCrossingCount:
    def test_convex_order_has_no_crossings(self):
        assert crossing_count_convex(CyclicPermutation.canonical(range(6))) == 0

    def test_hourglass_has_one(self):
        assert crossing_count_convex(CyclicPermutation((0, 2, 1, 3))) == 1

    def test_pentagram_has_five(self):
        assert crossing_count_convex(CyclicPermutation((0, 2, 4, 1, 3))) == 5

    @given(st.permutations(list(range(7))), st.integers(0, 6), st.booleans())
    @settings(max_examples=80)
    def test_invariant_under_rotation_and_reflection(self, seq, shift, flip):
        n = len(seq)
        moved = [seq[(i + shift) % n] for i in range(n)]
        if flip:
            moved.reverse()
        assert _crossing_count(moved) == _crossing_count(seq)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=50, deadline=None)
    def test_matches_geometric_region_count(self, seq):
        # combinatorial crossings + 1 = regions of any convex realization
        emb = realize_on_circle(seq)
        assert region_count_euler(build_arrangement(emb)) == _crossing_count(seq) + 1


class TestChordTable:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_bits_are_the_interleaving_pairs(self, n):
        ids, cross, _ = _chord_table(n)
        chords = {ids[a][b]: (a, b) for a in range(n) for b in range(a + 1, n)}
        assert sorted(chords) == list(range(n * (n - 1) // 2))
        for k, (a, b) in chords.items():
            for j, (c, d) in chords.items():
                interleave = a < c < b < d or c < a < d < b
                assert bool(cross[k] >> j & 1) == interleave, (a, b, c, d)

    def test_masked_rows_sum_to_the_crossing_count(self):
        rng = random.Random(4021)
        for n in range(3, 41):
            ids, cross, _ = _chord_table(n)
            for _ in range(5):
                order = (0, *rng.sample(range(1, n), n - 1))
                placed = total = 0
                for a, b in zip(order, (*order[1:], order[0])):
                    total += (cross[ids[a][b]] & placed).bit_count()
                    placed |= 1 << ids[a][b]
                assert total == _crossing_count(order)


class TestOracle:
    @pytest.mark.parametrize(
        "n,regions,classes",
        [(3, 1, 1), (4, 2, 3), (5, 6, 12), (6, 8, 60), (7, 15, 360)],
    )
    def test_small_cases(self, n, regions, classes):
        result = oracle_max_regions_convex(n)
        assert result.max_regions == regions
        assert result.evaluated_count == classes
        assert result.max_regions == f_max(n)

    def test_class_count_formula(self):
        for n in range(3, 9):
            result = oracle_max_regions_convex(n)
            assert result.evaluated_count == math.factorial(n - 1) // 2

    def test_pentagram_is_the_five_witness(self):
        assert oracle_max_regions_convex(5).witness.order == (0, 2, 4, 1, 3)

    def test_witness_achieves_the_maximum(self):
        for n in range(3, 9):
            result = oracle_max_regions_convex(n)
            assert crossing_count_convex(result.witness) + 1 == result.max_regions

    def test_witness_realizes_geometrically(self):
        for n in range(3, 9):
            result = oracle_max_regions_convex(n)
            emb = realize_on_circle(result.witness.order)
            assert region_count_euler(build_arrangement(emb)) == result.max_regions

    def test_sampled_orders_realize_geometrically(self):
        rng = random.Random(1849)
        for n in (4, 5, 6):
            for _ in range(100):
                order = tuple([0] + rng.sample(range(1, n), n - 1))
                emb = realize_on_circle(order)
                assert (
                    region_count_euler(build_arrangement(emb))
                    == _crossing_count(order) + 1
                )

    def test_bounds(self):
        with pytest.raises(NTooLarge):
            oracle_max_regions_convex(20)
        with pytest.raises(InvalidN):
            oracle_max_regions_convex(2)

    def test_n_is_checked_before_the_size_limit(self, monkeypatch):
        with pytest.raises(InvalidN, match="n must be an integer, got 20.0"):
            oracle_max_regions_convex(20.0)
        # A huge n is refused before its cycle order is built.
        monkeypatch.setattr(search, "construction_order", None)
        with pytest.raises(NTooLarge, match="n=1000000000 exceeds"):
            oracle_max_regions_convex(10**9)

    def test_n_is_checked_by_construction_order(self):
        # construct does not check n itself.
        with pytest.raises(InvalidN, match="n must be an integer, got 4.0"):
            embedding.construct(4.0)
        with pytest.raises(InvalidN, match="n must be at least 3, got 2"):
            embedding.construct(2)

    @pytest.mark.parametrize(
        "n,visited,pruned", [(9, 9, 26), (10, 276, 673), (11, 11, 43), (12, 1336, 4075)]
    )
    def test_work_counters(self, n, visited, pruned):
        # A looser bound still finds every maximum and covers every order;
        # only the prefixes it enters and skips show it.
        result = oracle_max_regions_convex(n)
        assert (result.nodes_visited, result.nodes_pruned) == (visited, pruned)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_matches_brute_force(self, n):
        result = oracle_max_regions_convex(n)
        assert (
            result.max_regions,
            result.witness.order,
            result.evaluated_count,
        ) == _reference_oracle(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_bound_is_admissible(self, n):
        # Best completion of every proper prefix of length >= 2 that has a
        # canonical completion: a superset of the prefixes the search bounds.
        best = {}
        for order in _canonical_orders(n):
            c = _crossing_count(order)
            for length in range(2, n):
                prefix = order[:length]
                best[prefix] = max(best.get(prefix, -1), c)
        for prefix, completion in best.items():
            chords = [tuple(sorted(pair)) for pair in zip(prefix, prefix[1:])]
            crossings = sum(
                (lo < lo2 < hi) != (lo < hi2 < hi)
                for i, (lo, hi) in enumerate(chords)
                for lo2, hi2 in chords[i + 2 :]
            )
            cap_sum = sum(_chord_cap(n, lo, hi) for lo, hi in chords)
            u = n - len(chords)
            assert _bound(n, crossings, cap_sum, u) >= completion, prefix

    def test_path_bound_prunes_where_the_pairwise_one_cannot(self):
        # Prefix (0, 1) at n = 8: chord {0, 1} has cap 0 and no crossings,
        # and 7 chords remain. Counting u(u-1)/2 crossings among those
        # allows 21, above the maximum of 17; as a path they allow 15,
        # which the incumbent of 16 already prunes.
        n, crossings, cap_sum, u = 8, 0, _chord_cap(8, 0, 1), 7
        completion = max(_crossing_count(o) for o in _canonical_orders(n) if o[1] == 1)
        pairwise = crossings + min(
            u * (n - 3), cap_sum - 2 * crossings + u * (u - 1) // 2
        )
        path = _bound(n, crossings, cap_sum, u)
        assert completion <= path < max_crossings(n) < pairwise

    @pytest.mark.parametrize("n", range(3, ORACLE_MAX_N + 1))
    def test_covers_every_order_up_to_the_limit(self, n):
        result = oracle_max_regions_convex(n)
        assert result.max_regions == f_max(n)
        assert result.evaluated_count == math.factorial(n - 1) // 2
        assert result.nodes_visited + result.nodes_pruned > 0

    def test_construction_order_reaches_the_maximum(self):
        for n in range(3, 201):
            order = construction_order(n)
            assert sorted(order) == list(range(n))
            assert _crossing_count(order) == max_crossings(n)


class TestRandomSearch:
    def test_triangle_always_one_region(self):
        best, emb = random_search(3, 25, seed=0)
        assert best == 1
        assert emb.n == 3

    def test_never_exceeds_ceiling(self):
        for n in (4, 5, 6):
            best, _ = random_search(n, 60, seed=n)
            assert best <= f_max(n)

    def test_deterministic(self):
        assert random_search(5, 40, seed=7) == random_search(5, 40, seed=7)

    def test_returned_embedding_has_returned_count(self):
        best, emb = random_search(6, 40, seed=2)
        assert region_count_euler(build_arrangement(emb)) == best

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidN, match="n must be at least 3, got 2"):
            random_search(2, 10)
        with pytest.raises(InvalidN, match="n must be an integer, got 4.0"):
            random_search(4.0, 2)
        with pytest.raises(ValueError):
            random_search(5, 0)

    def test_rejects_negative_seed(self):
        # random.Random(-s) is random.Random(s): -1 would repeat seed 1.
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            random_search(8, 20, seed=-1)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_repairs_degenerate_draws_on_a_small_grid(self, n, monkeypatch):
        # On a 3x3 grid most draws have collinear corners, so most trials
        # also run the perturb repair.
        monkeypatch.setattr(probes, "COORD_RANGE", 2)
        calls = []
        true_perturb = embedding.perturb

        def counted_perturb(*args):
            calls.append(args)
            return true_perturb(*args)

        monkeypatch.setattr(embedding, "perturb", counted_perturb)
        best, emb = random_search(n, 40, seed=1)
        assert calls
        assert (best, emb) == random_search(n, 40, seed=1)
        assert validate_general_position(emb).is_empty()
        assert best == build_arrangement(emb).face_count <= f_max(n)


def _probe_digest(monkeypatch, ns, result) -> str:
    """sha256 over result(n, seed) for each n of ns, seeds 0 and 1, and
    corners drawn on 0..10**6, 0..2 and 0..3. On the 3x3 and 4x4 grids
    most draws are degenerate, so the repair and skip paths are pinned
    along with the general-position count."""
    h = hashlib.sha256()
    for coord_range in (10**6, 2, 3):
        monkeypatch.setattr(probes, "COORD_RANGE", coord_range)
        for n in ns:
            for seed in (0, 1):
                h.update(f"{result(n, seed)}\n".encode())
    return h.hexdigest()


def test_random_search_results_are_pinned(monkeypatch):
    def result(n, seed):
        best, emb = random_search(n, 30, seed)
        return f"{best}\n{format_embedding(emb)}"

    digest = _probe_digest(monkeypatch, (3, 4, 5, 6, 8), result)
    assert digest == "722c36825cb98bf319e1be476daa11476cb3d08d06b22e33059e74ff51988e9a"


def test_splitter_bound_check_results_are_pinned(monkeypatch):
    digest = _probe_digest(monkeypatch, (4, 6, 8), lambda n, seed: splitter_bound_check(n, 40, seed))
    assert digest == "6539b6b6dc6a7f47644d0e39563a1e04069e95d2f4837b998e2d6414abf8bc82"


@pytest.mark.parametrize("coord_range", [10**6, 2, 3])
@pytest.mark.parametrize("n", [4, 5, 8])
def test_probe_count_is_what_both_counters_read(monkeypatch, coord_range, n):
    # The search counts crossings + 1 and never walks a face.
    monkeypatch.setattr(probes, "COORD_RANGE", coord_range)
    best, emb = random_search(n, 30, seed=n)
    assert best == region_count_euler(build_arrangement(emb)) == region_count_traversal(emb)


def test_a_draw_whose_only_fault_is_a_triple_point_is_repaired(monkeypatch):
    # Segments 0, 2 and 4 of this star meet at (2, 2); no corner lies on
    # another segment and no segments overlap.
    star = [(0, 0), (4, 4), (4, 0), (0, 4), (2, 0), (2, 4)]
    monkeypatch.setattr(probes, "_random_corners", lambda rng, n: star)
    monkeypatch.setattr(probes, "_random_cycle_order", lambda rng, n: tuple(range(n)))
    best, corners, den = best_region_count(6, 1)
    assert den > 1
    repaired = CycleEmbedding(6, corners, den)
    assert validate_general_position(repaired).is_empty()
    # Both draws of the one trial are the star, and each is repaired once:
    # random_search takes the drawing best_region_count counted.
    repairs = []
    true_perturb = embedding.perturb

    def counted_perturb(*args):
        repairs.append(args)
        return true_perturb(*args)

    monkeypatch.setattr(embedding, "perturb", counted_perturb)
    count, emb = random_search(6, 1)
    assert len(repairs) == 2
    assert emb == repaired
    assert count == best == region_count_traversal(emb)


def test_random_corners_skip_repeated_points(monkeypatch):
    # Nine distinct corners on a 3x3 grid take every point once, which
    # needs the draws that repeat a point to be skipped.
    monkeypatch.setattr(probes, "COORD_RANGE", 2)
    corners = _random_corners(random.Random(0), 9)
    assert sorted(corners) == [(x, y) for x in range(3) for y in range(3)]


class TestSplitterBound:
    @pytest.mark.parametrize("n", [4, 6])
    def test_never_more_than_two_for_even_n(self, n):
        assert splitter_bound_check(n, 60, seed=3) == 2

    def test_deterministic(self):
        assert splitter_bound_check(6, 30, seed=1) == splitter_bound_check(
            6, 30, seed=1
        )

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_skips_degenerate_draws_on_a_small_grid(self, n, monkeypatch):
        monkeypatch.setattr(probes, "COORD_RANGE", 2)
        skipped = []
        true_classify = pairs.classify_pairs

        def counted_classify(corners):
            classes = true_classify(corners)
            if classes.overlaps:
                skipped.append(corners)
            return classes

        monkeypatch.setattr(pairs, "classify_pairs", counted_classify)
        assert splitter_bound_check(n, 60, seed=2) == 2
        assert skipped

    def test_rejects_odd_n(self):
        with pytest.raises(InvalidN):
            splitter_bound_check(5, 10)
        with pytest.raises(InvalidN, match="n must be an integer, got '6'"):
            splitter_bound_check("6", 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            splitter_bound_check(6, 10, seed=-1)

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="trials must be non-negative, got -1"):
            splitter_bound_check(6, -1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: random_search(5, 2.5), "trials must be an integer, got 2.5"),
        (lambda: random_search(5, True), "trials must be an integer, got True"),
        (lambda: random_search(5, 2, seed=True), "seed must be an integer, got True"),
        (lambda: splitter_bound_check(6, 1.5), "trials must be an integer, got 1.5"),
        (lambda: splitter_bound_check(6, 2, seed=1.0), "seed must be an integer, got 1.0"),
        (
            lambda: perturb(embedding.construct(4), 1, seed=True),
            "seed must be an integer, got True",
        ),
    ],
)
def test_seed_and_trials_must_be_integers(call, message):
    # random.Random takes a float or bool seed and range() refuses a float
    # count, so each is rejected up front with one message.
    with pytest.raises(ValueError, match=message) as caught:
        call()
    assert type(caught.value) is BadInput
