"""The package's records are typing.NamedTuples: they keep the checks and
normalisation they always had, and behave as tuples of their fields."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from cycleregions.arrangement import Arrangement, build_arrangement
from cycleregions.degeneracy import DegeneracyReport
from cycleregions.embedding import (
    CycleEmbedding,
    construct,
    pair_table,
)
from cycleregions.formulas import BadInput, InvalidN
from cycleregions.geometry import (
    IntersectionKind,
    Point,
    Segment,
    corner_points,
    segment_intersection,
)
from cycleregions.pairs import PairClasses
from cycleregions.render import RenderOptions


def test_point_normalises_coordinates_to_fraction():
    p = Point(1, 2)
    assert type(p.x) is Fraction and type(p.y) is Fraction
    assert p == (1, 2) and hash(p) == hash((Fraction(1), Fraction(2)))
    assert sorted([Point(1, 0), Point(0, 5), Point(0, 1)]) == [(0, 1), (0, 5), (1, 0)]


def test_segment_rejects_coincident_endpoints():
    p = Point(3, 4)
    with pytest.raises(ValueError, match="coincide"):
        Segment(p, p)
    assert Segment(p, Point(0, 0)) == (p, (0, 0))


def test_cycle_embedding_rejects_bad_input():
    corners = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(InvalidN):
        CycleEmbedding(2, corners[:2])
    with pytest.raises(ValueError, match="expected 4 corners, got 3"):
        CycleEmbedding(4, corners)
    emb = CycleEmbedding(3, corners)
    assert emb.corners == tuple(corners)  # any iterable becomes a tuple
    n, got, den = emb
    assert (n, got, den) == (3, tuple(corners), 1)


def test_cycle_embedding_is_canonical():
    # A factor shared by the denominator and every coordinate is divided
    # out, so one drawing has one record whatever its spelling.
    emb = CycleEmbedding(3, [(2, 4), (6, 0), (0, -2)], 4)
    assert emb == (3, ((1, 2), (3, 0), (0, -1)), 2)
    assert CycleEmbedding(3, [(0, 0), (0, 0), (0, 0)], 7).den == 1
    for den in (0, -2, 2.0, True):
        with pytest.raises(ValueError, match="denominator must be"):
            CycleEmbedding(3, [(0, 0), (1, 0), (0, 1)], den)
    with pytest.raises(BadInput, match=r"coordinate must be an integer, got Fraction\(1, 2\)"):
        CycleEmbedding(3, [(Fraction(1, 2), 0), (1, 0), (0, 1)])


def test_defaults_are_kept():
    report = DegeneracyReport()
    assert report.is_empty() and report == ((), (), (), ())
    assert RenderOptions() == (
        640, 640, True, False, False, "#1f3a5f", "#c0392b", "#f2d9a0"
    )


def test_arrangement_and_pair_table_are_their_counts_and_crossings():
    assert Arrangement._fields == ("vertex_count", "edge_count", "face_count")
    assert PairClasses._fields == (
        "coincident", "incidences", "overlaps", "ties", "meets", "chains", "signs"
    )
    assert isinstance(pair_table(construct(5)), PairClasses)


@pytest.mark.parametrize("n", range(5, 13))
def test_arrangement_vertices_are_the_pairwise_crossings(n):
    emb = construct(n)
    arr = build_arrangement(emb)
    table = pair_table(emb)
    corners = corner_points(emb)
    segments = [Segment(p, q) for p, q in zip(corners, corners[1:] + corners[:1])]
    pairs, points = [], set()
    for (i, s1), (j, s2) in itertools.combinations(enumerate(segments), 2):
        hit = segment_intersection(s1, s2)
        if hit.kind is IntersectionKind.PROPER_CROSSING:
            pairs.append((i, j))
            points.add(hit.point)
    assert len(points) == len(pairs)  # no two crossings coincide
    assert arr.vertex_count == n + len(points)
    # Crossing c of the table is the c-th crossing pair in lexicographic
    # order, and lies on the chains of exactly its two segments.
    ends = [[] for _ in table.signs]
    for i, chain in enumerate(table.chains):
        for c in chain:
            ends[c].append(i)
    assert [tuple(e) for e in ends] == pairs


# sha256 of the pair table's crossings as text: each segment's chain, one
# line of crossing ids per segment, then one line of the signs. They pin
# the crossings, each chain's order along its segment and the signs the
# face walk turns by.
TABLES = {
    40: "51d4c85a257f95bc1cc10114c6daf77fc5700ca21f30f58e7d37b2eeeaa825b3",
    41: "75f56a8aaa48a4882bcd789ed45042082d555f4835629081a3b5fe11a0e65a8a",
}


@pytest.mark.parametrize("n", sorted(TABLES))
def test_pair_table_digests(n):
    table = pair_table(construct(n))
    text = "".join(" ".join(map(str, chain)) + "\n" for chain in table.chains)
    text += " ".join(map(str, table.signs)) + "\n"
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == TABLES[n]
