"""The package's records are typing.NamedTuples: they keep the checks and
normalisation they always had, and behave as tuples of their fields."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from cycleregions.arrangement import VertexKind, build_arrangement
from cycleregions.embedding import CycleEmbedding, DegeneracyReport, construct, pair_table
from cycleregions.formulas import InvalidN
from cycleregions.geometry import (
    IntersectionKind,
    Point,
    Segment,
    segment_intersection,
)
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
    corners = [Point(0, 0), Point(1, 0), Point(0, 1)]
    with pytest.raises(InvalidN):
        CycleEmbedding(2, corners[:2])
    with pytest.raises(ValueError, match="expected 4 corners, got 3"):
        CycleEmbedding(4, corners)
    emb = CycleEmbedding(3, corners)
    assert emb.corners == tuple(corners)  # any iterable becomes a tuple
    n, got = emb
    assert (n, got) == (3, tuple(corners))


def test_defaults_are_kept():
    report = DegeneracyReport()
    assert report.is_empty() and report == ((), (), (), ())
    assert RenderOptions() == (
        640, 640, True, False, False, "#1f3a5f", "#c0392b", "#f2d9a0"
    )


@pytest.mark.parametrize("n", range(5, 13))
def test_arrangement_vertices_are_the_pairwise_crossings(n):
    emb = construct(n)
    arr = build_arrangement(emb)
    vertices = arr.vertices
    assert len(vertices) == arr.vertex_count
    assert vertices[:n] == tuple((p, VertexKind.CORNER) for p in emb.corners)
    crossings = {p for p, kind in vertices if kind is VertexKind.CROSSING}
    pairwise = set()
    segments = [Segment(p, q) for p, q in zip(emb.corners, emb.corners[1:] + emb.corners[:1])]
    for s1, s2 in itertools.combinations(segments, 2):
        hit = segment_intersection(s1, s2)
        if hit.kind is IntersectionKind.PROPER_CROSSING:
            pairwise.add(hit.point)
    assert crossings == pairwise
    assert len(crossings) == arr.vertex_count - n  # no two crossings coincide


# sha256 of the crossings as text: `vertices` one "kind x y" line each, and
# the pair table's `crossings` one line per segment. They pin the exact
# values, the (x, y) order of `vertices` and each chain's order along its
# segment.
VERTICES = {
    40: "a4d12e26afb28a50ecfe348e0663df7fd16e439489c0895c260351c213ebcb09",
    41: "00de804936d56f487ce62e88a567207692334439f755e107a21ecdaa6679975c",
}
CROSSINGS = {
    40: "20c91e49b33e527b3123335aebd0a28fbb71f3c70595e4eb069352f498ad2932",
    41: "ab06b5f7416e5167c07d6b9bf051af42ccf49a009d168ffabc8d89469ee4969e",
}


def _rational(v):
    return f"{v.numerator}/{v.denominator}"


@pytest.mark.parametrize("n", sorted(VERTICES))
def test_vertices_and_crossings_digests(n):
    emb = construct(n)
    vertices = "".join(
        f"{kind.value} {_rational(p.x)} {_rational(p.y)}\n"
        for p, kind in build_arrangement(emb).vertices
    )
    crossings = "".join(
        " ".join(f"{_rational(p.x)},{_rational(p.y)}" for p in chain) + "\n"
        for chain in pair_table(emb).crossings
    )
    assert hashlib.sha256(vertices.encode("ascii")).hexdigest() == VERTICES[n]
    assert hashlib.sha256(crossings.encode("ascii")).hexdigest() == CROSSINGS[n]
