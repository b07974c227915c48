"""Checks that do not trust the pair table every consumer of a drawing reads.

The general-position check, the subdivision and splitter analysis all read
one classification of each drawing's segment pairs, so a fault there would
fool both region counters alike. These tests reach the same numbers without
that table: a geometry-free crossing count for the constructions, and a
pair-by-pair rebuild from segment_intersection for random drawings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleregions.arrangement import build_arrangement
from cycleregions.embedding import (
    CycleEmbedding,
    construct,
    pair_table,
    regular_polygon_points,
)
from cycleregions.formulas import f_max
from cycleregions.geometry import IntersectionKind, Point, segment_intersection
from cycleregions.search import _crossing_count


@pytest.mark.parametrize("n", range(3, 31))
def test_construction_matches_geometry_free_count(n):
    # The corners are vertices of a regular polygon (n-gon for odd n,
    # (n+1)-gon with one vertex unused for even n). Their ranks in the
    # polygon's circular order are positions on a circle, where two
    # connections cross exactly when their endpoints interleave.
    emb = construct(n)
    poly = regular_polygon_points(n if n % 2 else n + 1)
    vertex = [poly.index(p) for p in emb.corners]
    rank = {v: r for r, v in enumerate(sorted(vertex))}
    order = [rank[v] for v in vertex]
    assert 1 + _crossing_count(order) == build_arrangement(emb).face_count == f_max(n)


grid_point = st.builds(Point, st.integers(0, 4), st.integers(0, 4))


@st.composite
def grid_embeddings(draw):
    n = draw(st.integers(3, 7))
    return CycleEmbedding(n, tuple(draw(st.lists(grid_point, min_size=n, max_size=n))))


def by_position(points):
    return sorted(points, key=lambda p: (p.x, p.y))


@settings(max_examples=300, deadline=None)
@given(grid_embeddings())
def test_table_matches_pairwise_classification(emb):
    table = pair_table(emb)
    n = emb.n
    if any(emb.corners[i] == emb.corners[(i + 1) % n] for i in range(n)):
        assert table.crossings is None and table.meets is None
        return
    segs = emb.segments()
    crossings = [[] for _ in range(n)]
    meets = [0] * n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            hit = segment_intersection(segs[i], segs[j])
            if hit.kind is not IntersectionKind.DISJOINT:
                meets[i] += 1
            if hit.kind is IntersectionKind.PROPER_CROSSING:
                crossings[i].append(hit.point)
    assert list(map(by_position, table.crossings)) == list(map(by_position, crossings))
    assert list(table.meets) == meets
