"""Checks that do not trust the pair table every consumer of a drawing reads.

The general-position check, the subdivision, the face walk and splitter
analysis all read one integer classification of each drawing's segment
pairs, so a fault there would fool both region counters alike. These tests
reach the same numbers without that table: a geometry-free crossing count
for the constructions, a pair-by-pair rebuild from the Fraction
segment_intersection for random drawings and for every 4-cycle on a 3x3
grid, and a face walk that orders each vertex's neighbours by exact angle.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cycleregions.arrangement import build_arrangement, region_count_traversal
from cycleregions.embedding import (
    POLYGON_DIGITS,
    CycleEmbedding,
    DegeneracyReport,
    construct,
    pair_table,
    regular_polygon_points,
    validate_general_position,
)
from cycleregions.formulas import f_max
from cycleregions.geometry import (
    IntersectionKind,
    Point,
    Segment,
    corner_points,
    point_on_segment,
    segment_intersection,
    sort_points_along,
)
from cycleregions.search import _crossing_count


def segments(emb):
    """The drawing's segments as records; segment i, from corner i to
    corner i+1, is at index i."""
    corners = corner_points(emb)
    return [Segment(p, q) for p, q in zip(corners, corners[1:] + corners[:1])]


def _ccw_key(base, pts):
    # Exact angular order of pts[u] around base starting at the positive x
    # axis: compare half planes first, then the cross product within a half.
    def cmp(u, v):
        dux, duy = pts[u].x - base.x, pts[u].y - base.y
        dvx, dvy = pts[v].x - base.x, pts[v].y - base.y
        hu = 0 if (duy > 0 or (duy == 0 and dux > 0)) else 1
        hv = 0 if (dvy > 0 or (dvy == 0 and dvx > 0)) else 1
        if hu != hv:
            return -1 if hu < hv else 1
        c = dux * dvy - duy * dvx
        return -1 if c > 0 else 1 if c < 0 else 0

    return functools.cmp_to_key(cmp)


def reference_region_count(emb):
    """Bounded faces of a general-position drawing, subdivided pair by pair
    with segment_intersection and sort_points_along and walked with each
    vertex's neighbours sorted by exact angle."""
    segs = segments(emb)
    on = [[] for _ in segs]
    for i in range(emb.n):
        for j in range(i + 1, emb.n):
            hit = segment_intersection(segs[i], segs[j])
            if hit.kind is IntersectionKind.PROPER_CROSSING:
                on[i].append(hit.point)
                on[j].append(hit.point)
    index = {}
    adj = []
    for seg, points in zip(segs, on):
        chain = [seg.a] + sort_points_along(seg, points) + [seg.b]
        for p in chain:
            if p not in index:
                index[p] = len(adj)
                adj.append(set())
        for u, v in zip(chain, chain[1:]):
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
    pts = list(index)
    ccw = [sorted(neigh, key=_ccw_key(pts[v], pts)) for v, neigh in enumerate(adj)]
    seen = set()
    faces = 0
    for u, neigh in enumerate(ccw):
        for v in neigh:
            if (u, v) in seen:
                continue
            faces += 1
            cu, cv = u, v
            while (cu, cv) not in seen:
                seen.add((cu, cv))
                order = ccw[cv]
                cu, cv = cv, order[order.index(cu) - 1]
    return faces - 1


def reference_report(emb):
    """The DegeneracyReport rebuilt pair by pair from the Fraction
    predicates, in the pair table's order."""
    n = emb.n
    corners = corner_points(emb)
    coincident = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if corners[i] == corners[j]
    )
    if any((j - i) % n in (1, n - 1) for i, j in coincident):
        return DegeneracyReport(coincident_corners=coincident)
    segs = segments(emb)
    incidences = tuple(
        (k, i)
        for k, p in enumerate(corners)
        for i, s in enumerate(segs)
        if i not in (k, (k - 1) % n)
        and p not in (s.a, s.b)
        and point_on_segment(p, s)
    )
    overlaps = []
    at = {}
    for i in range(n):
        for j in range(i + 1, n):
            hit = segment_intersection(segs[i], segs[j])
            if hit.kind is IntersectionKind.COLLINEAR_OVERLAP:
                overlaps.append((i, j))
            elif hit.kind is IntersectionKind.PROPER_CROSSING:
                at.setdefault(hit.point, set()).update((i, j))
    triples = tuple(
        (exact(p), tuple(sorted(ids)))
        for p, ids in sorted(at.items(), key=lambda kv: (kv[0].x, kv[0].y))
        if len(ids) >= 3
    )
    return DegeneracyReport(triples, incidences, tuple(overlaps), coincident)


def exact(p):
    """The point as the integers (x, y, d) in lowest terms, d > 0, of
    (x / d, y / d), the form of a triple point in a DegeneracyReport."""
    d = math.lcm(p.x.denominator, p.y.denominator)
    return int(p.x * d), int(p.y * d), d


@pytest.mark.parametrize("n", range(3, 31))
def test_construction_matches_geometry_free_count(n):
    # The corners are vertices of a regular polygon (n-gon for odd n,
    # (n+1)-gon with one vertex unused for even n). Their ranks in the
    # polygon's circular order are positions on a circle, where two
    # connections cross exactly when their endpoints interleave.
    emb = construct(n)
    poly = regular_polygon_points(n if n % 2 else n + 1)
    scale = 10**POLYGON_DIGITS // emb.den
    vertex = [poly.index((x * scale, y * scale)) for x, y in emb.corners]
    rank = {v: r for r, v in enumerate(sorted(vertex))}
    order = [rank[v] for v in vertex]
    assert 1 + _crossing_count(order) == build_arrangement(emb).face_count == f_max(n)


@pytest.mark.parametrize("n", [*range(3, 31), 100, 101])
def test_face_walk_matches_angle_sorted_walk_on_constructions(n):
    emb = construct(n)
    assert region_count_traversal(emb) == reference_region_count(emb) == f_max(n)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 12).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
)
def test_face_walk_matches_angle_sorted_walk_on_random_drawings(xys):
    emb = CycleEmbedding(len(xys), xys)
    assume(validate_general_position(emb).is_empty())
    assert region_count_traversal(emb) == reference_region_count(emb)


@pytest.mark.parametrize("size,checked", [(3, 793), (4, 870), (6, 1058)])
def test_face_walk_matches_euler_on_small_grid_drawings(size, checked):
    # Euler's count reads no crossing sign, while the face walk turns by
    # them. On a 0..size grid many orientation values are exactly 1, which
    # the 0..1000 drawings above seldom give.
    grid = [(x, y) for x in range(size + 1) for y in range(size + 1)]
    rng = random.Random(size)
    drawings = 0
    mismatches = []
    for _ in range(1500):
        corners = tuple(rng.sample(grid, rng.randint(4, 8)))
        emb = CycleEmbedding(len(corners), corners)
        if not validate_general_position(emb).is_empty():
            continue
        drawings += 1
        if region_count_traversal(emb) != build_arrangement(emb).face_count:
            mismatches.append(corners)
    assert drawings == checked
    assert not mismatches, f"{len(mismatches)} drawings differ, first {mismatches[0]}"


grid_point = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def grid_embeddings(draw):
    n = draw(st.integers(3, 7))
    return CycleEmbedding(n, tuple(draw(st.lists(grid_point, min_size=n, max_size=n))))


# Mixed denominators exercise the rescale by their lcm; integer corners up
# to 10**6 exercise large products.
rational_point = st.one_of(
    st.builds(
        Point,
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    ),
    st.builds(Point, st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6)),
)


@st.composite
def rational_embeddings(draw):
    n = draw(st.integers(3, 7))
    pts = draw(st.lists(rational_point, min_size=n, max_size=n))
    den = math.lcm(*(c.denominator for p in pts for c in p))
    return CycleEmbedding(n, ((int(p.x * den), int(p.y * den)) for p in pts), den)


# Segments 0 and 4 lie on one line with a gap between them, a case the
# random drawings seldom hit.
GAPPED_COLLINEAR = CycleEmbedding(
    8,
    ((0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (3, 0), (3, 2), (0, 2)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(grid_embeddings(), rational_embeddings()))
@example(GAPPED_COLLINEAR)
@example(construct(5))
@example(construct(6))
@example(construct(7))
@example(construct(8))
@example(construct(9))
@example(construct(10))
@example(construct(11))
@example(construct(12))
def test_table_matches_pairwise_classification(emb):
    assert validate_general_position(emb) == reference_report(emb)
    table = pair_table(emb)
    n = emb.n
    if any(emb.corners[i] == emb.corners[(i + 1) % n] for i in range(n)):
        assert table.chains is None and table.signs is None and table.meets is None
        return
    segs = segments(emb)
    # along[i] holds (parameter along segment i, crossing pair, partner) for
    # each proper crossing of segment i. Crossings at one parameter, as at a
    # triple point, come in crossing-id order, which is the pairs' order.
    along = [[] for _ in range(n)]
    meets = [0] * n
    for i in range(n):
        s = segs[i]
        for j in range(n):
            if i == j:
                continue
            hit = segment_intersection(s, segs[j])
            if hit.kind is not IntersectionKind.DISJOINT:
                meets[i] += 1
            if hit.kind is IntersectionKind.PROPER_CROSSING:
                p = hit.point
                t = (p.x - s.a.x) * (s.b.x - s.a.x) + (p.y - s.a.y) * (s.b.y - s.a.y)
                along[i].append((t, (min(i, j), max(i, j)), j))
    ends = [[] for _ in range(len(table.signs))]
    for i, chain in enumerate(table.chains):
        for c in chain:
            ends[c].append(i)
    # ends[c] is the pair i, j of crossing c, so its partner on i is the sum less i.
    partners = [[sum(ends[c]) - i for c in chain] for i, chain in enumerate(table.chains)]
    assert partners == [[j for _, _, j in sorted(hits)] for hits in along]
    assert list(table.meets) == meets


def reference_pair_counts(emb):
    """How many other segments each segment meets, the overlapping pairs
    and the number of properly crossing pairs, rebuilt pair by pair from
    segment_intersection."""
    segs = segments(emb)
    meets = [0] * emb.n
    overlaps = []
    crossings = 0
    for i, j in itertools.combinations(range(emb.n), 2):
        kind = segment_intersection(segs[i], segs[j]).kind
        if kind is not IntersectionKind.DISJOINT:
            meets[i] += 1
            meets[j] += 1
        if kind is IntersectionKind.COLLINEAR_OVERLAP:
            overlaps.append((i, j))
        crossings += kind is IntersectionKind.PROPER_CROSSING
    return meets, tuple(overlaps), crossings


def test_table_matches_pairwise_classification_on_every_grid_4_cycle():
    # Every 4-cycle with corners in {0,1,2}^2 and no collapsed segment, its
    # whole report included: incidences, overlaps and their order. So
    # small a grid is dense in touches, T-junctions and collinear pairs that
    # overlap or abut, which random drawings seldom hit. Two disjoint
    # collinear segments do not fit on a line of three grid points; that
    # gap case is the GAPPED_COLLINEAR example.
    grid = [(x, y) for x in range(3) for y in range(3)]
    drawings = 0
    mismatches = []
    for corners in itertools.product(grid, repeat=4):
        if any(corners[k] == corners[k - 1] for k in range(4)):
            continue
        drawings += 1
        emb = CycleEmbedding(4, corners)
        table = pair_table(emb)
        got = (list(table.meets), table.overlaps, len(table.signs))
        report = validate_general_position(emb)
        if got != reference_pair_counts(emb) or report != reference_report(emb):
            mismatches.append(corners)
    assert drawings == 4104
    assert not mismatches, f"{len(mismatches)} drawings differ, first {mismatches[0]}"
