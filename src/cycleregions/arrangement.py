"""Planar arrangement of a cycle embedding: vertices, edges, and two
region counters.

Both counters read the drawing's pair table: each segment's chain of
crossings, ordered along it, is the subdivision, which is connected since
each chain joins two corners and neighbouring segments share one. The
Euler counter reads E - V + 1, which build_arrangement evaluates from the
chain lengths. The traversal counter never touches that identity: it
numbers the two directed copies (darts) of every edge, orders the darts
leaving each crossing from the sign of the crossing segments' cross
product, and counts the orbits of the face-walk permutation on the darts,
so the two agreeing checks the counting, not the shared pair
classification.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .embedding import CycleEmbedding, DegeneracyReport, PairTable, Point, pair_table


class DegenerateInput(ValueError):
    """Embedding is not in general position; carries the full report."""

    def __init__(self, report: DegeneracyReport):
        super().__init__(f"embedding is degenerate: {report.summary()}")
        self.report = report


class VertexKind(enum.Enum):
    CORNER = "corner"
    CROSSING = "crossing"


class Arrangement(NamedTuple):
    """Subdivision of an embedding into arrangement vertices and edges.

    per_segment[i] is (vertices on segment i, edges on segment i),
    endpoints included. The crossings stay integers in `table` until
    `vertices` is read.
    """

    vertex_count: int
    edge_count: int
    face_count: int
    per_segment: tuple[tuple[int, int], ...]
    corners: tuple[Point, ...]
    table: PairTable

    @property
    def vertices(self) -> tuple[tuple[Point, VertexKind], ...]:
        """The corners in cycle order, then the proper crossings in (x, y)
        order, each with its kind. The crossing points are built from the
        table's integers on each read."""
        points = self.table.points
        # Two distinct rationals whose denominators are at most dmax, the
        # largest of the points', differ by at least 1/dmax^2, so scaling by
        # dmax^2 and flooring keeps their order and their ties: an exact
        # integer key, far cheaper to compare than the Fractions.
        k = max((max(p.x.denominator, p.y.denominator) for p in points), default=1) ** 2
        keys = [
            (p.x.numerator * k // p.x.denominator, p.y.numerator * k // p.y.denominator)
            for p in points
        ]
        return tuple((p, VertexKind.CORNER) for p in self.corners) + tuple(
            (points[c], VertexKind.CROSSING)
            for c in sorted(range(len(points)), key=keys.__getitem__)
        )


class SegmentClass(enum.Enum):
    SPLITTER = "splitter"
    ONE_OFF_SPLITTER = "one_off_splitter"
    OTHER = "other"


class SplitterReport(NamedTuple):
    """Per-segment intersection counts and their classification.

    A segment of an n-cycle is a splitter when it meets all n-1 others
    (shared corners count), one-off when it meets exactly n-2.
    """

    per_segment: tuple[tuple[int, SegmentClass], ...]

    @property
    def splitter_count(self) -> int:
        return sum(1 for _, c in self.per_segment if c is SegmentClass.SPLITTER)

    @property
    def one_off_count(self) -> int:
        return sum(
            1 for _, c in self.per_segment if c is SegmentClass.ONE_OFF_SPLITTER
        )


def _general_position_table(emb: CycleEmbedding) -> PairTable:
    """The pair table of a general-position embedding.

    Raises DegenerateInput otherwise; general position guarantees every
    proper crossing involves exactly two segments and lies strictly inside
    both.
    """
    table = pair_table(emb)
    if not table.report.is_empty():
        raise DegenerateInput(table.report)
    return table


def build_arrangement(emb: CycleEmbedding) -> Arrangement:
    """Subdivide a general-position embedding at its proper crossings.

    Segment i is split at the len(chains[i]) crossings of its pair-table
    chain, so the counts come from the chain lengths alone and no crossing
    point is built. face_count is the bounded-region count E - V + 1 of
    the connected plane graph.
    """
    table = _general_position_table(emb)
    per_segment = tuple((len(chain) + 2, len(chain) + 1) for chain in table.chains)
    v = emb.n + len(table.signs)
    e = sum(edges for _, edges in per_segment)
    return Arrangement(v, e, e - v + 1, per_segment, emb.corners, table)


def region_count_euler(arr: Arrangement) -> int:
    """Bounded regions of an arrangement via the connected plane-graph
    count E - V + 1, which build_arrangement evaluates."""
    return arr.face_count


def region_count_traversal(emb: CycleEmbedding) -> int:
    """Bounded regions counted by walking faces, independent of the
    E - V + 1 identity.

    The edges are numbered along the segments in cycle order, each
    segment's from corner i toward corner i+1. Edge e has darts 2e, which
    runs forward along its segment, and 2e+1, which runs back, so the twin
    of dart d is d ^ 1. prev[d] is the dart leaving d's origin just before
    d in counterclockwise order. A face continues from dart d, which ends
    at v, with prev[d ^ 1], the dart leaving v just before the way back;
    the orbits of that map are the faces, one of which is unbounded. A
    corner has two darts, so each precedes the other. At a crossing of
    segments i < j the darts point along +u_i, +u_j, -u_i, -u_j in
    counterclockwise order when cross(u_i, u_j) > 0, and along +u_i, -u_j,
    -u_i, +u_j otherwise.
    """
    table = _general_position_table(emb)
    signs = table.signs
    darts = 2 * (emb.n + 2 * len(signs))
    prev = [0] * darts
    # first[c] is the forward dart leaving crossing c along its lower
    # segment, or 0 before that segment is reached.
    first = [0] * len(signs)
    # Walking segment i from corner i, f is the forward dart leaving the
    # current vertex and f - 1 the backward dart of the edge arriving there,
    # which leaves it too. At corner 0, f - 1 is -1: prev[-1] is the last
    # dart, and prev[0] gets that dart's index below.
    f = 0
    for chain in table.chains:
        prev[f] = f - 1
        prev[f - 1] = f
        for c in chain:
            f += 2
            h = first[c]
            if not h:
                first[c] = f
            elif signs[c] > 0:
                prev[f] = h
                prev[h - 1] = f
                prev[f - 1] = h - 1
                prev[h] = f - 1
            else:
                prev[f - 1] = h
                prev[h - 1] = f - 1
                prev[f] = h - 1
                prev[h] = f
        f += 2
    prev[0] = darts - 1
    seen = bytearray(darts)
    faces = 0
    for start in range(darts):
        if seen[start]:
            continue
        faces += 1
        d = start
        while not seen[d]:
            seen[d] = 1
            d = prev[d ^ 1]
    return faces - 1


def splitter_analysis(emb: CycleEmbedding) -> SplitterReport:
    """Count, for every segment, how many of the other n-1 segments it
    meets (any non-disjoint kind), and classify.

    Works on degenerate embeddings except collinear overlaps, where the
    notion of one intersection per pair breaks down, and coincident
    adjacent corners, which collapse a segment; both raise
    DegenerateInput.
    """
    table = pair_table(emb)
    if table.meets is None or table.report.collinear_overlaps:
        raise DegenerateInput(table.report)
    n = emb.n
    rows = []
    for c in table.meets:
        if c == n - 1:
            cls = SegmentClass.SPLITTER
        elif c == n - 2:
            cls = SegmentClass.ONE_OFF_SPLITTER
        else:
            cls = SegmentClass.OTHER
        rows.append((c, cls))
    return SplitterReport(tuple(rows))
