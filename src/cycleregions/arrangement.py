"""Planar arrangement of a cycle embedding: vertices, edges, and two
region counters.

Both counters read the drawing's pair table and the subdivision built
from it; the subdivision is connected since each segment's chain joins
two corners and neighbouring segments share one. The Euler counter
evaluates E - V + 1 for the bounded faces. The traversal counter never
touches that identity: it sorts edge ends around each vertex by exact
angle and counts the orbits of the face-walk permutation, so the two
agreeing checks the counting, not the shared pair classification.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .embedding import CycleEmbedding, DegeneracyReport, pair_table
from .geometry import Point, sort_points_along


class DegenerateInput(ValueError):
    """Embedding is not in general position; carries the full report."""

    def __init__(self, report: DegeneracyReport):
        super().__init__(f"embedding is degenerate: {report.summary()}")
        self.report = report


class VertexKind(enum.Enum):
    CORNER = "corner"
    CROSSING = "crossing"


@dataclass(frozen=True)
class Arrangement:
    """Subdivision of an embedding into arrangement vertices and edges.

    per_segment[i] is (vertices on segment i, edges on segment i),
    endpoints included.
    """

    vertices: tuple[tuple[Point, VertexKind], ...]
    vertex_count: int
    edge_count: int
    face_count: int
    per_segment: tuple[tuple[int, int], ...]


class SegmentClass(enum.Enum):
    SPLITTER = "splitter"
    ONE_OFF_SPLITTER = "one_off_splitter"
    OTHER = "other"


@dataclass(frozen=True)
class SplitterReport:
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


def _subdivided_graph(emb: CycleEmbedding):
    """Vertices, adjacency, and per-segment counts of the subdivision.

    Raises DegenerateInput unless the embedding is in general position,
    which guarantees every proper crossing involves exactly two segments
    and lies strictly inside both.
    """
    table = pair_table(emb)
    if not table.report.is_empty():
        raise DegenerateInput(table.report)
    index: dict[Point, int] = {}
    verts: list[tuple[Point, VertexKind]] = []
    for p in emb.corners:
        index[p] = len(verts)
        verts.append((p, VertexKind.CORNER))
    crossing_points = sorted(
        {p for pts in table.crossings for p in pts}, key=lambda p: (p.x, p.y)
    )
    for p in crossing_points:
        index[p] = len(verts)
        verts.append((p, VertexKind.CROSSING))

    adj: list[set[int]] = [set() for _ in verts]
    per_segment = []
    for i, seg in enumerate(emb.segments()):
        chain = [seg.a] + sort_points_along(seg, table.crossings[i]) + [seg.b]
        for u, v in zip(chain, chain[1:]):
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
        per_segment.append((len(chain), len(chain) - 1))
    return verts, adj, per_segment


def build_arrangement(emb: CycleEmbedding) -> Arrangement:
    """Subdivide a general-position embedding at its proper crossings.

    face_count is the bounded-region count E - V + 1 of the connected
    plane graph.
    """
    verts, adj, per_segment = _subdivided_graph(emb)
    v = len(verts)
    e = sum(edges for _, edges in per_segment)
    return Arrangement(tuple(verts), v, e, e - v + 1, tuple(per_segment))


def region_count_euler(arr: Arrangement) -> int:
    """Bounded regions of an arrangement via the connected plane-graph
    count E - V + 1."""
    return arr.edge_count - arr.vertex_count + 1


def _ccw_key(base: Point, pts: list[Point]):
    # Exact angular order around base starting at the positive x axis:
    # compare half planes first, then the cross product within a half.
    def cmp(u: int, v: int) -> int:
        dux = pts[u].x - base.x
        duy = pts[u].y - base.y
        dvx = pts[v].x - base.x
        dvy = pts[v].y - base.y
        hu = 0 if (duy > 0 or (duy == 0 and dux > 0)) else 1
        hv = 0 if (dvy > 0 or (dvy == 0 and dvx > 0)) else 1
        if hu != hv:
            return -1 if hu < hv else 1
        c = dux * dvy - duy * dvx
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    return functools.cmp_to_key(cmp)


def region_count_traversal(emb: CycleEmbedding) -> int:
    """Bounded regions counted by walking faces, independent of the
    E - V + 1 identity.

    Each directed edge (u, v) continues to the neighbour preceding u in
    the exact counterclockwise order around v; orbits of that successor
    map are the faces of the embedding, one of which is unbounded.
    """
    verts, adj, _ = _subdivided_graph(emb)
    pts = [p for p, _ in verts]
    ccw = [
        sorted(neigh, key=_ccw_key(pts[v], pts)) for v, neigh in enumerate(adj)
    ]
    pos = [{u: k for k, u in enumerate(order)} for order in ccw]
    seen: set[tuple[int, int]] = set()
    faces = 0
    for u in range(len(pts)):
        for v in adj[u]:
            if (u, v) in seen:
                continue
            faces += 1
            cu, cv = u, v
            while (cu, cv) not in seen:
                seen.add((cu, cv))
                order = ccw[cv]
                w = order[(pos[cv][cu] - 1) % len(order)]
                cu, cv = cv, w
    return faces - 1


def splitter_analysis(emb: CycleEmbedding) -> SplitterReport:
    """Count, for every segment, how many of the other n-1 segments it
    meets (any non-disjoint kind), and classify.

    Works on degenerate embeddings except collinear overlaps, where the
    notion of one intersection per pair breaks down; those raise
    DegenerateInput. Coincident adjacent corners collapse a segment and
    raise ValueError.
    """
    table = pair_table(emb)
    if table.report.collinear_overlaps:
        raise DegenerateInput(table.report)
    if table.meets is None:
        raise ValueError("segment endpoints coincide")
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
