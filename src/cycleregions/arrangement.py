"""Planar arrangement of a cycle embedding: vertices, edges, and two
region counters.

Both counters read the drawing's pair table: each segment's chain of
crossings, ordered along it, is the subdivision, which is connected since
each chain joins two corners and neighbouring segments share one. The
Euler counter reads E - V + 1, which build_arrangement evaluates from the
chain lengths. The traversal counter never touches that identity: it
orders the edge ends around each crossing from the sign of the crossing
segments' cross product and counts the orbits of the face-walk
permutation, so the two agreeing checks the counting, not the shared pair
classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .embedding import CycleEmbedding, DegeneracyReport, PairTable, pair_table
from .geometry import Point


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

    face_count is the bounded-region count E - V + 1 of the connected
    plane graph.
    """
    table = _general_position_table(emb)
    verts = tuple((p, VertexKind.CORNER) for p in emb.corners) + tuple(
        (p, VertexKind.CROSSING) for p in table.points
    )
    per_segment = tuple((len(chain) + 2, len(chain) + 1) for chain in table.chains)
    v = len(verts)
    e = sum(edges for _, edges in per_segment)
    return Arrangement(verts, v, e, e - v + 1, per_segment)


def region_count_euler(arr: Arrangement) -> int:
    """Bounded regions of an arrangement via the connected plane-graph
    count E - V + 1, which build_arrangement evaluates."""
    return arr.face_count


def region_count_traversal(emb: CycleEmbedding) -> int:
    """Bounded regions counted by walking faces, independent of the
    E - V + 1 identity.

    Each directed edge (u, v) continues to the neighbour preceding u in
    the counterclockwise order around v; orbits of that successor map are
    the faces of the embedding, one of which is unbounded. A corner has
    two neighbours, so either order is counterclockwise. At a crossing of
    segments i < j the edge ends point along +u_i, +u_j, -u_i, -u_j in
    counterclockwise order when cross(u_i, u_j) > 0, and along +u_i, -u_j,
    -u_i, +u_j otherwise.
    """
    table = _general_position_table(emb)
    n = emb.n
    # Segment i's vertex ids run from corner i through its crossings to
    # corner i+1; crossing c is vertex n + c.
    chains = [
        (i, *(n + c for c in chain), (i + 1) % n) for i, chain in enumerate(table.chains)
    ]
    ccw: list[list[int]] = [[] for _ in range(n + len(table.points))]
    for chain in chains:
        ccw[chain[0]].append(chain[1])
        ccw[chain[-1]].append(chain[-2])
        for back, v, ahead in zip(chain, chain[1:], chain[2:]):
            ccw[v] += (ahead, back)
    # Segment i's chain comes first, so each crossing holds
    # [+u_i, -u_i, +u_j, -u_j] until it is reordered here.
    for c, sign in enumerate(table.signs):
        ahead_i, back_i, ahead_j, back_j = ccw[n + c]
        if sign > 0:
            ccw[n + c] = [ahead_i, ahead_j, back_i, back_j]
        else:
            ccw[n + c] = [ahead_i, back_j, back_i, ahead_j]
    seen: set[tuple[int, int]] = set()
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
