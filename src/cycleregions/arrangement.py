"""Planar arrangement of a cycle embedding: vertex, edge and region
counts, and two region counters.

Both counters read the drawing's pair table: each segment's chain of
crossings, ordered along it, is the subdivision, which is connected since
each chain joins two corners and neighbouring segments share one. The
Euler counter reads E - V + 1, which build_arrangement evaluates from the
table. With X crossings, V = n + X, and E = n + 2X since every crossing
lies on two chains, so E - V + 1 is len(signs) + 1 by algebra alone: the
Euler counter checks neither the table's signs nor its chain order. The
traversal counter, which does, never touches that identity: it numbers
the two directed copies (darts) of every edge, orders the darts leaving
each crossing from the sign of the crossing segments' cross product, and
counts the orbits of the face-walk permutation on the darts, so the two
agreeing checks the counting, not the shared pair classification.
"""

from typing import NamedTuple

from .embedding import CycleEmbedding, pair_table, validate_general_position
from .formulas import DegenerateInput
from .pairs import PairClasses


class Arrangement(NamedTuple):
    """The vertex, edge and bounded-region counts of an embedding's
    subdivision at its proper crossings."""

    vertex_count: int
    edge_count: int
    face_count: int


def _general_position_table(emb: CycleEmbedding) -> PairClasses:
    """The pair table of a general-position embedding.

    Raises DegenerateInput otherwise; general position guarantees every
    proper crossing involves exactly two segments and lies strictly inside
    both.
    """
    table = pair_table(emb)
    if table.degenerate:
        raise DegenerateInput(validate_general_position(emb))
    return table


def build_arrangement(emb: CycleEmbedding) -> Arrangement:
    """Subdivide a general-position embedding at its proper crossings.

    Segment i is split at the len(chains[i]) crossings of its pair-table
    chain, so the counts come from the chain lengths alone and no crossing
    point is built. face_count is the bounded-region count E - V + 1 of
    the connected plane graph.
    """
    table = _general_position_table(emb)
    v = emb.n + len(table.signs)
    e = sum(len(chain) + 1 for chain in table.chains)
    return Arrangement(v, e, e - v + 1)


def region_count_euler(arr: Arrangement) -> int:
    """Bounded regions of an arrangement via the connected plane-graph
    count E - V + 1, which build_arrangement evaluates.

    V = n + X and E = n + 2X for a drawing with X crossings, so this is
    X + 1, len(signs) + 1 of the pair table, by algebra: it checks no sign
    and no chain order of the table. Only region_count_traversal does."""
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


def splitter_analysis(emb: CycleEmbedding) -> PairClasses:
    """The drawing's pair table, whose `meets` counts, for every segment,
    the other segments it meets (any non-disjoint kind), and whose
    `splitters`, `splitter_count` and `one_off_count` classify them.

    Works on degenerate embeddings except collinear overlaps, where the
    notion of one intersection per pair breaks down, and coincident
    adjacent corners, which collapse a segment; both raise
    DegenerateInput.
    """
    table = pair_table(emb)
    if table.meets is None or table.overlaps:
        raise DegenerateInput(validate_general_position(emb))
    return table
