"""The degeneracy report of a drawing that is not in general position.

`general_position_report(emb, pairs)` builds the `DegeneracyReport` of a
drawing from its `pairs.PairClasses`, both passed in, so this leaf module
imports no module of the package. A command builds a report only for a
drawing it refuses, and `embedding.validate_general_position` imports
this module when it is called, so only such a command loads it.
"""

import math
from typing import NamedTuple


class DegeneracyReport(NamedTuple):
    """Everything that keeps an embedding out of general position.

    triple_points:      ((x, y, d), cycle indices of the >= 3 segments
                         with a common proper crossing at (x / d, y / d)),
                         in lowest terms, d > 0, ordered by x / d, y / d
    corner_incidences:  (corner index, cycle index of a non-incident
                         segment whose interior contains that corner)
    collinear_overlaps: (cycle index, cycle index) pairs sharing a
                        positive-length sub-segment
    coincident_corners: (corner index, corner index) pairs at one point

    An empty report is exactly general position.
    """

    triple_points: tuple[tuple[tuple[int, int, int], tuple[int, ...]], ...] = ()
    corner_incidences: tuple[tuple[int, int], ...] = ()
    collinear_overlaps: tuple[tuple[int, int], ...] = ()
    coincident_corners: tuple[tuple[int, int], ...] = ()

    def is_empty(self) -> bool:
        """True when every field is empty."""
        return not any(self)

    def summary(self) -> str:
        parts = [
            f"{len(self.triple_points)} triple point(s)",
            f"{len(self.corner_incidences)} corner incidence(s)",
            f"{len(self.collinear_overlaps)} collinear overlap(s)",
            f"{len(self.coincident_corners)} coincident corner pair(s)",
        ]
        return "; ".join(parts)


def _crossing_point(emb, i: int, j: int) -> tuple[int, int, int]:
    """The point where the lines of segments i and j of the drawing emb
    meet, as the integers (x, y, d) in lowest terms, d > 0, of the point
    (x / d, y / d)."""
    pts = emb.corners
    (ax, ay), (bx, by) = pts[i], pts[(i + 1) % emb.n]
    (cx, cy), (dx, dy) = pts[j], pts[(j + 1) % emb.n]
    vx, vy = dx - cx, dy - cy
    # Segment j's line meets segment i's at t / q of the way along it.
    t = vx * (ay - cy) - vy * (ax - cx)
    q = t - (vx * (by - cy) - vy * (bx - cx))
    x, y, d = ax * q + t * (bx - ax), ay * q + t * (by - ay), q * emb.den
    g = math.gcd(x, y, d) if d > 0 else -math.gcd(x, y, d)
    return x // g, y // g, d // g


def _crossing_ends(chains: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """ends[c] = [i, j], the segments i < j of crossing c."""
    ends: list[list[int]] = [[] for _ in range(sum(map(len, chains)) // 2)]
    for s, chain in enumerate(chains):
        for c in chain:
            ends[c].append(s)
    return ends


def general_position_report(emb, pairs) -> DegeneracyReport:
    """Every degeneracy of the `CycleEmbedding` emb, read from `pairs`, its
    `pairs.PairClasses`, whose one pass over the segment pairs finds them
    all but coincident corners.

    General position means: corners pairwise distinct, no corner interior
    to a non-incident segment, no collinear overlapping segments, and no
    point where three or more segments cross. Only the crossings that the
    table finds at one point of a segment are built as points, for the
    report's triple points.
    """
    # Two crossings at one point of a segment name at least three segments.
    shared: dict[tuple[int, int, int], set[int]] = {}
    if pairs.ties:
        ends = _crossing_ends(pairs.chains)
        for c, c2 in pairs.ties:
            point = _crossing_point(emb, *ends[c])
            shared.setdefault(point, set()).update(ends[c], ends[c2])
    # Over their common denominator, the points sort by integer x, then y.
    den = math.lcm(*(d for _, _, d in shared))
    triples = tuple(sorted(
        ((p, tuple(sorted(ids))) for p, ids in shared.items()),
        key=lambda t: (t[0][0] * (den // t[0][2]), t[0][1] * (den // t[0][2])),
    ))
    return DegeneracyReport(triples, pairs.incidences, pairs.overlaps, pairs.coincident)
