"""Exact rational plane predicates: orientation, on-segment tests,
segment intersection and ordering along a segment.

Coordinates are `fractions.Fraction`, so every predicate is decided
exactly. No floating point enters any comparison; this matters because
the even-cycle constructions are deliberately near-degenerate and epsilon
tests would misclassify them. `pairs.classify_pairs` classifies a
drawing's pairs on its own, in integers, and calls none of these
predicates; they remain public API and the independent reference the tests
check that classification against. No CLI subcommand loads this module
or `fractions`. `Point` and `Segment`, the records these predicates take,
are defined here, and `corner_points` gives a drawing's corners as Points.
"""

import enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .embedding import CycleEmbedding


class _PointFields(NamedTuple):
    x: Fraction
    y: Fraction


class Point(_PointFields):
    """Immutable exact point; coordinates are normalised to Fraction."""

    __slots__ = ()

    def __new__(cls, x, y) -> "Point":
        return super().__new__(cls, Fraction(x), Fraction(y))


def corner_points(emb: CycleEmbedding) -> list[Point]:
    """The drawing's corners as exact rational points, in cycle order."""
    return [Point(Fraction(x, emb.den), Fraction(y, emb.den)) for x, y in emb.corners]


class _SegmentFields(NamedTuple):
    a: Point
    b: Point


class Segment(_SegmentFields):
    """Closed segment from a to b."""

    __slots__ = ()

    def __new__(cls, a: Point, b: Point) -> "Segment":
        if a == b:
            raise ValueError("segment endpoints coincide")
        return super().__new__(cls, a, b)


class PointNotOnSegment(ValueError):
    """A point handed to sort_points_along fails the exact on-segment test."""


class Orientation(enum.IntEnum):
    """Sign of the cross product (q - p) x (r - p)."""

    CW = -1
    COLLINEAR = 0
    CCW = 1


class IntersectionKind(enum.Enum):
    DISJOINT = "disjoint"
    PROPER_CROSSING = "proper_crossing"
    ENDPOINT_TOUCH = "endpoint_touch"
    COLLINEAR_OVERLAP = "collinear_overlap"


class Intersection(NamedTuple):
    """Classification of how two segments meet, with the witness point
    for the two single-point kinds."""

    kind: IntersectionKind
    point: Optional[Point] = None


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Exact cross product (a - o) x (b - o): twice the signed area of
    triangle o, a, b."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Turn direction of the path p -> q -> r, decided exactly."""
    c = cross(p, q, r)
    if c > 0:
        return Orientation.CCW
    if c < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def point_on_segment(p: Point, s: Segment) -> bool:
    """Exact closed on-segment test; endpoints count as on."""
    if orientation(s.a, s.b, p) is not Orientation.COLLINEAR:
        return False
    return (
        min(s.a.x, s.b.x) <= p.x <= max(s.a.x, s.b.x)
        and min(s.a.y, s.b.y) <= p.y <= max(s.a.y, s.b.y)
    )


def segment_intersection(s1: Segment, s2: Segment) -> Intersection:
    """Classify the intersection of two closed segments.

    Returns one of:
      * DISJOINT          - no common point
      * PROPER_CROSSING   - one common point, strictly interior to both
      * ENDPOINT_TOUCH    - one common point that is an endpoint of at
                            least one of the segments (shared corners and
                            T-junctions both land here)
      * COLLINEAR_OVERLAP - collinear with a common sub-segment of
                            positive length

    The returned point, when present, satisfies both segment equations
    exactly. The result is symmetric in the two arguments.
    """
    d1 = cross(s1.a, s1.b, s2.a)
    d2 = cross(s1.a, s1.b, s2.b)
    if d1 == 0 and d2 == 0:
        return _collinear_intersection(s1, s2)
    d3 = cross(s2.a, s2.b, s1.a)
    d4 = cross(s2.a, s2.b, s1.b)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        # Strict sign opposition on both sides: interior crossing. The
        # parameter along s1 where the line of s2 is hit is d3/(d3-d4).
        t = d3 / (d3 - d4)
        p = Point(
            s1.a.x + t * (s1.b.x - s1.a.x),
            s1.a.y + t * (s1.b.y - s1.a.y),
        )
        return Intersection(IntersectionKind.PROPER_CROSSING, p)
    # Non-collinear segments share at most one point, and if they share one
    # at all here it is an endpoint of one of them.
    for p, s in ((s2.a, s1), (s2.b, s1), (s1.a, s2), (s1.b, s2)):
        if point_on_segment(p, s):
            return Intersection(IntersectionKind.ENDPOINT_TOUCH, p)
    return Intersection(IntersectionKind.DISJOINT)


def _collinear_intersection(s1: Segment, s2: Segment) -> Intersection:
    # All four endpoints lie on the line of s1; compare 1-D parameters
    # along its direction vector.
    ux = s1.b.x - s1.a.x
    uy = s1.b.y - s1.a.y

    def t(p: Point) -> Fraction:
        return (p.x - s1.a.x) * ux + (p.y - s1.a.y) * uy

    lo1, hi1 = sorted((t(s1.a), t(s1.b)))
    lo2, hi2 = sorted((t(s2.a), t(s2.b)))
    lo = max(lo1, lo2)
    hi = min(hi1, hi2)
    if lo > hi:
        return Intersection(IntersectionKind.DISJOINT)
    if lo < hi:
        return Intersection(IntersectionKind.COLLINEAR_OVERLAP)
    for p in (s1.a, s1.b, s2.a, s2.b):
        if t(p) == lo:
            return Intersection(IntersectionKind.ENDPOINT_TOUCH, p)
    raise AssertionError("collinear single-point overlap without a matching endpoint")


def sort_points_along(s: Segment, points: Iterable[Point]) -> list[Point]:
    """Order points by exact parameter along s, merging duplicates.

    Every input point must lie on s (endpoints allowed); otherwise
    PointNotOnSegment is raised.
    """
    ux = s.b.x - s.a.x
    uy = s.b.y - s.a.y
    keyed = []
    for p in points:
        if not point_on_segment(p, s):
            raise PointNotOnSegment(f"({p.x}, {p.y}) is not on the segment")
        keyed.append(((p.x - s.a.x) * ux + (p.y - s.a.y) * uy, p))
    keyed.sort(key=lambda kp: kp[0])
    out: list[Point] = []
    for _, p in keyed:
        if not out or out[-1] != p:
            out.append(p)
    return out
