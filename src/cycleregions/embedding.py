"""Cycle embeddings: the exact point and segment records, corner
placements, the two extremal constructions, the pair table behind
general-position validation, deterministic perturbation, and the text file
format.

An embedding is the full description of a drawing: n corners in cycle
order, with segment i joining corner i to corner (i+1) mod n. Corners are
exact rational `Point`s, so degeneracy detection is a decision, not a
tolerance. The pair table scales them to integers once and classifies
every segment pair, touches and overlaps included, in integer arithmetic;
the `Fraction` predicates of `geometry` are not needed to draw, count or
check a drawing.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .formulas import InvalidN, construction_order, construction_splitters, max_crossings

Scale = Union[int, Fraction]

DEFAULT_DIGITS = 12
PERTURB_RETRIES = 64
# Perturbation size for the constructions, whose circumradius is 1.
PERTURB_EPSILON = Fraction(1, 10_000)
# Denominator bound for the random offsets drawn inside perturb().
_OFFSET_GRID = 10**6
# The file format's only spellings of a count and of a coordinate.
_COUNT = re.compile("[0-9]+")
_RATIONAL = re.compile("(-?[0-9]+)/([0-9]+)")


class PerturbationFailed(RuntimeError):
    """No general-position embedding found within the retry budget."""


class ConstructionCheckFailed(RuntimeError):
    """A construction missed max_crossings(n) or its splitter classes."""


class _PointFields(NamedTuple):
    x: Fraction
    y: Fraction


class Point(_PointFields):
    """Immutable exact point; coordinates are normalised to Fraction."""

    __slots__ = ()

    def __new__(cls, x, y) -> "Point":
        return super().__new__(cls, Fraction(x), Fraction(y))


class _SegmentFields(NamedTuple):
    a: Point
    b: Point
    cycle_index: int = 0


class Segment(_SegmentFields):
    """Closed segment from a to b.

    cycle_index records which cycle connection the segment embeds; it is 0
    for free-standing segments built in tests or tools.
    """

    __slots__ = ()

    def __new__(cls, a: Point, b: Point, cycle_index: int = 0) -> "Segment":
        if a == b:
            raise ValueError("segment endpoints coincide")
        return super().__new__(cls, a, b, cycle_index)


class _CycleEmbeddingFields(NamedTuple):
    n: int
    corners: tuple[Point, ...]


class CycleEmbedding(_CycleEmbeddingFields):
    """n corners in cycle order; segment i joins corner i to corner i+1
    (indices mod n)."""

    __slots__ = ()

    def __new__(cls, n: int, corners: Iterable[Point]) -> "CycleEmbedding":
        if n < 3:
            raise InvalidN(f"cycle length must be at least 3, got {n}")
        corners = tuple(corners)
        if len(corners) != n:
            raise ValueError(f"expected {n} corners, got {len(corners)}")
        return super().__new__(cls, n, corners)

    def segment(self, i: int) -> Segment:
        return Segment(self.corners[i], self.corners[(i + 1) % self.n], i)

    def segments(self) -> list[Segment]:
        return [self.segment(i) for i in range(self.n)]


class DegeneracyReport(NamedTuple):
    """Everything that keeps an embedding out of general position.

    triple_points:      (point, cycle indices of the >= 3 segments with a
                         common proper crossing there)
    corner_incidences:  (corner index, cycle index of a non-incident
                         segment whose interior contains that corner)
    collinear_overlaps: (cycle index, cycle index) pairs sharing a
                        positive-length sub-segment
    coincident_corners: (corner index, corner index) pairs at one point

    An empty report is exactly general position.
    """

    triple_points: tuple[tuple[Point, tuple[int, ...]], ...] = ()
    corner_incidences: tuple[tuple[int, int], ...] = ()
    collinear_overlaps: tuple[tuple[int, int], ...] = ()
    coincident_corners: tuple[tuple[int, int], ...] = ()

    def is_empty(self) -> bool:
        return not (
            self.triple_points
            or self.corner_incidences
            or self.collinear_overlaps
            or self.coincident_corners
        )

    def summary(self) -> str:
        parts = [
            f"{len(self.triple_points)} triple point(s)",
            f"{len(self.corner_incidences)} corner incidence(s)",
            f"{len(self.collinear_overlaps)} collinear overlap(s)",
            f"{len(self.coincident_corners)} coincident corner pair(s)",
        ]
        return "; ".join(parts)


class PairTable(NamedTuple):
    """A drawing's DegeneracyReport, how many other segments each segment
    meets, and its proper crossings.

    Crossing ids follow pair order: crossing c is the c-th properly
    crossing pair (i, j), i < j, in lexicographic order. chains[i] lists
    the ids of segment i's crossings from corner i toward corner i+1, and
    signs[c] is the sign of cross(u_i, u_j) for the directions u_i, u_j of
    the crossing's two segments. Crossings stay integers: `corners` holds
    the corners scaled by `scale` to integers, and the crossing points, as
    `points` or `crossings`, are built from them afresh on each read; no
    command reads them. Everything but the report, the corners and scale
    is None when adjacent corners coincide, since a collapsed segment has
    no pairs.
    """

    report: DegeneracyReport
    meets: Optional[tuple[int, ...]]
    chains: Optional[tuple[tuple[int, ...], ...]]
    signs: Optional[tuple[int, ...]]
    corners: tuple[tuple[int, int], ...]
    scale: int

    @property
    def points(self) -> Optional[tuple[Point, ...]]:
        """Each proper crossing as a Point; crossing c is points[c]."""
        if self.chains is None:
            return None
        pts, scale = self.corners, self.scale
        return tuple(_crossing_point(pts, scale, i, j) for i, j in _crossing_ends(self.chains))

    @property
    def crossings(self) -> Optional[tuple[tuple[Point, ...], ...]]:
        """Each segment's proper crossing points, in order along it."""
        if self.chains is None:
            return None
        points = self.points
        return tuple(tuple(points[c] for c in chain) for chain in self.chains)


def _crossing_point(pts: tuple[tuple[int, int], ...], scale: int, i: int, j: int) -> Point:
    """The exact point where the lines of segments i and j meet, for the
    corners pts scaled by scale to integers."""
    n = len(pts)
    (ax, ay), (bx, by) = pts[i], pts[(i + 1) % n]
    (cx, cy), (dx, dy) = pts[j], pts[(j + 1) % n]
    vx, vy = dx - cx, dy - cy
    # Segment j's line meets segment i's at t / q of the way along it.
    t = vx * (ay - cy) - vy * (ax - cx)
    q = t - (vx * (by - cy) - vy * (bx - cx))
    d = q * scale
    return Point(Fraction(ax * q + t * (bx - ax), d), Fraction(ay * q + t * (by - ay), d))


def _crossing_ends(chains: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """ends[c] = [i, j], the segments i < j of crossing c."""
    ends: list[list[int]] = [[] for _ in range(sum(map(len, chains)) // 2)]
    for s, chain in enumerate(chains):
        for c in chain:
            ends[c].append(s)
    return ends


def _between(a: int, v: int, b: int) -> bool:
    return a <= v <= b or b <= v <= a


_latest: list = [None, None]  # the latest drawing and its pair table


def pair_table(emb: CycleEmbedding) -> PairTable:
    """Classify the n(n-1)/2 segment pairs once, in integers; validation,
    subdivision, the face walk and splitter analysis all read the table
    kept for the latest drawing. That drawing is recognised by identity,
    because hashing its Fraction corners costs about a seventh of building
    its table.

    The corners are scaled by the lcm of their denominators. That is a
    similarity map, so every orientation sign, and with it every
    classification, is that of the exact rational drawing. Every pair,
    touches and collinear overlaps included, is decided from the table of
    orientations and, for collinear pairs, a projection on one segment's
    direction; no pair leaves integer arithmetic. Each proper crossing is
    kept as its exact parameter along each of its two segments, which
    orders the segments' chains and finds triple points without building
    a crossing point.
    """
    if emb is not _latest[0]:
        _latest[:] = emb, _pair_table(emb)
    return _latest[1]


def _pair_table(emb: CycleEmbedding) -> PairTable:
    n = emb.n
    scale = math.lcm(*(c.denominator for p in emb.corners for c in (p.x, p.y)))
    pts = tuple(
        (p.x.numerator * (scale // p.x.denominator), p.y.numerator * (scale // p.y.denominator))
        for p in emb.corners
    )
    coincident = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if pts[i] == pts[j]
    )
    # Coinciding adjacent corners collapse a segment entirely; nothing
    # further can be measured, so report just the coincidences.
    if any((j - i) % n in (1, n - 1) for i, j in coincident):
        return PairTable(
            DegeneracyReport(coincident_corners=coincident), None, None, None, pts, scale
        )

    # side[s][k] = cross(corner s, corner s+1, corner k): its sign tells
    # which side of segment s's line corner k lies on.
    side = []
    for s in range(n):
        ax, ay = pts[s]
        bx, by = pts[(s + 1) % n]
        ux, uy = bx - ax, by - ay
        side.append([ux * (y - ay) - uy * (x - ax) for x, y in pts])

    incidences = []
    for k, p in enumerate(pts):
        for s in range(n):
            if side[s][k] or s in (k, (k - 1) % n):
                continue
            a, b = pts[s], pts[(s + 1) % n]
            if (
                p not in (a, b)  # a coincident-corner pair, reported above
                and _between(a[0], p[0], b[0])
                and _between(a[1], p[1], b[1])
            ):
                incidences.append((k, s))

    overlaps = []
    signs: list[int] = []
    # along[s] holds (a, q, c) for each crossing c at a/q of the way along
    # segment s from corner s, with 0 < a < q.
    along: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    meets = [0] * n
    for i in range(n):
        si = side[i]
        on_i = along[i]
        i1 = (i + 1) % n
        ax, ay = pts[i]
        ux, uy = pts[i1][0] - ax, pts[i1][1] - ay
        for j in range(i + 1, n):
            d1 = si[j]
            d2 = si[(j + 1) % n]
            if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
                continue
            if d1 or d2:
                d3 = side[j][i]
                d4 = side[j][i1]
                if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
                    continue
                # The lines differ and neither segment lies strictly on one side
                # of the other's line, so they meet: inside both when all four
                # signs are strict, else in a touch. Segment j's line crosses
                # segment i at d3/(d3-d4) along it, segment i's line crosses
                # segment j at d1/(d1-d2), and d2 - d1 = cross(u_i, u_j).
                if d1 and d2 and d3 and d4:
                    c = len(signs)
                    on_i.append((d3, d3 - d4, c) if d3 > 0 else (-d3, d4 - d3, c))
                    if d1 > 0:
                        along[j].append((d1, d1 - d2, c))
                        signs.append(-1)
                    else:
                        along[j].append((-d1, d2 - d1, c))
                        signs.append(1)
            else:
                # Segment j lies on segment i's line, whose span along u_i is
                # [0, u_i.u_i]. A gap is disjoint, one point a touch, more an overlap.
                tj, tk = ((x - ax) * ux + (y - ay) * uy for x, y in (pts[j], pts[(j + 1) % n]))
                lo = max(0, min(tj, tk))
                hi = min(ux * ux + uy * uy, max(tj, tk))
                if lo > hi:
                    continue
                if lo < hi:
                    overlaps.append((i, j))
            meets[i] += 1
            meets[j] += 1

    # Two distinct fractions a/q in one list, whose q are at most qmax,
    # differ by at least 1/qmax^2, so shifting a left by twice qmax's bit
    # length and flooring by q keeps their order and their ties: an exact
    # integer key for the order along the segment.
    chains = []
    ties = []  # pairs of crossings at one point of a segment
    for on in along:
        shift = 2 * max([q for _, q, _ in on], default=0).bit_length()
        keyed = sorted(((a << shift) // q, c) for a, q, c in on)
        chains.append(tuple(c for _, c in keyed))
        for m in range(1, len(keyed)):
            if keyed[m][0] == keyed[m - 1][0]:
                ties.append((keyed[m - 1][1], keyed[m][1]))
    chains = tuple(chains)
    # Two crossings at one point of a segment name at least three segments.
    shared: dict[Point, set[int]] = {}
    if ties:
        ends = _crossing_ends(chains)
        for c, c2 in ties:
            point = _crossing_point(pts, scale, *ends[c])
            shared.setdefault(point, set()).update(ends[c], ends[c2])
    triples = tuple(sorted((p, tuple(sorted(ids))) for p, ids in shared.items()))
    report = DegeneracyReport(
        triple_points=triples,
        corner_incidences=tuple(incidences),
        collinear_overlaps=tuple(overlaps),
        coincident_corners=coincident,
    )
    return PairTable(report, tuple(meets), chains, tuple(signs), pts, scale)


def validate_general_position(emb: CycleEmbedding) -> DegeneracyReport:
    """Exhaustively scan an embedding for degeneracies.

    General position means: corners pairwise distinct, no corner interior
    to a non-incident segment, no collinear overlapping segments, and no
    point where three or more segments cross.
    """
    return pair_table(emb).report


def perturb(
    emb: CycleEmbedding,
    epsilon: Union[int, Fraction],
    seed: int = 0,
    max_retries: int = PERTURB_RETRIES,
) -> CycleEmbedding:
    """Displace every corner by a deterministic seeded rational offset of
    magnitude at most epsilon, retrying with fresh offsets until the result
    is in general position.

    Identical (emb, epsilon, seed) always yields the identical embedding.
    Raises PerturbationFailed after max_retries failed attempts and
    ValueError for epsilon <= 0 or a negative seed.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    for attempt in range(max_retries):
        rng = random.Random(seed * (1 << 32) + attempt)
        moved = []
        for p in emb.corners:
            # Per-coordinate offsets in [-epsilon/2, epsilon/2] keep the
            # displacement magnitude at most epsilon.
            dx = epsilon * Fraction(rng.randint(-_OFFSET_GRID, _OFFSET_GRID), 2 * _OFFSET_GRID)
            dy = epsilon * Fraction(rng.randint(-_OFFSET_GRID, _OFFSET_GRID), 2 * _OFFSET_GRID)
            moved.append(Point(p.x + dx, p.y + dy))
        candidate = CycleEmbedding(emb.n, tuple(moved))
        if validate_general_position(candidate).is_empty():
            return candidate
    raise PerturbationFailed(
        f"no general-position embedding within {max_retries} attempts "
        f"(epsilon={epsilon}, seed={seed})"
    )


def regular_polygon_points(k: int, scale: Scale = 1, digits: int = DEFAULT_DIGITS) -> list[Point]:
    """Rational approximations of the k vertices of a regular k-gon of
    circumradius `scale`, counterclockwise from the positive x axis.

    Each unit-circle coordinate is cos/sin of 2*pi*j/k rounded to `digits`
    decimal digits and then scaled. digits must be at least 4 so distinct
    vertices stay distinct.
    """
    if k < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {k}")
    if digits < 4:
        raise ValueError(f"digits must be at least 4, got {digits}")
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    unit = 10**digits
    # round(c * unit) / unit * scale, built as one Fraction: one normalisation.
    num, den = scale.numerator, unit * scale.denominator
    pts = []
    for j in range(k):
        ang = 2.0 * math.pi * j / k
        x = Fraction(round(math.cos(ang) * unit) * num, den)
        y = Fraction(round(math.sin(ang) * unit) * num, den)
        pts.append(Point(x, y))
    if len(set(pts)) != k:
        raise ValueError("rounding collapsed two polygon vertices; raise digits")
    return pts


def _place(n: int) -> CycleEmbedding:
    # Even n leaves vertex n of the (n+1)-gon unused, between labels n-1
    # and 0, which is between the endpoints of the two crossing connections.
    poly = regular_polygon_points(n if n % 2 else n + 1)
    return CycleEmbedding(n, tuple(poly[v] for v in construction_order(n)))


def construct(n: int, seed: int = 0) -> CycleEmbedding:
    """Maximal embedding for any n >= 3: `construction_order(n)` on a
    regular polygon, perturbed only if that placement is degenerate.

    The corners are in convex position, so the region count is 1 plus the
    order's crossings. ConstructionCheckFailed is raised unless the
    result's pair table has max_crossings(n) crossings (so f(n) regions)
    and the splitter classes `construction_splitters(n)`. A negative seed
    raises ValueError: random.Random would seed it as its absolute value.
    """
    if n < 3:
        raise InvalidN(f"n must be at least 3, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    emb = _place(n)
    if not validate_general_position(emb).is_empty():
        emb = perturb(emb, PERTURB_EPSILON, seed)
    table = pair_table(emb)
    got = (len(table.signs), table.meets.count(n - 1), table.meets.count(n - 2))
    want = (max_crossings(n), *construction_splitters(n))
    if got != want:
        raise ConstructionCheckFailed(f"n={n}: (crossings, splitters, one-offs) {got} != {want}")
    return emb


def construct_odd(n: int, seed: int = 0) -> CycleEmbedding:
    """construct(n, seed) for odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise InvalidN(f"odd construction needs odd n >= 3, got {n}")
    return construct(n, seed)


def construct_even(n: int, seed: int = 0) -> CycleEmbedding:
    """construct(n, seed) for even n >= 4."""
    if n < 4 or n % 2 == 1:
        raise InvalidN(f"even construction needs even n >= 4, got {n}")
    return construct(n, seed)


def format_embedding(emb: CycleEmbedding) -> str:
    """Serialise to the embedding text format.

    One header line `n <int>`, then n lines `corner <px>/<qx> <py>/<qy>`
    with exact lowest-terms rationals. parse_embedding inverts this
    bit-exactly.
    """
    lines = [f"n {emb.n}"]
    for p in emb.corners:
        lines.append(
            f"corner {p.x.numerator}/{p.x.denominator}"
            f" {p.y.numerator}/{p.y.denominator}"
        )
    return "\n".join(lines) + "\n"


def _parse_rational(tok: str) -> Fraction:
    match = _RATIONAL.fullmatch(tok)
    if match is None:
        raise ValueError(f"coordinate {tok!r} is not of the form p/q")
    num, den = int(match[1]), int(match[2])
    if den == 0:
        raise ValueError(f"bad coordinate {tok!r}: zero denominator")
    return Fraction(num, den)


def parse_embedding(text: str) -> CycleEmbedding:
    """Parse the embedding text format; raises ValueError on any
    malformed content.

    The count is ASCII digits and each coordinate is `-?[0-9]+/[0-9]+`
    with a denominator of at least 1. Other spellings `int()` would take,
    such as `+1`, `1_0` or `1/-1`, are rejected."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty embedding document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"expected header 'n <int>', got {lines[0]!r}")
    if not _COUNT.fullmatch(head[1]):
        raise ValueError(f"bad cycle length {head[1]!r}")
    n = int(head[1])
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} corner lines, got {len(lines) - 1}")
    corners = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3 or toks[0] != "corner":
            raise ValueError(f"expected 'corner <p/q> <p/q>', got {ln!r}")
        corners.append(Point(_parse_rational(toks[1]), _parse_rational(toks[2])))
    return CycleEmbedding(n, tuple(corners))


def save_embedding(emb: CycleEmbedding, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_embedding(emb))


def load_embedding(path: str) -> CycleEmbedding:
    with open(path, "r", encoding="ascii") as fh:
        return parse_embedding(fh.read())
