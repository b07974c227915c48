"""Cycle embeddings: corner placements, the two extremal constructions,
the pair table behind general-position validation, deterministic
perturbation, and the text file format.

An embedding is the full description of a drawing: n corners in cycle
order, with segment i joining corner i to corner (i+1) mod n. Corners are
exact rational points, so degeneracy detection is a decision, not a
tolerance. The pair table scales them to integers once and classifies
every segment pair in integer arithmetic.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .formulas import InvalidN, max_crossings
from .geometry import (
    IntersectionKind,
    Point,
    Segment,
    segment_intersection,
)

Scale = Union[int, Fraction]

DEFAULT_DIGITS = 12
PERTURB_RETRIES = 64
# Perturbation size for the constructions, whose circumradius is 1.
PERTURB_EPSILON = Fraction(1, 10_000)
# Denominator bound for the random offsets drawn inside perturb().
_OFFSET_GRID = 10**6


class ConstructionNotACycle(RuntimeError):
    """The even construction's segment set failed to form one n-cycle."""


class PerturbationFailed(RuntimeError):
    """No general-position embedding found within the retry budget."""


class ConstructionCheckFailed(RuntimeError):
    """The even construction missed max_crossings(n) or its splitter classes."""


@dataclass(frozen=True)
class CycleEmbedding:
    """n corners in cycle order; segment i joins corner i to corner i+1
    (indices mod n)."""

    n: int
    corners: tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InvalidN(f"cycle length must be at least 3, got {self.n}")
        object.__setattr__(self, "corners", tuple(self.corners))
        if len(self.corners) != self.n:
            raise ValueError(
                f"expected {self.n} corners, got {len(self.corners)}"
            )

    def segment(self, i: int) -> Segment:
        return Segment(self.corners[i], self.corners[(i + 1) % self.n], i)

    def segments(self) -> list[Segment]:
        return [self.segment(i) for i in range(self.n)]


@dataclass(frozen=True)
class DegeneracyReport:
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

    Crossing c is points[c]; crossing ids follow the points' (x, y) order.
    chains[i] lists the ids of segment i's crossings from corner i toward
    corner i+1, and signs[c] is the sign of cross(u_i, u_j) for the
    directions u_i, u_j of the crossing's two segments, i < j. Everything
    but the report is None when adjacent corners coincide, since a
    collapsed segment has no pairs.
    """

    report: DegeneracyReport
    meets: Optional[tuple[int, ...]]
    points: Optional[tuple[Point, ...]]
    chains: Optional[tuple[tuple[int, ...], ...]]
    signs: Optional[tuple[int, ...]]

    @property
    def crossings(self) -> Optional[tuple[tuple[Point, ...], ...]]:
        """Each segment's proper crossing points, in order along it."""
        if self.chains is None:
            return None
        return tuple(tuple(self.points[c] for c in chain) for chain in self.chains)


def _between(a: int, v: int, b: int) -> bool:
    return a <= v <= b or b <= v <= a


@functools.lru_cache(maxsize=1)
def pair_table(emb: CycleEmbedding) -> PairTable:
    """Classify the n(n-1)/2 segment pairs once, in integers; validation,
    subdivision, the face walk and splitter analysis all read the table
    kept for the latest drawing.

    The corners are scaled by the lcm of their denominators. That is a
    similarity map, so every orientation sign, and with it every
    classification, is that of the exact rational drawing. Pairs decided by
    strict signs alone (disjoint or properly crossing) never leave integer
    arithmetic; a pair with a zero orientation (adjacent pairs, touches,
    overlaps) is classified by segment_intersection.
    """
    n = emb.n
    scale = math.lcm(*(c.denominator for p in emb.corners for c in (p.x, p.y)))
    pts = [
        (p.x.numerator * (scale // p.x.denominator), p.y.numerator * (scale // p.y.denominator))
        for p in emb.corners
    ]
    coincident = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if pts[i] == pts[j]
    )
    # Coinciding adjacent corners collapse a segment entirely; nothing
    # further can be measured, so report just the coincidences.
    if any((j - i) % n in (1, n - 1) for i, j in coincident):
        return PairTable(DegeneracyReport(coincident_corners=coincident), None, None, None, None)

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
    found = []  # (X, Y, D, i, j, sign): the crossing (X/D, Y/D) of segments i < j
    meets = [0] * n
    for i in range(n):
        si = side[i]
        i1 = (i + 1) % n
        for j in range(i + 1, n):
            d1 = si[j]
            d2 = si[(j + 1) % n]
            if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
                continue
            d3 = side[j][i]
            d4 = side[j][i1]
            if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
                continue
            if d1 and d2 and d3 and d4:
                # Strict sign opposition on both sides: an interior crossing
                # at parameter d3/(d3-d4) along segment i.
                t, q = (d3, d3 - d4) if d3 > d4 else (-d3, d4 - d3)
                ax, ay = pts[i]
                bx, by = pts[i1]
                x = ax * q + t * (bx - ax)
                y = ay * q + t * (by - ay)
                g = math.gcd(x, y, q)
                # d2 - d1 = cross(u_i, u_j), and d1, d2 have opposite signs.
                found.append((x // g, y // g, q // g, i, j, 1 if d2 > 0 else -1))
                meets[i] += 1
                meets[j] += 1
                continue
            kind = segment_intersection(emb.segment(i), emb.segment(j)).kind
            if kind is not IntersectionKind.DISJOINT:
                meets[i] += 1
                meets[j] += 1
            if kind is IntersectionKind.COLLINEAR_OVERLAP:
                overlaps.append((i, j))

    # Two distinct rationals whose denominators are at most dmax, the
    # largest D, differ by at least 1/dmax^2, so scaling by dmax^2 and
    # flooring keeps their order and their ties: an exact integer key for
    # the (x, y) order.
    key_scale = max((f[2] for f in found), default=1) ** 2
    found.sort(key=lambda f: (f[0] * key_scale // f[2], f[1] * key_scale // f[2]))
    points = []
    chains: list[list[int]] = [[] for _ in range(n)]
    crossings_at: dict[tuple[int, int, int], tuple[Point, set[int]]] = {}
    for c, (x, y, d, i, j, _) in enumerate(found):
        p = Point(Fraction(x, d * scale), Fraction(y, d * scale))
        points.append(p)
        chains[i].append(c)
        chains[j].append(c)
        crossings_at.setdefault((x, y, d), (p, set()))[1].update((i, j))
    # On one segment the (x, y) order is the order along it, or its reverse
    # when the segment runs toward smaller (x, y).
    for i, chain in enumerate(chains):
        if pts[(i + 1) % n] < pts[i]:
            chain.reverse()
    triples = tuple(
        (p, tuple(sorted(ids))) for p, ids in crossings_at.values() if len(ids) >= 3
    )
    report = DegeneracyReport(
        triple_points=triples,
        corner_incidences=tuple(incidences),
        collinear_overlaps=tuple(overlaps),
        coincident_corners=coincident,
    )
    return PairTable(
        report,
        tuple(meets),
        tuple(points),
        tuple(map(tuple, chains)),
        tuple(f[5] for f in found),
    )


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
    ValueError for epsilon <= 0.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
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
    den = 10**digits
    pts = []
    for j in range(k):
        ang = 2.0 * math.pi * j / k
        x = Fraction(round(math.cos(ang) * den), den) * scale
        y = Fraction(round(math.sin(ang) * den), den) * scale
        pts.append(Point(x, y))
    if len(set(pts)) != k:
        raise ValueError("rounding collapsed two polygon vertices; raise digits")
    return pts


def construct_odd(n: int, seed: int = 0) -> CycleEmbedding:
    """Maximal embedding for odd n: corners on a regular n-gon, with cycle
    position i visiting polygon vertex i*(n-1)/2 mod n.

    Every connection then crosses or touches all n-1 others, which is what
    forces the region count to its ceiling. The step (n-1)/2 is coprime to
    odd n, so the visit order is a bijection.
    """
    if n < 3 or n % 2 == 0:
        raise InvalidN(f"odd construction needs odd n >= 3, got {n}")
    poly = regular_polygon_points(n)
    step = (n - 1) // 2
    corners = tuple(poly[(i * step) % n] for i in range(n))
    emb = CycleEmbedding(n, corners)
    if not validate_general_position(emb).is_empty():
        emb = perturb(emb, PERTURB_EPSILON, seed)
    return emb


def _even_connection_pairs(n: int) -> list[tuple[int, int]]:
    # Step-(n/2-1) connections give n/2 parallel pairs on a regular
    # placement; replacing one parallel pair with the crossing pair
    # {0, n/2}, {n/2-1, n-1} re-links everything into a single cycle.
    s = n // 2 - 1
    pairs = {frozenset((c, (c + s) % n)) for c in range(n)}
    pairs.discard(frozenset((0, s)))
    pairs.discard(frozenset((n // 2, n - 1)))
    pairs.add(frozenset((0, n // 2)))
    pairs.add(frozenset((s, n - 1)))
    return sorted(tuple(sorted(p)) for p in pairs)


def _even_cycle_order(n: int) -> list[int]:
    """Corner labels in the order the even construction's cycle visits
    them, starting at 0 toward its smaller neighbour."""
    pairs = _even_connection_pairs(n)
    adj: dict[int, list[int]] = {c: [] for c in range(n)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    if len(pairs) != n or any(len(v) != 2 for v in adj.values()):
        raise ConstructionNotACycle(f"connection set for n={n} is not 2-regular")
    order = [0]
    prev = -1
    cur = 0
    for _ in range(n - 1):
        nxt = min(b for b in adj[cur] if b != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    if len(set(order)) != n or 0 not in adj[cur]:
        raise ConstructionNotACycle(
            f"connection set for n={n} splits into more than one cycle"
        )
    return order


def construct_even_raw(n: int, gap: Optional[int] = None) -> CycleEmbedding:
    """Even-n placement before any validation or perturbation.

    Corner labels occupy n of the n+1 vertices of a regular (n+1)-gon in
    label order; `gap` in [0, n] says between which consecutive labels the
    unused vertex sits (label c lands on vertex c for c < gap, else c+1).
    The default gap=n leaves the unused vertex between labels n-1 and 0,
    which is between the endpoints of the two crossing connections.
    """
    if n < 4 or n % 2 == 1:
        raise InvalidN(f"even construction needs even n >= 4, got {n}")
    if gap is None:
        gap = n
    if not 0 <= gap <= n:
        raise ValueError(f"gap must be in [0, {n}], got {gap}")
    order = _even_cycle_order(n)
    poly = regular_polygon_points(n + 1)
    corners = tuple(
        poly[label if label < gap else label + 1] for label in order
    )
    return CycleEmbedding(n, corners)


def construct_even(n: int, seed: int = 0) -> CycleEmbedding:
    """Maximal embedding for even n.

    Connect corner c to corner c + (n/2 - 1) for every c, then swap one of
    the resulting parallel pairs for a crossing pair; place the corners on
    a regular (n+1)-gon with the unused vertex between the two crossing
    connections, and perturb only if that placement is degenerate. The
    corners are in convex position, so every gap of construct_even_raw
    gives the same cyclic order and crossings. ConstructionCheckFailed is
    raised unless the result's pair table has max_crossings(n) crossings
    (so f(n) regions), 2 splitters and n-2 one-off splitters.
    """
    emb = construct_even_raw(n)
    if not validate_general_position(emb).is_empty():
        emb = perturb(emb, PERTURB_EPSILON, seed)
    table = pair_table(emb)
    got = (len(table.points), table.meets.count(n - 1), table.meets.count(n - 2))
    want = (max_crossings(n), 2, n - 2)
    if got != want:
        raise ConstructionCheckFailed(f"n={n}: (crossings, splitters, one-offs) {got} != {want}")
    return emb


def construct(n: int, seed: int = 0) -> CycleEmbedding:
    """Maximal embedding for any n >= 3, dispatching on parity."""
    if n < 3:
        raise InvalidN(f"n must be at least 3, got {n}")
    if n % 2 == 0:
        return construct_even(n, seed)
    return construct_odd(n, seed)


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
    num, sep, den = tok.partition("/")
    if not sep:
        raise ValueError(f"coordinate {tok!r} is not of the form p/q")
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coordinate {tok!r}: {exc}") from None


def parse_embedding(text: str) -> CycleEmbedding:
    """Parse the embedding text format; raises ValueError on any
    malformed content."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty embedding document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"expected header 'n <int>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise ValueError(f"bad cycle length {head[1]!r}") from None
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
