"""Cycle embeddings: corner placements, the two extremal constructions,
the pair table behind general-position validation, deterministic
perturbation, and the text file format.

An embedding is the full description of a drawing: n corners in cycle
order, with segment i joining corner i to corner (i+1) mod n. Corners are
exact rational points, so degeneracy detection is a decision, not a
tolerance.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .formulas import InvalidN, f_max
from .geometry import (
    IntersectionKind,
    Point,
    Segment,
    point_on_segment,
    segment_intersection,
)

Scale = Union[int, Fraction]

DEFAULT_DIGITS = 12
PERTURB_RETRIES = 64
# Default perturbation size relative to the circumradius.
PERTURB_EPSILON_NUM = 1
PERTURB_EPSILON_DEN = 10_000
# Denominator bound for the random offsets drawn inside perturb().
_OFFSET_GRID = 10**6


class ConstructionNotACycle(RuntimeError):
    """The even construction's segment set failed to form one n-cycle."""


class PerturbationFailed(RuntimeError):
    """No general-position embedding found within the retry budget."""


class ConstructionCheckFailed(RuntimeError):
    """The even construction missed f(n) regions or its splitter classes."""


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
    """A drawing's DegeneracyReport, each segment's proper crossing points and
    how many other segments each one meets; crossings and meets are None
    when adjacent corners coincide, since a collapsed segment has no pairs."""

    report: DegeneracyReport
    crossings: Optional[tuple[tuple[Point, ...], ...]]
    meets: Optional[tuple[int, ...]]


@functools.lru_cache(maxsize=1)
def pair_table(emb: CycleEmbedding) -> PairTable:
    """Classify the n(n-1)/2 segment pairs once; validation, subdivision and
    splitter analysis all read the table kept for the latest drawing."""
    n = emb.n
    corners = emb.corners
    coincident = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if corners[i] == corners[j]
    )
    # Coinciding adjacent corners collapse a segment entirely; nothing
    # further can be measured, so report just the coincidences.
    if any((j - i) % n in (1, n - 1) for i, j in coincident):
        return PairTable(DegeneracyReport(coincident_corners=coincident), None, None)

    segs = emb.segments()
    incidences = []
    for k in range(n):
        p = corners[k]
        for s in segs:
            if s.cycle_index in (k, (k - 1) % n):
                continue
            if p == s.a or p == s.b:
                continue  # that is a coincident-corner pair, reported above
            if point_on_segment(p, s):
                incidences.append((k, s.cycle_index))

    overlaps = []
    crossings_at: dict[Point, set[int]] = {}
    crossings: list[list[Point]] = [[] for _ in range(n)]
    meets = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            hit = segment_intersection(segs[i], segs[j])
            if hit.kind is not IntersectionKind.DISJOINT:
                meets[i] += 1
                meets[j] += 1
            if hit.kind is IntersectionKind.COLLINEAR_OVERLAP:
                overlaps.append((i, j))
            elif hit.kind is IntersectionKind.PROPER_CROSSING:
                crossings_at.setdefault(hit.point, set()).update((i, j))
                crossings[i].append(hit.point)
                crossings[j].append(hit.point)
    triples = tuple(
        (p, tuple(sorted(ids)))
        for p, ids in sorted(crossings_at.items(), key=lambda kv: (kv[0].x, kv[0].y))
        if len(ids) >= 3
    )
    report = DegeneracyReport(
        triple_points=triples,
        corner_incidences=tuple(incidences),
        collinear_overlaps=tuple(overlaps),
        coincident_corners=coincident,
    )
    return PairTable(report, tuple(map(tuple, crossings)), tuple(meets))


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


def _default_epsilon(scale: Scale) -> Fraction:
    return Fraction(scale) * Fraction(PERTURB_EPSILON_NUM, PERTURB_EPSILON_DEN)


def construct_odd(
    n: int,
    seed: int = 0,
    scale: Scale = 1,
    digits: int = DEFAULT_DIGITS,
) -> CycleEmbedding:
    """Maximal embedding for odd n: corners on a regular n-gon, with cycle
    position i visiting polygon vertex i*(n-1)/2 mod n.

    Every connection then crosses or touches all n-1 others, which is what
    forces the region count to its ceiling. The step (n-1)/2 is coprime to
    odd n, so the visit order is a bijection.
    """
    if n < 3 or n % 2 == 0:
        raise InvalidN(f"odd construction needs odd n >= 3, got {n}")
    poly = regular_polygon_points(n, scale, digits)
    step = (n - 1) // 2
    corners = tuple(poly[(i * step) % n] for i in range(n))
    emb = CycleEmbedding(n, corners)
    if not validate_general_position(emb).is_empty():
        emb = perturb(emb, _default_epsilon(scale), seed)
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


def construct_even_raw(
    n: int,
    gap: Optional[int] = None,
    scale: Scale = 1,
    digits: int = DEFAULT_DIGITS,
) -> CycleEmbedding:
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
    poly = regular_polygon_points(n + 1, scale, digits)
    corners = tuple(
        poly[label if label < gap else label + 1] for label in order
    )
    return CycleEmbedding(n, corners)


def construct_even(
    n: int,
    seed: int = 0,
    scale: Scale = 1,
    digits: int = DEFAULT_DIGITS,
) -> CycleEmbedding:
    """Maximal embedding for even n.

    Connect corner c to corner c + (n/2 - 1) for every c, then swap one of
    the resulting parallel pairs for a crossing pair; place the corners on
    a regular (n+1)-gon with the unused vertex between the two crossing
    connections, and perturb only if that placement is degenerate. The
    corners are in convex position, so every gap of construct_even_raw
    gives the same cyclic order and crossings. ConstructionCheckFailed is
    raised unless the result has f(n) regions, 2 splitters and n-2 one-off
    splitters.
    """
    from .arrangement import build_arrangement, splitter_analysis

    emb = construct_even_raw(n, scale=scale, digits=digits)
    if not validate_general_position(emb).is_empty():
        emb = perturb(emb, _default_epsilon(scale), seed)
    report = splitter_analysis(emb)
    got = (build_arrangement(emb).face_count, report.splitter_count, report.one_off_count)
    want = (f_max(n), 2, n - 2)
    if got != want:
        raise ConstructionCheckFailed(f"n={n}: (regions, splitters, one-offs) {got} != {want}")
    return emb


def construct(
    n: int,
    seed: int = 0,
    scale: Scale = 1,
    digits: int = DEFAULT_DIGITS,
) -> CycleEmbedding:
    """Maximal embedding for any n >= 3, dispatching on parity."""
    if n < 3:
        raise InvalidN(f"n must be at least 3, got {n}")
    if n % 2 == 0:
        return construct_even(n, seed, scale, digits)
    return construct_odd(n, seed, scale, digits)


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
