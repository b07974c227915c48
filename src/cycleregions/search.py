"""Independent checks on the region-count ceiling: an exhaustive
convex-position oracle and randomized geometric probing.

For corners in convex position the region count is fully combinatorial
(1 + number of interleaving connection pairs), so small n can be settled
by brute force over cycle orders; random placements then probe the
non-convex territory the closed-form ceiling also covers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .arrangement import (
    DegenerateInput,
    build_arrangement,
    region_count_euler,
    splitter_analysis,
)
from .embedding import CycleEmbedding, construct_even, perturb, validate_general_position
from .formulas import InvalidN, f_max
from .geometry import Point

ORACLE_MAX_N = 11  # (n-1)!/2 cycle orders; 11 keeps that below two million

COORD_RANGE = 10**6  # random placements draw integer grid coordinates here


class NTooLarge(ValueError):
    """Exhaustive oracle refused: the cycle-order space is too big."""


@dataclass(frozen=True)
class CyclicPermutation:
    """A cycle order in canonical form: starts at 0 and is the
    lexicographically smaller of itself and its reversal."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        n = len(self.order)
        if n < 3:
            raise ValueError(f"cycle order needs at least 3 labels, got {n}")
        if sorted(self.order) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.order}")
        if self.order[0] != 0 or self.order[1] > self.order[-1]:
            raise ValueError(f"not in canonical form: {self.order}")

    @classmethod
    def canonical(cls, seq: Sequence[int]) -> "CyclicPermutation":
        """Canonicalise any cycle order: rotate to start at 0, then take
        the smaller of the rotation and its reversal."""
        seq = list(seq)
        n = len(seq)
        if sorted(seq) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {seq}")
        k = seq.index(0)
        fwd = tuple(seq[(k + i) % n] for i in range(n))
        rev = (0,) + fwd[1:][::-1]
        return cls(min(fwd, rev))


@dataclass(frozen=True)
class OracleResult:
    n: int
    max_regions: int
    witness: CyclicPermutation
    evaluated_count: int


def _crossing_count(order: Sequence[int]) -> int:
    # Labels are positions on a circle; two connections cross exactly when
    # their endpoint pairs interleave. Connections sharing an endpoint are
    # the neighbours i-1 and i+1 of connection i and never count, so each
    # i is paired only with i+2 .. n-1, stopping before n-1 when i = 0.
    n = len(order)
    chords = [
        (a, b) if a < b else (b, a) for a, b in zip(order, (*order[1:], order[0]))
    ]
    count = 0
    for i, (lo1, hi1) in enumerate(chords):
        for lo2, hi2 in chords[i + 2 : n - 1 if i == 0 else n]:
            if (lo1 < lo2 < hi1) != (lo1 < hi2 < hi1):
                count += 1
    return count


def crossing_count_convex(perm: CyclicPermutation) -> int:
    """Pairwise crossings of the cycle's connections when the labels sit
    in this circular order on a convex curve."""
    return _crossing_count(perm.order)


def oracle_max_regions_convex(n: int) -> OracleResult:
    """Exhaust all (n-1)!/2 cycle orders in convex position and report the
    best region count 1 + max crossings, with its first (and therefore
    lexicographically smallest) witness."""
    if n < 3:
        raise InvalidN(f"n must be at least 3, got {n}")
    if n > ORACLE_MAX_N:
        raise NTooLarge(f"n={n} exceeds the exhaustive bound {ORACLE_MAX_N}")
    best = -1
    witness: tuple[int, ...] = ()
    evaluated = 0
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue  # reversal already visited
        order = (0,) + rest
        evaluated += 1
        c = _crossing_count(order)
        if c > best:
            best = c
            witness = order
    return OracleResult(n, best + 1, CyclicPermutation(witness), evaluated)


def _random_distinct_points(rng: random.Random, n: int) -> list[Point]:
    pts: list[Point] = []
    seen = set()
    while len(pts) < n:
        xy = (rng.randint(0, COORD_RANGE), rng.randint(0, COORD_RANGE))
        if xy in seen:
            continue
        seen.add(xy)
        pts.append(Point(Fraction(xy[0]), Fraction(xy[1])))
    return pts


def _random_cycle_order(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple([0] + rng.sample(range(1, n), n - 1))


def _count_regions(emb: CycleEmbedding, repair_seed: int) -> tuple[int, CycleEmbedding]:
    if not validate_general_position(emb).is_empty():
        emb = perturb(emb, Fraction(1), repair_seed)
    return region_count_euler(build_arrangement(emb)), emb


def random_search(n: int, trials: int, seed: int = 0) -> tuple[int, CycleEmbedding]:
    """Probe `trials` seeded random placements, counting regions for the
    fixed order 0..n-1 and for one random cycle order per placement, and
    return the best (region_count, embedding) found.

    Deterministic for identical (n, trials, seed). Degenerate samples are
    nudged into general position before counting.
    """
    if n < 3:
        raise InvalidN(f"n must be at least 3, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    best_count = -1
    best_emb: CycleEmbedding | None = None
    identity = tuple(range(n))
    for trial in range(trials):
        pts = _random_distinct_points(rng, n)
        for order in (identity, _random_cycle_order(rng, n)):
            emb = CycleEmbedding(n, tuple(pts[lbl] for lbl in order))
            count, emb = _count_regions(emb, rng.getrandbits(32))
            if count > best_count:
                best_count = count
                best_emb = emb
    assert best_emb is not None
    return best_count, best_emb


def splitter_bound_check(n: int, trials: int, seed: int = 0) -> int:
    """Maximum splitter count observed over the even-n construction plus
    `trials` random placements with random cycle orders.

    For even n no embedding has more than two splitters; this returns the
    largest count seen so the caller can assert the bound.
    """
    if n < 4 or n % 2 == 1:
        raise InvalidN(f"splitter bound applies to even n >= 4, got {n}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    best = splitter_analysis(construct_even(n, seed)).splitter_count
    rng = random.Random(seed)
    for trial in range(trials):
        pts = _random_distinct_points(rng, n)
        order = _random_cycle_order(rng, n)
        emb = CycleEmbedding(n, tuple(pts[lbl] for lbl in order))
        try:
            report = splitter_analysis(emb)
        except DegenerateInput:
            continue  # collinear overlap: vanishing probability, skip the draw
        best = max(best, report.splitter_count)
    return best
