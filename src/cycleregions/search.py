"""The exact convex-position oracle, an independent check on the
region-count ceiling.

For corners in convex position the region count is fully combinatorial
(1 + number of interleaving connection pairs), so n up to 19 is
settled exactly by a branch and bound over cycle orders, pruned with the
side-switch bound behind the Furry-Kleitman crossing maximum. The random
placements that probe the non-convex territory the closed-form ceiling
also covers are in `probes`; `random_search` imports it when it runs, so
the oracle compiles none of the probe code and loads neither `random`
nor `pairs`.
"""

import bisect
import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .formulas import ORACLE_MAX_N, NTooLarge, check_n, construction_order

if TYPE_CHECKING:
    from .embedding import CycleEmbedding


class _CyclicPermutationFields(NamedTuple):
    order: tuple[int, ...]


class CyclicPermutation(_CyclicPermutationFields):
    """A cycle order in canonical form: starts at 0 and is the
    lexicographically smaller of itself and its reversal."""

    __slots__ = ()

    def __new__(cls, order: Sequence[int]) -> "CyclicPermutation":
        order = tuple(order)
        n = len(order)
        if n < 3:
            raise ValueError(f"cycle order needs at least 3 labels, got {n}")
        if sorted(order) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
        if order[0] != 0 or order[1] > order[-1]:
            raise ValueError(f"not in canonical form: {order}")
        return super().__new__(cls, order)

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


class OracleResult(NamedTuple):
    n: int
    max_regions: int
    witness: CyclicPermutation
    evaluated_count: int  # cycle orders covered, pruned ones included
    nodes_visited: int  # prefixes the branch and bound entered, leaves included
    nodes_pruned: int  # prefixes whose subtree the bound skipped


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


def _chord_cap(n: int, a: int, b: int) -> int:
    # Crossings a chord between circle positions a and b can have in any
    # cycle. The rest of the cycle is a path through the other n-2 labels,
    # `inside` of them on one side of the chord and `outside` on the
    # other, and each crossing is a switch of side. A sequence switches at
    # most 2*min(inside, outside) times, and 2*inside - 1 times when the
    # two are equal.
    inside = abs(a - b) - 1
    outside = n - 2 - inside
    return 2 * min(inside, outside) - (inside == outside)


def _bound(n: int, crossings: int, cap_sum: int, u: int) -> int:
    """Most crossings any completion of a prefix can reach.

    The prefix's chords have `crossings` among themselves and caps that
    sum to `cap_sum`; `u` chords are still to place, the closing one
    included. Each of those crosses at most n-3 others. A crossing between
    a placed and an unplaced chord uses up one unit of the placed chord's
    slack (cap minus crossings so far, summing to cap_sum - 2*crossings).
    The unplaced chords form a path, whose u-1 consecutive pairs share an
    endpoint, so they cross each other at most (u-1)(u-2)/2 times."""
    return crossings + min(
        u * (n - 3), cap_sum - 2 * crossings + (u - 1) * (u - 2) // 2
    )


def _chord_table(n: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Every chord between circle positions 0..n-1 as an integer id.

    Returns `ids` with `ids[a][b] == ids[b][a]` the id of chord {a, b},
    `cross[id]`, the bitmask of the chord ids that interleave with it and
    share no endpoint, and `cap[id]`, its `_chord_cap`."""
    ids = [[-1] * n for _ in range(n)]
    chords = []
    for a in range(n):
        for b in range(a + 1, n):
            ids[a][b] = ids[b][a] = len(chords)
            chords.append((a, b))
    cross = [0] * len(chords)
    for k, (a, b) in enumerate(chords):
        # {c, d} interleaves with {a, b}, a < b, when exactly one of c, d
        # lies strictly between a and b; neither may equal a or b.
        for c in range(a + 1, b):
            for d in (*range(b + 1, n), *range(a)):
                cross[k] |= 1 << ids[c][d]
    cap = [_chord_cap(n, a, b) for a, b in chords]
    return ids, cross, cap


def oracle_max_regions_convex(n: int) -> OracleResult:
    """Exact maximum over all (n-1)!/2 cycle orders in convex position:
    the best region count 1 + max crossings, with its lexicographically
    smallest witness.

    A depth-first branch and bound extends the order one label at a time
    in lexicographic order and skips a subtree whose `_bound` cannot beat
    the incumbent. The placed chords travel down as a bitmask, so a new
    chord's crossings are its `_chord_table` row masked by them. The
    incumbent starts one below the crossings of `construct(n)`'s own
    order, a real leaf, so a witness always exists, and only a strict
    improvement replaces it. `evaluated_count` counts the orders covered,
    pruned ones included, and is always (n-1)!/2. An n that is not an
    integer of at least 3 raises InvalidN, and one above ORACLE_MAX_N
    NTooLarge before any order is built."""
    check_n(n)
    if n > ORACLE_MAX_N:
        raise NTooLarge(
            f"n={n} exceeds the oracle's limit {ORACLE_MAX_N}; "
            "larger n take too long to search exactly"
        )
    best = _crossing_count(construction_order(n)) - 1
    ids, cross, caps = _chord_table(n)
    witness: tuple[int, ...] = ()
    evaluated = visited = pruned = 0

    def extend(
        order: list[int], free: list[int], crossings: int, cap_sum: int, placed: int
    ) -> None:
        # `order` holds the placed labels (at least 0 and order[1] once
        # past the root), `free` the others in increasing order, and the
        # bits of `placed` the ids of the chords between them.
        nonlocal best, witness, evaluated, visited, pruned
        visited += 1
        row = ids[order[-1]]
        u = len(free)  # chords to place after x's, the closing one included
        for i, x in enumerate(free):
            rest = free[:i] + free[i + 1 :]
            first = order[1] if len(order) > 1 else x
            if rest and rest[-1] < first:
                continue  # every completion ends below order[1]: a reversal
            k = row[x]
            c = crossings + (cross[k] & placed).bit_count()
            if not rest:
                visited += 1
                evaluated += 1
                c += (cross[ids[x][0]] & (placed | 1 << k)).bit_count()
                if c > best:
                    best = c
                    witness = (*order, x)
                continue
            cap = cap_sum + caps[k]
            if _bound(n, c, cap, u) <= best:
                pruned += 1
                # Each label of the increasing `rest` above `first` may end a
                # canonical completion, the others in any of (r-1)! orders.
                above = len(rest) - bisect.bisect(rest, first)
                evaluated += above * math.factorial(len(rest) - 1)
                continue
            extend([*order, x], rest, c, cap, placed | 1 << k)

    extend([0], list(range(1, n)), 0, 0, 0)
    return OracleResult(
        n, best + 1, CyclicPermutation(witness), evaluated, visited, pruned
    )


def random_search(n: int, trials: int, seed: int = 0) -> "tuple[int, CycleEmbedding]":
    """`best_region_count(n, trials, seed)` with the drawing it counted as
    a CycleEmbedding, so a repaired draw is not repaired again.

    Deterministic for identical (n, trials, seed); trials below 1, a seed
    below 0, or either not an int raises ValueError.
    """
    from .probes import best_region_count

    best, corners, den = best_region_count(n, trials, seed)
    from .embedding import CycleEmbedding

    return best, CycleEmbedding(n, corners, den)
