"""Closed forms for the maximal region count and the arrangement sizes
and splitter classes realised by the extremal constructions, and the
cycle order those constructions visit.

All values are exact integers computed with integer arithmetic only.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

# Largest n the exact convex oracle accepts. n = 18, the slowest accepted
# n, takes about 2.5 s (odd n prunes far better); n = 20 takes about six
# times as long.
ORACLE_MAX_N = 19


class InvalidN(ValueError):
    """Cycle length below 3 has no embedding with enclosed regions."""


class ConstructionNotACycle(RuntimeError):
    """The even construction's segment set failed to form one n-cycle."""


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidN(f"n must be an integer, got {n!r}")
    if n < 3:
        raise InvalidN(f"n must be at least 3, got {n}")


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class _ParityCaseFields(NamedTuple):
    n: int
    parity: Parity


class ParityCase(_ParityCaseFields):
    """A cycle length together with its parity tag."""

    __slots__ = ()

    def __new__(cls, n: int, parity: Parity) -> "ParityCase":
        _check_n(n)
        expected = Parity.EVEN if n % 2 == 0 else Parity.ODD
        if parity is not expected:
            raise ValueError(f"parity tag {parity} does not match n={n}")
        return super().__new__(cls, n, parity)

    @classmethod
    def of(cls, n: int) -> "ParityCase":
        _check_n(n)
        return cls(n, Parity.EVEN if n % 2 == 0 else Parity.ODD)


def max_crossings(n: int) -> int:
    """Largest self-crossing count X of a straight-line n-cycle:
    n(n-3)/2 for odd n, n(n-4)/2 + 1 for even n (W. H. Furry and
    D. J. Kleitman, Stud. Appl. Math. 56, 1977).

    A general-position drawing with X crossings has V = n + X vertices,
    E = n + 2X edges (each crossing splits two segments) and so, by Euler,
    F = E - V + 1 = X + 1 bounded regions.
    """
    _check_n(n)
    if n % 2 == 0:
        return n * (n - 4) // 2 + 1
    return n * (n - 3) // 2


def construction_splitters(n: int) -> tuple[int, int]:
    """(splitters, one-off splitters) of the maximal construction: a
    splitter meets all n-1 other segments, a one-off splitter n-2. Every
    segment of the odd construction is a splitter; the even one has 2
    splitters and n-2 one-off splitters."""
    _check_n(n)
    if n % 2 == 0:
        return 2, n - 2
    return n, 0


def f_max(n: int) -> int:
    """Largest number of bounded regions a straight-line embedding of an
    n-cycle can enclose.

    n even: n^2/2 - 2n + 2.  n odd: n^2/2 - 3n/2 + 1 = (n-1)(n-2)/2.
    """
    return max_crossings(n) + 1


def predicted_vertices(n: int) -> int:
    """Arrangement vertex count (corners plus crossings) of the maximal
    construction for cycle length n."""
    return n + max_crossings(n)


def predicted_edges(n: int) -> int:
    """Arrangement edge count of the maximal construction for cycle
    length n."""
    return n + 2 * max_crossings(n)


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


def construction_order(n: int) -> list[int]:
    """The polygon vertices `embedding.construct(n)` visits, in cycle order.

    Odd n steps (n-1)/2 around a regular n-gon; the step is coprime to n,
    so every connection crosses or touches all n-1 others. Even n connects
    corner c to corner c + (n/2 - 1) and swaps one of the resulting
    parallel pairs for a crossing pair (`_even_cycle_order`), on n of the
    n+1 vertices of a regular (n+1)-gon. Both orders reach
    `max_crossings(n)` on a circle."""
    if n % 2:
        return [(i * ((n - 1) // 2)) % n for i in range(n)]
    return _even_cycle_order(n)
