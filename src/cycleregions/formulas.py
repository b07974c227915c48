"""Closed forms for the maximal region count and the arrangement sizes
and splitter classes realised by the extremal constructions.

All values are exact integers computed with integer arithmetic only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class InvalidN(ValueError):
    """Cycle length below 3 has no embedding with enclosed regions."""


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidN(f"n must be an integer, got {n!r}")
    if n < 3:
        raise InvalidN(f"n must be at least 3, got {n}")


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class ParityCase:
    """A cycle length together with its parity tag."""

    n: int
    parity: Parity

    def __post_init__(self) -> None:
        _check_n(self.n)
        expected = Parity.EVEN if self.n % 2 == 0 else Parity.ODD
        if self.parity is not expected:
            raise ValueError(f"parity tag {self.parity} does not match n={self.n}")

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
