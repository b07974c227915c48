"""Closed forms for the maximal region count and the arrangement sizes
and splitter classes realised by the extremal constructions, and the
cycle order those constructions visit.

The cycle order is one step rule for both parities: running sums, mod n,
of steps of n // 2 and of n // 2 - 1 (see `construction_order`).

All values are exact integers computed with integer arithmetic only.

This leaf module also defines every exception class of the command line's
error contract, which `cli._exit_code` maps to exit codes, so reporting a
failure loads no other module of the package.
"""

import itertools

# Largest n the exact convex oracle accepts. n = 18, the slowest accepted
# n, visits 207,536 nodes in about 1.5 s (odd n prunes far better); n = 20
# visits 1,213,370 in about 10 s, seven times as long. Timed on Python
# 3.11, one core of a shared 2-vCPU Xeon (n = 18: eight runs, 1.2-1.8 s).
ORACLE_MAX_N = 19


class BadInput(ValueError):
    """Input from outside the program that a command refuses: an option,
    an argument or an embedding file."""


class InvalidN(BadInput):
    """Cycle length below 3 has no embedding with enclosed regions."""


class NTooLarge(BadInput):
    """Convex oracle refused: n is above ORACLE_MAX_N, past which the
    exact search takes more than a few seconds."""


class DegenerateInput(ValueError):
    """Embedding is not in general position; carries the full report."""

    def __init__(self, report):
        super().__init__(f"embedding is degenerate: {report.summary()}")
        self.report = report


class PerturbationFailed(RuntimeError):
    """No general-position embedding found within the retry budget."""


class ConstructionCheckFailed(RuntimeError):
    """A construction missed general position, max_crossings(n) or its splitter classes."""


def check_n(n: int, name: str = "n") -> None:
    """Raise InvalidN unless the cycle length n is an int (not a bool) of
    at least 3; the message calls it `name`."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidN(f"{name} must be an integer, got {n!r}")
    if n < 3:
        raise InvalidN(f"{name} must be at least 3, got {n}")


def check_count(value: int, name: str, least: int) -> None:
    """Raise BadInput unless the seed or trial count `name` is an int
    (not a bool) of at least `least`, which is 0 or 1. A seed's least is 0:
    random.Random seeds an int by its absolute value, so a seed of -s
    would silently repeat the run of s."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadInput(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise BadInput(f"{name} must be {'positive' if least else 'non-negative'}, got {value}")


def max_crossings(n: int) -> int:
    """Largest self-crossing count X of a straight-line n-cycle:
    n(n-3)/2 for odd n, n(n-4)/2 + 1 for even n (W. H. Furry and
    D. J. Kleitman, Stud. Appl. Math. 56, 1977).

    A general-position drawing with X crossings has V = n + X vertices,
    E = n + 2X edges (each crossing splits two segments) and so, by Euler,
    F = E - V + 1 = X + 1 bounded regions.
    """
    check_n(n)
    if n % 2 == 0:
        return n * (n - 4) // 2 + 1
    return n * (n - 3) // 2


def construction_splitters(n: int) -> tuple[int, int]:
    """(splitters, one-off splitters) of the maximal construction: a
    splitter meets all n-1 other segments, a one-off splitter n-2. Every
    segment of the odd construction is a splitter; the even one has 2
    splitters and n-2 one-off splitters."""
    check_n(n)
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


def construction_order(n: int) -> list[int]:
    """The polygon vertices `embedding.construct(n)` visits, in cycle order:
    the running sums, mod n, of one step list starting at corner 0, with
    h = n // 2 and s = h - 1.

    Odd n steps h, n - 1 times, around a regular n-gon; h is coprime to n,
    so every connection crosses or touches all n - 1 others. Even n steps
    h, then -s (h - 1 times), then h, then +s (h - 2 times), and the step
    that closes the cycle is +s too. Its connections are every {c, c + s}
    except the parallel pair {0, s}, {h, n - 1}, which the crossing pair
    {0, h}, {s, n - 1} replaces; the corners sit on n of the n + 1
    vertices of a regular (n + 1)-gon. Both orders reach `max_crossings(n)`
    on a circle."""
    check_n(n)
    h = n // 2
    s = h - 1
    steps = [h] * (n - 1) if n % 2 else [h] + [-s] * s + [h] + [s] * (h - 2)
    return [total % n for total in itertools.accumulate(steps, initial=0)]
