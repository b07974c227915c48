"""Cycle embeddings: corner placements, the extremal construction, the
pair table behind general-position validation, deterministic perturbation,
and the text file format, read and written as ASCII bytes.

An embedding is the full description of a drawing: n corners in cycle
order, with segment i joining corner i to corner (i+1) mod n. A segment
has no record of its own; every reader takes it as that pair of corners.
Corners are integer pairs over one common denominator, so a drawing is
exact rationals and degeneracy detection is a decision, not a tolerance.
`pair_table` returns the corners' `pairs.PairClasses`, whose one pass over
the segment pairs in integer arithmetic classifies every pair, touches and
overlaps included, and finds every corner that lies inside another
segment. Perturbation and the file format are integer arithmetic too, so
this module loads no `fractions`; the `Fraction` predicates of `geometry`
are not needed to draw, count or check a drawing. The `DegeneracyReport`
of a refused drawing, triple points included, is built in integers by
`degeneracy`, which `validate_general_position` loads when it is called,
so a command whose drawing is accepted compiles no report code.
"""

import math
import random
import re
from typing import Iterable, NamedTuple

from .formulas import (
    BadInput, ConstructionCheckFailed, InvalidN, PerturbationFailed, check_count, check_n,
    construction_order, construction_splitters, max_crossings,
)
from .pairs import PairClasses, classify_pairs

# Decimal digits of each unit-circle polygon coordinate.
POLYGON_DIGITS = 12
PERTURB_RETRIES = 64
# Denominator bound for the random offsets drawn inside perturb().
_OFFSET_GRID = 10**6
# The file format's only spellings of a count and of a coordinate. They
# are strings, not compiled patterns: `re.fullmatch` compiles each on the
# first parse and caches it, so a command that reads no file compiles none.
_COUNT = "[0-9]+"
_RATIONAL = "(-?[0-9]+)/([0-9]+)"


class _CycleEmbeddingFields(NamedTuple):
    n: int
    corners: tuple[tuple[int, int], ...]
    den: int


class CycleEmbedding(_CycleEmbeddingFields):
    """n corners in cycle order; segment i joins corner i to corner i+1
    (indices mod n). Corner k is (x / den, y / den) for (x, y) = corners[k].
    A factor that den shares with every coordinate is divided out, so den
    is the lcm of the coordinates' lowest-terms denominators whatever
    common denominator they were given over: a prime power that exactly
    divides that lcm divides some coordinate's lowest-terms denominator,
    and so not its numerator. A coordinate that is not an int, or is a
    bool, raises BadInput."""

    __slots__ = ()

    def __new__(cls, n: int, corners: Iterable[tuple[int, int]], den: int = 1) -> "CycleEmbedding":
        check_n(n, "cycle length")
        check_count(den, "denominator", 1)
        corners = tuple((x, y) for x, y in corners)
        if len(corners) != n:
            raise ValueError(f"expected {n} corners, got {len(corners)}")
        coords = [c for p in corners for c in p]
        for c in coords:
            if not isinstance(c, int) or isinstance(c, bool):
                raise BadInput(f"corner coordinate must be an integer, got {c!r}")
        g = math.gcd(den, *coords)
        if g > 1:
            den //= g
            corners = tuple((x // g, y // g) for x, y in corners)
        return super().__new__(cls, n, corners, den)


_latest: list = [None, None]  # the latest drawing and its pair table


def pair_table(emb: CycleEmbedding) -> PairClasses:
    """The `pairs.PairClasses` of the drawing: its n(n-1)/2 segment pairs
    classified once, from its integer corners over their one denominator.
    Validation, subdivision, the face walk and splitter analysis all read
    the classes kept for the latest drawing, recognised by identity.
    """
    if emb is not _latest[0]:
        _latest[:] = emb, classify_pairs(emb.corners)
    return _latest[1]


def validate_general_position(emb: CycleEmbedding):
    """The `degeneracy.DegeneracyReport` of every degeneracy of an
    embedding, read from its pair table, whose one pass over the segment
    pairs finds them all but coincident corners.

    General position means: corners pairwise distinct, no corner interior
    to a non-incident segment, no collinear overlapping segments, and no
    point where three or more segments cross. The report is built, and
    `degeneracy` loaded, only when this is called, which the commands do
    only for a drawing they refuse.
    """
    from .degeneracy import general_position_report

    return general_position_report(emb, pair_table(emb))


def perturb(emb: CycleEmbedding, epsilon, seed: int = 0) -> CycleEmbedding:
    """Displace every corner by a deterministic seeded rational offset of
    magnitude at most epsilon, retrying with fresh offsets until the result
    is in general position, that is, until its pair table is not `degenerate`.

    Identical (emb, epsilon, seed) always yields the identical embedding.
    Raises PerturbationFailed after PERTURB_RETRIES failed attempts, and
    ValueError before the first for a seed that `check_count` rejects or
    an epsilon that is not a positive int or a positive rational with int
    numerator and denominator, such as a Fraction: a float or a bool is not.
    """
    ratio = (getattr(epsilon, "numerator", None), getattr(epsilon, "denominator", None))
    if isinstance(epsilon, bool) or not all(isinstance(v, int) and v > 0 for v in ratio):
        raise ValueError(f"epsilon must be a positive int or rational, got {epsilon!r}")
    check_count(seed, "seed", 0)
    # A step r in [-g, g] moves a coordinate x / emb.den by epsilon * r / (2g),
    # to (x * unit + step * r) / (emb.den * unit), and a corner by <= epsilon.
    (num, den), g = ratio, _OFFSET_GRID
    unit, step = den * 2 * g, num * emb.den
    for attempt in range(PERTURB_RETRIES):
        rng = random.Random(seed * (1 << 32) + attempt)
        moved = [
            (x * unit + step * rng.randint(-g, g), y * unit + step * rng.randint(-g, g))
            for x, y in emb.corners
        ]
        candidate = CycleEmbedding(emb.n, moved, emb.den * unit)
        if not pair_table(candidate).degenerate:
            return candidate
    raise PerturbationFailed(
        f"no general-position embedding within {PERTURB_RETRIES} attempts "
        f"(epsilon={epsilon}, seed={seed})"
    )


def regular_polygon_points(k: int) -> list[tuple[int, int]]:
    """The k vertices of the regular k-gon inscribed in the unit circle,
    counterclockwise from the positive x axis, as integer pairs over
    10**POLYGON_DIGITS.

    Each coordinate is cos/sin of 2*pi*j/k rounded to POLYGON_DIGITS = 12
    decimal digits, which moves it by at most half of 10**-12. Two vertices
    lie at least 2*sin(pi/k) apart, and two that round to one point lie
    less than sqrt(2) * 10**-12 apart, so the k points are distinct for
    every k up to 4 * 10**12. A k that is not an int of at least 3 raises
    InvalidN.
    """
    check_n(k, "polygon vertex count")
    unit = 10**POLYGON_DIGITS
    angles = (2.0 * math.pi * j / k for j in range(k))
    return [(round(math.cos(a) * unit), round(math.sin(a) * unit)) for a in angles]


def _place(n: int) -> CycleEmbedding:
    # construction_order checks n. Even n leaves vertex n of the
    # (n+1)-gon unused, between labels n-1 and 0, which is between the
    # endpoints of the two crossing connections.
    order = construction_order(n)
    poly = regular_polygon_points(n if n % 2 else n + 1)
    return CycleEmbedding(n, (poly[v] for v in order), 10**POLYGON_DIGITS)


def construct(n: int) -> CycleEmbedding:
    """Maximal embedding for any n >= 3: `construction_order(n)` on a
    regular polygon, checked and never repaired.

    The polygon is the n-gon for odd n and the (n+1)-gon for even n. No
    three diagonals of an odd regular polygon meet at an interior point
    (B. Poonen and M. Rubinstein, SIAM J. Discrete Math. 11, 1998), but the
    corners are rounded, so ConstructionCheckFailed is raised unless the
    pair table is not `degenerate` and has max_crossings(n) crossings (so
    f(n) regions, the corners being convex) and the splitter classes
    `construction_splitters(n)`. An n that is not an integer of at least 3
    raises InvalidN.
    """
    emb = _place(n)
    table = pair_table(emb)
    got = (table.degenerate, len(table.signs), table.splitter_count, table.one_off_count)
    want = (False, max_crossings(n), *construction_splitters(n))
    if got != want:
        raise ConstructionCheckFailed(
            f"n={n}: (degenerate, crossings, splitters, one-offs) {got} != {want}"
        )
    return emb


def construct_odd(n: int) -> CycleEmbedding:
    """construct(n) for odd n >= 3."""
    check_n(n)
    if n % 2 == 0:
        raise InvalidN(f"odd construction needs odd n >= 3, got {n}")
    return construct(n)


def construct_even(n: int) -> CycleEmbedding:
    """construct(n) for even n >= 4."""
    check_n(n)
    if n % 2 == 1:
        raise InvalidN(f"even construction needs even n >= 4, got {n}")
    return construct(n)


def format_embedding(emb: CycleEmbedding) -> str:
    """Serialise to the embedding text format.

    One header line `n <int>`, then n lines `corner <px>/<qx> <py>/<qy>`
    with exact lowest-terms rationals. parse_embedding inverts this
    bit-exactly.
    """
    lines = [f"n {emb.n}"]
    den = emb.den
    for x, y in emb.corners:
        gx, gy = math.gcd(x, den), math.gcd(y, den)
        lines.append(f"corner {x // gx}/{den // gx} {y // gy}/{den // gy}")
    return "\n".join(lines) + "\n"


def _parse_rational(tok: str) -> tuple[int, int]:
    """The coordinate's numerator and denominator in lowest terms.

    Reducing each coordinate as it is read costs one gcd of its own two
    numbers. The file's common denominator is then the lcm of lowest-terms
    denominators, the drawing's own. Over the spelled denominators it
    would be that times the product of their distinct unneeded factors,
    which `CycleEmbedding` divides back out, so a file that spells small
    values over huge unreduced denominators would take time quadratic in
    its length."""
    match = re.fullmatch(_RATIONAL, tok)
    if match is None:
        raise ValueError(f"coordinate {tok!r} is not of the form p/q")
    num, den = int(match[1]), int(match[2])
    if den == 0:
        raise ValueError(f"bad coordinate {tok!r}: zero denominator")
    g = math.gcd(num, den)
    return num // g, den // g


def parse_embedding(text: str) -> CycleEmbedding:
    """Parse the embedding text format; raises ValueError on any
    malformed content.

    The count is ASCII digits and each coordinate is `-?[0-9]+/[0-9]+`
    with a denominator of at least 1. Other spellings `int()` would take,
    such as `+1`, `1_0` or `1/-1`, are rejected. A coordinate need not be
    in lowest terms; the embedding is the same drawing either way."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty embedding document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"expected header 'n <int>', got {lines[0]!r}")
    if not re.fullmatch(_COUNT, head[1]):
        raise ValueError(f"bad cycle length {head[1]!r}")
    n = int(head[1])
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} corner lines, got {len(lines) - 1}")
    coords = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3 or toks[0] != "corner":
            raise ValueError(f"expected 'corner <p/q> <p/q>', got {ln!r}")
        coords += map(_parse_rational, toks[1:])
    den = math.lcm(*(q for _, q in coords))
    xs = [p * (den // q) for p, q in coords]
    return CycleEmbedding(n, zip(xs[::2], xs[1::2]), den)


def save_embedding(emb: CycleEmbedding, path: str) -> None:
    """Write the embedding's text format to path as ASCII bytes, with
    `\n` line ends on every platform."""
    with open(path, "wb") as fh:
        fh.write(format_embedding(emb).encode("ascii"))


def load_embedding(path: str) -> CycleEmbedding:
    """Read and parse an embedding file. Any ValueError on the way, such as
    a non-ASCII byte or a number past `int`'s digit limit, is raised as
    BadInput with the same message.

    The file is read as bytes and decoded by `bytes.decode("ascii")`, which
    needs no codec lookup, where a text-mode `open` would import
    `encodings.ascii`. `parse_embedding` splits lines at `\n`, `\r\n` and
    a lone `\r` alike, as text mode's newline translation did."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_embedding(data.decode("ascii"))
    except BadInput:
        raise
    except ValueError as exc:
        raise BadInput(str(exc)) from exc
