"""Randomized geometric probing of the region-count ceiling and of the
even-n splitter bound, beyond the convex position the oracle in `search`
settles exactly.

A random placement has integer corners, and in general position it
encloses crossings + 1 regions, so the probes count regions and
splitters with `pairs.classify_pairs` alone. Only the repair of a
degenerate draw by `embedding.perturb`, which runs once per draw, loads
`embedding`; the splitter bound never does. No command but `search`
loads this module, and it never loads the oracle.
"""

import random

from .formulas import InvalidN, check_count, check_n, construction_splitters

COORD_RANGE = 10**6  # random placements draw integer grid coordinates here


def _random_corners(rng: random.Random, n: int) -> list[tuple[int, int]]:
    corners: list[tuple[int, int]] = []
    seen = set()
    while len(corners) < n:
        xy = (rng.randint(0, COORD_RANGE), rng.randint(0, COORD_RANGE))
        if xy in seen:
            continue
        seen.add(xy)
        corners.append(xy)
    return corners


def _random_cycle_order(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple([0] + rng.sample(range(1, n), n - 1))


def best_region_count(
    n: int, trials: int, seed: int = 0
) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """Probe `trials` seeded random placements, counting regions for the
    fixed order 0..n-1 and for one random cycle order per placement, and
    return the best count with the drawing it counted: its integer corners
    in cycle order and their denominator.

    A general-position draw encloses crossings + 1 regions, read from its
    `classify_pairs` in integers, and its denominator is 1. A degenerate
    draw is repaired once, by `embedding.perturb`, which loads `embedding`;
    it is counted from the repaired drawing's pair table, and those are the
    corners and denominator returned. Deterministic for identical
    (n, trials, seed); trials below 1, a seed below 0, or either not an
    int raises ValueError.
    """
    check_n(n)
    check_count(trials, "trials", 1)
    check_count(seed, "seed", 0)
    from .pairs import classify_pairs

    rng = random.Random(seed)
    best = (-1, (), 1)
    identity = tuple(range(n))
    for trial in range(trials):
        pts = _random_corners(rng, n)
        for order in (identity, _random_cycle_order(rng, n)):
            corners = tuple(pts[lbl] for lbl in order)
            repair_seed = rng.getrandbits(32)
            pairs = classify_pairs(corners)
            den = 1
            if pairs.degenerate:
                from .embedding import CycleEmbedding, pair_table, perturb

                emb = perturb(CycleEmbedding(n, corners), 1, repair_seed)
                corners, den, pairs = emb.corners, emb.den, pair_table(emb)
            count = len(pairs.signs) + 1
            if count > best[0]:
                best = (count, corners, den)
    return best


def splitter_bound_check(n: int, trials: int, seed: int = 0) -> int:
    """Maximum splitter count observed over the even-n construction plus
    `trials` random placements with random cycle orders.

    For even n no embedding has more than two splitters; this returns the
    largest count seen so the caller can assert the bound. The construction
    counts as `construction_splitters(n)[0]`, the value `construct`'s
    post-check holds it to, so only the random draws are classified, each
    by `classify_pairs` in integers. trials and seed must be ints of at
    least 0, or ValueError is raised.
    """
    check_n(n)
    if n % 2 == 1:
        raise InvalidN(f"splitter bound applies to even n >= 4, got {n}")
    check_count(trials, "trials", 0)
    check_count(seed, "seed", 0)
    from .pairs import classify_pairs

    best = construction_splitters(n)[0]
    rng = random.Random(seed)
    for trial in range(trials):
        pts = _random_corners(rng, n)
        order = _random_cycle_order(rng, n)
        pairs = classify_pairs(tuple(pts[lbl] for lbl in order))
        # The corners are distinct, so meets is never None.
        if pairs.overlaps:
            continue  # collinear overlap: vanishing probability, skip the draw
        best = max(best, pairs.splitter_count)
    return best
