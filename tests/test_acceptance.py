"""Acceptance suite: one test per shipping criterion, each printing a
single pass/fail line. Run with `pytest -v -s tests/test_acceptance.py`
to see the lines as they happen.
"""

import random
import time
from fractions import Fraction

from cycleregions.arrangement import (
    build_arrangement,
    region_count_euler,
    region_count_traversal,
    splitter_analysis,
)
from cycleregions.commands.verify import verify_rows
from cycleregions.embedding import (
    CycleEmbedding,
    _place,
    construct,
    construct_even,
    construct_odd,
    format_embedding,
    parse_embedding,
    perturb,
    validate_general_position,
)
from cycleregions.formulas import f_max, predicted_edges, predicted_vertices
from cycleregions.render import RenderOptions, to_svg
from cycleregions.probes import splitter_bound_check
from cycleregions.search import oracle_max_regions_convex, random_search


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_closed_forms():
    ok = f_max(3) == 1 and f_max(4) == 2
    for n in range(3, 21):
        if n % 2 == 0:
            expected = Fraction(1, 2) * n * n - 2 * n + 2
        else:
            expected = Fraction(1, 2) * n * n - Fraction(3, 2) * n + 1
        ok = ok and expected.denominator == 1 and f_max(n) == expected
    report(1, ok, "f_max matches the exact closed forms for n = 3..20")


def test_criterion_2_odd_constructions():
    start = time.monotonic()
    ok = True
    for n in range(3, 16, 2):
        emb = construct_odd(n)
        arr = build_arrangement(emb)
        ok = ok and arr.vertex_count == predicted_vertices(n)
        ok = ok and arr.edge_count == predicted_edges(n)
        ok = ok and arr.face_count == f_max(n)
        ok = ok and splitter_analysis(emb).splitter_count == n
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(2, ok, f"odd n in [3,15]: exact V/E/F and all-splitter status in {elapsed:.2f}s (< 10s)")


def test_criterion_3_even_constructions():
    start = time.monotonic()
    ok = True
    for n in range(4, 15, 2):
        emb = construct_even(n)
        arr = build_arrangement(emb)
        rep = splitter_analysis(emb)
        ok = ok and arr.vertex_count == predicted_vertices(n)
        ok = ok and arr.edge_count == predicted_edges(n)
        ok = ok and arr.face_count == f_max(n)
        ok = ok and rep.splitter_count == 2 and rep.one_off_count == n - 2
    four = build_arrangement(construct_even(4))
    ok = ok and (four.vertex_count, four.edge_count, four.face_count) == (5, 6, 2)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(3, ok, f"even n in [4,14]: exact V/E/F, 2 splitters and n-2 one-offs in {elapsed:.2f}s (< 30s)")


def _random_general_position_embedding(rng: random.Random, n: int) -> CycleEmbedding:
    pts = []
    seen = set()
    while len(pts) < n:
        xy = (rng.randint(0, 10**6), rng.randint(0, 10**6))
        if xy not in seen:
            seen.add(xy)
            pts.append(xy)
    order = [0] + rng.sample(range(1, n), n - 1)
    emb = CycleEmbedding(n, tuple(pts[i] for i in order))
    if not validate_general_position(emb).is_empty():
        emb = perturb(emb, Fraction(1), rng.getrandbits(32))
    return emb


def test_criterion_4_dual_counters_agree():
    ok = True
    for n in range(3, 16):
        emb = construct(n)
        ok = ok and region_count_euler(build_arrangement(emb)) == region_count_traversal(emb)
    checked = 0
    for n in (4, 5, 6, 7):
        rng = random.Random(1000 + n)
        for _ in range(200):
            emb = _random_general_position_embedding(rng, n)
            ok = ok and region_count_euler(build_arrangement(emb)) == region_count_traversal(emb)
            checked += 1
    report(4, ok, f"Euler and traversal counters agree on all constructions and {checked} random embeddings")


def test_criterion_5_oracle_matches_closed_form():
    ok = True
    for n in range(3, 10):
        ok = ok and oracle_max_regions_convex(n).max_regions == f_max(n)
    start = time.monotonic()
    ok = ok and oracle_max_regions_convex(10).max_regions == f_max(10)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(5, ok, f"exhaustive oracle equals f_max for n in [3,10]; n=10 took {elapsed:.1f}s (< 60s)")


def test_criterion_6_randomized_probing_respects_bound():
    ok = True
    for n in range(3, 9):
        best, _ = random_search(n, 1000, seed=n)
        ok = ok and best <= f_max(n)
    best4, _ = random_search(4, 200, seed=1)
    ok = ok and best4 == 2
    worst = 0
    for n in (4, 6, 8, 10):
        worst = max(worst, splitter_bound_check(n, 500, seed=n))
    ok = ok and worst <= 2
    report(6, ok, f"1000-trial searches stay at or below f_max for n in [3,8]; max splitters seen over even n = {worst} (<= 2)")


def test_criterion_7_determinism_and_round_trips():
    ok = True
    for n in range(3, 9):
        emb = construct(n)
        text = format_embedding(emb)
        ok = ok and parse_embedding(text) == emb
        ok = ok and format_embedding(parse_embedding(text)) == text
    ok = ok and verify_rows(3, 10) == verify_rows(3, 10)
    ok = ok and random_search(6, 50, seed=3) == random_search(6, 50, seed=3)
    opts = RenderOptions(highlight_splitters=True, shade_regions=True)
    ok = ok and to_svg(construct(7), opts).encode() == to_svg(construct(7), opts).encode()
    report(7, ok, "file round-trips are bit-exact; verify tables, searches, and SVG bytes reproduce per seed")


def test_criterion_8_large_even_cases_validate_or_repair():
    ok = True
    for n in (12, 14):
        ok = ok and validate_general_position(_place(n)).is_empty()
        emb = construct_even(n)
        arr = build_arrangement(emb)
        rep = splitter_analysis(emb)
        ok = ok and arr.face_count == f_max(n)
        ok = ok and arr.vertex_count == predicted_vertices(n)
        ok = ok and arr.edge_count == predicted_edges(n)
        ok = ok and rep.splitter_count == 2 and rep.one_off_count == n - 2
    report(8, ok, "even n in {12,14}: raw placement in general position, exact V/E/F, 2 splitters and n-2 one-offs")
