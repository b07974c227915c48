"""Command line front end.

Exit codes: 0 success, 2 bad input, 3 I/O failure, 4 degenerate geometry
or failed perturbation, 5 verification failure or failed even-construction
check. Every randomized command prints its seed so any run can be
reproduced from its own log.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

from .arrangement import (
    DegenerateInput,
    build_arrangement,
    region_count_euler,
    region_count_traversal,
    splitter_analysis,
)
from .embedding import (
    ConstructionCheckFailed,
    CycleEmbedding,
    PerturbationFailed,
    construct,
    load_embedding,
    save_embedding,
)
from .formulas import InvalidN, ParityCase, f_max
from .render import RenderOptions, to_svg
from .search import NTooLarge, ORACLE_MAX_N, oracle_max_regions_convex, random_search

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4
EXIT_VERIFY_FAILED = 5


@dataclass(frozen=True)
class VerifyRow:
    n: int
    parity: str
    f_formula: int
    regions_euler: int
    regions_traversal: int
    splitters: int
    one_off_splitters: int
    match: bool


def _emit(args, pairs: list[tuple[str, object]]) -> None:
    if args.format == "tsv":
        print("\t".join(str(v) for _, v in pairs))
    else:
        for key, v in pairs:
            print(f"{key}: {v}")


def cmd_construct(args) -> int:
    emb = construct(args.n, seed=args.seed)
    save_embedding(emb, args.out)
    arr = build_arrangement(emb)
    _emit(
        args,
        [
            ("n", emb.n),
            ("vertices", arr.vertex_count),
            ("edges", arr.edge_count),
            ("regions", arr.face_count),
            ("seed", args.seed),
            ("out", args.out),
        ],
    )
    return EXIT_OK


def cmd_count(args) -> int:
    emb = load_embedding(args.path)
    arr = build_arrangement(emb)
    euler = region_count_euler(arr)
    traversal = region_count_traversal(emb)
    report = splitter_analysis(emb)
    other = emb.n - report.splitter_count - report.one_off_count
    _emit(
        args,
        [
            ("n", emb.n),
            ("vertices", arr.vertex_count),
            ("edges", arr.edge_count),
            ("regions_euler", euler),
            ("regions_traversal", traversal),
            ("splitters", report.splitter_count),
            ("one_off_splitters", report.one_off_count),
            ("other_segments", other),
        ],
    )
    if euler != traversal:
        print(
            f"internal error: region counters disagree ({euler} vs {traversal})",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def verify_rows(n_min: int, n_max: int, seed: int) -> list[VerifyRow]:
    rows = []
    for n in range(n_min, n_max + 1):
        case = ParityCase.of(n)
        emb = construct(n, seed=seed)
        target = f_max(n)
        euler = region_count_euler(build_arrangement(emb))
        traversal = region_count_traversal(emb)
        report = splitter_analysis(emb)
        if n % 2 == 0:
            splitters_ok = report.splitter_count == 2 and report.one_off_count == n - 2
        else:
            splitters_ok = report.splitter_count == n
        rows.append(
            VerifyRow(
                n=n,
                parity=case.parity.value,
                f_formula=target,
                regions_euler=euler,
                regions_traversal=traversal,
                splitters=report.splitter_count,
                one_off_splitters=report.one_off_count,
                match=(euler == target and traversal == target and splitters_ok),
            )
        )
    return rows


_VERIFY_COLUMNS = tuple(f.name for f in fields(VerifyRow))


def cmd_verify(args) -> int:
    if args.n_min < 3 or args.n_max < args.n_min:
        print(f"bad range [{args.n_min}, {args.n_max}]", file=sys.stderr)
        return EXIT_BAD_INPUT
    rows = verify_rows(args.n_min, args.n_max, args.seed)
    if args.format == "tsv":
        for row in rows:
            print("\t".join(str(getattr(row, col)) for col in _VERIFY_COLUMNS))
    else:
        print(f"seed: {args.seed}")
        header = "  ".join(f"{col:>17}" for col in _VERIFY_COLUMNS)
        print(header)
        for row in rows:
            print("  ".join(f"{getattr(row, col)!s:>17}" for col in _VERIFY_COLUMNS))
    failing = [row for row in rows if not row.match]
    if failing:
        print(f"first failing row: n={failing[0].n}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_oracle(args) -> int:
    result = oracle_max_regions_convex(args.n)
    target = f_max(args.n)
    status = "PASS" if result.max_regions == target else "FAIL"
    witness = ",".join(str(lbl) for lbl in result.witness.order)
    _emit(
        args,
        [
            ("n", result.n),
            ("max_regions", result.max_regions),
            ("f_max", target),
            ("evaluated", result.evaluated_count),
            ("witness", witness),
            ("status", status),
        ],
    )
    return EXIT_OK if status == "PASS" else EXIT_VERIFY_FAILED


def cmd_search(args) -> int:
    best, _ = random_search(args.n, args.trials, args.seed)
    bound = f_max(args.n)
    status = "PASS" if best <= bound else "FAIL"
    _emit(
        args,
        [
            ("n", args.n),
            ("trials", args.trials),
            ("seed", args.seed),
            ("best", best),
            ("f_max", bound),
            ("status", status),
        ],
    )
    return EXIT_OK if status == "PASS" else EXIT_VERIFY_FAILED


def cmd_render(args) -> int:
    if args.width <= 0 or args.height <= 0:
        raise ValueError(f"render size must be positive, got {args.width}x{args.height}")
    # Colors land inside SVG attribute values unescaped.
    for flag, color in (
        ("--stroke", args.stroke),
        ("--splitter-stroke", args.splitter_stroke),
        ("--fill", args.fill),
    ):
        if any(ch in color for ch in "\"'<>&"):
            raise ValueError(f"{flag} must not contain any of \" ' < > &, got {color!r}")
    emb = load_embedding(args.path)
    opts = RenderOptions(
        width=args.width,
        height=args.height,
        label_corners=args.label_corners,
        highlight_splitters=args.highlight_splitters,
        shade_regions=args.shade_regions,
        stroke=args.stroke,
        splitter_stroke=args.splitter_stroke,
        fill=args.fill,
    )
    svg = to_svg(emb, opts)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(svg)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleregions",
        description="Construct, count, verify, and render maximal-region "
        "straight-line embeddings of cycle graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a maximal embedding and write it to a file")
    p.add_argument("--n", type=int, required=True, help="cycle length (n >= 3)")
    p.add_argument("--out", required=True, help="output embedding file")
    p.add_argument("--seed", type=int, default=0, help="perturbation seed (default 0)")
    p.add_argument("--format", choices=("human", "tsv"), default="human")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("count", help="count vertices, edges, and regions of an embedding file")
    p.add_argument("path", help="embedding file")
    p.add_argument("--format", choices=("human", "tsv"), default="human")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="check constructions against the closed forms over a range of n")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("human", "tsv"), default="human")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive convex-position maximum for small n")
    p.add_argument("--n", type=int, required=True, help=f"3 <= n <= {ORACLE_MAX_N}")
    p.add_argument("--format", choices=("human", "tsv"), default="human")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("search", help="randomized probing of the region-count bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("human", "tsv"), default="human")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("render", help="render an embedding file to SVG")
    p.add_argument("path", help="embedding file")
    p.add_argument("--out", help="output SVG file (default: stdout)")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=640)
    p.add_argument(
        "--label-corners",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="draw corner indices (default on)",
    )
    p.add_argument("--highlight-splitters", action="store_true")
    p.add_argument("--shade-regions", action="store_true")
    p.add_argument("--stroke", default=RenderOptions.stroke)
    p.add_argument("--splitter-stroke", default=RenderOptions.splitter_stroke)
    p.add_argument("--fill", default=RenderOptions.fill)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_INPUT
    try:
        return args.func(args)
    except DegenerateInput as exc:
        print(f"degenerate geometry: {exc.report.summary()}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PerturbationFailed as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ConstructionCheckFailed as exc:
        print(f"construction check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (InvalidN, NTooLarge, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
