"""Command line front end.

Exit codes: 0 success, 2 bad input, 3 I/O failure, 4 degenerate geometry
or failed perturbation, 5 verification failure or a construction that
misses its own post-check. `_exit_code` holds that contract; the exception
classes it reads are all defined in `formulas`, so reporting a failure
loads no layer. Any other exception is a bug, and `main` re-raises it.
Every randomized command prints its seed so any run can be reproduced from
its own log.

Each subcommand imports the layers it runs when it runs, so a command
starts up without the ones it does not need.
"""

import argparse
import sys
from typing import NamedTuple

from .formulas import ORACLE_MAX_N, check_count, construction_splitters, f_max
from .formulas import BadInput, ConstructionCheckFailed, DegenerateInput, PerturbationFailed

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4
EXIT_VERIFY_FAILED = 5


class VerifyRow(NamedTuple):
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
    check_count(args.seed, "--seed", 0)
    from .arrangement import build_arrangement
    from .embedding import construct, save_embedding

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


def _count(emb):
    """The arrangement, both region counts and the splitter classes of emb,
    the one counting path of `count` and `verify`."""
    from .arrangement import (
        build_arrangement,
        region_count_euler,
        region_count_traversal,
        splitter_analysis,
    )

    arr = build_arrangement(emb)
    return arr, region_count_euler(arr), region_count_traversal(emb), splitter_analysis(emb)


def cmd_count(args) -> int:
    from .embedding import load_embedding

    emb = load_embedding(args.path)
    arr, euler, traversal, report = _count(emb)
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
    from .embedding import construct

    rows = []
    for n in range(n_min, n_max + 1):
        emb = construct(n, seed=seed)
        target = f_max(n)
        _, euler, traversal, report = _count(emb)
        splitters_ok = (report.splitter_count, report.one_off_count) == construction_splitters(n)
        rows.append(
            VerifyRow(
                n=n,
                parity="odd" if n % 2 else "even",
                f_formula=target,
                regions_euler=euler,
                regions_traversal=traversal,
                splitters=report.splitter_count,
                one_off_splitters=report.one_off_count,
                match=(euler == target and traversal == target and splitters_ok),
            )
        )
    return rows


def cmd_verify(args) -> int:
    check_count(args.seed, "--seed", 0)
    if args.n_min < 3 or args.n_max < args.n_min:
        raise BadInput(f"bad range [{args.n_min}, {args.n_max}]")
    rows = verify_rows(args.n_min, args.n_max, args.seed)
    if args.format == "tsv":
        for row in rows:
            print("\t".join(str(v) for v in row))
    else:
        print(f"seed: {args.seed}")
        header = "  ".join(f"{col:>17}" for col in VerifyRow._fields)
        print(header)
        for row in rows:
            print("  ".join(f"{v!s:>17}" for v in row))
    failing = [row for row in rows if not row.match]
    if failing:
        print(f"first failing row: n={failing[0].n}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .search import oracle_max_regions_convex

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
    check_count(args.seed, "--seed", 0)
    from .search import best_region_count

    best, _, _ = best_region_count(args.n, args.trials, args.seed)
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
    from .render import RenderOptions, check_color, check_size, to_svg

    check_size(args.width, args.height)
    # Checked here, by flag name, before the file is read. Only the colors
    # given are passed on; RenderOptions owns the defaults.
    colors = {}
    for flag, name in (
        ("--stroke", "stroke"),
        ("--splitter-stroke", "splitter_stroke"),
        ("--fill", "fill"),
    ):
        color = getattr(args, name)
        if color is not None:
            check_color(color, flag)
            colors[name] = color
    from .embedding import load_embedding

    emb = load_embedding(args.path)
    opts = RenderOptions(
        width=args.width,
        height=args.height,
        label_corners=args.label_corners,
        highlight_splitters=args.highlight_splitters,
        shade_regions=args.shade_regions,
        **colors,
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

    p = sub.add_parser("oracle", help="exact convex-position maximum for small n, by branch and bound")
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
    p.add_argument("--stroke")
    p.add_argument("--splitter-stroke")
    p.add_argument("--fill")
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
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        return code


def _exit_code(exc: Exception) -> int | None:
    """Report a failure on stderr and return its exit code, or None for
    an exception outside the error contract."""
    if isinstance(exc, DegenerateInput):
        print(f"degenerate geometry: {exc.report.summary()}", file=sys.stderr)
        return EXIT_DEGENERATE
    if isinstance(exc, PerturbationFailed):
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    if isinstance(exc, ConstructionCheckFailed):
        print(f"construction check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if isinstance(exc, BadInput):  # InvalidN and NTooLarge included
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if isinstance(exc, OSError):
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return None

if __name__ == "__main__":
    sys.exit(main())
