"""Command line front end.

`COMMANDS` is the command line: each command's help line, its handler and
its options, each option with its flag, kind, default and help line.
`_parse` reads argv against it and `_help` prints `--help` from it. Each
option is spelled `--flag value` or `--flag=value` in full, since an
abbreviation's meaning would change whenever an option is added; a value
is taken verbatim, even one that starts with a dash; the last of repeated
options wins; `--` ends the options. A malformed line raises BadInput, so
it is reported on one `bad input:` line like any other bad input.

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

import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
    from .embedding import load_embedding
    from .render import RenderOptions, check_color, check_size, to_svg

    # The render options are RenderOptions' fields by name, defaults
    # included. Each is checked here, a colour under its flag's name,
    # before the file is read.
    opts = RenderOptions(**{name: getattr(args, name) for name in RenderOptions._fields})
    check_size(opts.width, opts.height)
    for name in ("stroke", "splitter_stroke", "fill"):
        check_color(getattr(opts, name), "--" + name.replace("_", "-"))
    emb = load_embedding(args.path)
    svg = to_svg(emb, opts)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(svg)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(svg)
    return EXIT_OK


class Option(NamedTuple):
    """One entry of a command's argument list. A flag without leading
    dashes is a positional argument. `kind` is int, str, a tuple of the
    accepted values, or bool for a switch; a switch whose default is True
    is turned off by its --no- form."""

    flag: str
    kind: object
    default: object  # REQUIRED, or the value when the option is not given
    help: str


class Command(NamedTuple):
    help: str
    handler: Callable[[SimpleNamespace], int]
    options: tuple[Option, ...]


REQUIRED = object()
HELP_FLAGS = ("-h", "--help")
FORMAT = Option("--format", ("human", "tsv"), "human", "output layout")
SEED = Option("--seed", int, 0, "perturbation seed")

COMMANDS = {
    "construct": Command(
        "build a maximal embedding and write it to a file",
        cmd_construct,
        (
            Option("--n", int, REQUIRED, "cycle length, at least 3"),
            Option("--out", str, REQUIRED, "output embedding file"),
            SEED,
            FORMAT,
        ),
    ),
    "count": Command(
        "count vertices, edges, and regions of an embedding file",
        cmd_count,
        (Option("path", str, REQUIRED, "embedding file"), FORMAT),
    ),
    "verify": Command(
        "check constructions against the closed forms over a range of n",
        cmd_verify,
        (
            Option("--n-min", int, 3, "smallest n, at least 3"),
            Option("--n-max", int, 15, "largest n"),
            SEED,
            FORMAT,
        ),
    ),
    "oracle": Command(
        "exact convex-position maximum for small n, by branch and bound",
        cmd_oracle,
        (Option("--n", int, REQUIRED, f"cycle length, 3 to {ORACLE_MAX_N}"), FORMAT),
    ),
    "search": Command(
        "randomized probing of the region-count bound",
        cmd_search,
        (
            Option("--n", int, REQUIRED, "cycle length, at least 3"),
            Option("--trials", int, 1000, "random drawings to count"),
            Option("--seed", int, 0, "random seed"),
            FORMAT,
        ),
    ),
    "render": Command(
        "render an embedding file to SVG",
        cmd_render,
        (
            Option("path", str, REQUIRED, "embedding file"),
            Option("--out", str, None, "output SVG file (default: stdout)"),
            Option("--width", int, 640, "viewport width in pixels"),
            Option("--height", int, 640, "viewport height in pixels"),
            Option("--label-corners", bool, True, "draw corner indices"),
            Option("--highlight-splitters", bool, False, "stroke splitters in their own colour"),
            Option("--shade-regions", bool, False, "fill the bounded regions"),
            Option("--stroke", str, "#1f3a5f", "segment and corner colour"),
            Option("--splitter-stroke", str, "#c0392b", "splitter colour"),
            Option("--fill", str, "#f2d9a0", "region fill colour"),
        ),
    ),
}


def _parse(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """The command argv names and its arguments, read against COMMANDS.
    The arguments are None when argv asks for help, and so is the command
    for the top-level help. A malformed line raises BadInput."""
    if not argv:
        raise BadInput(f"no command given; the commands are {', '.join(COMMANDS)}")
    name, *rest = argv
    if name in HELP_FLAGS:
        return None, None
    if name not in COMMANDS:
        raise BadInput(f"unknown command {name!r}; the commands are {', '.join(COMMANDS)}")
    options = COMMANDS[name].options
    flags = {}
    for opt in options:
        flags[opt.flag] = opt
        if opt.kind is bool and opt.default is True:
            flags["--no-" + opt.flag[2:]] = opt
    values = {}
    positional = []
    tokens = iter(rest)
    for token in tokens:
        if token == "--":
            positional += tokens
        elif not token.startswith("-"):
            positional.append(token)
        elif token in HELP_FLAGS:
            return name, None
        else:
            flag, has_value, value = token.partition("=")
            opt = flags.get(flag)
            if opt is None:
                raise BadInput(f"unknown option {flag!r} for {name}")
            if opt.kind is bool:
                if has_value:
                    raise BadInput(f"{flag} takes no value")
                values[opt.flag] = flag == opt.flag
                continue
            if not has_value:
                value = next(tokens, None)
                if value is None:
                    raise BadInput(f"{flag} needs a value")
            values[opt.flag] = _convert(opt, value)
    slots = [opt for opt in options if opt.flag[0] != "-"]
    if len(positional) > len(slots):
        raise BadInput(f"unexpected argument {positional[len(slots)]!r} for {name}")
    for opt, value in zip(slots, positional):
        values[opt.flag] = value
    args = SimpleNamespace()
    for opt in options:
        value = values.get(opt.flag, opt.default)
        if value is REQUIRED:
            raise BadInput(f"{opt.flag} is required for {name}")
        setattr(args, opt.flag.lstrip("-").replace("-", "_"), value)
    return name, args


def _convert(opt: Option, value: str):
    if opt.kind is int:
        try:
            return int(value)
        except ValueError as exc:
            raise BadInput(f"{opt.flag} must be an integer: {exc}") from None
    if isinstance(opt.kind, tuple) and value not in opt.kind:
        raise BadInput(f"{opt.flag} must be one of {', '.join(opt.kind)}, got {value!r}")
    return value


def _help(name: str | None) -> str:
    """The --help text of a command, or of the program for None. It is
    the same at every terminal width."""
    if name is None:
        width = max(map(len, COMMANDS)) + 2
        lines = [
            "usage: cycleregions <command> [options]",
            "",
            "Construct, count, verify, and render maximal-region straight-line embeddings",
            "of cycle graphs.",
            "",
            "commands:",
            *(f"  {cmd:<{width}}{command.help}" for cmd, command in COMMANDS.items()),
            "",
            "Run 'cycleregions <command> --help' for a command's options.",
        ]
        return "\n".join(lines) + "\n"
    command = COMMANDS[name]
    rows = [(_label(opt), opt.help + _default(opt)) for opt in command.options]
    rows.append((", ".join(HELP_FLAGS), "print this help and exit"))
    width = max(len(label) for label, _ in rows) + 2
    positional = "".join(f" {opt.flag}" for opt in command.options if opt.flag[0] != "-")
    lines = [f"usage: cycleregions {name}{positional} [options]", "", command.help, ""]
    lines += [f"  {label:<{width}}{text}" for label, text in rows]
    return "\n".join(lines) + "\n"


def _label(opt: Option) -> str:
    if opt.flag[0] != "-":
        return opt.flag
    if opt.kind is bool:
        return f"--[no-]{opt.flag[2:]}" if opt.default is True else opt.flag
    if isinstance(opt.kind, tuple):
        return f"{opt.flag} {{{','.join(opt.kind)}}}"
    return f"{opt.flag} {'N' if opt.kind is int else 'TEXT'}"


def _default(opt: Option) -> str:
    if opt.default is REQUIRED:
        return " (required)"
    if opt.default is None:
        return ""
    if opt.kind is bool:
        return " (default on)" if opt.default else " (default off)"
    return f" (default {opt.default})"


def main(argv=None) -> int:
    try:
        name, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            print(_help(name), end="")
            return EXIT_OK
        return COMMANDS[name].handler(args)
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
