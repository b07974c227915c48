"""Command line front end: the command table, argv parsing, dispatch and
the exit-code contract, which is all that every command runs.

`COMMANDS` is the command line: each command's help line and its
options, each option with its flag, kind, default and help line. `_parse`
reads argv against it. Command `name` runs `run(args)` of the module
`commands.<name>`, which `main` imports only for the command it runs, so
a process compiles one handler and none of the others. A `--help` line
loads `usage`, which builds the text from the table it is passed. Each
option is spelled `--flag value` or `--flag=value` in full, since an
abbreviation's meaning would change whenever an option is added; a value
is taken verbatim, even one that starts with a dash; the last of repeated
options wins; `--` ends the options. A malformed line raises BadInput, so
it is reported on one `bad input:` line like any other bad input.

Exit codes: 0 success, 2 bad input, 3 I/O failure, 4 degenerate geometry
or failed perturbation, 5 verification failure or a construction that
misses its own post-check. `_exit_code` holds that contract; the codes
are defined in `commands` and the exception classes it reads in
`formulas`, so reporting a failure loads no layer. Any other exception
is a bug, and `main` re-raises it. Every randomized command prints its
seed so any run can be reproduced from its own log.

Each handler imports the layers it runs when it runs, so a command
starts up without the ones it does not need. No module of the package
imports this one: under `python -m cycleregions.cli` it runs as
`__main__`, and importing it by name would compile and run it again.

The program has one exit, `program()`, which both `python -m
cycleregions.cli` and the `cycleregions` console script run: it calls
`main()`, freezes the garbage collector with `gc.freeze()` and exits
with main's code. The interpreter's final collections then skip every
object the run made, which they would only traverse to free at exit,
while atexit handlers, the flush of stdout and stderr, exit codes and a
broken pipe stay the interpreter's own. Skipping them loses nothing:
every file a command writes is closed by a `with` block before `main`
returns. An exception that `main` re-raises propagates without a
freeze. `main(argv)` called in process, as the tests call it, never
touches the collector.
"""

import importlib
import sys
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from .commands import (
    EXIT_BAD_INPUT, EXIT_DEGENERATE, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAILED, HELP_FLAGS, REQUIRED,
)
from .formulas import ORACLE_MAX_N
from .formulas import BadInput, ConstructionCheckFailed, DegenerateInput, PerturbationFailed


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
    options: tuple[Option, ...]


FORMAT = Option("--format", ("human", "tsv"), "human", "output layout")
SEED = Option("--seed", int, 0, "printed only; changes no result")

COMMANDS = {
    "construct": Command(
        "build a maximal embedding and write it to a file",
        (
            Option("--n", int, REQUIRED, "cycle length, at least 3"),
            Option("--out", str, REQUIRED, "output embedding file"),
            SEED,
            FORMAT,
        ),
    ),
    "count": Command(
        "count vertices, edges, and regions of an embedding file",
        (Option("path", str, REQUIRED, "embedding file"), FORMAT),
    ),
    "verify": Command(
        "check constructions against the closed forms over a range of n",
        (
            Option("--n-min", int, 3, "smallest n, at least 3"),
            Option("--n-max", int, 15, "largest n"),
            SEED,
            FORMAT,
        ),
    ),
    "oracle": Command(
        "exact convex-position maximum for small n, by branch and bound",
        (Option("--n", int, REQUIRED, f"cycle length, 3 to {ORACLE_MAX_N}"), FORMAT),
    ),
    "search": Command(
        "randomized probing of the region-count bound",
        (
            Option("--n", int, REQUIRED, "cycle length, at least 3"),
            Option("--trials", int, 1000, "random drawings to count"),
            Option("--seed", int, 0, "random seed"),
            FORMAT,
        ),
    ),
    "render": Command(
        "render an embedding file to SVG",
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


def main(argv=None) -> int:
    try:
        name, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            from .usage import help_text

            print(help_text(COMMANDS, name), end="")
            return EXIT_OK
        return importlib.import_module(f".commands.{name}", __package__).run(args)
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


def program() -> NoReturn:
    """Run `main` on sys.argv, freeze the collector and exit with main's
    code: the one exit of the command-line program. Only this exit loads
    `gc`; importing the module does not."""
    import gc

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    program()
