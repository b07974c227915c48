"""One module per command, each with `run(args) -> int`.

`cli.main` imports `commands.<name>` only for the command it runs, so a
process compiles that one handler and none of the others. This package
holds what the handlers and `cli` share: the exit codes, the key/value
emitter and the vocabulary of the command table. It imports nothing of
the package, and no handler imports `cli`: under `python -m
cycleregions.cli`, `cli.py` runs as `__main__`, and importing it by name
would compile and run it a second time.
"""

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4
EXIT_VERIFY_FAILED = 5

REQUIRED = object()  # the default of an option that must be given
HELP_FLAGS = ("-h", "--help")


def emit(args, pairs: list[tuple[str, object]]) -> None:
    """Print `pairs` as `key: value` lines, or as one tab-separated row of
    the values for `--format tsv`."""
    if args.format == "tsv":
        print("\t".join(str(v) for _, v in pairs))
    else:
        for key, v in pairs:
            print(f"{key}: {v}")
