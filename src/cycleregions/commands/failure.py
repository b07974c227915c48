"""The exit-code contract: how `cli.main` reports a failure.

`cli.main` imports this module only in its `except` branch, so a command
that succeeds compiles none of it. The exit codes are defined in
`commands` and the exception classes it reads in `formulas`, so reporting
a failure loads no layer.
"""

import sys

from ..formulas import BadInput, ConstructionCheckFailed, DegenerateInput, PerturbationFailed
from . import EXIT_BAD_INPUT, EXIT_DEGENERATE, EXIT_IO, EXIT_VERIFY_FAILED


def exit_code(exc: Exception) -> int | None:
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
