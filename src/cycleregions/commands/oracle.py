"""`oracle`: the exact convex-position maximum for small n, checked
against f(n)."""

from ..formulas import f_max
from . import EXIT_OK, EXIT_VERIFY_FAILED, emit


def run(args) -> int:
    from ..search import oracle_max_regions_convex

    result = oracle_max_regions_convex(args.n)
    target = f_max(args.n)
    status = "PASS" if result.max_regions == target else "FAIL"
    witness = ",".join(str(lbl) for lbl in result.witness.order)
    emit(
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
