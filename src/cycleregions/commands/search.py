"""`search`: the best region count of seeded random drawings, checked
against the ceiling f(n). It runs the probes and never loads the
convex oracle."""

from ..formulas import check_count, f_max
from . import EXIT_OK, EXIT_VERIFY_FAILED, emit


def run(args) -> int:
    check_count(args.seed, "--seed", 0)
    from ..probes import best_region_count

    best, _, _ = best_region_count(args.n, args.trials, args.seed)
    bound = f_max(args.n)
    status = "PASS" if best <= bound else "FAIL"
    emit(
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
