"""`verify`: construct every n of a range and check both region counts
and the splitter classes against the closed forms, one row per n."""

import sys
from typing import NamedTuple

from ..formulas import BadInput, check_count, construction_splitters, f_max
from . import EXIT_OK, EXIT_VERIFY_FAILED
from .count import count


class VerifyRow(NamedTuple):
    n: int
    parity: str
    f_formula: int
    regions_euler: int
    regions_traversal: int
    splitters: int
    one_off_splitters: int
    match: bool


def verify_rows(n_min: int, n_max: int) -> list[VerifyRow]:
    """One row per n of [n_min, n_max]: `construct(n)` counted both ways
    and its splitter classes, each against its closed form."""
    from ..embedding import construct

    rows = []
    for n in range(n_min, n_max + 1):
        emb = construct(n)
        target = f_max(n)
        _, euler, traversal, report = count(emb)
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


def run(args) -> int:
    check_count(args.seed, "--seed", 0)
    if args.n_min < 3 or args.n_max < args.n_min:
        raise BadInput(f"bad range [{args.n_min}, {args.n_max}]")
    rows = verify_rows(args.n_min, args.n_max)
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
