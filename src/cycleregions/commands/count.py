"""`count`: the vertices, edges, regions and splitter classes of an
embedding file, with both region counters, which must agree."""

import sys

from . import EXIT_OK, EXIT_VERIFY_FAILED, emit


def count(emb):
    """The arrangement, both region counts and the splitter classes of emb,
    the one counting path of `count` and `verify`."""
    from ..arrangement import (
        build_arrangement,
        region_count_euler,
        region_count_traversal,
        splitter_analysis,
    )

    arr = build_arrangement(emb)
    return arr, region_count_euler(arr), region_count_traversal(emb), splitter_analysis(emb)


def run(args) -> int:
    from ..embedding import load_embedding

    emb = load_embedding(args.path)
    arr, euler, traversal, report = count(emb)
    other = emb.n - report.splitter_count - report.one_off_count
    emit(
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
