"""`construct`: build a maximal embedding, write it to a file and print
its counts."""

from ..formulas import check_count
from . import EXIT_OK, emit


def run(args) -> int:
    check_count(args.seed, "--seed", 0)
    from ..arrangement import build_arrangement
    from ..embedding import construct, save_embedding

    emb = construct(args.n)
    save_embedding(emb, args.out)
    arr = build_arrangement(emb)
    emit(
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
