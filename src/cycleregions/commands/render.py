"""`render`: draw an embedding file as SVG, to a file or to stdout."""

import sys

from . import EXIT_OK


def run(args) -> int:
    from ..embedding import load_embedding
    from ..render import RenderOptions, check_color, check_size, to_svg

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
        with open(args.out, "wb") as fh:
            fh.write(svg.encode("ascii"))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(svg)
    return EXIT_OK
