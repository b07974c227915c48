"""Run one cycleregions CLI command with a span recorded around each layer call.

Usage:
    python perfbench/launcher.py SPANS_OUT SPAWNED_AT -- <cycleregions arguments>

SPANS_OUT is the JSON file the spans are written to when the command ends.
SPAWNED_AT is the parent's time.perf_counter() just before it started this
process; perf_counter is CLOCK_MONOTONIC on Linux, so the two processes share
one clock and interpreter start-up plus import can be measured from it.

The launcher wraps the public functions listed in WRAPPED wherever a module of
the package binds them, then calls cycleregions.cli.main. Nothing in the
package itself is changed. Spans are kept in memory as
[name, start, end, parent index, notes] and written out once, at exit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, function) pairs that get a span; the span is named "module.function".
WRAPPED = (
    ("geometry", "segment_intersection"),
    ("geometry", "point_on_segment"),
    ("geometry", "sort_points_along"),
    ("embedding", "validate_general_position"),
    ("embedding", "perturb"),
    ("embedding", "construct"),
    ("embedding", "construct_even"),
    ("embedding", "construct_odd"),
    ("embedding", "save_embedding"),
    ("embedding", "load_embedding"),
    ("arrangement", "build_arrangement"),
    ("arrangement", "region_count_traversal"),
    ("arrangement", "splitter_analysis"),
    ("search", "oracle_max_regions_convex"),
    ("search", "random_search"),
    ("render", "to_svg"),
    ("cli", "main"),
)

# Counts read from a call's arguments and result, stored on its span.
NOTES = {
    "arrangement.build_arrangement": lambda args, out: {
        "crossings": out.vertex_count - args[0].n
    },
    "search.oracle_max_regions_convex": lambda args, out: {
        "evaluated": out.evaluated_count
    },
    "search.random_search": lambda args, out: {"best": out[0], "n": args[0]},
    "render.to_svg": lambda args, out: {"bytes": len(out.encode("ascii"))},
    "embedding.save_embedding": lambda args, out: {"bytes": os.path.getsize(args[1])},
    "embedding.load_embedding": lambda args, out: {"bytes": os.path.getsize(args[0])},
}


class Tracer:
    """Span recorder: one list of spans and the stack of open ones."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span[4] = note(args, out)
            return out

        return traced


def install(tracer: Tracer, modules: dict) -> None:
    """Replace every binding of each WRAPPED function, in every module given,
    by its traced version."""
    for mod_name, fn_name in WRAPPED:
        original = getattr(modules[mod_name], fn_name)
        traced = tracer.wrap(f"{mod_name}.{fn_name}", original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)


def main(argv: list[str]) -> int:
    spans_out, spawned_at, sep, *cli_args = argv
    if sep != "--":
        print("usage: launcher.py SPANS_OUT SPAWNED_AT -- ARGS...", file=sys.stderr)
        return 2
    from cycleregions import arrangement, cli, embedding, geometry, render, search

    startup_s = time.perf_counter() - float(spawned_at)
    modules = {
        "geometry": geometry,
        "embedding": embedding,
        "arrangement": arrangement,
        "search": search,
        "render": render,
        "cli": cli,
    }
    tracer = Tracer()
    install(tracer, modules)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="ascii") as fh:
            json.dump({"startup_s": startup_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
