"""Each command line loads exactly the modules it runs, and the package
resolves its public names on first use.

`COMMAND_LINES` is the one place where a command line's loaded modules
are pinned. Each row starts one interpreter that runs `cycleregions.cli`
the way `python -m` and the benchmark run it, through
`runpy.run_module(..., run_name="__main__", alter_sys=True)`, so the
command exits through `cli.program()`; the child then reports its exit
code and every module in `sys.modules`. A row pins that exit code and
the exact set of `cycleregions.*` modules. A process compiles every
module it loads when no bytecode is cached, so the set is what the
command pays for: its own handler and the layers it runs, never another
handler, the oracle only for `oracle`, the probes only for `search`, the
help builder only for `--help`, the exit-code report only for a command
that fails and the degeneracy report only for a drawing that `count`
refuses. `cycleregions.cli` itself is in no
command's set, since it runs as `__main__`; a module that imported it by
name would compile and run it a second time. Every row also loads none
of `FORBIDDEN`: argparse and its gettext, the rational arithmetic of
`fractions`, `dataclasses` and `inspect`, and the `encodings.ascii`
codec, which a file opened in text mode as ASCII looks up: embedding
files and SVGs are read and written as bytes. Each row starts its
interpreter once per module: the named checks after the table each
read one property of some rows from that same run, and start none.

Running `cli.main` under `-c` would import `cycleregions.cli` by name
and skip `program()`, so it could not see `cli.py` run twice. `-X
importtime` cannot either: it does not list a module loaded through
`importlib.import_module`, which is how `cli.main` loads every handler
and how a handler could load `cli` again.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycleregions

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names; a change to this list is a change to the public API.
PUBLIC_NAMES = [
    "Arrangement",
    "ConstructionCheckFailed",
    "CycleEmbedding",
    "CyclicPermutation",
    "DegeneracyReport",
    "DegenerateInput",
    "Intersection",
    "IntersectionKind",
    "InvalidN",
    "NTooLarge",
    "OracleResult",
    "Orientation",
    "PerturbationFailed",
    "Point",
    "PointNotOnSegment",
    "RenderOptions",
    "Segment",
    "build_arrangement",
    "construct",
    "construct_even",
    "construct_odd",
    "cross",
    "crossing_count_convex",
    "f_max",
    "format_embedding",
    "load_embedding",
    "oracle_max_regions_convex",
    "orientation",
    "parse_embedding",
    "perturb",
    "point_on_segment",
    "predicted_edges",
    "predicted_vertices",
    "random_search",
    "region_count_euler",
    "region_count_traversal",
    "regular_polygon_points",
    "save_embedding",
    "segment_intersection",
    "sort_points_along",
    "splitter_analysis",
    "splitter_bound_check",
    "to_svg",
    "validate_general_position",
]

FORBIDDEN = [
    "argparse", "gettext", "fractions", "decimal", "_decimal", "numbers", "dataclasses", "inspect",
    "encodings.ascii",
]

LAYERS = [f"cycleregions.{m}" for m in ("geometry", "embedding", "arrangement", "render")]

# How `python -m cycleregions.cli` runs the program.
RUN_MODULE = 'import runpy\nrunpy.run_module("cycleregions.cli", run_name="__main__", alter_sys=True)'


def loaded_after(script: str, *args: str) -> tuple[object, set[str], str]:
    """The exit code, the modules loaded and the script's own stderr once
    `script` has run in a fresh interpreter with this checkout's src first
    on the path and `args` as its arguments. The code is None when the
    script raises no SystemExit. The script's own stdout is discarded; the
    code and sys.modules come back on the last line of stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    body = "".join(f"    {line}\n" for line in script.splitlines())
    child = (
        f"import sys\ncode = None\ntry:\n{body}except SystemExit as exc:\n    code = exc.code\n"
        "import json\nprint(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    *err, last = proc.stderr.splitlines()
    code, modules = json.loads(last)
    return code, set(modules), "\n".join(err)


def package(loaded: set[str]) -> set[str]:
    return {m.removeprefix("cycleregions.") for m in loaded if m.startswith("cycleregions.")}


# Segments 0, 2 and 4 of this star cross at (2, 2), so `count` exits 4
# after building the triple-point report.
STAR = (
    "n 6\ncorner 0/1 0/1\ncorner 4/1 4/1\ncorner 4/1 0/1\n"
    "corner 0/1 4/1\ncorner 2/1 0/1\ncorner 2/1 4/1\n"
)

# Every command loads formulas and commands, then its own handler module
# and the layers that handler runs; only --help loads usage, and only a
# command that fails loads FAILED, the exit-code report.
EVERY_COMMAND = {"formulas", "commands"}
GEOMETRY = ["embedding", "pairs", "arrangement"]
FAILED = "commands.failure"


def command(argv: list[str], code: int, *own: str) -> tuple[str, list[str], int, set[str]]:
    """A row of COMMAND_LINES: the script, its arguments, the exit code
    and the package's modules it loads."""
    return RUN_MODULE, argv, code, EVERY_COMMAND | set(own)


COMMAND_LINES = {
    "construct": command(["construct", "--n", "7", "--out", "{dir}/new.txt"], 0,
                         "commands.construct", *GEOMETRY),
    "count": command(["count", "{dir}/c6.txt"], 0, "commands.count", *GEOMETRY),
    "count-star": command(["count", "{dir}/star.txt"], 4, "commands.count", *GEOMETRY,
                          "degeneracy", FAILED),
    "render": command(["render", "{dir}/c6.txt", "--highlight-splitters", "--shade-regions",
                       "--out", "{dir}/c6.svg"], 0, "commands.render", "embedding", "pairs", "render"),
    "verify": command(["verify"], 0, "commands.verify", "commands.count", *GEOMETRY),
    "oracle": command(["oracle", "--n", "6"], 0, "commands.oracle", "search"),
    "oracle-too-large": command(["oracle", "--n", "20"], 2, "commands.oracle", "search", FAILED),
    "search": command(["search", "--n", "8", "--trials", "2"], 0, "commands.search", "probes", "pairs"),
    "failed-search": command(["search", "--n", "8", "--trials", "0"], 2, "commands.search", "probes",
                             FAILED),
    "help": command(["--help"], 0, "usage"),
    "render-help": command(["render", "--help"], 0, "usage"),
    # The benchmark's set-up import.
    "import": ("import cycleregions.cli", [], None, {"cli", "formulas", "commands"}),
}


@pytest.fixture(scope="module")
def launched(tmp_path_factory):
    """Runs a row of COMMAND_LINES, at most once per module, checks its
    exit code and returns its loaded modules and stderr, so the checks
    below that read one row share its interpreter."""
    tmp = tmp_path_factory.mktemp("command-lines")
    cycleregions.save_embedding(cycleregions.construct(6), str(tmp / "c6.txt"))
    (tmp / "star.txt").write_text(STAR)
    runs: dict[str, tuple[set[str], str]] = {}

    def launch(name: str) -> tuple[set[str], str]:
        if name not in runs:
            script, argv, code, _ = COMMAND_LINES[name]
            got, loaded, err = loaded_after(script, *(arg.format(dir=tmp) for arg in argv))
            assert got == code, err
            runs[name] = loaded, err
        return runs[name]

    return launch


@pytest.mark.parametrize("name", list(COMMAND_LINES))
def test_each_command_loads_exactly_its_own_modules(launched, name):
    # A process compiles every module it loads when no bytecode is cached,
    # so each command line is pinned to the modules it runs.
    loaded, _ = launched(name)
    assert package(loaded) == COMMAND_LINES[name][3]
    assert loaded.isdisjoint(FORBIDDEN)


# The checks below each read one property of rows of the table above.


@pytest.mark.parametrize(
    "name",
    [pytest.param("failed-search", id="failed"), pytest.param("help", id="--help"),
     "construct", "count", "import", "oracle", "render", "search", "verify"],
)
def test_command_line_is_read_without_argparse(launched, name):
    # argparse and the gettext it imports would take a few milliseconds of
    # every command's start-up; cli reads argv against its own table.
    loaded, _ = launched(name)
    assert loaded.isdisjoint(["argparse", "gettext"])


@pytest.mark.parametrize(
    "name",
    ["construct", "count", "failed-search", "help", "oracle", "render-help", "render", "search",
     "verify"],
)
def test_module_entry_point_compiles_cli_once(launched, name):
    # cli.py runs as __main__; a module that imported cycleregions.cli by
    # name would compile and run it again.
    loaded, _ = launched(name)
    assert "cycleregions.formulas" in loaded
    assert "cycleregions.cli" not in loaded


def test_oracle_loads_no_geometry_fractions_or_dataclasses(launched):
    loaded, _ = launched("oracle")
    assert "cycleregions.search" in loaded  # the run did reach the oracle
    assert loaded.isdisjoint(LAYERS + ["cycleregions.pairs", "fractions", "dataclasses"])


def test_count_loads_neither_search_nor_render(launched):
    loaded, _ = launched("count")
    assert "cycleregions.arrangement" in loaded
    assert loaded.isdisjoint(["cycleregions.search", "cycleregions.render"])


@pytest.mark.parametrize(
    "name,reached",
    [("construct", "embedding"), ("count", "embedding"), ("render", "embedding"),
     ("verify", "embedding"), ("search", "pairs")],
    ids=["construct", "count", "render", "verify", "search"],
)
def test_geometry_commands_load_neither_dataclasses_nor_inspect(launched, name, reached):
    loaded, _ = launched(name)
    assert f"cycleregions.{reached}" in loaded  # the run did reach the geometry
    assert loaded.isdisjoint(["cycleregions.geometry", "dataclasses", "inspect"])


def test_search_counts_without_the_fraction_layer(launched):
    # Random integer draws are counted from their pair classification; only
    # a draw that needs repair would load embedding and fractions.
    loaded, _ = launched("search")
    assert "cycleregions.pairs" in loaded
    assert loaded.isdisjoint(LAYERS + ["fractions", "decimal"])


@pytest.mark.parametrize(
    "name,reached",
    [("failed-search", "probes"), ("oracle-too-large", "search")],
    ids=["search", "oracle"],
)
def test_failed_command_loads_no_geometry_layer(launched, name, reached):
    # Every exception class of the error contract lives in formulas, which
    # every command loads, so reporting a failure imports no layer, only
    # the exit-code report.
    loaded, _ = launched(name)
    assert f"cycleregions.{reached}" in loaded  # the command did run
    assert loaded.isdisjoint(LAYERS + ["cycleregions.pairs", "fractions", "decimal"])


@pytest.mark.parametrize("name", ["construct", "count", "render", "verify"])
def test_geometry_commands_load_no_rational_arithmetic(launched, name):
    # A drawing is integer corners over one denominator; importing
    # fractions, with decimal and numbers, would cost more than the work.
    loaded, _ = launched(name)
    assert "cycleregions.embedding" in loaded
    assert loaded.isdisjoint(["fractions", "decimal", "_decimal", "numbers"])


def test_triple_point_report_loads_no_rational_arithmetic(launched):
    loaded, err = launched("count-star")
    assert "1 triple point(s)" in err
    assert loaded.isdisjoint(["fractions", "decimal", "_decimal", "numbers"])


def test_splitter_bound_check_loads_no_rational_layer():
    # The construction's splitters are a closed form and the random draws
    # are integer, so nothing builds a CycleEmbedding.
    _, loaded, _ = loaded_after(
        "from cycleregions.probes import splitter_bound_check\n"
        "assert splitter_bound_check(8, 5, 1) == 2"
    )
    assert "cycleregions.pairs" in loaded
    assert loaded.isdisjoint(["fractions", "cycleregions.embedding", "cycleregions.arrangement"])


def test_import_loads_a_layer_only_on_first_use():
    _, loaded, _ = loaded_after("import cycleregions")
    assert package(loaded) == set()
    _, loaded, _ = loaded_after("import cycleregions\ncycleregions.f_max")
    assert package(loaded) == {"formulas"}


def test_point_loads_the_reference_layer():
    # A Point is exact Fraction coordinates, which no command needs.
    _, loaded, _ = loaded_after("import cycleregions\ncycleregions.Point")
    assert {"cycleregions.geometry", "fractions"} <= loaded


def test_embedding_defines_no_point():
    from cycleregions import embedding, geometry

    assert not hasattr(embedding, "Point")
    assert cycleregions.Point is geometry.Point


def test_all_is_unchanged():
    assert cycleregions.__all__ == PUBLIC_NAMES


def test_every_name_is_the_defining_module_object():
    def defined(name):
        obj = getattr(cycleregions, name)
        return getattr(importlib.import_module(obj.__module__), name)

    assert [name for name in PUBLIC_NAMES if defined(name) is not getattr(cycleregions, name)] == []


def test_dir_and_star_import_list_every_name():
    assert set(PUBLIC_NAMES) <= set(dir(cycleregions))
    namespace: dict = {}
    exec("from cycleregions import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(cycleregions, name) for name in PUBLIC_NAMES)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cycleregions.no_such_name
    assert not hasattr(cycleregions, "pair_table")
    assert not hasattr(cycleregions, "VertexKind")
    assert not hasattr(cycleregions, "SegmentClass")
    assert not hasattr(cycleregions, "SplitterReport")
