"""Each command loads only the layers it runs, and the package resolves
its public names on first use."""

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

LAYERS = [f"cycleregions.{m}" for m in ("geometry", "embedding", "arrangement", "render")]


def loaded_after(script: str, *args: str) -> set[str]:
    """The modules loaded once `script` has run in a fresh interpreter with
    this checkout's src first on the path. The script's own stdout is
    discarded; its sys.modules comes back on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    script += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def cli_script(code: int) -> str:
    """A script that runs cli.main on its arguments and asserts that it
    returns `code`."""
    return f"import sys\nimport cycleregions.cli as cli\nassert cli.main(sys.argv[1:]) == {code}"


RUN_CLI = cli_script(0)


def test_oracle_loads_no_geometry_fractions_or_dataclasses():
    loaded = loaded_after(RUN_CLI, "oracle", "--n", "6")
    assert "cycleregions.search" in loaded  # the run did reach the oracle
    assert loaded.isdisjoint(LAYERS + ["cycleregions.pairs", "fractions", "dataclasses"])


def test_count_loads_neither_search_nor_render(tmp_path):
    path = tmp_path / "c6.txt"
    cycleregions.save_embedding(cycleregions.construct(6), str(path))
    loaded = loaded_after(RUN_CLI, "count", str(path))
    assert "cycleregions.arrangement" in loaded
    assert loaded.isdisjoint(["cycleregions.search", "cycleregions.render"])


@pytest.mark.parametrize(
    "argv,reached",
    [
        pytest.param(argv, reached, id=argv[0])
        for argv, reached in [
            (["construct", "--n", "6", "--out", "{dir}/c6.txt"], "embedding"),
            (["count", "{dir}/c6.txt"], "embedding"),
            (["render", "{dir}/c6.txt", "--highlight-splitters", "--out", "{dir}/c6.svg"], "embedding"),
            (["verify", "--n-max", "6"], "embedding"),
            (["search", "--n", "8", "--trials", "2"], "pairs"),
        ]
    ],
)
def test_geometry_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv, reached):
    cycleregions.save_embedding(cycleregions.construct(6), str(tmp_path / "c6.txt"))
    loaded = loaded_after(RUN_CLI, *(arg.format(dir=tmp_path) for arg in argv))
    assert f"cycleregions.{reached}" in loaded  # the run did reach the geometry
    assert loaded.isdisjoint(["cycleregions.geometry", "dataclasses", "inspect"])


def test_search_counts_without_the_fraction_layer():
    # Random integer draws are counted from their pair classification; only
    # a draw that needs repair would load embedding and fractions.
    loaded = loaded_after(RUN_CLI, "search", "--n", "8", "--trials", "2")
    assert "cycleregions.pairs" in loaded
    assert loaded.isdisjoint(LAYERS + ["fractions", "decimal"])


def test_splitter_bound_check_loads_no_rational_layer():
    # The construction's splitters are a closed form and the random draws
    # are integer, so nothing builds a CycleEmbedding.
    loaded = loaded_after(
        "from cycleregions.probes import splitter_bound_check\n"
        "assert splitter_bound_check(8, 5, 1) == 2"
    )
    assert "cycleregions.pairs" in loaded
    assert loaded.isdisjoint(["fractions", "cycleregions.embedding", "cycleregions.arrangement"])


@pytest.mark.parametrize(
    "argv,reached",
    [(["search", "--n", "8", "--trials", "0"], "probes"), (["oracle", "--n", "20"], "search")],
    ids=["search", "oracle"],
)
def test_failed_command_loads_no_geometry_layer(argv, reached):
    # Every exception class of the error contract lives in formulas, which
    # every command loads, so reporting a failure imports nothing more.
    loaded = loaded_after(cli_script(2), *argv)
    assert f"cycleregions.{reached}" in loaded  # the command did run
    assert loaded.isdisjoint(LAYERS + ["cycleregions.pairs", "fractions", "decimal"])


# Every command loads cli, formulas and commands, then its own handler
# module and the layers that handler runs; only --help loads usage.
EVERY_COMMAND = {"cli", "formulas", "commands"}
COMMAND_MODULES = {
    "construct": (["construct", "--n", "6", "--out", "{dir}/new.txt"], 0,
                  {"commands.construct", "embedding", "pairs", "arrangement"}),
    "count": (["count", "{dir}/c6.txt"], 0, {"commands.count", "embedding", "pairs", "arrangement"}),
    "render": (["render", "{dir}/c6.txt", "--out", "{dir}/c6.svg"], 0,
               {"commands.render", "embedding", "pairs", "arrangement", "render"}),
    "verify": (["verify", "--n-max", "6"], 0,
               {"commands.verify", "commands.count", "embedding", "pairs", "arrangement"}),
    "oracle": (["oracle", "--n", "6"], 0, {"commands.oracle", "search"}),
    "search": (["search", "--n", "8", "--trials", "2"], 0, {"commands.search", "probes", "pairs"}),
    "failed-search": (["search", "--n", "8", "--trials", "0"], 2, {"commands.search", "probes"}),
    "help": (["--help"], 0, {"usage"}),
    "render-help": (["render", "--help"], 0, {"usage"}),
}


@pytest.mark.parametrize(
    "argv,code,own",
    [pytest.param(*row, id=name) for name, row in COMMAND_MODULES.items()],
)
def test_each_command_loads_exactly_its_own_modules(tmp_path, argv, code, own):
    # A process compiles every module it loads from source when no
    # bytecode is cached, so each command is pinned to the handler and
    # layers it runs: no other handler, the oracle only for `oracle`, the
    # probes only for `search` and the help builder only for --help.
    cycleregions.save_embedding(cycleregions.construct(6), str(tmp_path / "c6.txt"))
    loaded = loaded_after(cli_script(code), *(arg.format(dir=tmp_path) for arg in argv))
    package = {m.removeprefix("cycleregions.") for m in loaded if m.startswith("cycleregions.")}
    assert package == EVERY_COMMAND | own


@pytest.mark.parametrize(
    "argv,code",
    [pytest.param(argv, code, id=name) for name, (argv, code, _) in COMMAND_MODULES.items()],
)
def test_module_entry_point_compiles_cli_once(tmp_path, argv, code):
    # Under `python -m cycleregions.cli`, cli.py runs as __main__; a module
    # that imported cycleregions.cli by name would compile and run it again.
    cycleregions.save_embedding(cycleregions.construct(6), str(tmp_path / "c6.txt"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cycleregions.cli",
         *(arg.format(dir=tmp_path) for arg in argv)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    imported = [
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "cycleregions.formulas" in imported  # the trace does see the package
    assert "cycleregions.cli" not in imported


@pytest.mark.parametrize(
    "script,argv",
    [
        pytest.param("import cycleregions.cli", [], id="import"),
        *(
            pytest.param(RUN_CLI, argv, id=argv[0])
            for argv in [
                ["construct", "--n", "6", "--out", "{dir}/new.txt"],
                ["count", "{dir}/c6.txt"],
                ["render", "{dir}/c6.txt", "--out", "{dir}/c6.svg"],
                ["verify", "--n-max", "6"],
                ["oracle", "--n", "6"],
                ["search", "--n", "8", "--trials", "2"],
                ["--help"],
            ]
        ),
        pytest.param(cli_script(2), ["search", "--n", "8", "--trials", "0"], id="failed"),
    ],
)
def test_command_line_is_read_without_argparse(tmp_path, script, argv):
    # argparse and the gettext it imports would take a few milliseconds of
    # every command's start-up; cli reads argv against its own table.
    cycleregions.save_embedding(cycleregions.construct(6), str(tmp_path / "c6.txt"))
    loaded = loaded_after(script, *(arg.format(dir=tmp_path) for arg in argv))
    assert "cycleregions.cli" in loaded
    assert loaded.isdisjoint(["argparse", "gettext"])


def test_import_loads_a_layer_only_on_first_use():
    assert not any(m.startswith("cycleregions.") for m in loaded_after("import cycleregions"))
    loaded = loaded_after("import cycleregions\ncycleregions.f_max")
    assert {m for m in loaded if m.startswith("cycleregions.")} == {"cycleregions.formulas"}


def test_point_loads_the_reference_layer():
    # A Point is exact Fraction coordinates, which no command needs.
    loaded = loaded_after("import cycleregions\ncycleregions.Point")
    assert {"cycleregions.geometry", "fractions"} <= loaded


def test_embedding_defines_no_point():
    from cycleregions import embedding, geometry

    assert not hasattr(embedding, "Point")
    assert cycleregions.Point is geometry.Point


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--n", "7", "--out", "{dir}/new.txt"],
        ["count", "{dir}/c6.txt"],
        ["render", "{dir}/c6.txt", "--highlight-splitters", "--shade-regions", "--out", "{dir}/c6.svg"],
        ["verify"],
    ],
    ids=lambda argv: argv[0],
)
def test_geometry_commands_load_no_rational_arithmetic(tmp_path, argv):
    # A drawing is integer corners over one denominator; importing
    # fractions, with decimal and numbers, would cost more than the work.
    cycleregions.save_embedding(cycleregions.construct(6), str(tmp_path / "c6.txt"))
    loaded = loaded_after(RUN_CLI, *(arg.format(dir=tmp_path) for arg in argv))
    assert "cycleregions.embedding" in loaded
    assert loaded.isdisjoint(["fractions", "decimal", "_decimal", "numbers"])


def test_triple_point_report_loads_no_rational_arithmetic(tmp_path):
    # Segments 0, 2 and 4 of this star meet at (2, 2).
    star = tmp_path / "star.txt"
    star.write_text(
        "n 6\ncorner 0/1 0/1\ncorner 4/1 4/1\ncorner 4/1 0/1\n"
        "corner 0/1 4/1\ncorner 2/1 0/1\ncorner 2/1 4/1\n"
    )
    script = (
        "import contextlib, io, sys\nimport cycleregions.cli as cli\nerr = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n    code = cli.main(sys.argv[1:])\n"
        "assert code == 4, code\nassert '1 triple point(s)' in err.getvalue(), err.getvalue()"
    )
    loaded = loaded_after(script, "count", str(star))
    assert loaded.isdisjoint(["fractions", "decimal", "_decimal", "numbers"])


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
