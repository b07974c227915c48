"""The package's modules import one another without a cycle.

Every relative import in src/cycleregions, at module level or inside a
function, is an edge of the graph checked here.
"""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycleregions"


def import_graph() -> dict[str, set[str]]:
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:  # from . import a, b
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def test_relative_imports_form_no_cycle():
    graph = import_graph()
    assert "geometry" in graph["embedding"]  # the walk does see the imports
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
