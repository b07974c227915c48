"""The package's modules import one another without a cycle, and only
through each other's public names.

Every relative import in src/cycleregions, at module level or inside a
function, is an edge of the graph checked here.
"""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycleregions"


def relative_imports():
    """(module, node) for every `from .x import ...` or `from . import ...`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                yield path.stem, node


def import_graph() -> dict[str, set[str]]:
    graph = {path.stem: set() for path in PACKAGE.glob("*.py")}
    for module, node in relative_imports():
        if node.module:
            graph[module].add(node.module.split(".")[0])
        else:  # from . import a, b
            graph[module].update(alias.name for alias in node.names)
    return graph


def test_relative_imports_form_no_cycle():
    graph = import_graph()
    assert "embedding" in graph["geometry"]  # the walk does see the imports
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_no_module_imports_a_private_name_of_a_sibling():
    private = [
        f"{module} imports {node.module or '.'}.{alias.name}"
        for module, node in relative_imports()
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_module_postpones_annotations():
    # The records are typing.NamedTuples: with postponed annotations typing
    # compiles each field's annotation string when it builds the class.
    postponed = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
    ]
    assert postponed == []
