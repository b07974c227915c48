"""The package's modules import one another without a cycle, and only
through each other's public names.

Every relative import in src/cycleregions and its `commands` subpackage,
at module level or inside a function, is an edge of the graph checked
here.
"""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycleregions"


def modules() -> dict[tuple[str, ...], Path]:
    """Every module of the package by its dotted path below it, the
    `commands` subpackage included: () is the package itself."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        found[parts[:-1] if parts[-1] == "__init__" else parts] = path
    return found


def relative_imports():
    """(module, imported module, node) for every `from .x import ...`,
    `from ..x import ...` or `from . import ...`. A name that `from .`
    imports is a module when a file defines it, and else a name of the
    package it is read from."""
    found = modules()
    for module, path in found.items():
        package = module if path.name == "__init__.py" else module[:-1]
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                base = package[: len(package) + 1 - node.level]
                if node.module:
                    yield module, base + tuple(node.module.split(".")), node
                    continue
                for alias in node.names:
                    name = base + (alias.name,)
                    yield module, name if name in found else base, node


def import_graph() -> dict[str, set[str]]:
    graph = {".".join(module): set() for module in modules()}
    for module, imported, _ in relative_imports():
        graph[".".join(module)].add(".".join(imported))
    return graph


def test_relative_imports_form_no_cycle():
    graph = import_graph()
    assert "embedding" in graph["geometry"]  # the walk does see the imports
    assert "commands.count" in graph["commands.verify"]  # and the subpackage's
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_no_module_imports_a_private_name_of_a_sibling():
    private = [
        f"{'.'.join(module)} imports {node.module or '.'}.{alias.name}"
        for module, _, node in relative_imports()
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_module_postpones_annotations():
    # The records are typing.NamedTuples: with postponed annotations typing
    # compiles each field's annotation string when it builds the class.
    postponed = [
        path.stem
        for path in modules().values()
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
    ]
    assert postponed == []
