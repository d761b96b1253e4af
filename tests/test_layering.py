"""The package's modules import each other without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import thmc

PACKAGE = Path(thmc.__file__).parent


def _imported_modules(path: Path) -> set[str]:
    """First components of the package modules that one file imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import x, y
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and node.module and node.module.split(".")[0] == "thmc":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("thmc."))
    return found


def test_intra_package_imports_have_no_cycle():
    modules = {path.stem: path for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    graph = {name: _imported_modules(path) & modules.keys() for name, path in modules.items()}
    assert graph["hilbert"] >= {"markov", "intlinalg"}  # the scan sees the imports it should
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    assert set(order) == modules.keys()
