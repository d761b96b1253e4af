"""The package's modules import each other without a cycle or a private name, and every top-level name and method has a caller."""

import ast
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Iterator

import thmc

PACKAGE = Path(thmc.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Top-level names that nothing in the package or the benchmark calls, kept on purpose.
KEPT_UNREFERENCED = {
    "polytope_vertices",  # the LP route to the vertices, the cross-check of vertices_by_facet_rank
    "middle_class_decomposition",  # the finite-vertex proof step, tested on every middle-class model-d column in script G at T=13..25
}


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
    assert graph["hilbert"] >= {"design", "intlinalg", "polyhedra"}  # the scan sees the imports it should
    assert "markov" not in graph["hilbert"]  # the witness reads the distinct columns, not a word fiber
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    assert set(order) == modules.keys()


def test_every_export_is_bound_and_listed_once():
    # an export left behind by a deletion, or listed twice, fails here
    twice = sorted(name for name, count in Counter(thmc.__all__).items() if count > 1)
    unbound = [name for name in thmc.__all__ if not hasattr(thmc, name)]
    assert not twice and not unbound, f"listed twice: {twice}; not bound in thmc: {unbound}"


def test_intlinalg_imports_no_package_module():
    assert not _imported_modules(PACKAGE / "intlinalg.py")


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so an invariant check must raise AssertionError itself
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()  # the names this file binds to package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private = [alias.name for alias in node.names if _private(alias.name)]
                found += [f"{path.stem}: from .{node.module} import {name}" for name in private]
                if node.module is None:
                    imported.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
                if _private(node.attr):
                    found.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert not found, f"private names read across modules: {', '.join(found)}"


def _references(tree: ast.AST) -> Counter:
    """Names, attributes, import aliases and string constants in a syntax tree (the tracer names its targets by string)."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.asname or node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """(qualified name, node) of each top-level function and class, and of each method and property but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (member.name.startswith("__") and member.name.endswith("__")):
                        yield f"{node.name}.{member.name}", member


def test_every_top_level_name_is_referenced():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in modules}
    bench = [BENCH / name for name in ("run.py", "workloads.py", "tracer.py")]
    references = sum(map(_references, [*trees.values(), *(ast.parse(path.read_text()) for path in bench)]), Counter())
    unreferenced = {}
    for path, tree in trees.items():
        for qualified, node in _definitions(tree):
            if references[node.name] == _references(node)[node.name]:  # only its own definition names it
                unreferenced[f"{path.stem}.{qualified}"] = node.name
    unexpected = sorted(n for n, name in unreferenced.items() if name not in KEPT_UNREFERENCED)
    assert not unexpected, f"defined but never referenced: {', '.join(unexpected)}"
    assert set(unreferenced.values()) == KEPT_UNREFERENCED, "KEPT_UNREFERENCED names a function that is now referenced or gone"
