"""Source hygiene: public names exist, no module imports a name it never
uses, and the package's own imports form no cycle and sit at module level.

No linter is a dependency, so the checks read the source with ``ast``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.glob("forceplan/**/*.py"))


def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


NAMES = {module_name(path) for path in MODULES}


def package_imports(path):
    """The forceplan modules ``path`` imports: (at module level, in functions)."""
    package = path.relative_to(SRC).parts[:-1]
    tree = ast.parse(path.read_text())

    def targets(nodes):
        found = set()
        for node in nodes:
            if isinstance(node, ast.Import):
                found |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                parts = package[: len(package) + 1 - node.level] if node.level else ()
                base = ".".join(parts + ((node.module,) if node.module else ()))
                for alias in node.names:
                    sub = f"{base}.{alias.name}"
                    found.add(sub if sub in NAMES else base)
        return found & NAMES

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = [n for f in ast.walk(tree) if isinstance(f, functions) for n in ast.walk(f)]
    inner = {id(n) for n in nested}
    return targets(n for n in ast.walk(tree) if id(n) not in inner), targets(nested)


def public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_every_public_name_exists(path):
    names = public_names(ast.parse(path.read_text()))
    module = importlib.import_module(module_name(path))
    assert [n for n in names if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(public_names(tree))
    assert {n: line for n, line in imported.items() if n not in used} == {}


def test_package_imports_form_no_cycle():
    graph = {module_name(p): set().union(*package_imports(p)) for p in MODULES}
    # Peel off modules whose imports are all peeled; a cycle never peels.
    while leaves := [m for m, deps in graph.items() if not deps & graph.keys()]:
        for m in leaves:
            del graph[m]
    assert graph == {}


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_no_package_module_is_imported_inside_a_function(path):
    assert package_imports(path)[1] == set()
