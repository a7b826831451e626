"""Source hygiene: public names exist and no module imports a name it never uses.

No linter is a dependency, so both checks read the source with ``ast``.
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
