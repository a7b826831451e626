"""Source hygiene: public names exist, no module imports a name it never
uses, the package's own imports form no cycle and sit at module level,
every parameter default is overridden by some call, and scipy stays off
the import and solve path.

No linter is a dependency, so the checks read the source with ``ast``.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


def defaulted_parameters(path):
    """``(function name, parameter, position or None, is a method)`` per default."""
    tree = ast.parse(path.read_text())
    methods = {
        id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positional = node.args.posonlyargs + node.args.args
        for i in range(len(positional) - len(node.args.defaults), len(positional)):
            yield node.name, positional[i].arg, i, id(node) in methods
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None, id(node) in methods


def calls_by_name():
    """Per callee name: ``(keywords, positional count, is an attribute)`` per call."""
    calls = {}
    for folder in ("src", "perfbench", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                attribute = isinstance(node.func, ast.Attribute)
                name = node.func.attr if attribute else getattr(node.func, "id", None)
                keywords = {k.arg for k in node.keywords}
                if any(isinstance(a, ast.Starred) for a in node.args):
                    keywords.add(None)
                calls.setdefault(name, []).append((keywords, len(node.args), attribute))
    return calls


def test_every_parameter_default_is_overridden_somewhere():
    """A default that no call overrides is a constant dressed as a parameter.

    A call in ``src/``, ``perfbench/`` or ``tests/`` overrides a default
    when its callee's ``Name`` id or ``Attribute`` attr is the function's
    name and it passes the parameter by keyword, by position (a method
    called as an attribute binds ``self`` first) or through ``*``/``**``.
    Matching is by name, so two functions that share a name are checked
    together.
    """
    calls = calls_by_name()
    unused = []
    for path in MODULES:
        for func, param, position, method in defaulted_parameters(path):
            if not any(
                param in keywords or None in keywords
                or (position is not None and count + (method and attribute) > position)
                for keywords, count, attribute in calls.get(func, [])
            ):
                unused.append(f"{module_name(path)}.{func}({param})")
    assert unused == []


SCIPY_PROBE = """
import json, sys
loaded = lambda name: sorted(m for m in sys.modules if (m + ".").startswith(name + "."))
import forceplan.cli
after_import = loaded("scipy")
forceplan.cli.main(["solve", "scenarios/bottle_default.json", "--out", sys.argv[1]])
print(json.dumps([after_import, loaded("scipy.optimize")]))
"""


def test_scipy_is_loaded_only_for_a_polygon_cone(tmp_path):
    # A fresh interpreter: this test process has imported scipy already.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "plan.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    after_import, after_solve = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == []
    # bottle_default checks no polygon cone, so NNLS is never needed.
    assert after_solve == []
