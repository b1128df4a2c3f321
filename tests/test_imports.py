"""Structure of the package's own imports: all at module level, no cycles,
no scipy at run time, and no work done at import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nvphonon

PACKAGE = Path(nvphonon.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def _trees():
    return {name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for name, path in MODULES.items()}


def _package_imports(tree):
    """Names of the package modules a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name if alias.name in MODULES else "__init__"
                             for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nvphonon"):
            parts = node.module.split(".")
            found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "nvphonon":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_no_import_inside_a_function():
    deferred = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                deferred += [f"{name}.py:{node.lineno} in {getattr(func, 'name', 'lambda')}"
                             for node in ast.walk(func)
                             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert deferred == []


def test_package_import_graph_is_acyclic():
    graph = {name: _package_imports(tree) & set(MODULES)
             for name, tree in _trees().items()}
    assert "phonon" not in graph["estimate"]
    done, path = set(), []

    def visit(name):
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        path.append(name)
        for child in sorted(graph[name]):
            visit(child)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_package_loads_no_scipy():
    # the runtime needs numpy alone; scipy serves only the tests' oracles
    probe = ("import sys, nvphonon, nvphonon.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert loaded.strip() == "[]"


def test_importing_the_cli_builds_no_parser():
    # main() builds its parser on its first call, not at import
    probe = ("import argparse; built = []; init = argparse.ArgumentParser.__init__; "
             "argparse.ArgumentParser.__init__ = "
             "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
             "import nvphonon, nvphonon.cli; print(len(built))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    built = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                           capture_output=True, text=True).stdout
    assert built.strip() == "0"
