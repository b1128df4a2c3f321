"""Structure of the package's own imports: all at module level, no cycles."""

import ast
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
