"""No module of the package or of the scripts imports a name it never uses.

A name bound by an import counts as used when the scope that imports it
reads it (a module-level import anywhere in the module, a function's import
within that function) or when it is listed in the module's ``__all__``.
Stdlib ``ast`` only: the scan runs wherever the suite runs.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "conflictlab").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _exported(tree):
    """The names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _imports(scope):
    """(name, line) of each name the scope's own imports bind, and the
    nested function scopes, whose imports are their own."""
    bound, nested = [], []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nested.append(node)
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((name, node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return bound, nested


def unused_imports(path):
    """(line, name) of every imported name its scope never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = _exported(tree)
    unused, scopes = [], [tree]
    while scopes:
        scope = scopes.pop()
        bound, nested = _imports(scope)
        scopes.extend(nested)
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            read |= exported
        unused.extend((line, name) for name, line in bound if name not in read)
    return sorted(unused)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from math import pi, tau\n"
        "import os.path\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    from math import e, inf\n"
        "    return e + os.sep\n"
        "def g():\n"
        "    return inf\n"
    )
    assert unused_imports(path) == [(1, "pi"), (5, "inf")]
