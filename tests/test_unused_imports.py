"""No module of the package, the scripts or the tests imports a name it
never uses, no module of the package defines a private name that
neither the package nor the benchmark references, no module of the package defines a public
function or class that nothing but its own unit tests calls, and no module
of the package defines an exception class that no caller tells apart.

A name bound by an import counts as used when the scope that imports it
reads it (a module-level import anywhere in the module, a function's import
within that function) or when it is listed in the module's ``__all__``.
A module-level private function, class or constant counts as referenced
when any module of the package or the benchmark reads a name or an
attribute so spelled, or imports it: the benchmark's tracer reads and
patches ``flow._STEPPERS``, which the package itself no longer calls.  A module-level public function or class counts as called when
the package, the scripts, the benchmark or the acceptance tests read a name
or an attribute so spelled, or import it; the paper's functionals are kept
by name.  An exception class counts as told apart only where the package,
the scripts or the benchmark name it in an ``except`` clause, or the
benchmark names it as the ``expect=`` of an operation: a class that is
only raised is a plain ValueError or RuntimeError with a message, which is
all the command line's exit codes read.  Warning classes are exempt, since
a caller filters a warning by its class.  Stdlib ``ast`` only: the scan
runs wherever the suite runs.
"""

import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "conflictlab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
FILES = sorted([*PACKAGE, *SCRIPTS, *(ROOT / "tests").glob("*.py")])
CALLERS = sorted([
    *PACKAGE,
    *SCRIPTS,
    *(ROOT / "bench").glob("*.py"),
    ROOT / "tests" / "test_acceptance.py",
])
DISCERNERS = sorted([*PACKAGE, *SCRIPTS, *(ROOT / "bench").glob("*.py")])
# the paper's functionals: F, the chemical energy, F(rho, w), its infimum
# over w, and the two-species energy in potential and density form
KEEP = {
    "free_energy",
    "chemical_energy",
    "joint_free_energy",
    "relaxed_free_energy",
    "two_species_energy_u",
    "two_species_energy_rho",
}


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


def _private_definitions(tree):
    """(line, name) of each private function, class or constant that the
    module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def _references(tree):
    """Every name the module reads, every attribute it reads and every name
    it imports from a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unreferenced_privates(paths, readers=()):
    """(file, line, name) of every module-level private definition in the
    files that none of the files or the readers references."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    others = [ast.parse(path.read_text(), filename=str(path)) for path in readers]
    read = set().union(*map(_references, [*trees.values(), *others]))
    return sorted(
        (path.name, line, name)
        for path, tree in trees.items()
        for line, name in _private_definitions(tree)
        if name not in read
    )


def test_no_unreferenced_private_names():
    assert unreferenced_privates(PACKAGE, sorted((ROOT / "bench").glob("*.py"))) == []


def test_scan_finds_an_unreferenced_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED, _LOST = 1, 2\n"
        "_TYPED: int = 3\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Gone:\n"
        "    def _method(self):\n"
        "        return 0\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _helper\n"
        "import a\n"
        "x = a._TYPED\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert unreferenced_privates(paths) == [("a.py", 1, "_LOST"), ("a.py", 6, "_Gone")]
    reader = tmp_path / "reader" / "c.py"
    reader.parent.mkdir()
    reader.write_text("import a\nprint(a._LOST)\n")
    assert unreferenced_privates(paths, [reader]) == [("a.py", 6, "_Gone")]


def _public_definitions(tree):
    """(line, name) of each public function or class that the module
    defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.lineno, node.name


def uncalled_publics(paths, callers, keep=frozenset()):
    """(file, line, name) of every module-level public function or class in
    the files that none of the callers references, except those in keep."""
    read = set().union(*(_references(ast.parse(c.read_text(), filename=str(c))) for c in callers))
    return sorted(
        (path.name, line, name)
        for path in paths
        for line, name in _public_definitions(ast.parse(path.read_text(), filename=str(path)))
        if name not in read and name not in keep
    )


def test_no_uncalled_public_names():
    assert uncalled_publics(PACKAGE, CALLERS, KEEP) == []


def test_scan_finds_an_uncalled_public_name(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Docstrings name lost() without reading it."""\n'
        "__all__ = ['Lost', 'lost', 'kept', 'used', 'Used']\n"
        "def used():\n"
        "    return 0\n"
        "def lost():\n"
        "    return used()\n"
        "def kept():\n"
        "    return 1\n"
        "class Used:\n"
        "    def method(self):\n"
        "        return 2\n"
        "class Lost:\n"
        "    pass\n"
        "def _private():\n"
        "    return 3\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import Used\n"
        "metric = 'a.Lost'\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert uncalled_publics(paths, paths, {"kept"}) == [("a.py", 5, "lost"), ("a.py", 12, "Lost")]


def _exception_classes(trees):
    """(file, line, name) of each module-level class of the trees that
    derives, by the names of its bases, from a builtin exception other
    than a Warning, directly or through another such class."""
    classes = [
        (path, node)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    ]
    kinds = {}  # class name -> is it a warning
    for name in dir(builtins):
        obj = getattr(builtins, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            kinds[name] = issubclass(obj, Warning)
    grew = True
    while grew:
        grew = False
        for _, node in classes:
            bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases]
            known = [kinds[b] for b in bases if b in kinds]
            if node.name not in kinds and known:
                kinds[node.name] = any(known)
                grew = True
    return sorted(
        (path.name, node.lineno, node.name)
        for path, node in classes
        if kinds.get(node.name) is False
    )


def _discerned(tree):
    """The names of the classes the module's except clauses catch, and the
    strings it passes as ``expect=``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found.update(getattr(t, "id", None) or getattr(t, "attr", None) for t in caught)
        elif (isinstance(node, ast.keyword) and node.arg == "expect"
              and isinstance(node.value, ast.Constant)):
            found.add(node.value.value)
    return found


def undiscerned_exceptions(paths, discerners):
    """(file, line, name) of every exception class in the files, warnings
    aside, that none of the discerners catches or expects by name."""
    parse = lambda path: ast.parse(path.read_text(), filename=str(path))
    told = set().union(*(_discerned(parse(d)) for d in discerners))
    return [c for c in _exception_classes({p: parse(p) for p in paths}) if c[2] not in told]


def test_every_exception_class_is_told_apart():
    assert undiscerned_exceptions(PACKAGE, DISCERNERS) == []


def test_scan_finds_an_exception_class_nobody_tells_apart(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Caught(ValueError):\n"
        "    pass\n"
        "class Raised(RuntimeError):\n"
        "    pass\n"
        "class Expected(Caught):\n"
        "    pass\n"
        "class Deeper(Raised):\n"
        "    pass\n"
        "class Noted(Warning):\n"
        "    pass\n"
        "class Louder(Noted):\n"
        "    pass\n"
        "class Plain:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "import a\n"
        "try:\n"
        "    raise a.Raised('only raised')\n"
        "except (a.Caught, OSError):\n"
        "    pass\n"
        "except Exception:\n"
        "    pass\n"
        "op = dict(expect='Expected')\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert undiscerned_exceptions(paths, paths) == [("a.py", 3, "Raised"), ("a.py", 7, "Deeper")]
