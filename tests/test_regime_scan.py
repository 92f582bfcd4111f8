"""No module of the package spells a flow regime's limit by hand.

Each regime is named once, in ``model.FLOW_LIMITS``, and ``flow._REGIMES``
keys its one row by that value; a tuple literal of three numbers equal to a
limit elsewhere would be a second declaration of the regime that can drift
from the first.  The scan flags every such literal outside ``model.py``,
subscripts included.  Stdlib ``ast`` and the limits themselves only.
"""

import ast
from pathlib import Path

from conflictlab.model import FLOW_LIMITS

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path for path in sorted((ROOT / "src" / "conflictlab").glob("*.py")) if path.name != "model.py"
]
LIMITS = set(FLOW_LIMITS.values())


def spelled_regimes(path):
    """The lines of every tuple literal of three numbers equal to a limit."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 3:
            values = [getattr(elt, "value", None) for elt in node.elts]
            numbers = all(type(v) in (int, float) for v in values)
            if numbers and tuple(map(float, values)) in LIMITS:
                lines.add(node.lineno)
    return sorted(lines)


def test_no_spelled_regime():
    assert [(path.name, line) for path in MODULES for line in spelled_regimes(path)] == []


def test_scan_finds_a_spelled_regime(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "steppers = {(1.0, 0.0, 0.0): step}\n"
        "if regime == (1, 1, 0):\n"
        "    step = steppers[0.0, 0.0, 1.0]\n"
        "shape = (1.0, 0.0)\n"
        "other = (1.0, 0.0, 2.0)\n"
        "names = ('1.0', 0.0, 0.0)\n"
        "flags = (True, False, False)\n"
    )
    assert spelled_regimes(path) == [1, 2, 3]
