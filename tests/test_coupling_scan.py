"""No module of the package spells the cross coupling theta beta by hand.

Every Boltzmann exponent is a row of ``Params.coupling`` times the
potentials, formed by ``liouville._exponents``; a solver, drift or
log-partition that multiplies ``theta`` and ``beta`` itself would build a
second copy of the coupling matrix that can drift from the first.  The scan
flags each arithmetic expression whose subtree reads both a ``.theta`` and a
``.beta`` attribute.  ``model.py`` derives the matrix, and ``phase.py``
states its closed forms in alpha, beta and gamma as the paper does, so both
are exempt.  Stdlib ``ast`` only: the scan runs wherever the suite runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {"model.py", "phase.py"}
MODULES = [
    path for path in sorted((ROOT / "src" / "conflictlab").glob("*.py")) if path.name not in EXEMPT
]


def hand_couplings(path):
    """The lines of every BinOp in the file whose subtree reads both
    ``.theta`` and ``.beta``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if {"theta", "beta"} <= attrs:
                lines.add(node.lineno)
    return sorted(lines)


def test_no_hand_spelled_coupling():
    assert [(path.name, line) for path in MODULES for line in hand_couplings(path)] == []


def test_scan_finds_a_hand_spelled_coupling(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "drive = -p.theta * p.beta * u\n"
        "enforced = p.theta == 1 and p.alpha * p.gamma >= p.beta**2\n"
        "g = (\n"
        "    -p.gamma * w\n"
        "    - p.theta * q.beta * u\n"
        ")\n"
        "row = p.coupling[1]\n"
    )
    assert hand_couplings(path) == [1, 4, 5]
