"""No module of the package spells the cross coupling theta beta by hand.

Every Boltzmann exponent is a row of ``Params.coupling`` times the
potentials, formed by ``liouville._exponents``; a solver, drift or
log-partition that multiplies ``theta`` and ``beta`` itself would build a
second copy of the coupling matrix that can drift from the first.  The scan
flags each arithmetic expression whose subtree reads both a ``.theta`` and a
``.beta`` attribute.  ``model.py`` derives the matrix, and ``phase.py``
states its closed forms in alpha, beta and gamma as the paper does, so both
are exempt.

A second scan flags every power whose base reads a mass or a constant, a
name or attribute ``m1``, ``m2``, ``alpha``, ``beta`` or ``gamma``: these
are squared as plain products, which are correctly rounded, where ``**``
on a Python float goes through libm ``pow``, which is not always, and
overflows with an OverflowError where a product gives inf.  Stdlib ``ast`` only: the scans run wherever the suite
runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {"model.py", "phase.py"}
SOURCES = sorted((ROOT / "src" / "conflictlab").glob("*.py"))
MODULES = [path for path in SOURCES if path.name not in EXEMPT]
INPUTS = {"m1", "m2", "alpha", "beta", "gamma"}


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


def input_powers(path):
    """The lines of every ``**`` in the file whose base reads a name or
    attribute of INPUTS."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            reads = {n.id for n in ast.walk(node.left) if isinstance(n, ast.Name)}
            reads |= {n.attr for n in ast.walk(node.left) if isinstance(n, ast.Attribute)}
            if reads & INPUTS:
                lines.add(node.lineno)
    return sorted(lines)


def test_no_squared_mass():
    assert [(path.name, line) for path in SOURCES for line in input_powers(path)] == []


def test_scan_finds_a_squared_mass(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "a = p.m1**2\n"
        "b = (m2 / (2.0 * math.pi)) ** 2\n"
        "c = m1 * m1 + r**2 + 2.0**m2\n"
        "d = (\n"
        "    q.m2\n"
        "    ** 2\n"
        ")\n"
        "e = p.beta**2 + p.alpha * p.gamma\n"
        "f = (alpha * m) ** 0.5 + gamma * gamma + x**beta\n"
        "g = (p.gamma / 2.0) ** 2\n"
    )
    assert input_powers(path) == [1, 2, 5, 8, 9, 10]
