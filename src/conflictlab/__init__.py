"""Radial laboratory for two-species chemotaxis with conflict on the unit disk.

Steady states of the nonlocal Liouville system, the free-energy functionals
and their gradient flows, blow-down scaling experiments, and the (m1, m2)
phase diagram of boundedness predictions.
"""

__version__ = "0.1.0"
