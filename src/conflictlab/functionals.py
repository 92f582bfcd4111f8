"""Itemized evaluators for the model's energy functionals.

Every evaluator that mixes several integral terms returns a
FunctionalReport carrying the decomposition, because the interesting
statements (bounds, scaling shifts, criticality) live at the level of
individual terms.  Sign conventions: interaction_energy is the raw
pairing (rho, inv_dirichlet_laplacian rho) <= 0; coupling factors such
as alpha/2 are applied here, not in the calculus layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (
    _entropy,
    _pairing,
    dirichlet_energy,
    entropy,
    face_flux,
    face_masses,
    interaction_energy,
    inv_laplacian,
    log_partition,
)
from .errors import _releasing
from .liouville import _densities, _minimize_w
from .model import Params, RadialField

__all__ = [
    "FunctionalReport",
    "chemical_energy",
    "free_energy",
    "joint_free_energy",
    "moser_trudinger",
    "relaxed_free_energy",
    "two_species_energy_rho",
    "two_species_energy_u",
]


@dataclass(frozen=True)
class FunctionalReport:
    """One functional value split into its integral terms.

    Unused slots are zero; total is the plain sum of the six parts, in order.
    """

    entropy1: float = 0.0
    entropy2: float = 0.0
    interaction: float = 0.0
    dirichlet: float = 0.0
    cross: float = 0.0
    log_terms: float = 0.0
    total = property(lambda self: _total(vars(self)))


def _total(parts: dict) -> float:
    """The total of a report of these parts, without building the report."""
    return sum(parts.values())


def free_energy(rho: RadialField, p: Params) -> FunctionalReport:
    """Entropy plus self-interaction: int rho ln rho + (alpha/2)(rho, inv_lap rho)."""
    return FunctionalReport(
        entropy1=entropy(rho),
        interaction=0.5 * p.alpha * interaction_energy(rho),
    )


def moser_trudinger(u: RadialField, m: float, alpha: float) -> float:
    """(alpha/2) int |grad u|^2 - m ln int e^{alpha u} for a potential u.

    Bounded below uniformly in u exactly when m <= 8 pi / alpha.
    """
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return 0.5 * alpha * dirichlet_energy(u) - m * log_partition([(alpha, u)])


def chemical_energy(rho: RadialField, w: RadialField, m: float, p: Params) -> float:
    """(gamma/2) int |grad w|^2 + m ln int e^{-gamma w - theta beta u}.

    ``u = inv_laplacian(rho)`` is the potential of the fixed density; at
    theta = -1 the exponent is the familiar -gamma w + beta u.
    """
    u = inv_laplacian(rho)
    grad_term = 0.5 * p.gamma * dirichlet_energy(w)
    log_term = m * log_partition(list(zip(p.coupling[1], (u, w))))
    return grad_term + log_term


def _joint_terms(rho, w, u, p):
    """The raw terms of the joint free energy, u being the potential of rho:
    entropy, pairing, Dirichlet integral of w and log-partition."""
    return (
        entropy(rho),
        interaction_energy(rho),
        dirichlet_energy(w),
        log_partition(list(zip(p.coupling[1], (u, w)))),
    )


def _joint(p, entropy1, pairing, dirichlet, log_z) -> FunctionalReport:
    """The joint free-energy report of raw terms from _joint_terms."""
    return FunctionalReport(
        entropy1=entropy1,
        interaction=0.5 * p.alpha * pairing,
        dirichlet=0.5 * p.gamma * dirichlet,
        log_terms=p.m2 * log_z,
    )


def joint_free_energy(rho: RadialField, w: RadialField, p: Params) -> FunctionalReport:
    """free_energy(rho) plus chemical_energy(rho, w, m2) in one itemized report."""
    return _joint(p, *_joint_terms(rho, w, inv_laplacian(rho), p))


@_releasing
def relaxed_free_energy(rho: RadialField, p: Params):
    """Infimum of the joint free energy over w, with the minimizer.

    Returns (value, w_star).  For gamma = 0 or m2 = 0 the log term does not
    see w and w_star = 0 is exact; otherwise w_star comes from the chemical
    Newton solve of the solver module, which raises SolverDiverged when it
    fails.
    """
    u = inv_laplacian(rho)
    w_star = RadialField.potential(rho.grid, _minimize_w(rho.grid, u.values, p)[0])
    return _joint(p, *_joint_terms(rho, w_star, u, p)).total, w_star


def two_species_energy_u(u1: RadialField, u2: RadialField, p: Params) -> FunctionalReport:
    """The potential-form two-species energy.

    (alpha/2) D(u1) - (theta gamma/2) D(u2) - beta <grad u1, grad u2>
    - m1 ln int e^{alpha u1 - beta u2} - theta m2 ln int e^{-gamma u2 - theta beta u1},
    with D the Dirichlet integral.  A converged solver pair is a critical
    point of this report's total.
    """
    if u1.kind != "potential" or u2.kind != "potential":
        raise ValueError("two_species_energy_u expects potential-tagged fields")
    if not u1.grid.same_as(u2.grid):
        raise ValueError("two_species_energy_u needs a shared grid")
    m_log_zs = _densities(u1.grid, p, u1.values, u2.values)[2]
    cs = np.array([face_flux(u1), face_flux(u2)])
    return FunctionalReport(**_energy_u(u1.grid, cs, *m_log_zs, p))


def _energy_u(grid, cs, m_log_z1, m_log_z2, p) -> dict:
    """The parts of two_species_energy_u from the face fluxes of u1, u2 as
    the rows of cs and the log-partition terms m_i ln int e^{g_i} of their
    exponents."""
    (c11, c12), (_, c22) = _pairing(grid, cs[:, None], cs[None]).tolist()
    return dict(
        dirichlet=0.5 * p.alpha * c11 - 0.5 * p.theta * p.gamma * c22,
        cross=-p.beta * c12,
        log_terms=-m_log_z1 - p.theta * m_log_z2,
    )


def two_species_energy_rho(rho1: RadialField, rho2: RadialField, p: Params) -> FunctionalReport:
    """The density-form two-species energy.

    int rho1 ln rho1 + theta int rho2 ln rho2 + (alpha/2)(rho1, G rho1)
    - (theta gamma/2)(rho2, G rho2) - beta (rho2, G rho1), writing G for
    the (negative) inverse Dirichlet Laplacian pairing.
    """
    if not rho1.grid.same_as(rho2.grid):
        raise ValueError("two_species_energy_rho needs a shared grid")
    return FunctionalReport(**_energy_rho(
        rho1.grid,
        np.array([rho1.values, rho2.values]),
        np.array([face_masses(rho1), face_masses(rho2)]),
        p,
    ))


def _energy_rho(grid, rhos, mts, p) -> dict:
    """The parts of two_species_energy_rho from the densities rho1, rho2
    and their face masses, each pair stacked as rows."""
    e1, e2 = _entropy(grid, rhos).tolist()
    (m11, _), (m21, m22) = _pairing(grid, mts[:, None], mts[None]).tolist()
    return dict(
        entropy1=e1,
        entropy2=p.theta * e2,
        interaction=0.5 * p.alpha * -m11 - 0.5 * p.theta * p.gamma * -m22,
        cross=p.beta * m21,
    )
