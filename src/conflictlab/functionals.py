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

from .calculus import (
    _entropy,
    _normalized_density,
    _pairing,
    dirichlet_energy,
    entropy,
    face_flux,
    face_masses,
    interaction_energy,
    inv_laplacian,
    log_partition,
)
from .errors import GridMismatch, NonpositiveMass
from .liouville import _exponents, _minimize_w
from .model import Params, RadialField, validate_params

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

    Unused slots are zero; total is always the plain sum of the six parts.
    """

    entropy1: float = 0.0
    entropy2: float = 0.0
    interaction: float = 0.0
    dirichlet: float = 0.0
    cross: float = 0.0
    log_terms: float = 0.0
    total: float = 0.0


def _report(**parts) -> FunctionalReport:
    total = sum(parts.values())
    return FunctionalReport(total=total, **parts)


def free_energy(rho: RadialField, p: Params) -> FunctionalReport:
    """Entropy plus self-interaction: int rho ln rho + (alpha/2)(rho, inv_lap rho)."""
    p = validate_params(p)
    return _report(
        entropy1=entropy(rho),
        interaction=0.5 * p.alpha * interaction_energy(rho),
    )


def moser_trudinger(u: RadialField, m: float, alpha: float) -> float:
    """(alpha/2) int |grad u|^2 - m ln int e^{alpha u} for a potential u.

    Bounded below uniformly in u exactly when m <= 8 pi / alpha.
    """
    if m <= 0:
        raise NonpositiveMass(f"mass must be positive, got {m}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return 0.5 * alpha * dirichlet_energy(u) - m * log_partition([(alpha, u)])


def chemical_energy(rho: RadialField, w: RadialField, m: float, p: Params) -> float:
    """(gamma/2) int |grad w|^2 + m ln int e^{-gamma w - theta beta u}.

    ``u = inv_laplacian(rho)`` is the potential of the fixed density; at
    theta = -1 the exponent is the familiar -gamma w + beta u.
    """
    p = validate_params(p)
    u = inv_laplacian(rho)
    grad_term = 0.5 * p.gamma * dirichlet_energy(w)
    log_term = m * log_partition([(-p.gamma, w), (-p.theta * p.beta, u)])
    return grad_term + log_term


def _joint_terms(rho, w, u, p):
    """The raw terms of the joint free energy, u being the potential of rho:
    entropy, pairing, Dirichlet integral of w and log-partition."""
    return (
        entropy(rho),
        interaction_energy(rho),
        dirichlet_energy(w),
        log_partition([(-p.gamma, w), (-p.theta * p.beta, u)]),
    )


def _joint(p, entropy1, pairing, dirichlet, log_z) -> FunctionalReport:
    """The joint free-energy report of raw terms from _joint_terms."""
    return _report(
        entropy1=entropy1,
        interaction=0.5 * p.alpha * pairing,
        dirichlet=0.5 * p.gamma * dirichlet,
        log_terms=p.m2 * log_z,
    )


def joint_free_energy(rho: RadialField, w: RadialField, p: Params) -> FunctionalReport:
    """free_energy(rho) plus chemical_energy(rho, w, m2) in one itemized report."""
    p = validate_params(p)
    return _joint(p, *_joint_terms(rho, w, inv_laplacian(rho), p))


def relaxed_free_energy(rho: RadialField, p: Params, opts=None):
    """Infimum of the joint free energy over w, with the minimizer.

    Returns (value, w_star).  For gamma = 0 the log term does not see w
    and w_star = 0 is exact; otherwise the minimizer comes from the
    solver module.
    """
    p = validate_params(p)
    u = inv_laplacian(rho)
    w_star = RadialField.potential(
        rho.grid, _minimize_w(rho.grid, rho.values, u.values, p, opts)
    )
    return _joint(p, *_joint_terms(rho, w_star, u, p)).total, w_star


def two_species_energy_u(u1: RadialField, u2: RadialField, p: Params) -> FunctionalReport:
    """The potential-form two-species energy.

    (alpha/2) D(u1) - (theta gamma/2) D(u2) - beta <grad u1, grad u2>
    - m1 ln int e^{alpha u1 - beta u2} - theta m2 ln int e^{-gamma u2 - theta beta u1},
    with D the Dirichlet integral.  A converged solver pair is a critical
    point of this report's total.
    """
    p = validate_params(p)
    if u1.kind != "potential" or u2.kind != "potential":
        raise ValueError("two_species_energy_u expects potential-tagged fields")
    if not u1.grid.same_as(u2.grid):
        raise GridMismatch("two_species_energy_u needs a shared grid")
    grid = u1.grid
    g1, g2 = _exponents(p, u1.values, u2.values)
    return _energy_u(
        grid, face_flux(u1), face_flux(u2),
        _normalized_density(grid, g1, p.m1)[2], _normalized_density(grid, g2, p.m2)[2], p,
    )


def _energy_u(grid, c1, c2, m_log_z1, m_log_z2, p) -> FunctionalReport:
    """two_species_energy_u from the face fluxes of u1, u2 and the
    log-partition terms m_i ln int e^{g_i} of their exponents."""
    return _report(
        dirichlet=0.5 * p.alpha * _pairing(grid, c1, c1)
        - 0.5 * p.theta * p.gamma * _pairing(grid, c2, c2),
        cross=-p.beta * _pairing(grid, c1, c2),
        log_terms=-m_log_z1 - p.theta * m_log_z2,
    )


def two_species_energy_rho(rho1: RadialField, rho2: RadialField, p: Params) -> FunctionalReport:
    """The density-form two-species energy.

    int rho1 ln rho1 + theta int rho2 ln rho2 + (alpha/2)(rho1, G rho1)
    - (theta gamma/2)(rho2, G rho2) - beta (rho2, G rho1), writing G for
    the (negative) inverse Dirichlet Laplacian pairing.
    """
    p = validate_params(p)
    if not rho1.grid.same_as(rho2.grid):
        raise GridMismatch("two_species_energy_rho needs a shared grid")
    return _energy_rho(
        rho1.grid, rho1.values, rho2.values, face_masses(rho1), face_masses(rho2), p
    )


def _energy_rho(grid, rho1, rho2, mt1, mt2, p) -> FunctionalReport:
    """two_species_energy_rho from the densities and their face masses."""
    return _report(
        entropy1=_entropy(grid, rho1),
        entropy2=p.theta * _entropy(grid, rho2),
        interaction=0.5 * p.alpha * -_pairing(grid, mt1, mt1)
        - 0.5 * p.theta * p.gamma * -_pairing(grid, mt2, mt2),
        cross=p.beta * _pairing(grid, mt2, mt1),
    )
