"""Disk quadrature and the radial inverse Dirichlet Laplacian.

The discretization is one consistent finite-volume family. With V_i the cell
r-volumes of the grid and mtilde_{j+1/2} = sum_{i<=j} V_i rho_i the running
face masses, the potential u with Delta u = -rho, u(1) = 0 is accumulated
cell by cell through the exact annulus integral

    u_j - u_{j+1} = mtilde_{j+1/2} * ln(r_{j+1}/r_j),

with the axis cell closed by the regularity rule u_0 - u_1 = 2*mtilde_{1/2}.
Three useful identities then hold to round-off rather than to O(h^2):

* the pairing integral(f * inv_laplacian(g)) is symmetric in (f, g),
* a density supported inside radius a generates exactly the logarithmic
  exterior potential (m/2pi) ln(1/r) at nodes r >= a,
* dirichlet_energy(inv_laplacian(rho)) == -interaction_energy(rho).

The face value mtilde equals -r u_r, so the boundary flux identity
u_r(1) = -M/2pi is the statement mtilde(1) = M/2pi, which the prefix sums
reproduce exactly by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import BadRadius, GridMismatch, NegativeDensity
from .model import RadialField, RadialGrid

__all__ = [
    "cross_dirichlet",
    "dirichlet_energy",
    "entropy",
    "exterior_potential",
    "face_flux",
    "face_masses",
    "green_pairing",
    "integrate_disk",
    "interaction_energy",
    "inv_laplacian",
    "log_partition",
]


def integrate_disk(f: RadialField) -> float:
    """2*pi*int_0^1 f(r) r dr by the cell-volume rule (exact for constants)."""
    return float(np.dot(f.grid.weights, f.values))


def face_masses(rho: RadialField) -> np.ndarray:
    """Running mass / 2pi at the cell faces: mtilde_{j+1/2}, j = 0..n-1."""
    return (rho.grid.volumes * rho.values).cumsum()[:-1]


def inv_laplacian(rho: RadialField) -> RadialField:
    """Solve Delta u = -rho on the disk with u(1) = 0, radially.

    For rho >= 0 the output is >= 0 everywhere (maximum principle); signed
    input is accepted for operator-level tests.
    """
    return RadialField.potential(rho.grid, _green(rho.grid, rho.values)[0])


def _green(grid: RadialGrid, rho_vals: np.ndarray):
    """inv_laplacian on raw arrays: the potential values and face masses."""
    mtilde = (grid.volumes * rho_vals).cumsum()[:-1]
    u = np.zeros(grid.r.size)
    if grid.n > 1:
        terms = mtilde[1:] * grid.log_ratio[1:]
        u[1:-1] = terms[::-1].cumsum()[::-1]
    u[0] = u[1] + 2.0 * mtilde[0]
    return u, mtilde


def face_flux(w: RadialField) -> np.ndarray:
    """-r w_r at the cell faces of an arbitrary field, length n.

    Defined through the same cell integrals the Green operator uses, so
    face_flux(inv_laplacian(rho)) reproduces face_masses(rho) up to round-off.
    """
    grid = w.grid
    v = w.values
    c = np.empty(grid.n)
    c[0] = 0.5 * (v[0] - v[1])
    c[1:] = (v[1:-1] - v[2:]) / grid.log_ratio[1:]
    return c


def exterior_potential(m_inner: float, r: float) -> float:
    """(m_inner/2pi) ln(1/r): the potential outside a mass m_inner supported
    strictly inside radius r. Raises BadRadius outside (0, 1]."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r > 1.0):
        raise BadRadius(f"radius {r!r} outside (0, 1]")
    out = (m_inner / (2.0 * np.pi)) * np.log(1.0 / r)
    return float(out) if out.ndim == 0 else out


def entropy(rho: RadialField) -> float:
    """2*pi*int rho ln(rho) r dr, with s ln s extended by 0 at s = 0.

    Raises NegativeDensity for signed input.
    """
    v = rho.values
    if (v < 0).any():
        raise NegativeDensity("entropy needs rho >= 0")
    pos = v > 0
    integrand = np.where(pos, v * np.log(np.where(pos, v, 1.0)), 0.0)
    return float(np.dot(rho.grid.weights, integrand))


def cross_dirichlet(w1: RadialField, w2: RadialField) -> float:
    """2*pi*int w1_r w2_r r dr via the shared face-gradient quadrature."""
    if not w1.grid.same_as(w2.grid):
        raise GridMismatch("cross_dirichlet needs a shared grid")
    grid = w1.grid
    c1, c2 = face_flux(w1), face_flux(w2)
    body = np.dot(c1[1:] * grid.log_ratio[1:], c2[1:])
    return float(2.0 * np.pi * (body + 2.0 * c1[0] * c2[0]))


def dirichlet_energy(w: RadialField) -> float:
    """2*pi*int |w_r|^2 r dr for a potential-tagged field."""
    if w.kind != "potential":
        raise ValueError("dirichlet_energy expects a potential-tagged field")
    return cross_dirichlet(w, w)


def green_pairing(f: RadialField, g: RadialField) -> float:
    """integral of f * inv_laplacian(g) over the disk, assembled in the
    exactly symmetric face-mass form (so pairing(f, g) == pairing(g, f)
    bit-for-bit up to commutative rounding)."""
    if not f.grid.same_as(g.grid):
        raise GridMismatch("green_pairing needs a shared grid")
    grid = f.grid
    mf, mg = face_masses(f), face_masses(g)
    body = np.dot(mf[1:] * grid.log_ratio[1:], mg[1:])
    return float(2.0 * np.pi * (body + 2.0 * mf[0] * mg[0]))


def interaction_energy(rho: RadialField) -> float:
    """The raw pairing (rho, Delta^-1 rho) <= 0, without any coupling factor
    (the functional layer applies alpha/2 and friends)."""
    return -green_pairing(rho, rho)


def log_partition(fields: Sequence[tuple[float, RadialField]]) -> float:
    """ln(2*pi*int exp(sum_k coef_k f_k) r dr), overflow-safe.

    The maximum exponent is factored out before integrating, so blow-down
    exponents far beyond 700 are fine. An empty list gives ln(pi).
    """
    if not fields:
        return float(np.log(np.pi))
    grid = fields[0][1].grid
    g = np.zeros_like(grid.r)
    for coef, f in fields:
        if not f.grid.same_as(grid):
            raise GridMismatch("log_partition needs all fields on one grid")
        g = g + coef * f.values
    top = float(g.max())
    return top + float(np.log(np.dot(grid.weights, np.exp(g - top))))
