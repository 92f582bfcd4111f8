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

The underscored cores work on raw arrays, so a solver or a time step that
already holds the face masses, face fluxes or Boltzmann exponential of a
field reuses them; the public functions wrap the same cores.
"""

from __future__ import annotations

import math
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
    return _face_masses(rho.grid, rho.values)


def _face_masses(grid: RadialGrid, rho_vals: np.ndarray) -> np.ndarray:
    return (grid.volumes * rho_vals).cumsum()[:-1]


def inv_laplacian(rho: RadialField) -> RadialField:
    """Solve Delta u = -rho on the disk with u(1) = 0, radially.

    For rho >= 0 the output is >= 0 everywhere (maximum principle); signed
    input is accepted for operator-level tests.
    """
    return RadialField.potential(rho.grid, _green(rho.grid, rho.values)[0])


def _green(grid: RadialGrid, rho_vals: np.ndarray):
    """inv_laplacian on raw arrays: the potential values and face masses."""
    mtilde = _face_masses(grid, rho_vals)
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
    return _face_flux(w.grid, w.values)


def _face_flux(grid: RadialGrid, v: np.ndarray) -> np.ndarray:
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
    return _entropy(rho.grid, rho.values)


def _entropy(grid: RadialGrid, v: np.ndarray) -> float:
    if (v < 0).any():
        raise NegativeDensity("entropy needs rho >= 0")
    pos = v > 0
    integrand = np.where(pos, v * np.log(np.where(pos, v, 1.0)), 0.0)
    return float(np.dot(grid.weights, integrand))


def cross_dirichlet(w1: RadialField, w2: RadialField) -> float:
    """2*pi*int w1_r w2_r r dr via the shared face-gradient quadrature."""
    if not w1.grid.same_as(w2.grid):
        raise GridMismatch("cross_dirichlet needs a shared grid")
    return _pairing(w1.grid, face_flux(w1), face_flux(w2))


def dirichlet_energy(w: RadialField) -> float:
    """2*pi*int |w_r|^2 r dr for a potential-tagged field."""
    if w.kind != "potential":
        raise ValueError("dirichlet_energy expects a potential-tagged field")
    c = face_flux(w)
    return _pairing(w.grid, c, c)


def _pairing(grid: RadialGrid, a: np.ndarray, b: np.ndarray) -> float:
    """2*pi*(2 a_0 b_0 + sum_j a_j b_j ln(r_{j+1}/r_j)) for face arrays a, b:
    the Dirichlet pairing of face fluxes and the Green pairing of face
    masses alike."""
    body = np.dot(a[1:] * grid.log_ratio[1:], b[1:])
    return float(2.0 * np.pi * (body + 2.0 * a[0] * b[0]))


def green_pairing(f: RadialField, g: RadialField) -> float:
    """integral of f * inv_laplacian(g) over the disk, assembled in the
    exactly symmetric face-mass form (so pairing(f, g) == pairing(g, f)
    bit-for-bit up to commutative rounding)."""
    if not f.grid.same_as(g.grid):
        raise GridMismatch("green_pairing needs a shared grid")
    return _pairing(f.grid, face_masses(f), face_masses(g))


def interaction_energy(rho: RadialField) -> float:
    """The raw pairing (rho, Delta^-1 rho) <= 0, without any coupling factor
    (the functional layer applies alpha/2 and friends)."""
    m = face_masses(rho)
    return -_pairing(rho.grid, m, m)


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
    return _normalized_density(grid, g, 1.0)[2]


def _normalized_density(grid: RadialGrid, g: np.ndarray, m: float):
    """The density m e^g / integral(e^g), its multiplier m / integral(e^g)
    and the log-partition term m ln integral(e^g), from one overflow-safe
    exponential; all three are zero at zero mass."""
    if m == 0.0:
        return np.zeros_like(grid.r), 0.0, 0.0
    top = float(g.max())
    e = np.exp(g - top)
    z = float(np.dot(grid.weights, e))
    return (m / z) * e, m * math.exp(-top) / z, m * (top + float(np.log(z)))


def _tridiag(grid: RadialGrid, diag, fp=1.0, fm=1.0) -> np.ndarray:
    """Banded (3, k(n+1)) matrix of diag plus the face couplings t fp and
    t fm, with t the face transmissibilities 1/ln(r_{j+1}/r_j), 1/2 at the
    axis cell.

    fp and fm of shape (k, n) give k independent blocks side by side, one
    per row: the couplings across a block junction are zero."""
    t = np.empty(grid.n)
    t[0] = 0.5
    t[1:] = 1.0 / grid.log_ratio[1:]
    bp, bm = t * fp, t * fm
    ab = np.zeros((3, *bp.shape[:-1], grid.n + 1))
    ab[1] = diag
    ab[1, ..., :-1] += bp
    ab[1, ..., 1:] += bm
    ab[0, ..., 1:] = -bm
    ab[2, ..., :-1] = -bp
    return ab.reshape(3, -1)


def _pin_wall(ab: np.ndarray) -> None:
    """Make the last row of a banded system the identity, decoupled from
    the rest: its unknown then takes the right-hand side's wall value."""
    ab[0][-1] = 0.0
    ab[1][-1] = 1.0
    ab[2][-2] = 0.0


def _solve_tridiag(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.solve_banded((1, 1), ab, b) as one LAPACK gtsv call: the
    same bits, for one right-hand side or a column of them, and ValueError
    for non-finite input and LinAlgError for a singular matrix alike,
    without the wrapper's per-call cost.  scipy loads on the first call."""
    from scipy.linalg.lapack import dgtsv

    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x
