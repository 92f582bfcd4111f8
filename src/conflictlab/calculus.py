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
field reuses them; the public functions wrap the same cores.  _face_masses,
_green, _face_flux, _entropy and _pairing also take fields stacked as rows
and give, row by row, the same bits as one call per row.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Sequence

import numpy as np

from .errors import GridMismatch, NegativeDensity
from .model import RadialField, RadialGrid

__all__ = [
    "dirichlet_energy",
    "entropy",
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
    return (grid.volumes * rho_vals).cumsum(axis=-1)[..., :-1]


def inv_laplacian(rho: RadialField) -> RadialField:
    """Solve Delta u = -rho on the disk with u(1) = 0, radially.

    For rho >= 0 the output is >= 0 everywhere (maximum principle); signed
    input is accepted for operator-level tests.
    """
    return RadialField.potential(rho.grid, _green(rho.grid, rho.values)[0])


def _green(grid: RadialGrid, rho_vals: np.ndarray):
    """inv_laplacian on raw arrays: the potential values and face masses,
    or their rows for densities stacked as rows."""
    mt = _face_masses(grid, rho_vals)
    u = np.zeros(rho_vals.shape)
    terms = mt[..., 1:] * grid.log_ratio[1:]
    # the suffix sums of terms, written from the wall inwards into u[1:-1]
    terms[..., ::-1].cumsum(axis=-1, out=u[..., -2:0:-1])
    u.T[0] = u.T[1] + 2.0 * mt.T[0]
    return u, mt


def face_flux(w: RadialField) -> np.ndarray:
    """-r w_r at the cell faces of an arbitrary field, length n.

    Defined through the same cell integrals the Green operator uses, so
    face_flux(inv_laplacian(rho)) reproduces face_masses(rho) up to round-off.
    """
    return _face_flux(w.grid, w.values)


def _face_flux(grid: RadialGrid, v: np.ndarray) -> np.ndarray:
    """face_flux on raw arrays, or its rows for fields stacked as rows."""
    c = np.empty((*v.shape[:-1], grid.n))
    c.T[0] = 0.5 * (v.T[0] - v.T[1])
    c[..., 1:] = (v[..., 1:-1] - v[..., 2:]) / grid.log_ratio[1:]
    return c


def entropy(rho: RadialField) -> float:
    """2*pi*int rho ln(rho) r dr, with s ln s extended by 0 at s = 0.

    Raises NegativeDensity for signed input.
    """
    return _entropy(rho.grid, rho.values)


def _entropy(grid: RadialGrid, v: np.ndarray):
    """entropy of a density's values, or an array of them for a stack of
    rows; each row's sum is the one dot product a single field gets."""
    if (v < 0).any():
        raise NegativeDensity("entropy needs rho >= 0")
    pos = v > 0
    integrand = np.where(pos, v * np.log(np.where(pos, v, 1.0)), 0.0)
    out = np.vecdot(integrand, grid.weights)
    return out if v.ndim > 1 else float(out)


def dirichlet_energy(w: RadialField) -> float:
    """2*pi*int |w_r|^2 r dr for a potential-tagged field."""
    if w.kind != "potential":
        raise ValueError("dirichlet_energy expects a potential-tagged field")
    c = face_flux(w)
    return _pairing(w.grid, c, c)


def _pairing(grid: RadialGrid, a: np.ndarray, b: np.ndarray):
    """2*pi*(2 a_0 b_0 + sum_j a_j b_j ln(r_{j+1}/r_j)) for face arrays a, b:
    the Dirichlet pairing of face fluxes and the Green pairing of face
    masses alike.  Stacks of face arrays pair row by row, into an array;
    a[:, None] and b[None] give the matrix of every row of a with every
    row of b."""
    body = np.vecdot(a[..., 1:] * grid.log_ratio[1:], b[..., 1:])
    out = 2.0 * np.pi * (body + 2.0 * a[..., 0] * b[..., 0])
    return out if a.ndim > 1 else float(out)


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


def _tridiag(grid: RadialGrid, diag, fpm=None) -> np.ndarray:
    """Banded (3, k(n+1)) matrix of diag plus the face couplings t fp and
    t fm, with t the grid's face transmissibilities 1/ln(r_{j+1}/r_j), 1/2
    at the axis cell, and (fp, fm) = fpm; fp and fm default to 1.

    fp and fm of shape (k, n) give k independent blocks side by side, one
    per row: the couplings across a block junction are zero."""
    t = grid._transmissibility
    bp, bm = (t, t) if fpm is None else t * fpm
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


_gtsv = None


def _load_gtsv():
    """LAPACK's dgtsv from scipy's compiled _flapack extension, loaded from
    its file: the binary scipy.linalg.lapack.dgtsv wraps, without running
    the scipy or scipy.linalg package init.  A missing file raises
    ImportError naming it."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("the tridiagonal solver needs scipy", name="scipy")
    name = "scipy.linalg._flapack"
    path = os.path.join(
        scipy.submodule_search_locations[0], "linalg",
        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0],
    )
    spec = importlib.util.spec_from_file_location(
        name, path, loader=importlib.machinery.ExtensionFileLoader(name, path)
    )
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    # The extension's init registers it in sys.modules.  Leave no entry, so
    # that a later import of scipy.linalg loads it as its submodule and
    # binds it as the package attribute _flapack.
    sys.modules.pop(name, None)
    # glibc raises its mmap threshold to the size of a freed mmapped block,
    # and its heap trim threshold to twice that.  At the default thresholds
    # a 4096-cell step, whose temporaries peak at 964 KiB (single density),
    # gives its heap top back at every free and faults it in again.
    # Freeing one 1 MiB block, never written and so never resident, raises
    # both once: steps on up to 8192 cells then reuse their heap pages.
    np.empty(1 << 17)
    return flapack.dgtsv


def _solve_tridiag(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.solve_banded((1, 1), ab, b) as one LAPACK gtsv call: the
    same bits, for one right-hand side or a column of them, and LinAlgError
    for a singular matrix alike, without the wrapper's per-call cost or its
    finiteness checks: callers pass finite systems.  The first call loads
    scipy's LAPACK extension alone (_load_gtsv), never scipy.linalg."""
    global _gtsv
    if _gtsv is None:
        _gtsv = _load_gtsv()

    x, info = _gtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x
