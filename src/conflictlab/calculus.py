"""Disk quadrature and the radial inverse Dirichlet Laplacian.

The discretization is one consistent finite-volume family. With V_i the cell
r-volumes of the grid and mtilde_{j+1/2} = sum_{i<=j} V_i rho_i the running
face masses, the potential u with Delta u = -rho, u(1) = 0 is accumulated
cell by cell through the exact annulus integral

    u_j - u_{j+1} = mtilde_{j+1/2} * ln(r_{j+1}/r_j),

with the axis cell closed by the regularity rule u_0 - u_1 = 2*mtilde_{1/2},
whose factor 2 the grid's log_ratio holds.  Three useful identities then
hold to round-off rather than to O(h^2):

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
_green, _green_potential, _face_flux, _entropy and _pairing also take
fields stacked as rows and give, row by row, the same bits as one call per
row.

_solve_tridiag is the one entry to LAPACK.  Of its banded matrices,
_pinned_tridiag builds only the diagonal, for the chemical Newton solve and
the heat step: the grid makes the pinned Green rows once, on first use.

Importing this module sets two process-wide glibc malloc parameters
through mallopt, where the C library has it: the mmap threshold to 4 MiB
and the heap trim threshold to 8 MiB, so that steady solves and flow steps
on up to 16384 cells reuse their heap pages instead of faulting them in
again at every iteration.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Sequence

import numpy as np

from .model import RadialField, RadialGrid

__all__ = [
    "dirichlet_energy",
    "entropy",
    "face_flux",
    "face_masses",
    "integrate_disk",
    "interaction_energy",
    "inv_laplacian",
    "log_partition",
]

# glibc's malloc serves a request of M_MMAP_THRESHOLD bytes or more by its
# own mmap, and gives the free top of its heap back to the kernel once that
# exceeds M_TRIM_THRESHOLD.  Both start at 128 KiB and glibc raises them only
# as mmapped blocks are freed, so a solve or a step on thousands of cells,
# whose arrays are that large, unmaps or trims its pages at every free and
# faults them in again at the next allocation.  One steady solve or flow
# step on 16384 cells peaks under 4 MiB of arrays (tracemalloc): with every
# block under 4 MiB taken from the heap and up to 8 MiB of free heap top
# kept, its pages are reused.  A set threshold also ends glibc's own
# adjustment.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt's parameter numbers
_TRIM_BYTES, _MMAP_BYTES = 8 << 20, 4 << 20
try:
    _mallopt = ctypes.CDLL(None).mallopt
except AttributeError:  # not glibc: its allocator keeps its own policy
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    _mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


def integrate_disk(f: RadialField) -> float:
    """2*pi*int_0^1 f(r) r dr by the cell-volume rule (exact for constants)."""
    return float(np.dot(f.grid.weights, f.values))


def face_masses(rho: RadialField) -> np.ndarray:
    """Running mass / 2pi at the cell faces: mtilde_{j+1/2}, j = 0..n-1."""
    return _face_masses(rho.grid, rho.values)


def _face_masses(grid: RadialGrid, rho_vals: np.ndarray) -> np.ndarray:
    # not ndarray.cumsum, which looks up add.accumulate by a fresh string that
    # CPython 3.11's type cache then keeps: what a held failure kept varied
    return np.add.accumulate(grid.volumes * rho_vals, axis=-1)[..., :-1]


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
    return _green_potential(grid, mt), mt


def _green_potential(grid: RadialGrid, mt: np.ndarray) -> np.ndarray:
    """The potential values of face masses mt, or their rows: the suffix
    sums of mt * log_ratio, written from the wall inwards into an
    uninitialised array whose wall value alone is set."""
    u = np.empty((*mt.shape[:-1], mt.shape[-1] + 1))
    u[..., -1] = 0.0
    np.add.accumulate((mt * grid.log_ratio)[..., ::-1], axis=-1, out=u[..., -2::-1])
    return u


def face_flux(w: RadialField) -> np.ndarray:
    """-r w_r at the cell faces of an arbitrary field, length n.

    Defined through the same cell integrals the Green operator uses, so
    face_flux(inv_laplacian(rho)) reproduces face_masses(rho) up to round-off.
    """
    return _face_flux(w.grid, w.values)


def _face_flux(grid: RadialGrid, v: np.ndarray) -> np.ndarray:
    """face_flux on raw arrays, or its rows for fields stacked as rows."""
    return (v[..., :-1] - v[..., 1:]) / grid.log_ratio


def entropy(rho: RadialField) -> float:
    """2*pi*int rho ln(rho) r dr, with s ln s extended by 0 at s = 0.

    Raises ValueError for signed input.
    """
    return _entropy(rho.grid, rho.values)


def _entropy(grid: RadialGrid, v: np.ndarray):
    """entropy of a density's values, or an array of them for a stack of
    rows; each row's sum is the one dot product a single field gets."""
    if np.logical_or.reduce(v < 0, axis=None):
        raise ValueError("entropy needs rho >= 0")
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
    """2*pi*sum_j a_j b_j log_ratio_j, 2 a_0 b_0 at the axis, for face arrays a, b:
    the Dirichlet pairing of face fluxes and the Green pairing of face
    masses alike.  Stacks of face arrays pair row by row, into an array;
    a[:, None] and b[None] give the matrix of every row of a with every
    row of b."""
    # the axis term stays outside the vecdot: inside, it would reorder the sum
    body = np.vecdot(a[..., 1:] * grid.log_ratio[1:], b[..., 1:])
    out = 2.0 * np.pi * (body + grid.log_ratio[0] * a[..., 0] * b[..., 0])
    return out if a.ndim > 1 else float(out)


def _refuse_overflow(grid: RadialGrid, masses, coupling) -> None:
    """Raise ValueError where the Green terms of masses, under coupling
    rows A, may overflow on grid: a density of mass m has a potential of
    at most s = max(1, m) K, K = sum(log_ratio) (all its mass in the axis
    cell), so max(1, |A_ij|) (n+1) s_i s_j bounds every exponent term,
    pairing and node sum of products of potentials."""
    k = float(grid.log_ratio.sum())
    s = [max(1.0, m) * k for m in masses]
    if not all(math.isfinite(max(1.0, abs(a)) * (grid.n + 1) * si * sj)
               for row, si in zip(coupling, s) for a, sj in zip(row, s)):
        named = ", ".join(f"m{i} = {m!r}" for i, m in enumerate(masses, 1))
        raise ValueError(f"masses {named} and their coupling overflow the Green terms on {grid.n} cells")


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
            raise ValueError("log_partition needs all fields on one grid")
        g = g + coef * f.values
    return _normalized_density(grid, g, 1.0)[2]


def _normalized_density(grid: RadialGrid, g: np.ndarray, m: float):
    """The density m e^g / integral(e^g), its multiplier m / integral(e^g)
    and the log-partition term m ln integral(e^g), from one overflow-safe
    exponential; all three are zero at zero mass."""
    if m == 0.0:
        return np.zeros_like(grid.r), 0.0, 0.0
    rho, top, z = _boltzmann(grid, g, m)
    return rho, m * math.exp(-top) / z, m * (top + float(np.log(z)))


def _boltzmann(grid: RadialGrid, g: np.ndarray, m: float):
    """The density m e^g / integral(e^g) at a mass m > 0, with top = max g
    and z = integral(e^(g - top)): the overflow-safe exponential of
    _normalized_density, without its multiplier and log-partition term.
    The exponential and its scaling act in place on the one array g - top."""
    top = float(np.maximum.reduce(g))
    e = g - top
    np.exp(e, out=e)
    z = float(grid.weights.dot(e))
    e *= m / z
    return e, top, z


def _tridiag(grid: RadialGrid, diag, fpm) -> np.ndarray:
    """Banded (3, k(n+1)) matrix of diag plus the face couplings t fp and
    t fm, t = 1/log_ratio the grid's transmissibilities, fp, fm = fpm.

    fp and fm of shape (k, n) give k independent blocks side by side, one
    per row: the couplings across a block junction are zero."""
    bp, bm = grid._transmissibility * fpm
    ab = np.zeros((3, *bp.shape[:-1], bp.shape[-1] + 1))
    ab[1] = diag
    ab[1, ..., :-1] += bp
    ab[1, ..., 1:] += bm
    ab[0, ..., 1:] = -bm
    ab[2, ..., :-1] = -bp
    return ab.reshape(3, -1)


def _pinned_tridiag(grid: RadialGrid, diag: np.ndarray) -> np.ndarray:
    """Banded (3, n+1) matrix of diag plus the face couplings t of
    _tridiag, with the wall row the identity, decoupled from the rest: its
    unknown takes the right-hand side's wall value.  Only the diagonal is
    built here; the other two rows are the grid's _pinned_rows."""
    upper, lower, outward, inward = grid._pinned_rows
    main = diag + outward + inward
    main[-1] = 1.0
    return np.array((upper, main, lower))


_gtsv = None


def _load_gtsv():
    """LAPACK's dgtsv from scipy's compiled _flapack extension, loaded from
    its file: the binary scipy.linalg.lapack.dgtsv wraps, without running
    the scipy or scipy.linalg package init.  A missing file raises
    ImportError naming it.  Loading it leaves the heap as it was: the
    module sets the heap thresholds once, at import."""
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
