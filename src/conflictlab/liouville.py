"""Solvers for the radial Liouville equation, system and chemical equation.

The single-species equation is ``laplacian(u) + m e^{alpha u}/Z = 0`` with
``Z`` the disk integral of ``e^{alpha u}`` and ``u = 0`` on the boundary.
The two-species system couples the exponents ``alpha u1 - beta u2`` and
``-gamma u2 - theta beta u1``.

The single equation and the system are solved by one fixed-point loop on
potentials: form the normalized density from the current potentials,
invert the Laplacian, and mix with a damping factor.  The damping starts
at 1/2 and adapts geometrically (growth on sustained residual decrease,
reduction on growth), and a dominant-mode extrapolation kicks in once the
undamped iteration is stable, which removes the critical slowing near
``m = 8 pi / alpha``.

The chemical equation ``-laplacian(w) = m2 e^{-gamma w - theta beta u}/Z``
at a fixed density, whose potential is ``u``, is the gradient of a convex
energy and is solved by Newton's method with step halving.  Its finite-
volume Jacobian is tridiagonal plus a rank-one term from the
normalization, so each step is one tridiagonal solve with two right-hand
sides and a Sherman-Morrison correction.  It stops once the defect is at
most ``_TOL * max(1, max rho)``, relative to the peak of the density it
solves for.

Residuals are measured in flux form: each iterate carries the face fluxes
that generated it, so the defect between those fluxes and the face masses
of the current density is the exact finite-volume residual of the
iterate, free of re-differencing noise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    _face_flux,
    _face_masses,
    _green,
    _normalized_density,
    _pin_wall,
    _solve_tridiag,
    _tridiag,
)
from .errors import (
    GammaZero,
    GridMismatch,
    NonpositiveMass,
    Oscillation,
    SolverDiverged,
    Supercritical,
    _releasing,
)
from .model import Params, RadialField, validate_params

logger = logging.getLogger(__name__)

_DAMPING = 0.5
_MIN_DAMPING = 1.0 / 64.0
_GROW_STREAK = 5
_GROW_FACTOR = 1.4
_BAD_LIMIT = 3
_OSCILLATION_WINDOW = 50
_ACCEL_COOLDOWN = 10
_HALVINGS = 10
# the one defect tolerance and iteration budget of every solve: absolute
# for the Picard loop, times max(1, max rho) for the chemical Newton solve,
# whose budget counts Newton steps
_TOL = 1e-10
_MAX_ITER = 500


@dataclass(frozen=True, eq=False)
class Solution:
    """Converged pair of potentials with solver diagnostics.

    ``multipliers`` holds the normalization constants: the equation solved
    is ``laplacian(u_i) + lambda_i e^{g_i} = 0`` with
    ``lambda_i = m_i / integral(e^{g_i})``.
    """

    u1: RadialField
    u2: RadialField
    residual: float
    iterations: int
    multipliers: tuple[float, float]
    _flux1: np.ndarray | None = field(default=None, repr=False)
    _flux2: np.ndarray | None = field(default=None, repr=False)


class _DampingController:
    """Geometric damping adaptation driven by the residual history.

    Grows the damping after ``_GROW_STREAK`` consecutive decreases, halves
    it on a sharp increase or repeated stagnation, and raises Oscillation
    when the residual stays non-monotone for ``_OSCILLATION_WINDOW``
    iterations at the minimum damping.
    """

    def __init__(self, damping):
        self.d = damping
        self._streak = 0
        self._bad = 0
        self._stuck = 0
        self._best = math.inf
        self._prev = math.inf

    def update(self, res):
        if res < self._best:
            self._best = res
            self._stuck = 0
        elif self.d <= _MIN_DAMPING:
            self._stuck += 1
            if self._stuck >= _OSCILLATION_WINDOW:
                raise Oscillation(
                    f"no residual improvement over {_OSCILLATION_WINDOW} "
                    f"iterations at minimum damping (residual {res:.3e})"
                )
        if res < self._prev:
            self._streak += 1
            self._bad = 0
            if self._streak >= _GROW_STREAK:
                self.d = min(1.0, self.d * _GROW_FACTOR)
                self._streak = 0
        else:
            self._streak = 0
            self._bad += 1
            if res > 1.5 * self._prev or self._bad >= _BAD_LIMIT:
                self.d = max(_MIN_DAMPING, self.d * 0.5)
                self._bad = 0
        self._prev = res

    def poke(self):
        # an extrapolation jump invalidates the monotonicity history
        self._prev = math.inf
        self._streak = 0
        self._bad = 0


def _flux_defect(grid, delta_flux):
    """Sup-norm of the finite-volume defect given a face-flux difference."""
    n = grid.n
    div = np.empty(n)
    div[0] = delta_flux[0] / grid.volumes[0]
    div[1:] = (delta_flux[1:] - delta_flux[:-1]) / grid.volumes[1:n]
    return float(abs(div).max())


def _exponents(p, u1, u2):
    """The exponents (alpha u1 - beta u2, -gamma u2 - theta beta u1)."""
    return p.alpha * u1 - p.beta * u2, -p.gamma * u2 - p.theta * p.beta * u1


def _densities(grid, p, u1, u2):
    """The Boltzmann densities m_i e^{g_i} / integral(e^{g_i}) of the
    exponents of u1, u2, their multipliers m_i / integral(e^{g_i}) and
    their log-partition terms m_i ln integral(e^{g_i}), as three pairs;
    a species with zero mass has all three zero."""
    g1, g2 = _exponents(p, u1, u2)
    return tuple(zip(_normalized_density(grid, g1, p.m1), _normalized_density(grid, g2, p.m2)))


def _picard_loop(grid, masses, exponents, state):
    """Core damped fixed-point iteration of solve_pair.

    ``exponents(us)`` maps the current tuple of potential arrays to the
    tuple of exponent arrays, one per species; a species with zero mass has
    zero density, so its potential stays zero.  ``state`` is ``(us, cs)``
    with ``cs`` the face fluxes that generated ``us``; mixing both with the
    same damping keeps them consistent, which is what makes the flux-form
    residual the exact finite-volume defect of the iterate.  Raises
    SolverDiverged after ``_MAX_ITER`` iterations and Oscillation when
    the damping controller gives up.
    """
    us, cs = state
    ctrl = _DampingController(_DAMPING)
    nsp = len(masses)
    du_prev = None
    cool = 0
    res = math.inf
    lams = [0.0] * nsp
    for it in range(_MAX_ITER):
        new_us = []
        new_cs = []
        res = 0.0
        gs = exponents(us)
        for s in range(nsp):
            rho_vals, lam, _ = _normalized_density(grid, gs[s], masses[s])
            u_new, c_new = _green(grid, rho_vals)
            new_us.append(u_new)
            new_cs.append(c_new)
            lams[s] = lam
            res = max(res, _flux_defect(grid, c_new - cs[s]))
        if res <= _TOL:
            return us, cs, res, it, tuple(lams)
        ctrl.update(res)
        d = ctrl.d
        du = [d * (new_us[s] - us[s]) for s in range(nsp)]
        dc = [d * (new_cs[s] - cs[s]) for s in range(nsp)]
        us = [us[s] + du[s] for s in range(nsp)]
        cs = [cs[s] + dc[s] for s in range(nsp)]
        cool += 1
        if du_prev is not None and d == 1.0 and cool >= _ACCEL_COOLDOWN:
            flat = np.concatenate(du)
            flat_prev = np.concatenate(du_prev)
            nrm = float(np.dot(flat_prev, flat_prev))
            if nrm > 0.0:
                lam_est = float(np.dot(flat, flat_prev)) / nrm
                if 0.5 < lam_est < 0.9999:
                    boost = lam_est / (1.0 - lam_est)
                    us = [us[s] + boost * du[s] for s in range(nsp)]
                    cs = [cs[s] + boost * dc[s] for s in range(nsp)]
                    cool = 0
                    ctrl.poke()
        du_prev = du
    raise SolverDiverged(
        f"residual {res:.3e} above tol {_TOL:.1e} "
        f"after {_MAX_ITER} iterations"
    )


def bubble(alpha, delta, grid):
    """Analytic steady profile (2/alpha) ln((1+delta)/(1+delta r^2)).

    Solves the single-species equation exactly with mass
    ``8 pi delta / (alpha (1 + delta))``.  Raises ValueError for alpha <= 0
    and for an alpha so small that 2 / alpha overflows.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    scale = 2.0 / float(alpha)
    if not math.isfinite(scale):
        raise ValueError(f"alpha = {alpha!r} is too small: 2 / alpha overflows")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    vals = scale * np.log1p(delta * (1.0 - grid.r**2) / (1.0 + delta * grid.r**2))
    vals[-1] = 0.0
    return RadialField.potential(grid, vals)


def solve_single(m, alpha, grid):
    """Solve the single-species equation at mass ``m`` and coupling ``alpha``:
    ``solve_pair`` with no second species, after refusing masses at or above
    the critical value ``8 pi / alpha``."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if m <= 0:
        raise NonpositiveMass(f"mass must be positive, got {m}")
    _refuse_supercritical(m, alpha)
    return solve_pair(Params(alpha, 0.0, 0.0, -1, m, 0.0), grid)


def _refuse_supercritical(m, alpha):
    """Refuse a single-species mass at or above ``8 pi / alpha``, alpha > 0."""
    m_crit = 8.0 * math.pi / alpha
    if m >= m_crit:
        raise Supercritical(
            f"mass {m:.6g} at or above the critical value {m_crit:.6g} "
            f"for alpha={alpha:.6g}"
        )


def _seeded(grid, g, m):
    """Initial potentials and fluxes: one Green application of the
    normalized density of exponent ``g`` at mass ``m``."""
    u, c = _green(grid, _normalized_density(grid, g, m)[0])
    return [u], [c]


def _start_exponent(p, grid):
    """Species 1's start exponent: alpha bubble(m1) if 0 < alpha m1 < 8 pi, else 0."""
    load = p.alpha * p.m1
    if 0.0 < load < 8.0 * math.pi:
        return p.alpha * bubble(p.alpha, load / (8.0 * math.pi - load), grid).values
    return np.zeros_like(grid.r)


@_releasing
def solve_pair(p, grid):
    """Solve the coupled two-species system for validated parameters.

    Species 1 starts from one Green application of the Boltzmann density
    at mass m1 of exponent alpha times the analytic bubble of that mass
    when 0 < alpha m1 < 8 pi, and of exponent 0 otherwise; species 2 starts
    at rest.  At m2 = 0 species 1 is solved alone, which is solve_single,
    and alpha m1 >= 8 pi raises Supercritical up front.  Raises
    SolverDiverged or Oscillation when the iteration does not converge.
    """
    p = validate_params(p)
    alone = p.m2 == 0.0
    if alone and p.alpha > 0.0:
        _refuse_supercritical(p.m1, p.alpha)
    us, cs = _seeded(grid, _start_exponent(p, grid), p.m1)
    if alone:
        masses, exponents = (p.m1,), lambda us: (p.alpha * us[0],)
    else:
        masses, exponents = (p.m1, p.m2), lambda us: _exponents(p, *us)
        us, cs = us + [np.zeros_like(grid.r)], cs + [np.zeros(grid.n)]
    us, cs, res, it, lams = _picard_loop(grid, masses, exponents, (us, cs))
    if alone:
        us, cs, lams = us + [np.zeros_like(grid.r)], cs + [np.zeros(grid.n)], (*lams, 0.0)
    return Solution(*(RadialField.potential(grid, u) for u in us), res, it, lams, *cs)


@_releasing
def minimize_w(rho, p, grid, w0=None):
    """Minimizer of the chemical energy at fixed density ``rho``.

    Solves ``-laplacian(w) = m2 e^g / integral(e^g)`` with exponent
    ``g = -gamma w - theta beta u`` and ``u`` the potential of ``rho`` by
    Newton's method, stopping once the finite-volume defect is at most
    ``_TOL * max(1, max of the right-hand side density)``; ``_MAX_ITER``
    counts Newton steps, and running out of them, or a step along which
    ten halvings find no decrease of the defect, raises SolverDiverged.
    ``w = 0`` at ``m2 = 0``.  Requires ``gamma > 0``: the ``gamma = 0``
    case has the closed-form minimizer ``w = 0``, and asking for it raises
    GammaZero.  An optional ``w0`` warm-starts the iteration (one
    fixed-point application of ``w0`` seeds it), which time steppers use
    to re-solve for ``w`` cheaply after a small change in ``rho``.
    """
    p = validate_params(p)
    if p.gamma == 0.0:
        raise GammaZero("gamma=0 has minimizer w=0; handle in the caller")
    if not rho.grid.same_as(grid):
        raise GridMismatch("rho lives on a different grid")
    if w0 is not None and not w0.grid.same_as(grid):
        raise GridMismatch("w0 lives on a different grid")
    u = _green(grid, rho.values)[0]
    w0 = None if w0 is None else w0.values
    return RadialField.potential(grid, _minimize_w(grid, rho.values, u, p, w0)[0])


def _minimize_w(grid, rho_vals, u, p, w0=None):
    """minimize_w on raw arrays for validated ``p``, zero when gamma or m2
    is; ``u`` is the potential of ``rho_vals`` and ``w0`` the warm start.

    Returns w with the chemical density m2 e^g / integral(e^g) at w and its
    m2 ln integral(e^g), for the exponent g = -gamma w - theta beta u."""
    drive = -p.theta * p.beta * u
    if p.gamma == 0.0 or p.m2 == 0.0:
        w = np.zeros_like(grid.r)
        rho, _, m_log_z = _normalized_density(grid, -p.gamma * w + drive, p.m2)
        return w, rho, m_log_z
    g0 = drive if w0 is None else -p.gamma * w0 + drive
    (w,), (c,) = _seeded(grid, g0, p.m2)
    w, rho, m_log_z = _newton_w(grid, w, c, drive, p)
    if (w[1:] - w[:-1] > 1e-10).any() and (rho_vals[1:] - rho_vals[:-1] <= 1e-12).all():
        logger.warning("w-minimizer not radially nonincreasing for nonincreasing rho")
    return w, rho, m_log_z


def _newton_w(grid, w, c, drive, p):
    """Newton's method on the chemical equation T w = V rho(w), w_n = 0.

    T is the Green operator's tridiagonal matrix and V the cell volumes;
    with rho = m2 e^{-gamma w + drive}/Z the Jacobian is
    T + gamma diag(V rho) - (gamma/m2)(V rho)(2 pi V rho)^T.  The face
    fluxes ``c`` of the iterate ``w`` advance by the face fluxes of each
    step, so the defect stays the exact finite-volume residual.  Returns
    w with its density rho and m2 ln Z.
    """
    gamma, m2 = p.gamma, p.m2
    rho, _, m_log_z = _normalized_density(grid, -gamma * w + drive, m2)
    d = _face_masses(grid, rho) - c
    res = _flux_defect(grid, d)
    steps = 0
    while res > _TOL * max(1.0, float(rho.max())):
        if steps == _MAX_ITER:
            raise SolverDiverged(
                f"residual {res:.3e} above tol {_TOL:.1e} "
                f"after {_MAX_ITER} Newton steps"
            )
        steps += 1
        vr = grid.volumes * rho
        ab = _tridiag(grid, gamma * vr)
        _pin_wall(ab)
        # the wall row is the identity with zero right-hand sides, so y and z
        # vanish there and the rank-one term needs no restriction
        rhs = np.zeros((grid.n + 1, 2))
        rhs[0, 0] = d[0]
        rhs[1:-1, 0] = d[1:] - d[:-1]
        rhs[:-1, 1] = vr[:-1]
        y, z = _solve_tridiag(ab, rhs).T
        b = grid.weights * rho
        k = gamma / m2
        dw = y + (k * np.dot(b, y) / (1.0 - k * np.dot(b, z))) * z
        dc = _face_flux(grid, dw)
        step = 1.0
        for _ in range(_HALVINGS + 1):
            w_t, c_t = w + step * dw, c + step * dc
            rho_t, _, m_log_z_t = _normalized_density(grid, -gamma * w_t + drive, m2)
            d_t = _face_masses(grid, rho_t) - c_t
            res_t = _flux_defect(grid, d_t)
            if res_t < res:
                break
            step *= 0.5
        else:
            raise SolverDiverged(
                f"residual {res:.3e} above tol {_TOL:.1e} and not "
                f"decreasing along Newton step {steps}"
            )
        w, c, rho, m_log_z, d, res = w_t, c_t, rho_t, m_log_z_t, d_t, res_t
    return w, rho, m_log_z


def _central_laplacian(grid, u):
    """Standard radial stencil (1/r)(r u_r)_r with 2 u_rr(0) at the axis."""
    n = grid.n
    lap = np.empty(n)
    flux = grid.faces * np.diff(u) / grid.h
    lap[0] = 4.0 * (u[1] - u[0]) / grid.r[1] ** 2
    lap[1:] = np.diff(flux) / grid.volumes[1:n]
    return lap


def residual(sol, p):
    """Sup-norm PDE residuals of both equations for a candidate solution.

    Solutions produced by the solvers in this module carry their
    generating face fluxes, and the defect is then the exact
    finite-volume residual of the iterate.  Hand-built solutions fall
    back to the central difference stencil, whose residual on smooth
    fields decreases as O(n^-2).
    """
    p = validate_params(p)
    grid = sol.u1.grid
    u1 = sol.u1.values
    u2 = sol.u2.values
    rhos = _densities(grid, p, u1, u2)[0]
    out = []
    for u, rho_vals, flux in zip((u1, u2), rhos, (sol._flux1, sol._flux2)):
        if flux is not None:
            c_new = _face_masses(grid, rho_vals)
            out.append(_flux_defect(grid, c_new - flux))
        else:
            lap = _central_laplacian(grid, u)
            out.append(float(np.max(np.abs(lap + rho_vals[: grid.n]))))
    return out[0], out[1]
