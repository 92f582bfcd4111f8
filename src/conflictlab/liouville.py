"""Solvers for the radial Liouville equation, system and chemical equation.

The single-species equation is ``laplacian(u) + m e^{alpha u}/Z = 0`` with
``Z`` the disk integral of ``e^{alpha u}`` and ``u = 0`` on the boundary.
The two-species system couples the exponents ``alpha u1 - beta u2`` and
``-gamma u2 - theta beta u1``, the rows of ``Params.coupling`` times them.

The single equation and the system are solved by one fixed-point map:
form the normalized density from the current potentials and invert the
Laplacian.  From the closed-form start the map is iterated on potentials
and mixed with a damping factor that starts at 1/2 and adapts
geometrically (growth on sustained residual decrease, reduction on
growth), and a dominant-mode extrapolation kicks in once the undamped
iteration is stable, which removes the critical slowing near
``m = 8 pi / alpha``.  A pair on a fine grid is first solved by undamped
Anderson acceleration of depth 2 on the face masses alone, on the grid of
every 16th node from the closed-form start and then on its own grid from
that solution (see solve_pair); the damped loop decides where either
fails.

Masses on or past the Pohozaev line ``alpha m1 >= 8 pi + 2 beta m2`` have
no radial steady state and are refused before any iteration.

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

import math
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import add, mul

import numpy as np

from .calculus import (
    _boltzmann,
    _face_flux,
    _face_masses,
    _green,
    _green_potential,
    _normalized_density,
    _pinned_tridiag,
    _refuse_overflow,
    _solve_tridiag,
)
from .errors import Oscillation, SolverDiverged, _releasing
from .model import Params, RadialField, RadialGrid

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
# a pair on at least _NEST_RATIO * _NEST_MIN_CELLS cells starts from its own
# solution on the grid of every _NEST_RATIO-th node: a 256-cell sub-grid
# solve cost about 1.4 ms by the damped loop (0.9 ms by _anderson_loop),
# which the fine iterations it saved repaid only from about 4096 cells
# (nesting from 1024 cells made those pairs about 13 % slower, from 2048
# cells about 5 % faster, both measured with the damped loop)
_NEST_RATIO = 16
_NEST_MIN_CELLS = 256
# _anderson_loop's step combines the last _ANDERSON_DEPTH image differences,
# by normal equations in closed form for up to two; it drops the older when
# the squared sine of the angle between their defect differences is at most
# _COLLINEAR
_ANDERSON_DEPTH = 2
_COLLINEAR = 1e-8


@dataclass(frozen=True, eq=False)
class Solution:
    """Converged pair of potentials with solver diagnostics.

    ``multipliers`` holds the normalization constants: the equation solved
    is ``laplacian(u_i) + lambda_i e^{g_i} = 0`` with
    ``lambda_i = m_i / integral(e^{g_i})``.  ``iterations`` counts the
    Picard iterations on the solution's own grid, not those of a nested
    start's sub-grid solve.
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
    it on a sharp increase or repeated stagnation, and raises Oscillation,
    naming the iteration (one residual each), when the residual stays
    non-monotone for ``_OSCILLATION_WINDOW`` iterations at minimum damping.
    """

    def __init__(self, damping):
        self.d = damping
        self._seen = 0
        self._streak = 0
        self._bad = 0
        self._stuck = 0
        self._best = math.inf
        self._prev = math.inf

    def update(self, res):
        self._seen += 1
        if res < self._best:
            self._best = res
            self._stuck = 0
        elif self.d <= _MIN_DAMPING:
            self._stuck += 1
            if self._stuck >= _OSCILLATION_WINDOW:
                raise Oscillation(
                    f"no residual improvement over {_OSCILLATION_WINDOW} "
                    f"iterations at minimum damping (residual {res:.3e}); "
                    f"stopped at Picard iteration {self._seen}"
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
    """Sup-norm of the finite-volume defect given a face-flux difference,
    and the jumps of that difference across the cells it divides by their
    volumes: delta_flux[0] at the axis, then delta_flux[j] - delta_flux[j-1],
    and 0 at the wall, n+1 values.  The jumps are written once into an
    uninitialised array; their quotient by the volumes takes its abs in
    place."""
    jumps = np.empty(grid.r.shape)
    jumps[0] = delta_flux[0]
    np.subtract(delta_flux[1:], delta_flux[:-1], out=jumps[1:-1])
    jumps[-1] = 0.0
    div = jumps / grid.volumes
    return float(np.maximum.reduce(np.abs(div, out=div))), jumps


def _exponents(a, us):
    """Row i of the coupling ``a`` times the potentials ``us``, summed in index order
    as plain products, one array per row (``@`` and ``np.dot`` round apart)."""
    return [reduce(add, map(mul, row, us)) for row in a]


def _densities(grid, p, u1, u2):
    """The Boltzmann densities m_i e^{g_i} / integral(e^{g_i}) of the
    exponents of u1, u2, their multipliers m_i / integral(e^{g_i}) and
    their log-partition terms m_i ln integral(e^{g_i}), as three pairs;
    a species with zero mass has all three zero."""
    g1, g2 = _exponents(p.coupling, (u1, u2))
    return tuple(zip(_normalized_density(grid, g1, p.m1), _normalized_density(grid, g2, p.m2)))


def _picard_loop(grid, masses, exponents, state):
    """Core damped fixed-point iteration of solve_pair.

    ``exponents(us)`` maps the current tuple of potential arrays to the
    tuple of exponent arrays, one per species, each of positive mass.
    ``state`` is ``(us, cs)`` with ``cs`` the face fluxes that generated
    ``us``; mixing both with the same damping keeps them consistent, which
    is what makes the flux-form residual the exact finite-volume defect of
    the iterate.  Each iteration forms the Green update's differences from
    the iterate once: they give the residual and, scaled by the damping
    unless it is 1, the mixing step, which updates copies of the start
    arrays in place.  The multipliers are formed for the iterate returned
    alone.  The damping starts at 1/2.  Raises SolverDiverged after
    ``_MAX_ITER`` iterations and Oscillation when the damping controller
    gives up.
    """
    # copies, which the loop mixes in place
    us, cs = ([x.copy() for x in xs] for xs in state)
    ctrl = _DampingController(_DAMPING)
    du_prev = None
    cool = 0
    res = math.inf
    for it in range(_MAX_ITER):
        du = []
        dc = []
        parts = []
        res = 0.0
        for g, m, u, c in zip(exponents(us), masses, us, cs):
            rho_vals, top, z = _boltzmann(grid, g, m)
            # _green's two cores, called directly: one Python call fewer
            c_new = _face_masses(grid, rho_vals)
            u_new = _green_potential(grid, c_new)
            u_new -= u
            c_new -= c
            du.append(u_new)
            dc.append(c_new)
            parts.append((top, z))
            res = max(res, _flux_defect(grid, c_new)[0])
        if res <= _TOL:
            lams = tuple(m * math.exp(-top) / z for m, (top, z) in zip(masses, parts))
            return us, cs, res, it, lams
        ctrl.update(res)
        d = ctrl.d
        if d != 1.0:  # 1.0 * x is x, bit for bit
            for x in (*du, *dc):
                x *= d
        for u, c, x, y in zip(us, cs, du, dc):
            u += x
            c += y
        cool += 1
        if du_prev is not None and d == 1.0 and cool >= _ACCEL_COOLDOWN:
            flat = np.concatenate(du)
            flat_prev = np.concatenate(du_prev)
            nrm = float(np.dot(flat_prev, flat_prev))
            if nrm > 0.0:
                lam_est = float(np.dot(flat, flat_prev)) / nrm
                if 0.5 < lam_est < 0.9999:
                    boost = lam_est / (1.0 - lam_est)
                    for u, c, x, y in zip(us, cs, du, dc):
                        u += boost * x
                        c += boost * y
                    cool = 0
                    ctrl.poke()
        du_prev = du
    raise SolverDiverged(
        f"residual {res:.3e} above tol {_TOL:.1e} "
        f"after {_MAX_ITER} iterations"
    )


def _anderson_loop(grid, masses, exponents, cs):
    """Undamped Anderson acceleration of solve_pair's fixed-point map, of
    depth _ANDERSON_DEPTH, on the face masses alone.

    ``cs`` holds each species' start face masses and ``exponents`` is as
    for _picard_loop.  Each iteration takes the potentials of the current
    face masses by the Green suffix sum and the face masses of their
    Boltzmann densities, the image: the flux-form defect of the image less
    the face masses is the exact finite-volume residual of the iterate.
    The first step takes the image itself; each later one the image minus
    the least-squares combination of the last two image differences, whose
    coefficients make the same combination of the last two defect
    differences closest to the defect (Walker & Ni, 2011).  Returns what _picard_loop returns, for the
    iterate whose defect met _TOL; raises SolverDiverged after _MAX_ITER
    iterations.
    """
    c = np.array(cs)
    last, diffs = None, []  # the last defect and image; older differences, newest first
    res = math.inf
    for it in range(_MAX_ITER):
        us = _green_potential(grid, c)
        image, parts = np.empty_like(c), []
        for row, g, m in zip(image, exponents(us), masses):
            rho, top, z = _boltzmann(grid, g, m)
            row[...] = _face_masses(grid, rho)
            parts.append((top, z))
        f = image - c
        res = max([_flux_defect(grid, x)[0] for x in f])
        if res <= _TOL:
            lams = tuple(m * math.exp(-top) / z for m, (top, z) in zip(masses, parts))
            return list(us), list(c), res, it, lams
        del us, c
        if last is None:
            c = image
        else:
            # the newest differences, written over the defect and image they leave
            for new, old in zip((f, image), last):
                np.subtract(new, old, out=old)
            diffs.insert(0, last)
            c = image - _least_squares_step(diffs, f)
            del diffs[_ANDERSON_DEPTH - 1:]  # the oldest is not used again
        last = f, image
    raise SolverDiverged(
        f"residual {res:.3e} above tol {_TOL:.1e} "
        f"after {_MAX_ITER} iterations"
    )


def _least_squares_step(diffs, f):
    """sum_i gamma_i dG_i over the one or two (dF_i, dG_i) of ``diffs``,
    newest first, with gamma minimizing |f - sum_i gamma_i dF_i|: the 2 x 2
    normal equations by Cramer's rule, or the newest pair alone when there
    is one or the two dF are collinear to round-off (_COLLINEAR)."""
    (df1, dg1), *older = diffs
    a11, b1 = np.vdot(df1, df1), np.vdot(df1, f)
    if older:
        ((df2, dg2),) = older
        a12, a22, b2 = np.vdot(df1, df2), np.vdot(df2, df2), np.vdot(df2, f)
        det = a11 * a22 - a12 * a12
        if det > _COLLINEAR * a11 * a22:
            return ((a22 * b1 - a12 * b2) / det) * dg1 + ((a11 * b2 - a12 * b1) / det) * dg2
    return (b1 / a11) * dg1 if a11 > 0.0 else 0.0


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
    ``solve_pair`` with no second species.  A mass that is not finite and
    positive, or at or above the critical value ``8 pi / alpha``, raises
    ValueError."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return solve_pair(Params(alpha, 0.0, 0.0, -1, m, 0.0), grid)


def _seeded(grid, g, m):
    """Initial potential and face fluxes: one Green application of the
    normalized density of exponent ``g`` at mass ``m`` > 0."""
    return _green(grid, _boltzmann(grid, g, m)[0])


def _start_exponent(p, grid):
    """Species 1's start exponent: alpha bubble(m1) if 0 < alpha m1 < 8 pi, else 0."""
    load = p.alpha * p.m1
    if 0.0 < load < 8.0 * math.pi:
        return p.alpha * bubble(p.alpha, load / (8.0 * math.pi - load), grid).values
    return np.zeros_like(grid.r)


def _closed_form_state(p, grid, alone):
    """solve_pair's closed-form start, as lists of potentials and face
    fluxes: species 1 seeded by _start_exponent and, unless it is alone,
    species 2 at rest."""
    u, c = _seeded(grid, _start_exponent(p, grid), p.m1)
    return ([u], [c]) if alone else ([u, np.zeros_like(grid.r)], [c, np.zeros(grid.n)])


def _nested_start(p, grid, a):
    """The face masses a pair's nested solve starts from on ``grid``: both
    potentials of its _anderson_loop solution from the closed-form start
    on the grid of every _NEST_RATIO-th node, with r = 1 appended when n
    is not a multiple of the ratio, are interpolated to the nodes of
    ``grid``, and each species is seeded by the face masses of its
    Boltzmann density at its row of the coupling ``a`` times them."""
    r = grid.r[::_NEST_RATIO]
    if r[-1] != 1.0:
        r = np.append(r, 1.0)
    sub, masses = RadialGrid(r), (p.m1, p.m2)
    us = _anderson_loop(sub, masses, partial(_exponents, a), _closed_form_state(p, sub, False)[1])[0]
    gs = _exponents(a, [np.interp(grid.r, r, u) for u in us])
    return [_seeded(grid, g, m)[1] for g, m in zip(gs, masses)]


def _nested_solve(p, grid, a):
    """_anderson_loop's result for a pair started from its _nested_start.
    None when the sub-grid solve or this one raises SolverDiverged."""
    try:
        return _anderson_loop(grid, (p.m1, p.m2), partial(_exponents, a), _nested_start(p, grid, a))
    except SolverDiverged:
        return None


@_releasing
def solve_pair(p, grid):
    """Solve the coupled two-species system.

    Species 1 starts from one Green application of the Boltzmann density
    at mass m1 of exponent alpha times the analytic bubble of that mass
    when 0 < alpha m1 < 8 pi, and of exponent 0 otherwise; species 2 starts
    at rest; the damped Picard loop runs from there.  A pair (m2 > 0) on at
    least _NEST_RATIO * _NEST_MIN_CELLS = 4096 cells is first solved by
    _anderson_loop twice (_nested_solve): on the grid of every 16th node
    from the closed-form start, and then on its own grid from that
    solution; when either raises SolverDiverged, the closed-form Picard
    solve decides, bit for bit.  At m2 = 0 species 1 is solved alone, which
    is solve_single.
    Masses on or past the Pohozaev line alpha m1 >= 8 pi + 2 beta m2 raise
    ValueError up front: species 1's Pohozaev identity, with rho1(1) > 0
    and int rho1 M2 <= m1 m2, leaves no radial steady state there, in either
    convention; so do masses whose Green terms may overflow.  Raises
    SolverDiverged or Oscillation when the iteration does not converge.
    """
    load, line = p.alpha * p.m1, 8.0 * math.pi + 2.0 * p.beta * p.m2
    if load >= line:
        raise ValueError(
            f"alpha m1 = {load:.6g} at or above the critical value "
            f"8 pi + 2 beta m2 = {line:.6g}: no steady state exists"
        )
    alone = p.m2 == 0.0
    k = 1 if alone else 2
    a = [row[:k] for row in p.coupling[:k]]
    _refuse_overflow(grid, (p.m1, p.m2)[:k], a)
    out = None
    if not alone and grid.n >= _NEST_RATIO * _NEST_MIN_CELLS:
        out = _nested_solve(p, grid, a)
    if out is None:
        state = _closed_form_state(p, grid, alone)
        out = _picard_loop(grid, (p.m1, p.m2)[:k], partial(_exponents, a), state)
    us, cs, res, it, lams = out
    if alone:
        us, cs, lams = us + [np.zeros_like(grid.r)], cs + [np.zeros(grid.n)], (*lams, 0.0)
    return Solution(*(RadialField.potential(grid, u) for u in us), res, it, lams, *cs)


def _minimize_w(grid, u, p, w0=None):
    """Minimizer w of the chemical energy at the fixed density whose
    potential is ``u``, from the warm start ``w0`` if given; zero, the
    closed form, when gamma or m2 is.

    Solves ``-laplacian(w) = m2 e^g / integral(e^g)`` with exponent
    ``g = -gamma w - theta beta u``, row 2 of the coupling times (u, w), by
    _newton_w, which raises SolverDiverged after ``_MAX_ITER`` Newton steps
    or a step that ten halvings cannot make decrease the defect.  Returns w
    with the density m2 e^g / integral(e^g) at w and its m2 ln integral(e^g)."""
    a_u, a_w = p.coupling[1]
    drive = a_u * u
    if p.gamma == 0.0 or p.m2 == 0.0:
        w = np.zeros_like(grid.r)
        rho, _, m_log_z = _normalized_density(grid, a_w * w + drive, p.m2)
        return w, rho, m_log_z
    g0 = drive if w0 is None else a_w * w0 + drive
    w, c = _seeded(grid, g0, p.m2)
    return _newton_w(grid, w, c, drive, p)


def _newton_w(grid, w, c, drive, p):
    """Newton's method on the chemical equation T w = V rho(w), w_n = 0.

    T is the Green operator's tridiagonal matrix and V the cell volumes;
    with rho = m2 e^{-gamma w + drive}/Z, -gamma the coupling's entry (2, 2),
    the Jacobian is T + gamma diag(V rho) - (gamma/m2)(V rho)(2 pi V rho)^T.
    A step assembles only the Jacobian's diagonal, on the grid's pinned
    rows of T, and its right-hand side is the jumps of the defect's face
    fluxes that _flux_defect formed.  The face fluxes ``c`` of the iterate
    ``w`` advance by the face fluxes of each step, so the defect stays the
    exact finite-volume residual.  Returns w with its density rho and m2 ln Z,
    which is formed for that iterate alone.
    """
    a_w, m2 = p.coupling[1][1], p.m2
    k = -a_w / m2
    rho, top, part = _boltzmann(grid, a_w * w + drive, m2)
    res, jumps = _flux_defect(grid, _face_masses(grid, rho) - c)
    steps = 0
    while res > _TOL * max(1.0, float(np.maximum.reduce(rho))):
        if steps == _MAX_ITER:
            raise SolverDiverged(
                f"residual {res:.3e} above tol {_TOL:.1e} "
                f"after {_MAX_ITER} Newton steps"
            )
        steps += 1
        # the wall row is the identity with zero right-hand sides (jumps and
        # vr end in 0), so y and z vanish there and the rank-one term needs no
        # restriction; the right-hand sides go in gtsv's column order, uncopied
        vr = grid.volumes * rho
        vr[-1] = 0.0
        y, z = _solve_tridiag(_pinned_tridiag(grid, -a_w * vr), np.array((jumps, vr)).T).T
        b = grid.weights * rho
        # in (0, 1], it rounds to 0 where gamma V rho outweighs T
        den = 1.0 - k * b.dot(z)
        if den == 0.0:
            raise SolverDiverged(f"Sherman-Morrison denominator rounds to 0 at Newton step {steps}")
        dw = y + (k * b.dot(y) / den) * z
        dc = _face_flux(grid, dw)
        w_t, c_t, step = w + dw, c + dc, 1.0  # the full step: 1.0 * dw is dw
        for halving in range(_HALVINGS + 1):
            if halving:
                step *= 0.5
                w_t, c_t = w + step * dw, c + step * dc
            rho_t, top_t, part_t = _boltzmann(grid, a_w * w_t + drive, m2)
            res_t, jumps_t = _flux_defect(grid, _face_masses(grid, rho_t) - c_t)
            if res_t < res:
                break
        else:
            raise SolverDiverged(
                f"residual {res:.3e} above tol {_TOL:.1e} and not "
                f"decreasing along Newton step {steps}"
            )
        w, c, rho, top, part, jumps, res = w_t, c_t, rho_t, top_t, part_t, jumps_t, res_t
    return w, rho, m2 * (top + float(np.log(part)))


def _central_laplacian(grid, u):
    """Standard radial stencil (1/r)(r u_r)_r with 2 u_rr(0) at the axis."""
    n, r = grid.n, grid.r
    lap = np.empty(n)
    flux = 0.5 * (r[1:] + r[:-1]) * np.diff(u) / np.diff(r)
    lap[0] = 4.0 * (u[1] - u[0]) / r[1] ** 2
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
    grid = sol.u1.grid
    u1 = sol.u1.values
    u2 = sol.u2.values
    rhos = _densities(grid, p, u1, u2)[0]
    out = []
    for u, rho_vals, flux in zip((u1, u2), rhos, (sol._flux1, sol._flux2)):
        if flux is not None:
            c_new = _face_masses(grid, rho_vals)
            out.append(_flux_defect(grid, c_new - flux)[0])
        else:
            lap = _central_laplacian(grid, u)
            out.append(float(np.max(np.abs(lap + rho_vals[: grid.n]))))
    return out[0], out[1]
