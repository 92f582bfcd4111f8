"""Independent numerical cross-checks used by the test suite.

Nothing here touches the package discretization: the shooting oracle
integrates the radial system as an initial value problem with scipy and
root-finds on the center values until the boundary fluxes match the
target masses.  The N-species existence conditions (subset positivity and
the box condition) generalize the package's two-species cooperative table
and check it from outside.  boundary_curves_by_sample builds the sweep's
boundary curves one m1 sample at a time in scalar arithmetic, a bit-level
reference for the array construction in the package.
"""

import itertools
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import fsolve


_R0 = 1e-8
FOUR_PI = 4.0 * math.pi


class AsymmetricMatrix(ValueError):
    """Interaction matrix is not symmetric."""


def shoot_pair(p, center_guess=(0.5, 0.1)):
    """Solve the coupled radial system by shooting from the origin.

    Returns (r_nodes, u1, u2) on the integrator's own nodes, with the
    boundary values already subtracted so u_i(1) = 0.
    """

    def rhs(r, y):
        v1, q1, v2, q2 = y
        f1 = np.exp(p.alpha * v1 - p.beta * v2)
        f2 = np.exp(-p.gamma * v2 - p.theta * p.beta * v1)
        return [q1, -f1 - q1 / r, q2, -f2 - q2 / r]

    def integrate(a1, a2):
        f1 = np.exp(p.alpha * a1 - p.beta * a2)
        f2 = np.exp(-p.gamma * a2 - p.theta * p.beta * a1)
        y0 = [a1 - f1 * _R0**2 / 4, -f1 * _R0 / 2, a2 - f2 * _R0**2 / 4, -f2 * _R0 / 2]
        return solve_ivp(rhs, (_R0, 1.0), y0, rtol=1e-12, atol=1e-13, method="DOP853")

    def flux_mismatch(a):
        sol = integrate(a[0], a[1])
        q1, q2 = sol.y[1, -1], sol.y[3, -1]
        return [-2 * np.pi * q1 - p.m1, -2 * np.pi * q2 - p.m2]

    centers, _, ier, msg = fsolve(flux_mismatch, center_guess, full_output=True, xtol=1e-13)
    if ier != 1:
        raise RuntimeError(f"shooting did not converge: {msg}")
    sol = integrate(centers[0], centers[1])
    u1 = sol.y[0] - sol.y[0, -1]
    u2 = sol.y[2] - sol.y[2, -1]
    return sol.t, u1, u2


def boundary_mass_flux(grid, flux, rho_values):
    """2*pi times the total outward mass flux at r = 1 in finite-volume form:
    the last face flux plus the wall half-cell contribution."""
    return 2 * np.pi * (flux[-1] + grid.volumes[-1] * rho_values[-1])


def central_difference(f, step=1e-5):
    """Symmetric difference quotient of a scalar-valued map at 0."""
    return (f(step) - f(-step)) / (2 * step)


def random_direction(grid, rng, amplitude=1.0):
    """Smooth random field vanishing at the wall, sup-norm = amplitude."""
    r = grid.r
    vals = np.zeros_like(r)
    for k in range(1, 5):
        vals += rng.normal() * np.cos(k * np.pi * r) * (1.0 - r**2)
        vals += rng.normal() * r**k * (1.0 - r**2)
    vals *= amplitude / np.max(np.abs(vals))
    vals[-1] = 0.0
    return vals


def rk4_vector(b, gamma, v0, vt0, t):
    """Classical RK4 for v_tt + exp((b-2) t - gamma v) = 0, stepping the
    state (v, v_t) as a numpy two-vector: the reference the package's
    scalar stepper must reproduce bit for bit."""

    def rhs(tau, y):
        return np.array([y[1], -math.exp((b - 2.0) * tau - gamma * y[0])])

    n = t.size
    vhat = np.empty(n)
    vt = np.empty(n)
    y = np.array([v0, vt0])
    vhat[0], vt[0] = y
    for j in range(1, n):
        tau = t[j - 1]
        dt = t[j] - tau
        k1 = rhs(tau, y)
        k2 = rhs(tau + 0.5 * dt, y + (0.5 * dt) * k1)
        k3 = rhs(tau + 0.5 * dt, y + (0.5 * dt) * k2)
        k4 = rhs(tau + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        vhat[j], vt[j] = y
    return vhat, vt


def subset_lambda(masses, a, subset) -> float:
    """4pi sum_{i in J} M_i - 1/2 sum_{i,j in J} a_ij M_i M_j.

    ``subset`` holds 0-based indices.  For two-species matrices, 2pi times
    the Lambda of conflictlab.phase.lambda_values almost matches this with
    J = {0, 1}, but the sign of the linear m2 term differs; the two forms
    are related, not identical.
    """
    masses = np.asarray(masses, dtype=float)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != masses.size:
        raise ValueError("a must be square and match the number of masses")
    if not np.array_equal(a, a.T):
        raise AsymmetricMatrix("interaction matrix must be symmetric")
    idx = np.unique(np.asarray(list(subset), dtype=int))
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx.min() < 0 or idx.max() >= masses.size:
        raise ValueError("subset index out of range")
    m = masses[idx]
    sub = a[np.ix_(idx, idx)]
    return float(FOUR_PI * m.sum() - 0.5 * m @ sub @ m)


def all_subsets_positive(masses, a) -> bool:
    """Whether subset_lambda is positive over every nonempty index subset."""
    n = np.asarray(masses).size
    if n > 16:
        raise ValueError("subset enumeration is limited to 16 species")
    indices = range(n)
    for k in range(1, n + 1):
        for J in itertools.combinations(indices, k):
            if subset_lambda(masses, a, J) <= 0.0:
                return False
    return True


def _box_candidates(masses, a):
    """Values of the full-set quadratic at all critical points of the box.

    Enumerates every face pattern (each coordinate pinned at 0, pinned at
    its mass, or free), solves the stationarity system on the free
    coordinates, and keeps candidates that land inside their face.  The
    all-zero corner is excluded: the constraint set is open there.
    """
    masses = np.asarray(masses, dtype=float)
    a = np.asarray(a, dtype=float)
    n = masses.size
    out = []
    for pattern in itertools.product((0, 1, 2), repeat=n):
        if all(s == 0 for s in pattern):
            continue
        m = np.where(np.asarray(pattern) == 1, masses, 0.0)
        free = [i for i, s in enumerate(pattern) if s == 2]
        if free:
            sub = a[np.ix_(free, free)]
            rhs = FOUR_PI - a[np.ix_(free, range(n))] @ m
            try:
                sol = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(sol <= 0.0) or np.any(sol >= masses[free]):
                continue
            m[free] = sol
        out.append(float(FOUR_PI * m.sum() - 0.5 * m @ a @ m))
    return out


def refined_condition(masses, a) -> bool:
    """Strict positivity of the full-set quadratic over the mass box.

    The box condition replaces subset positivity when diagonal entries may
    be negative; it is implied by all_subsets_positive whenever the
    diagonal is nonnegative.  Checked by minimizing over the critical
    points and faces of the closed box, excluding the origin.
    """
    masses = np.asarray(masses, dtype=float)
    a = np.asarray(a, dtype=float)
    if not np.array_equal(a, a.T):
        raise AsymmetricMatrix("interaction matrix must be symmetric")
    if np.any(masses <= 0):
        raise ValueError("box condition needs positive masses")
    if masses.size > 8:
        raise ValueError("box enumeration is limited to 8 species")
    return min(_box_candidates(masses, a)) > 0.0


def _vertical_rows(x, m1_range, m2_range, samples):
    if not (math.isfinite(x) and m1_range[0] < x <= m1_range[1]):
        return np.empty((0, 2))
    return np.column_stack([np.full(samples, x), np.linspace(*m2_range, samples)])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def boundary_curves_by_sample(p, m1_range, m2_range, strip, samples=1024):
    """The sweep's boundary curves with the Lambda = 0 roots taken one m1
    sample at a time in scalar arithmetic; ``strip`` is the strip mass or
    None where the conflict strip does not exist."""
    lo, hi = m2_range
    m1s = np.linspace(max(m1_range[0], 1e-9), m1_range[1], samples)
    lower, upper = [], []
    for m1 in m1s:
        const = 2.0 * m1 - p.alpha * m1**2 / FOUR_PI
        lin = p.beta * m1 / (2.0 * math.pi) - 2.0
        if p.gamma == 0.0:
            if abs(lin) < 1e-12:
                lower.append((m1, math.nan))
                continue
            root = -const / lin
            lower.append((m1, root if lo <= root <= hi else math.nan))
        else:
            quad = -p.gamma / FOUR_PI
            disc = lin * lin - 4.0 * quad * const
            if disc < 0.0:
                lower.append((m1, math.nan))
                upper.append((m1, math.nan))
                continue
            q = -lin - math.copysign(math.sqrt(disc), lin)
            r1, r2 = sorted((q / (2.0 * quad), 2.0 * const / q))
            lower.append((m1, r1 if lo <= r1 <= hi else math.nan))
            upper.append((m1, r2 if lo <= r2 <= hi else math.nan))
    half = math.inf if p.beta == 0.0 else FOUR_PI / p.beta
    if p.gamma > 0.0:
        m2s = (p.beta * m1s - FOUR_PI) / p.gamma
        keep = (m2s >= lo) & (m2s <= hi)
        lambda1_zero = np.column_stack([m1s, np.where(keep, m2s, np.nan)])
    else:
        lambda1_zero = _vertical_rows(half, m1_range, m2_range, samples)
    critical = math.inf if p.alpha == 0.0 else 8.0 * math.pi / p.alpha
    return {
        "m1_critical": _vertical_rows(critical, m1_range, m2_range, samples),
        "m1_half_critical": _vertical_rows(half, m1_range, m2_range, samples),
        "lambda_zero": np.asarray(lower + ([(math.nan, math.nan)] + upper if upper else [])),
        "lambda1_zero": lambda1_zero,
        "strip_mass": np.empty((0, 2)) if strip is None else _vertical_rows(
            strip, m1_range, m2_range, samples
        ),
    }
