"""Independent numerical cross-checks used by the test suite.

Nothing here touches the package discretization: the shooting oracle
integrates the radial system as an initial value problem with scipy and
root-finds on the center values until the boundary fluxes match the
target masses.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import fsolve

_R0 = 1e-8


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
