"""Closed-form machinery for the second-species profile on a thin annulus.

When the first species is fully concentrated inside radius psi, its potential
on the annulus [psi, 1] is an exact logarithm and the second species obeys a
single radial ODE there,

    (1/r) (r v_r)_r + r^(-beta_m / 2 pi) e^(-gamma v) = 0,   v_r(1) = -m2/2pi.

In the log variable t = -ln r the equation becomes autonomous after a linear
shift, carries a conserved energy, and has an explicit solution that blows
down at t = ln(1/psi).  This module builds that solution, matches its energy
to the wall slope, decides from it whether the profile is monotone on the
outer window r >= sqrt(psi), integrates the original equation directly
there as an independent route, and evaluates the Dirichlet-growth ratio

    integral_{sqrt(psi)}^1 r v_r^2 dr / ln(1/sqrt(psi))  ->  (m2/2pi)^2

whose limit the rest of the package uses as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnnulusParams",
    "AnnulusSolution",
    "asymptotic_ratio",
    "exact_solution",
    "integrate_annulus",
    "match_energy",
]

TWO_PI = 2.0 * math.pi

PSI_FLOOR = 1e-12
"""Smallest supported inner radius; below it ln(1/psi) roundoff dominates."""

# match_energy doubles energies up to its bracket 2 s^2 and exact_solution
# multiplies one by 4 gamma, for the slope limit s: 16 max(1, gamma) s^2
# finite leaves a factor 2 over both
_MARGIN = 16.0


@dataclass(frozen=True)
class AnnulusParams:
    """Inputs of the annulus problem.

    gamma   self-repulsion of the profile species, > 0
    beta_m  product of the cross-coupling and the concentrated mass
    m2      total mass of the profile species, > 0
    psi     inner radius of the annulus, in [PSI_FLOOR, 1)

    Construction enforces the standing hypothesis, a positive slope limit
    (beta_m - gamma*m2)/2pi - 2 > 0, and refuses with ValueError a slope
    limit whose energy match would over- or underflow, or that no energy
    matches (at or below 2/(gamma ln(1/psi)), an annulus too thin).  The
    hypothesis alone does not make the outer window monotone; see
    integrate_annulus.
    """

    gamma: float
    beta_m: float
    m2: float
    psi: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma = {self.gamma!r} must be finite and >= 0")
        if self.gamma == 0.0:
            raise ValueError("the annulus reduction needs gamma > 0")
        if not np.isfinite(self.m2) or self.m2 <= 0:
            raise ValueError(f"m2 = {self.m2!r} must be > 0")
        if not np.isfinite(self.beta_m):
            raise ValueError(f"beta_m = {self.beta_m!r} must be finite")
        if not (PSI_FLOOR <= self.psi < 1.0):
            raise ValueError(f"psi = {self.psi!r} must lie in [{PSI_FLOOR:g}, 1)")
        if (self.beta_m - self.gamma * self.m2) / TWO_PI - 2.0 <= 0.0:
            raise ValueError(
                f"(beta_m - gamma*m2)/2pi - 2 = "
                f"{(self.beta_m - self.gamma * self.m2) / TWO_PI - 2.0:g} <= 0"
            )
        s = self.slope_limit
        if not math.isfinite(_MARGIN * max(1.0, self.gamma) * s * s):
            raise ValueError(f"slope limit {s:g} overflows the energy match")
        if s * self.gamma * self.log_width <= 2.0:  # s <= 2/(gamma ln(1/psi)), undivided
            raise ValueError(
                f"no energy matches slope {s:g} at psi = {self.psi:g}; "
                "the annulus is too thin"
            )
        if s * s < np.finfo(float).tiny:  # the bracket 2 s^2 would hold no normal energy
            raise ValueError(f"slope limit {s:g} underflows the energy match")

    @property
    def log_width(self) -> float:
        """ln(1/psi), the annulus width in the log variable."""
        return -math.log(self.psi)

    @property
    def slope_limit(self) -> float:
        """gamma^-1 [(beta_m - gamma m2)/2pi - 2], the psi -> 0 slope."""
        return ((self.beta_m - self.gamma * self.m2) / TWO_PI - 2.0) / self.gamma


@dataclass(frozen=True, eq=False)
class AnnulusSolution:
    """Profile returned by integrate_annulus, the direct integration.

    r            nodes ascending in [psi, 1]; the innermost node sits one
                 mesh cell above psi because the profile diverges
                 logarithmically at the blow-down radius itself
    v            profile values at r
    rv_r         r * v_r at the nodes (the mass coordinate, times -2pi)
    energy       matched conserved energy
    energy_drift max energy defect along the trajectory over the outer
                 window r >= sqrt(psi)
    params       the inputs
    """

    r: np.ndarray
    v: np.ndarray
    rv_r: np.ndarray
    energy: float
    energy_drift: float
    params: AnnulusParams


def exact_solution(e: float, gamma: float, psi: float, t) -> np.ndarray | float:
    """Closed-form shifted profile at log-times t.

    Returns vbar(t) = -ln(4 e gamma)/gamma - sqrt(2e) (t + ln psi)
    + (2/gamma) ln(1 - exp(sqrt(2e) gamma (t + ln psi))), the solution of
    vbar_tt + exp(-gamma vbar) = 0 with conserved energy
    |vbar_t|^2 / 2 - exp(-gamma vbar)/gamma = e that blows down at
    t = ln(1/psi).

    Parameters
    ----------
    e : conserved energy, > 0.
    gamma : repulsion constant, > 0.
    psi : inner radius, in (0, 1).
    t : scalar or array of log-times, each strictly below ln(1/psi).

    Raises
    ------
    ValueError
        For out-of-range e, gamma or psi, or if any t reaches ln(1/psi),
        where the profile is -infinity.
    """
    if not (np.isfinite(e) and e > 0):
        raise ValueError(f"energy e = {e!r} must be finite and > 0")
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma = {gamma!r} must be finite and > 0")
    if not (0.0 < psi < 1.0):
        raise ValueError(f"psi = {psi!r} must lie in (0, 1)")
    t_arr = np.asarray(t, dtype=float)
    width = -math.log(psi)
    if np.any(t_arr >= width):
        raise ValueError(f"t >= ln(1/psi) = {width:g}; the profile blows down there")
    s = math.sqrt(2.0 * e)
    x = t_arr - width
    out = (
        -math.log(4.0 * e * gamma) / gamma
        - s * x
        + (2.0 / gamma) * np.log(-np.expm1(s * gamma * x))
    )
    return out if out.ndim else float(out)


def match_energy(lp: AnnulusParams) -> float:
    """Energy of the blow-down profile matching the wall slope.

    Bisects sqrt(2e) coth(sqrt(e/2) gamma ln(1/psi)) = slope_limit on
    e in (0, 2 slope_limit^2] down to adjacent doubles and returns the top
    end; the left side is strictly increasing from its e -> 0 limit
    2/(gamma ln(1/psi)), which AnnulusParams keeps below slope_limit, to
    above it at the bracket's top, so the root exists and is unique.
    """
    r_target = lp.slope_limit
    width = lp.log_width

    def relation(e: float) -> float:
        s = math.sqrt(2.0 * e)
        return s / math.tanh(0.5 * s * lp.gamma * width) - r_target

    lo, hi = 0.0, 2.0 * r_target * r_target
    mid = 0.5 * hi
    while lo < mid < hi:
        lo, hi = (mid, hi) if relation(mid) < 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return hi


def _rk4(b: float, gamma: float, v0: float, vt0: float, t: np.ndarray):
    """Classical RK4 for v_tt + exp((b-2) t - gamma v) = 0 on the given nodes.

    Steps on Python floats in the operation order of the (v, v_t) vector form.
    """
    c = b - 2.0
    nodes = t.tolist()
    v, w = float(v0), float(vt0)
    vhat, vt = [v], [w]
    for tau, nxt in zip(nodes, nodes[1:]):
        dt = nxt - tau
        h = 0.5 * dt
        k1v, k1w = w, -math.exp(c * tau - gamma * v)
        k2v, k2w = w + h * k1w, -math.exp(c * (tau + h) - gamma * (v + h * k1v))
        k3v, k3w = w + h * k2w, -math.exp(c * (tau + h) - gamma * (v + h * k2v))
        k4v, k4w = w + dt * k3w, -math.exp(c * (tau + dt) - gamma * (v + dt * k3v))
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        w = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        vhat.append(v)
        vt.append(w)
    return np.array(vhat), np.array(vt)


def integrate_annulus(lp: AnnulusParams, n: int = 4096) -> AnnulusSolution:
    """Direct integration of the annulus ODE, inward from the wall.

    Matches the energy, reconstructs the wall data from the closed form,
    and runs fourth-order steps in t = -ln r on a uniform log grid of n
    nodes covering [0, ln(1/psi)) one cell short of the blow-down.  The
    closed-form slope v_t = (b - 2)/gamma - s coth(s gamma (W - t)/2), for
    b = beta_m/2pi, s = sqrt(2e), W = ln(1/psi), is m2/2pi at the wall and
    falls inward, so the outer window t <= W/2 (r >= sqrt(psi)) is monotone
    exactly when (b - 2)/gamma > s coth(s gamma W/4), tested before any step.

    Raises ValueError for n < 1000 or a window the profile turns in, and
    RuntimeError when the profile overflows.
    """
    if n < 1000:
        raise ValueError(f"n = {n} < 1000")
    e = match_energy(lp)
    width = lp.log_width
    b = lp.beta_m / TWO_PI
    shift = (b - 2.0) / lp.gamma
    s = math.sqrt(2.0 * e)
    if not shift > s / math.tanh(0.25 * s * lp.gamma * width):
        raise ValueError(
            f"the profile at psi = {lp.psi:g} turns inside the outer window [sqrt(psi), 1]"
        )
    t = np.arange(n) * (width / n)
    try:
        vhat, vt = _rk4(b, lp.gamma, exact_solution(e, lp.gamma, lp.psi, 0.0),
                        lp.m2 / TWO_PI, t)
    except OverflowError:
        raise RuntimeError("integrate_annulus: the profile's exponent overflows") from None

    vbar = vhat - shift * t
    vbar_t = vt - shift
    with np.errstate(over="ignore", invalid="ignore"):  # outside the window it is unused
        traj_e = 0.5 * vbar_t**2 - np.exp(-lp.gamma * vbar) / lp.gamma
    drift = float(np.max(np.abs(traj_e[t <= 0.5 * width] - e)))
    if not math.isfinite(drift):
        raise RuntimeError("integrate_annulus: the profile overflows in the outer window")

    order = slice(None, None, -1)
    return AnnulusSolution(
        r=np.exp(-t)[order],
        v=vhat[order],
        rv_r=-vt[order],
        energy=e,
        energy_drift=drift,
        params=lp,
    )


def asymptotic_ratio(lp: AnnulusParams, n: int = 4096) -> float:
    """Dirichlet-growth ratio of the integrated profile.

    Returns integral_{sqrt(psi)}^1 r v_r^2 dr / ln(1/sqrt(psi)), which
    converges to (m2/2pi)^2 from below as psi -> 0.  n is rounded up to a
    multiple of four so the window edge lands on a node.  ValueError where
    the Simpson sum's bound, n/4 triples of at most 6 (m2/2pi)^2, overflows.
    """
    n = 4 * ((n + 3) // 4)
    half = lp.m2 / TWO_PI
    if not math.isfinite(1.5 * n * half * half):
        raise ValueError(f"m2 = {lp.m2!r} overflows the ratio's sum of {n} terms")
    sol = integrate_annulus(lp, n)
    # ascending-r index of the t = ln(1/psi)/2 node
    edge = (n - 1) - n // 2
    y = sol.rv_r[edge:][::-1] ** 2
    # composite Simpson 1/3 on n/2 + 1 nodes, summed as scipy.integrate.simpson does
    total = np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    total *= (lp.log_width / n) / 3.0
    return float(total / (0.5 * lp.log_width))
