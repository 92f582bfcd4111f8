"""Time integration of the three parabolic limit regimes.

Density equations advance by a semi-implicit finite-volume step: the
drift-diffusion flux through each cell face uses exponential fitting in
the same logarithmic face metric the Green operator integrates, and the
density solve is a single tridiagonal system per species.  That choice
makes three structural facts exact rather than approximate: cell masses
telescope (conservation to roundoff), the step matrix is an M-matrix
(positivity for any dt), and the zero-flux stationary profile is the
discrete Boltzmann density of the frozen potential, so flow fixed points
satisfy the same discrete steady equations the elliptic solvers produce.

Potential equations advance by implicit diffusion with the normalized
exponential source recomputed each step; the wall value stays exactly
zero.  The monitored energy is enforced only in the regimes where the
underlying system is a gradient flow for it.

Each accepted step appends a row (t, m1, m2, energy, sup rho1) to a trace
buffer shared with the state's ancestors, doubling it when full, so an
append costs O(1) amortised.  The buffer's owner counts the rows claimed;
a state whose next row another child has claimed copies its own rows
first.  The three traces are read-only views of the rows a state owns.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .calculus import face_flux, integrate_disk, inv_laplacian
from .errors import DegenerateQuadraticForm, Stalled, StepRejected
from .functionals import _joint_terms, two_species_energy_rho, two_species_energy_u
from .liouville import Solution, _exponents, _minimize_w, _normalized_density
from .model import FlowConfig, Params, RadialField, validate_params

__all__ = [
    "FlowState",
    "initial_state",
    "run_flow",
    "steady_solution",
    "step_potentials",
    "step_single_density",
    "step_two_densities",
    "trace_rows",
]

logger = logging.getLogger(__name__)

_ENERGY_SLACK = 1e-10
_STEADY_TOL = 1e-10
_DT_FLOOR = 1e-14
_GROWTH = 1.2
_DEGENERATE_TOL = 1e-12


class _Trace:
    """Trace rows shared along a chain of states; ``used`` rows are claimed."""

    __slots__ = ("rows", "used")

    def __init__(self, rows=np.empty((0, 5))):  # never written: appends grow it
        self.rows = rows
        self.used = len(rows)

    def appended(self, k: int, row) -> "_Trace":
        """The trace of a state owning the first k rows, extended by row."""
        out = self if self.used == k else _Trace(self.rows[:k])
        if k == len(out.rows):
            out.rows = np.concatenate([out.rows, np.empty((max(k, 8), 5))])
        out.rows[k] = row
        out.used = k + 1
        return out


@dataclass(frozen=True, eq=False)
class FlowState:
    """Immutable snapshot of a flow, with its accumulated traces.

    ``energy_trace`` rows are (t, monitored energy), ``mass_trace`` rows
    are (t, m1, m2) and ``sup_trace`` rows are (t, sup rho1): read-only
    views of the first ``_rows`` rows of the shared trace buffer.  The
    command line layer reports all three side by side.
    """

    t: float
    rho1: RadialField
    u1: RadialField
    u2: RadialField
    rho2: RadialField | None = None
    _trace: _Trace = field(default_factory=_Trace, repr=False)
    _rows: int = 0

    def __post_init__(self) -> None:
        if self.rho1.kind != "density":
            raise ValueError("rho1 must be density-tagged")
        if self.u1.kind != "potential" or self.u2.kind != "potential":
            raise ValueError("u1 and u2 must be potential-tagged")
        grid = self.rho1.grid
        others = [self.u1, self.u2] + ([self.rho2] if self.rho2 is not None else [])
        if not all(f.grid.same_as(grid) for f in others):
            raise ValueError("all state fields must share one grid")

    def _columns(self, cols: slice) -> np.ndarray:
        view = self._trace.rows[: self._rows, cols]
        view.flags.writeable = False
        return view

    energy_trace = property(lambda self: self._columns(slice(None, None, 3)))
    mass_trace = property(lambda self: self._columns(slice(0, 3)))
    sup_trace = property(lambda self: self._columns(slice(None, None, 4)))


def _bernoulli(x: np.ndarray) -> np.ndarray:
    """x / (e^x - 1), stably through 0 and into both exponential tails."""
    out = np.empty_like(x)
    small = np.abs(x) < 1e-5
    xs = x[small]
    out[small] = 1.0 - 0.5 * xs + xs * xs / 12.0
    with np.errstate(over="ignore"):
        out[~small] = x[~small] / np.expm1(x[~small])
    return out


def _tridiag(grid, dt, fp=1.0, fm=1.0):
    """Banded (3, n+1) matrix of V/dt plus the face couplings t fp, t fm,
    with t the face transmissibilities (1/2 at the axis cell)."""
    t = np.empty(grid.n)
    t[0] = 0.5
    t[1:] = 1.0 / grid.log_ratio[1:]
    bp, bm = t * fp, t * fm
    ab = np.zeros((3, grid.n + 1))
    ab[1] = grid.volumes / dt
    ab[1][:-1] += bp
    ab[1][1:] += bm
    ab[0][1:] = -bm
    ab[2][:-1] = -bp
    return ab


def _solve_tridiag(ab, b):
    """scipy.linalg.solve_banded((1, 1), ab, b) as one LAPACK gtsv call: the
    same bits, and ValueError for non-finite input and LinAlgError for a
    singular matrix alike, without the wrapper's per-call cost."""
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _sg_step(rho_vals, phi_vals, grid, dt):
    """Implicit exponential-fitting step for rho_t = div(grad rho + rho grad phi)."""
    pe = phi_vals[1:] - phi_vals[:-1]
    ab = _tridiag(grid, dt, _bernoulli(pe), _bernoulli(-pe))
    new = _solve_tridiag(ab, grid.volumes * rho_vals / dt)
    floor = -1e-13 * max(float(new.max()), 1.0)
    if (new < floor).any():
        raise StepRejected("positivity lost in the density solve")
    return new.clip(0.0, None)


def _heat_step(u_vals, source_vals, grid, dt):
    """Implicit diffusion with explicit source; the wall value stays zero."""
    ab = _tridiag(grid, dt)
    rhs = grid.volumes * (u_vals / dt + source_vals)
    ab[0][-1] = 0.0
    ab[1][-1] = 1.0
    ab[2][-2] = 0.0
    rhs[-1] = 0.0
    new = _solve_tridiag(ab, rhs)
    new[-1] = 0.0
    return new


def _induced_density(grid, g, m):
    return RadialField.density(grid, _normalized_density(grid, g, m)[0])


def _densities(u1, u2, p):
    """The normalized Boltzmann densities of both exponents."""
    g1, g2 = _exponents(p, u1.values, u2.values)
    return _induced_density(u1.grid, g1, p.m1), _induced_density(u1.grid, g2, p.m2)


def _slaved_density(u1, u2, p):
    return _induced_density(u1.grid, _exponents(p, u1.values, u2.values)[1], p.m2)


def _chemical(rho, u1, p, w0=None):
    """The chemical-energy minimizer for rho, whose potential is u1; it is
    zero when gamma or m2 is.  Values w0 warm-start the minimizer."""
    w = _minimize_w(rho.grid, rho.values, u1.values, p, w0=w0)
    return RadialField.potential(rho.grid, w)


def _energy_single(rho, u, w, p):
    """F of the density-plus-chemical system for rho with potential u, with
    the sign of the w-block flipped in the cooperative case: the terms of
    functionals.joint_free_energy (which fixes theta=-1), summed alike."""
    ent, pairing, dirichlet, log_z = _joint_terms(rho, w, u, p)
    interaction = 0.5 * p.alpha * pairing
    return ent + interaction - p.theta * (0.5 * p.gamma * dirichlet + p.m2 * log_z)


def _check_energy(e_new, e_old, enforced):
    if enforced and e_new - e_old > _ENERGY_SLACK * max(1.0, abs(e_old)):
        raise StepRejected(
            f"monitored energy rose from {e_old:.12g} to {e_new:.12g}"
        )


def _advanced(s, dt, rho1, u1, u2, rho2, energy):
    t = s.t + dt
    m1 = integrate_disk(rho1)
    m2 = integrate_disk(rho2) if rho2 is not None else 0.0
    row = (t, m1, m2, energy, float(rho1.values.max()))
    trace = s._trace.appended(s._rows, row)
    return FlowState(t, rho1, u1, u2, rho2, trace, s._rows + 1)


def step_single_density(s: FlowState, p: Params, dt: float) -> FlowState:
    """One step of the single-density regime (species 2 instantaneous).

    The density advances under the frozen drift potential beta*u2 -
    alpha*u1, then both potentials are re-solved: u1 from the new density
    and u2 by the chemical-energy minimizer warm-started from the previous
    one.  The monitored free energy is enforced: a rise beyond the 1e-10
    relative slack raises StepRejected so the driver can halve dt.
    """
    p = validate_params(p)
    grid = s.rho1.grid
    phi = p.beta * s.u2.values - p.alpha * s.u1.values
    rho = RadialField.density(grid, _sg_step(s.rho1.values, phi, grid, dt))
    u1 = inv_laplacian(rho)
    w = _chemical(rho, u1, p, w0=s.u2.values)
    energy = _energy_single(rho, u1, w, p)
    _check_energy(energy, float(s.energy_trace[-1, 1]), enforced=True)
    return _advanced(s, dt, rho, u1, w, _slaved_density(u1, w, p), energy)


def step_two_densities(s: FlowState, p: Params, dt: float) -> FlowState:
    """One step of the two-density regime; both species use the same scheme."""
    p = validate_params(p)
    if s.rho2 is None:
        raise ValueError("the two-density regime needs rho2 in the state")
    grid = s.rho1.grid
    phi1 = p.beta * s.u2.values - p.alpha * s.u1.values
    phi2 = p.theta * p.beta * s.u1.values + p.gamma * s.u2.values
    rho1 = RadialField.density(grid, _sg_step(s.rho1.values, phi1, grid, dt))
    rho2 = RadialField.density(grid, _sg_step(s.rho2.values, phi2, grid, dt))
    u1 = inv_laplacian(rho1)
    u2 = inv_laplacian(rho2)
    energy = two_species_energy_rho(rho1, rho2, p).total
    enforced = p.theta == 1 and p.alpha * p.gamma >= p.beta**2
    _check_energy(energy, float(s.energy_trace[-1, 1]), enforced)
    return _advanced(s, dt, rho1, u1, u2, rho2, energy)


def step_potentials(s: FlowState, p: Params, dt: float) -> FlowState:
    """One step of the potential-relaxation regime.

    Implicit diffusion, explicit normalized exponential sources, Dirichlet
    wall values preserved exactly.  The two-potential energy is enforced
    only in the conflict case with a definite quadratic form; at the
    degenerate threshold a DegenerateQuadraticForm warning fires and the
    step proceeds unmonitored.
    """
    p = validate_params(p)
    grid = s.u1.grid
    g1, g2 = _exponents(p, s.u1.values, s.u2.values)
    s1 = _normalized_density(grid, g1, p.m1)[0]
    s2 = _normalized_density(grid, g2, p.m2)[0]
    u1 = RadialField.potential(grid, _heat_step(s.u1.values, s1, grid, dt))
    u2 = RadialField.potential(grid, _heat_step(s.u2.values, s2, grid, dt))
    enforced = False
    if p.theta == -1:
        disc = p.alpha * p.gamma - p.beta**2
        if abs(disc) <= _DEGENERATE_TOL:
            warnings.warn(
                DegenerateQuadraticForm(
                    "alpha*gamma - beta^2 is at the degenerate threshold; "
                    "energy monitoring disabled for this step"
                ),
                stacklevel=2,
            )
        else:
            enforced = disc > 0
    energy = two_species_energy_u(u1, u2, p).total
    _check_energy(energy, float(s.energy_trace[-1, 1]), enforced)
    rho1, rho2 = _densities(u1, u2, p)
    return _advanced(s, dt, rho1, u1, u2, rho2, energy)


_STEPPERS = {
    (1.0, 0.0, 0.0): step_single_density,
    (1.0, 1.0, 0.0): step_two_densities,
    (0.0, 0.0, 1.0): step_potentials,
}


def initial_state(
    p: Params,
    cfg: FlowConfig,
    rho1: RadialField | None = None,
    rho2: RadialField | None = None,
    u1: RadialField | None = None,
    u2: RadialField | None = None,
) -> FlowState:
    """Assemble a consistent FlowState for the regime cfg selects.

    The density regimes take their densities and derive the potentials;
    the potential regime takes u1, u2 and derives the induced densities.
    Traces are seeded with the t = 0 row.
    """
    p = validate_params(p)
    regime = (cfg.delta1, cfg.delta2, cfg.epsilon)
    if regime == (1.0, 0.0, 0.0):
        if rho1 is None or rho2 is not None or u1 is not None or u2 is not None:
            raise ValueError("the single-density regime takes exactly rho1")
        u1 = inv_laplacian(rho1)
        u2 = _chemical(rho1, u1, p)
        rho2 = _slaved_density(u1, u2, p)
        energy = _energy_single(rho1, u1, u2, p)
    elif regime == (1.0, 1.0, 0.0):
        if rho1 is None or rho2 is None or u1 is not None or u2 is not None:
            raise ValueError("the two-density regime takes exactly rho1 and rho2")
        u1 = inv_laplacian(rho1)
        u2 = inv_laplacian(rho2)
        energy = two_species_energy_rho(rho1, rho2, p).total
    else:
        if u1 is None or u2 is None or rho1 is not None or rho2 is not None:
            raise ValueError("the potential regime takes exactly u1 and u2")
        rho1, rho2 = _densities(u1, u2, p)
        energy = two_species_energy_u(u1, u2, p).total
    empty = FlowState(0.0, rho1, u1, u2, rho2)
    return _advanced(empty, 0.0, rho1, u1, u2, rho2, energy)


def _state_change(old: FlowState, new: FlowState) -> float:
    pairs = [(old.rho1, new.rho1), (old.u1, new.u1), (old.u2, new.u2)]
    if old.rho2 is not None and new.rho2 is not None:
        pairs.append((old.rho2, new.rho2))
    out = 0.0
    for a, b in pairs:
        scale = max(1.0, float(abs(a.values).max()))
        out = max(out, float(abs(b.values - a.values).max()) / scale)
    return out


def run_flow(initial: FlowState, p: Params, cfg: FlowConfig) -> FlowState:
    """Integrate to cfg.t_end or to a steady state, whichever comes first.

    dt halves on every StepRejected and regrows geometrically after
    accepted steps (when cfg.adapt is set).  The run stops early once the
    relative state change per unit time falls below 1e-10.  Raises Stalled
    when rejection pushes dt under 1e-14.
    """
    p = validate_params(p)
    stepper = _STEPPERS[(cfg.delta1, cfg.delta2, cfg.epsilon)]
    state = initial
    dt = cfg.dt
    while state.t < cfg.t_end * (1.0 - 1e-12):
        step_dt = min(dt, cfg.t_end - state.t)
        try:
            new = stepper(state, p, step_dt)
        except StepRejected as err:
            if not cfg.adapt:
                raise
            dt *= 0.5
            if dt < _DT_FLOOR:
                raise Stalled(f"dt underflow at t = {state.t:.6g}: {err}") from err
            continue
        change = _state_change(state, new) / step_dt
        state = new
        if change < _STEADY_TOL:
            logger.info("steady state at t = %.6g (change %.3e)", state.t, change)
            break
        if cfg.adapt:
            dt *= _GROWTH
    return state


def steady_solution(s: FlowState, p: Params) -> Solution:
    """Package the state's potentials as a steady-state candidate.

    The attached face fluxes are the ones whose Green reconstruction is
    the state's own potentials, so the solver module's residual() returns
    the exact finite-volume defect of the state as a solution of the
    elliptic pair.  Away from a fixed point that defect is honestly large.
    """
    p = validate_params(p)
    grid = s.rho1.grid
    g1, g2 = _exponents(p, s.u1.values, s.u2.values)
    _, lam1 = _normalized_density(grid, g1, p.m1)
    _, lam2 = _normalized_density(grid, g2, p.m2)
    return Solution(
        u1=s.u1,
        u2=s.u2,
        residual=float("nan"),
        iterations=0,
        multipliers=(lam1, lam2),
        _flux1=face_flux(s.u1),
        _flux2=face_flux(s.u2),
    )


def trace_rows(s: FlowState) -> np.ndarray:
    """Rows (t, m1, m2, energy, sup rho1) for reporting layers."""
    return s._trace.rows[: s._rows].copy()
