"""Time integration of the three parabolic limit regimes.

Density equations advance by a semi-implicit finite-volume step: the
drift-diffusion flux through each cell face uses exponential fitting in
the same logarithmic face metric the Green operator integrates, and the
density solve is one tridiagonal system per step, with a block per
species and zero coupling between the blocks.  That choice
makes three structural facts exact rather than approximate: cell masses
telescope (conservation to roundoff), the step matrix is an M-matrix
(positivity for any dt), and the zero-flux stationary profile is the
discrete Boltzmann density of the frozen potential, so flow fixed points
satisfy the same discrete steady equations the elliptic solvers produce.

Potential equations advance by implicit diffusion with the normalized
exponential sources of the current potentials, both in one solve with a
column each; the wall value stays exactly zero.  The monitored energy is
enforced only in the regimes where the underlying system is a gradient
flow for it.  A step evaluates each exponential, Green sum and face flux
once, on raw arrays, and derives the new fields, the energy and the
trace row from them, through the same array cores as the public
functionals; the two species of the pair regime go through the Green
sum, the entropy and the pairings as the rows of one stack.

A state keeps its fields as the rows (rho1, u1, u2, rho2) of one stacked
array, checked once when the state is made (every sample finite, densities
>= 0, potentials exactly zero at the wall; ValueError otherwise), so the
solves of a step need no checks of their own; the four RadialFields are
views of those rows,
and the per-row sup norms that the steady-state test divides by are
computed once per state.  The single-density step takes the chemical
density and its log-partition term from the chemical Newton solve.  A
state made by the potential regime remembers the Params whose Boltzmann
densities its rho1 and rho2 are; the next potential step with equal
Params takes its sources from them, and any other state (a density
regime's, a hand-built one, or one under other Params) has its sources
recomputed.

Each accepted step appends a row (t, m1, m2, energy, sup rho1) to a trace
buffer shared with the state's ancestors, doubling it when full, so an
append costs O(1) amortised.  The buffer's owner counts the rows claimed;
a state whose next row another child has claimed copies its own rows
first.  The three traces are read-only views of the rows a state owns.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    _entropy,
    _face_flux,
    _green,
    _pairing,
    _pin_wall,
    _solve_tridiag,
    _tridiag,
    face_flux,
)
from .errors import (
    DegenerateQuadraticForm,
    GridMismatch,
    NegativeDensity,
    Stalled,
    StepRejected,
    _releasing,
)
from .functionals import _energy_rho, _energy_u, _total
from .liouville import Solution, _densities, _exponents, _minimize_w
from .model import _DT_FLOOR, FlowConfig, Params, RadialField, validate_params

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
_GROWTH = 1.2
_DEGENERATE_TOL = 1e-12
_FIELDS = (("rho1", "density"), ("u1", "potential"), ("u2", "potential"), ("rho2", "density"))


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

    The fields are copied into the rows of one stacked array and replaced
    by views of those rows.  Only initial_state and the steppers give a
    state its first trace row; a state built here without one cannot be
    stepped.
    """

    t: float
    rho1: RadialField
    u1: RadialField
    u2: RadialField
    rho2: RadialField | None = None
    _trace: _Trace = field(default_factory=_Trace, repr=False)
    _rows: int = 0
    _stack: np.ndarray = field(init=False, repr=False)
    _scale: np.ndarray = field(init=False, repr=False)
    _boltzmann: Params | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.rho1.kind != "density" or (self.rho2 is not None and self.rho2.kind != "density"):
            raise ValueError("rho1 and rho2 must be density-tagged")
        if self.u1.kind != "potential" or self.u2.kind != "potential":
            raise ValueError("u1 and u2 must be potential-tagged")
        grid = self.rho1.grid
        fields = [self.rho1, self.u1, self.u2] + ([self.rho2] if self.rho2 is not None else [])
        if not all(f.grid.same_as(grid) for f in fields[1:]):
            raise ValueError("all state fields must share one grid")
        _bind(self, grid, np.array([f.values for f in fields]))

    def _columns(self, cols: slice) -> np.ndarray:
        view = self._trace.rows[: self._rows, cols]
        view.flags.writeable = False
        return view

    energy_trace = property(lambda self: self._columns(slice(None, None, 3)))
    mass_trace = property(lambda self: self._columns(slice(0, 3)))
    sup_trace = property(lambda self: self._columns(slice(None, None, 4)))


def _bind(s: FlowState, grid, stack: np.ndarray) -> None:
    """Check the stacked rows (rho1, u1, u2[, rho2]) of s once and make
    them its fields, with their sup norms floored at 1."""
    scale = np.maximum(1.0, abs(stack).max(axis=1))
    if not math.isfinite(scale.max()):  # abs and max carry NaN and inf through
        raise ValueError("state fields must be finite")
    if stack[::3].min() < 0:
        raise NegativeDensity("density tag requires values >= 0")
    if stack[1, -1] or stack[2, -1]:
        raise ValueError("potential tag requires an exact zero at r = 1")
    fields = s.__dict__  # frozen: set as dataclass __init__ would
    for (name, kind), row in zip(_FIELDS, stack):
        fields[name] = RadialField._checked(grid, row, kind)
    fields["_stack"] = stack
    fields["_scale"] = scale


def _bernoulli(x: np.ndarray) -> np.ndarray:
    """x / (e^x - 1), stably through 0 and into both exponential tails."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = x / np.expm1(x)
    small = np.abs(x) < 1e-5
    if small.any():
        xs = x[small]
        b[small] = 1.0 - 0.5 * xs + xs * xs / 12.0
    return b


def _sg_step(grid, dt, rhos, phis):
    """Implicit exponential-fitting steps for rho_t = div(grad rho + rho
    grad phi), one per row of rhos and phis, as one block tridiagonal
    solve; the new densities come back as rows."""
    pe = phis[:, 1:] - phis[:, :-1]
    ab = _tridiag(grid, grid.volumes / dt, _bernoulli(np.array([pe, -pe])))
    new = _solve_tridiag(ab, (grid.volumes * rhos / dt).ravel()).reshape(rhos.shape)
    floor = -1e-13 * np.maximum(new.max(axis=1), 1.0)
    if (new < floor[:, None]).any():
        raise StepRejected("positivity lost in the density solve")
    return np.maximum(new, 0.0)


def _heat_step(grid, dt, us, sources):
    """Implicit diffusion with explicit source for each row of us and
    sources, as one solve with a column per row; wall values stay zero."""
    ab = _tridiag(grid, grid.volumes / dt)
    _pin_wall(ab)
    rhs = (grid.volumes * (us / dt + sources)).T
    rhs[-1] = 0.0
    new = _solve_tridiag(ab, rhs).T
    new[:, -1] = 0.0
    return new


def _single_fields(grid, rho, p, w0=None):
    """The stacked fields (rho, u, w, rho2) and the monitored energy of the
    single-density regime at density rho: its potential u, the chemical
    minimizer w (warm-started from w0) and the slaved density rho2.

    The energy is F of the density-plus-chemical system, with the sign of
    the w-block flipped in the cooperative case: the terms of
    functionals.joint_free_energy (which fixes theta=-1), summed alike."""
    u, mt = _green(grid, rho)
    w, rho2, m_log_z = _minimize_w(grid, rho, u, p, w0=w0)
    faces = np.array([mt, _face_flux(grid, w)])
    pairing, dirichlet = _pairing(grid, faces, faces).tolist()
    interaction = 0.5 * p.alpha * -pairing
    energy = _entropy(grid, rho) + interaction - p.theta * (0.5 * p.gamma * dirichlet + m_log_z)
    return np.array([rho, u, w, rho2]), energy


def _pair_fields(grid, rhos, p):
    """The stacked fields (rho1, u1, u2, rho2) and the density-form energy
    of the two-density regime at the densities rhos, as rows."""
    us, mts = _green(grid, rhos)
    return np.array([rhos[0], us[0], us[1], rhos[1]]), _total(_energy_rho(grid, rhos, mts, p))


def _potential_fields(grid, us, p):
    """The stacked fields (rho1, u1, u2, rho2) and the potential-form energy
    of the potential regime at the potentials us, as rows: rho1 and rho2
    are the Boltzmann densities."""
    (rho1, rho2), _, m_log_zs = _densities(grid, p, *us)
    energy = _total(_energy_u(grid, _face_flux(grid, us), *m_log_zs, p))
    return np.array([rho1, us[0], us[1], rho2]), energy


def _last_energy(s: FlowState) -> float:
    """The monitored energy of the state's last trace row."""
    if s._rows == 0:
        raise ValueError("the state has no trace row: build it with initial_state")
    return float(s._trace.rows[s._rows - 1, 3])


def _check_energy(e_new, e_old, enforced):
    if enforced and e_new - e_old > _ENERGY_SLACK * max(1.0, abs(e_old)):
        raise StepRejected(
            f"monitored energy rose from {e_old:.12g} to {e_new:.12g}"
        )


def _advanced(grid, t, trace, k, stack, energy, boltzmann=None):
    """The state at time t of the stacked fields (rho1, u1, u2, rho2),
    owning the first k rows of trace plus its own row; boltzmann is the
    Params whose Boltzmann densities of u1, u2 are rho1, rho2, if any."""
    s = object.__new__(FlowState)
    _bind(s, grid, stack)
    m1, m2 = np.vecdot(stack[::3], grid.weights).tolist()
    s.__dict__.update(
        t=t,
        _trace=trace.appended(k, (t, m1, m2, energy, stack[0].max())),
        _rows=k + 1,
        _boltzmann=boltzmann,
    )
    return s


@_releasing
def step_single_density(s: FlowState, p: Params, dt: float) -> FlowState:
    """One step of the single-density regime (species 2 instantaneous).

    The density advances under the frozen drift potential beta*u2 -
    alpha*u1, then both potentials are re-solved: u1 from the new density
    and u2 by the chemical-energy minimizer warm-started from the previous
    one.  The monitored free energy is enforced: a rise beyond the 1e-10
    relative slack raises StepRejected so the driver can halve dt.
    """
    p = validate_params(p)
    e_old = _last_energy(s)
    grid = s.rho1.grid
    u2 = s.u2.values
    phi = -_exponents(p, s.u1.values, u2)[0]
    (rho,) = _sg_step(grid, dt, s._stack[:1], phi[None])
    stack, energy = _single_fields(grid, rho, p, w0=u2)
    _check_energy(energy, e_old, enforced=True)
    return _advanced(grid, s.t + dt, s._trace, s._rows, stack, energy)


@_releasing
def step_two_densities(s: FlowState, p: Params, dt: float) -> FlowState:
    """One step of the two-density regime; both species use the same scheme,
    in one block solve."""
    p = validate_params(p)
    if s.rho2 is None:
        raise ValueError("the two-density regime needs rho2 in the state")
    e_old = _last_energy(s)
    grid = s.rho1.grid
    phis = np.negative(_exponents(p, s.u1.values, s.u2.values))
    stack, energy = _pair_fields(grid, _sg_step(grid, dt, s._stack[::3], phis), p)
    enforced = p.theta == 1 and p.alpha * p.gamma >= p.beta**2
    _check_energy(energy, e_old, enforced)
    return _advanced(grid, s.t + dt, s._trace, s._rows, stack, energy)


@_releasing
def step_potentials(s: FlowState, p: Params, dt: float) -> FlowState:
    """One step of the potential-relaxation regime.

    Implicit diffusion, explicit normalized exponential sources, Dirichlet
    wall values preserved exactly.  The two-potential energy is enforced
    only in the conflict case with a definite quadratic form; at the
    degenerate threshold a DegenerateQuadraticForm warning fires and the
    step proceeds unmonitored.
    """
    p = validate_params(p)
    e_old = _last_energy(s)
    grid = s.u1.grid
    us = s._stack[1:3]
    if s._boltzmann == p:
        sources = s._stack[::3]
    else:
        sources = _densities(grid, p, *us)[0]
    us = _heat_step(grid, dt, us, sources)
    enforced = False
    if p.theta == -1:
        disc = p.alpha * p.gamma - p.beta**2
        if abs(disc) <= _DEGENERATE_TOL:
            warnings.warn(
                DegenerateQuadraticForm(
                    "alpha*gamma - beta^2 is at the degenerate threshold; "
                    "energy monitoring disabled for this step"
                ),
                stacklevel=3,  # past the _releasing entry, at the caller
            )
        else:
            enforced = disc > 0
    stack, energy = _potential_fields(grid, us, p)
    _check_energy(energy, e_old, enforced)
    return _advanced(grid, s.t + dt, s._trace, s._rows, stack, energy, boltzmann=p)


_STEPPERS = {
    (1.0, 0.0, 0.0): step_single_density,
    (1.0, 1.0, 0.0): step_two_densities,
    (0.0, 0.0, 1.0): step_potentials,
}


@_releasing
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
    boltzmann = None
    if regime == (1.0, 0.0, 0.0):
        if rho1 is None or rho2 is not None or u1 is not None or u2 is not None:
            raise ValueError("the single-density regime takes exactly rho1")
        grid = rho1.grid
        stack, energy = _single_fields(grid, _tagged(rho1, "density"), p)
    elif regime == (1.0, 1.0, 0.0):
        if rho1 is None or rho2 is None or u1 is not None or u2 is not None:
            raise ValueError("the two-density regime takes exactly rho1 and rho2")
        grid = _shared_grid(rho1, rho2)
        rhos = np.array([_tagged(rho1, "density"), _tagged(rho2, "density")])
        stack, energy = _pair_fields(grid, rhos, p)
    else:
        if u1 is None or u2 is None or rho1 is not None or rho2 is not None:
            raise ValueError("the potential regime takes exactly u1 and u2")
        grid = _shared_grid(u1, u2)
        us = np.array([_tagged(u1, "potential"), _tagged(u2, "potential")])
        stack, energy = _potential_fields(grid, us, p)
        boltzmann = p
    return _advanced(grid, 0.0, _Trace(), 0, stack, energy, boltzmann)


def _shared_grid(f1, f2):
    if not f1.grid.same_as(f2.grid):
        raise GridMismatch("the initial fields need a shared grid")
    return f1.grid


def _tagged(f, kind):
    if f.kind != kind:
        raise ValueError(f"the initial field must be {kind}-tagged")
    return f.values


def _state_change(old: FlowState, new: FlowState) -> float:
    """The largest change of a field relative to max(1, its old sup norm);
    rho2 counts only when both states have it."""
    k = min(len(old._stack), len(new._stack))
    return float((abs(new._stack[:k] - old._stack[:k]) / old._scale[:k, None]).max())


@_releasing
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
    return Solution(
        u1=s.u1,
        u2=s.u2,
        residual=float("nan"),
        iterations=0,
        multipliers=_densities(s.rho1.grid, p, s.u1.values, s.u2.values)[1],
        _flux1=face_flux(s.u1),
        _flux2=face_flux(s.u2),
    )


def trace_rows(s: FlowState) -> np.ndarray:
    """Rows (t, m1, m2, energy, sup rho1) for reporting layers."""
    return s._trace.rows[: s._rows].copy()
