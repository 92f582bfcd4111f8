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
enforced only where the system is a gradient flow for it: for the
potentials, at theta = -1 with alpha*gamma > beta^2.  A step evaluates
each exponential, Green sum and face flux once, on raw arrays, and
derives the new fields, the energy and the trace row from them, through
the same array cores as the public functionals; the two species of the
pair regime go through the Green sum, the entropy and the pairings as
the rows of one stack.

The three regimes are the rows of one table, _REGIMES, keyed by their
FLOW_LIMITS values.  A regime's row holds its core: one step of dt from the
four fields (rho1, u1, u2, rho2) stacked as the rows of one array, giving
the new stack, its monitored energy and whether that energy is enforced.

run_flow is the loop of the core on arrays: it holds the current stack,
its row scales, the last energy and the trace, checks each new stack once
(every sample finite, densities >= 0, potentials exactly zero at the wall;
ValueError otherwise, naming the regime, time and dt of the step), and
makes one FlowState, at the end.  A public step is the same core and the
same check, and makes the state it returns; initial_state checks and makes
the first one.  One row maximum and one row minimum give that check, sup
rho1 and the sup norms the steady-state test divides by, so the solves of
a step need no checks of their own.  A state holds its checked stack,
read-only; the four RadialFields are views of its rows, made on access.

The single-density step takes the chemical density and its log-partition
term from the chemical Newton solve.  The densities of a potential-regime
stack are the Boltzmann densities of its potentials under its Params, which
the state remembers; the next potential step under equal Params takes its
sources from them, and any other (a density regime's, or one under other
Params) recomputes them.  The potential step's heat bands depend on dt
alone, so run_flow makes them once per dt value; they, like the chemical
Newton solve's Jacobian, add a diagonal to the grid's pinned Green rows.

Each accepted step appends a row (t, m1, m2, energy, sup rho1) to one
array.array of doubles shared with the state's ancestors, in O(1)
amortised: a run or a state owning the array's tail extends it in place,
any other copies its own rows first.  The traces and trace_rows are copies,
never views, which would make the next extend raise BufferError.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import neg, truediv

import numpy as np

from .calculus import (
    _entropy,
    _face_flux,
    _green,
    _pairing,
    _pinned_tridiag,
    _refuse_overflow,
    _solve_tridiag,
    _tridiag,
    face_flux,
)
from .errors import StepRejected, _releasing
from .functionals import _energy_rho, _energy_u, _total
from .liouville import Solution, _densities, _exponents, _minimize_w
from .model import _DT_FLOOR, FLOW_LIMITS, FlowConfig, Params, RadialField, RadialGrid

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

_ENERGY_SLACK = 1e-10
_STEADY_TOL = 1e-10
_GROWTH = 1.2


@dataclass(frozen=True, eq=False)
class FlowState:
    """Immutable snapshot of a flow, with its accumulated traces.

    ``energy_trace`` rows are (t, monitored energy), ``mass_trace`` rows
    are (t, m1, m2) and ``sup_trace`` rows are (t, sup rho1): read-only
    copies of the first ``_rows`` rows of the shared trace array, made on
    access.  The command line layer reports all three side by side.

    States come only from initial_state, the steppers and run_flow;
    FlowState(...) raises TypeError.  The fields rho1, u1, u2 and rho2 are
    views of the rows of the state's read-only stack, made on access.
    """

    t: float
    _grid: RadialGrid = field(repr=False)
    _trace: array = field(repr=False)
    _rows: int
    _stack: np.ndarray = field(repr=False)
    _scale: list = field(repr=False)
    _boltzmann: Params | None = field(repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("a FlowState comes from initial_state or a flow step")

    rho1 = property(lambda self: RadialField._checked(self._grid, self._stack[0], "density"))
    u1 = property(lambda self: RadialField._checked(self._grid, self._stack[1], "potential"))
    u2 = property(lambda self: RadialField._checked(self._grid, self._stack[2], "potential"))
    rho2 = property(lambda self: RadialField._checked(self._grid, self._stack[3], "density"))

    def _columns(self, cols: slice) -> np.ndarray:
        out = trace_rows(self)[:, cols]
        out.flags.writeable = False
        return out

    energy_trace = property(lambda self: self._columns(slice(None, None, 3)))
    mass_trace = property(lambda self: self._columns(slice(0, 3)))
    sup_trace = property(lambda self: self._columns(slice(None, None, 4)))


def _bernoulli(x: np.ndarray) -> np.ndarray:
    """x / (e^x - 1), stably through 0 and into both exponential tails."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = x / np.expm1(x)
    small = np.abs(x) < 1e-5
    if np.logical_or.reduce(small, axis=None):
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
    # max(high, 1.0) keeps a NaN high, as np.maximum does: the row check reports it
    lows, highs = np.minimum.reduce(new, axis=1).tolist(), np.maximum.reduce(new, axis=1).tolist()
    if any(low < -1e-13 * max(high, 1.0) for low, high in zip(lows, highs)):
        raise StepRejected("positivity lost in the density solve")
    return np.maximum(new, 0.0)


def _heat_bands(grid, dt):
    """The banded matrix of an implicit diffusion step of dt, its wall row
    pinned: one per dt, whatever the fields."""
    return _pinned_tridiag(grid, grid.volumes / dt)


def _heat_step(grid, dt, us, sources, ab):
    """Implicit diffusion with explicit source for each row of us and
    sources, as one solve with a column per row through the heat bands ab
    of dt; wall values stay zero."""
    rhs = (grid.volumes * (us / dt + sources)).T
    rhs[-1] = 0.0
    new = _solve_tridiag(ab, rhs).T
    new[:, -1] = 0.0
    return new


def _single_fields(grid, rhos, p, w0=None):
    """The stacked fields (rho, u, w, rho2), the monitored energy and None
    (no Boltzmann Params) of the single-density regime at the one row rho of
    rhos: its potential u, the chemical minimizer w (warm-started from w0)
    and the slaved density rho2.

    The energy is F of the density-plus-chemical system, with the sign of
    the w-block flipped in the cooperative case: the terms of
    functionals.joint_free_energy (which fixes theta=-1), summed alike."""
    (rho,) = rhos
    u, mt = _green(grid, rho)
    w, rho2, m_log_z = _minimize_w(grid, u, p, w0=w0)
    faces = np.array([mt, _face_flux(grid, w)])
    pairing, dirichlet = _pairing(grid, faces, faces).tolist()
    interaction = 0.5 * p.alpha * -pairing
    energy = _entropy(grid, rho) + interaction - p.theta * (0.5 * p.gamma * dirichlet + m_log_z)
    return np.array([rho, u, w, rho2]), energy, None


def _pair_fields(grid, rhos, p):
    """The stacked fields (rho1, u1, u2, rho2), the density-form energy and
    None of the two-density regime at the densities rhos, as rows."""
    us, mts = _green(grid, rhos)
    return np.array([rhos[0], us[0], us[1], rhos[1]]), _total(_energy_rho(grid, rhos, mts, p)), None


def _potential_fields(grid, us, p):
    """The stacked fields (rho1, u1, u2, rho2), the potential-form energy
    and p of the potential regime at the potentials us, as rows: rho1 and
    rho2 are the Boltzmann densities under p."""
    (rho1, rho2), _, m_log_zs = _densities(grid, p, *us)
    energy = _total(_energy_u(grid, _face_flux(grid, us), *m_log_zs, p))
    return np.array([rho1, us[0], us[1], rho2]), energy, p


# The cores of the public steps: one step of dt from the stacked fields
# (rho1, u1, u2, rho2), whose densities are the Boltzmann densities under the
# Params boltzmann unless that is None.  Each returns what its regime's
# maker does, and whether the energy is enforced; bands(dt) gives the heat
# bands of dt.


def _single_core(grid, stack, boltzmann, p, dt, bands):
    """step_single_density's core."""
    phis = np.negative(_exponents(p.coupling[:1], stack[1:3]))
    rhos = _sg_step(grid, dt, stack[:1], phis)
    return *_single_fields(grid, rhos, p, w0=stack[2]), True


def _pair_core(grid, stack, boltzmann, p, dt, bands):
    """step_two_densities' core."""
    phis = np.negative(_exponents(p.coupling, stack[1:3]))
    enforced = p.theta == 1 and p.alpha * p.gamma >= p.beta * p.beta
    return *_pair_fields(grid, _sg_step(grid, dt, stack[::3], phis), p), enforced


def _potential_core(grid, stack, boltzmann, p, dt, bands):
    """step_potentials' core; it enforces the energy where theta = -1 and alpha*gamma > beta^2."""
    us = stack[1:3]
    # run_flow passes the Params its last step stored: "is" spares the field compare
    sources = stack[::3] if boltzmann is p or boltzmann == p else _densities(grid, p, *us)[0]
    us = _heat_step(grid, dt, us, sources, bands(dt))
    enforced = p.theta == -1 and p.alpha * p.gamma > p.beta * p.beta
    return *_potential_fields(grid, us, p), enforced


def _checked_rows(stack):
    """sup rho1 and the row scales max(1, sup |row|), as floats, of the
    stacked fields (rho1, u1, u2, rho2), after their one check, from the row
    maxima and minima; the rows are then read-only."""
    hi, lo = np.maximum.reduce(stack, axis=1).tolist(), np.minimum.reduce(stack, axis=1).tolist()
    if not all(map(math.isfinite, hi + lo)):  # max and min carry NaN and inf through
        raise ValueError("state fields must be finite")
    if lo[0] < 0 or lo[3] < 0:
        raise ValueError("density tag requires values >= 0")
    if stack[1, -1] or stack[2, -1]:
        raise ValueError("potential tag requires an exact zero at r = 1")
    stack.flags.writeable = False
    return hi[0], list(map(max, repeat(1.0), hi, map(neg, lo)))


def _checked(regime, t, dt, e_old, stack, energy, enforced):
    """_checked_rows of the stack a step of dt to t computed, after e_old,
    the energy before it.  StepRejected if the energy is enforced and rose
    beyond the slack; a failed row check raises ValueError naming the
    regime, t and dt."""
    if enforced and energy - e_old > _ENERGY_SLACK * max(1.0, abs(e_old)):
        raise StepRejected(f"monitored energy rose from {e_old:.12g} to {energy:.12g}")
    try:
        return _checked_rows(stack)
    except ValueError as err:
        raise ValueError(f"{err} after the {regime} step to t = {t:.6g} (dt = {dt:.6g})") from None


def _appended(trace, k, grid, t, stack, energy, sup):
    """trace with the row (t, m1, m2, energy, sup rho1) of the checked stack
    after its first 5 k values: extended in place if those are all it
    holds, else a copy of them, since a sibling's row follows."""
    trace = trace if len(trace) == 5 * k else trace[: 5 * k]
    trace.extend((t, *np.vecdot(stack[::3], grid.weights).tolist(), energy, sup))
    return trace


def _state(grid, t, trace, rows, stack, scale, boltzmann):
    """The one maker of a FlowState: the state at time t of the checked,
    read-only stack with its row scales, owning the first rows rows of
    trace; boltzmann is the Params whose Boltzmann densities of u1, u2 are
    rho1, rho2, if any."""
    s = object.__new__(FlowState)
    s.__dict__.update(  # frozen, and __init__ refuses: set the fields here
        t=t,
        _grid=grid,
        _trace=trace,
        _rows=rows,
        _stack=stack,
        _scale=scale,
        _boltzmann=boltzmann,
    )
    return s


def _advanced(grid, t, trace, k, stack, energy, boltzmann=None):
    """The state at time t of the stacked fields, owning the first 5 k
    values of trace plus its own row, after the row check."""
    sup, scale = _checked_rows(stack)
    trace = _appended(trace, k, grid, t, stack, energy, sup)
    return _state(grid, t, trace, k + 1, stack, scale, boltzmann)


def _stepped(s, dt, regime, result):
    """The state dt after s, of what the regime's core computed, after the
    checks run_flow makes at every step."""
    stack, energy, boltzmann, enforced = result
    t = s.t + dt
    sup, scale = _checked(regime, t, dt, s._trace[5 * s._rows - 2], stack, energy, enforced)
    trace = _appended(s._trace, s._rows, s._grid, t, stack, energy, sup)
    return _state(s._grid, t, trace, s._rows + 1, stack, scale, boltzmann)


# One row per regime, keyed by its (delta1, delta2, epsilon) limit: the name
# its failures give, the tag and the initial_state keywords of the fields it
# starts from, the maker of its stacked fields, monitored energy and
# Boltzmann Params, and its core.
_REGIMES = {
    FLOW_LIMITS["single"]:
        ("single-density", "density", ("rho1",), _single_fields, _single_core),
    FLOW_LIMITS["pair"]:
        ("two-density", "density", ("rho1", "rho2"), _pair_fields, _pair_core),
    FLOW_LIMITS["potentials"]:
        ("potential", "potential", ("u1", "u2"), _potential_fields, _potential_core),
}


@_releasing
def step_single_density(s: FlowState, p: Params, dt: float) -> FlowState:
    """One step of the single-density regime (species 2 instantaneous).

    The density advances under the frozen drift potential, minus species
    1's exponent, then both potentials are re-solved: u1 from the new density
    and u2 by the chemical-energy minimizer warm-started from the previous
    one.  The monitored free energy is enforced: a rise beyond the 1e-10
    relative slack raises StepRejected so the driver can halve dt.
    """
    name, _, _, _, core = _REGIMES[FLOW_LIMITS["single"]]
    return _stepped(s, dt, name, core(s._grid, s._stack, s._boltzmann, p, dt, None))


@_releasing
def step_two_densities(s: FlowState, p: Params, dt: float) -> FlowState:
    """One step of the two-density regime; both species use the same scheme,
    in one block solve."""
    name, _, _, _, core = _REGIMES[FLOW_LIMITS["pair"]]
    return _stepped(s, dt, name, core(s._grid, s._stack, s._boltzmann, p, dt, None))


@_releasing
def step_potentials(s: FlowState, p: Params, dt: float) -> FlowState:
    """One step of the potential-relaxation regime.

    Implicit diffusion, explicit normalized exponential sources, Dirichlet
    wall values preserved exactly.  The two-potential energy is enforced
    where the step is a gradient flow of it: in the conflict case theta = -1
    with the form alpha|u1'|^2 - 2beta u1'u2' + gamma|u2'|^2 definite, that
    is alpha*gamma > beta^2.
    """
    name, _, _, _, core = _REGIMES[FLOW_LIMITS["potentials"]]
    bands = functools.partial(_heat_bands, s._grid)
    return _stepped(s, dt, name, core(s._grid, s._stack, s._boltzmann, p, dt, bands))


# The public step of each regime, by its limit.  run_flow calls the cores,
# not these; the benchmark's tracer reads and patches this table.
_STEPPERS = {
    FLOW_LIMITS["single"]: step_single_density,
    FLOW_LIMITS["pair"]: step_two_densities,
    FLOW_LIMITS["potentials"]: step_potentials,
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
    Traces are seeded with the t = 0 row.  A non-finite input sample, or
    masses whose Green terms may overflow, raise ValueError up front.
    """
    name, kind, keys, make, _ = _REGIMES[cfg.delta1, cfg.delta2, cfg.epsilon]
    given = {"rho1": rho1, "rho2": rho2, "u1": u1, "u2": u2}
    if [key for key, f in given.items() if f is not None] != list(keys):
        raise ValueError(f"the {name} regime takes exactly {' and '.join(keys)}")
    fields = [given[key] for key in keys]
    grid = fields[0].grid
    if not all(grid.same_as(f.grid) for f in fields):
        raise ValueError("the initial fields need a shared grid")
    for f in fields:
        if f.kind != kind:
            raise ValueError(f"the initial field must be {kind}-tagged")
        if not np.isfinite(f.values).all():  # written in after the tag's own check
            raise ValueError(f"the initial {kind} must be finite")
    _refuse_overflow(grid, (p.m1, p.m2), p.coupling)
    return _advanced(grid, 0.0, array("d"), 0, *make(grid, np.array([f.values for f in fields]), p))


@_releasing
def run_flow(initial: FlowState, p: Params, cfg: FlowConfig) -> FlowState:
    """Integrate to cfg.t_end or to a steady state, whichever comes first.

    The loop of the regime's public step, on arrays: each step runs the
    regime's core and the checks of that step, and appends its trace row
    in place; the one FlowState is made at the end.  The heat bands are
    made once per dt.  dt halves on every StepRejected and regrows
    geometrically after accepted steps (when cfg.adapt is set).  The run
    stops early once the relative state change per unit time falls below
    1e-10.  Raises RuntimeError ("dt underflow") when rejection pushes dt
    under 1e-14.
    """
    name, _, _, _, core = _REGIMES[cfg.delta1, cfg.delta2, cfg.epsilon]
    grid, t, trace, k = initial._grid, initial.t, initial._trace, initial._rows
    stack, scale, boltzmann = initial._stack, initial._scale, initial._boltzmann
    energy = trace[5 * k - 2]
    bands = functools.lru_cache(maxsize=1)(functools.partial(_heat_bands, grid))
    dt = cfg.dt
    while t < cfg.t_end * (1.0 - 1e-12):
        step_dt = min(dt, cfg.t_end - t)
        try:
            new, new_energy, made_by, enforced = core(grid, stack, boltzmann, p, step_dt, bands)
            sup, new_scale = _checked(name, t + step_dt, step_dt, energy, new, new_energy, enforced)
        except StepRejected as err:
            if not cfg.adapt:
                raise
            dt *= 0.5
            if dt < _DT_FLOOR:
                raise RuntimeError(f"dt underflow at t = {t:.6g}: {err}") from err
            continue
        t += step_dt
        trace = _appended(trace, k, grid, t, new, new_energy, sup)
        k += 1
        # the largest change of a row relative to max(1, its old sup norm)
        change = max(map(truediv, np.maximum.reduce(np.abs(new - stack), axis=1).tolist(), scale)) / step_dt
        stack, scale, energy, boltzmann = new, new_scale, new_energy, made_by
        if change < _STEADY_TOL:
            break
        if cfg.adapt:
            dt *= _GROWTH
    return _state(grid, t, trace, k, stack, scale, boltzmann)


def steady_solution(s: FlowState, p: Params) -> Solution:
    """Package the state's potentials as a steady-state candidate.

    The attached face fluxes are the ones whose Green reconstruction is
    the state's own potentials, so the solver module's residual() returns
    the exact finite-volume defect of the state as a solution of the
    elliptic pair.  Away from a fixed point that defect is honestly large.
    """
    return Solution(
        u1=s.u1,
        u2=s.u2,
        residual=float("nan"),
        iterations=0,
        multipliers=_densities(s._grid, p, *s._stack[1:3])[1],
        _flux1=face_flux(s.u1),
        _flux2=face_flux(s.u2),
    )


def trace_rows(s: FlowState) -> np.ndarray:
    """Rows (t, m1, m2, energy, sup rho1) for reporting layers."""
    return np.frombuffer(s._trace[: 5 * s._rows]).reshape(s._rows, 5)
