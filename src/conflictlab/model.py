"""Core value types: model parameters, radial grids and nodal fields.

Everything downstream works on the closed unit disk with radially symmetric
data. A grid is a strictly increasing set of node radii 0 = r_0 < ... <
r_n = 1; scalar fields are nodal samples understood as piecewise linear
between nodes. Around each node sits a finite-volume cell bounded by the
midpoints of neighboring nodes (half cells at the center and the wall), and
the cell r-volumes V_i drive every quadrature in the package, so that mass
accounting, the Green operator and the Dirichlet form all agree exactly.

Every value type checks itself once, when it is made: Params(...) and
dataclasses.replace alike raise outside the admissible set, so no function
downstream checks Params again.
Fields that enter the solvers must be finite: a density or potential tag
rejects NaN and infinite samples, and a grid rejects a NaN node, both with
ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_LADDER",
    "FLOW_LIMITS",
    "FlowConfig",
    "Params",
    "RadialField",
    "RadialGrid",
    "make_grid",
    "project_density",
]


@dataclass(frozen=True)
class Params:
    """Physical constants and masses of one model instance.

    alpha: self-attraction of species 1, >= 0
    beta:  cross-coupling strength, >= 0
    gamma: self-repulsion of species 2, >= 0
    theta: conflict flag, -1 (conflict) or +1 (conflict-free)
    m1:    total mass of species 1, > 0
    m2:    total mass of species 2, >= 0

    Raises ValueError for a value outside these sets or not finite; theta
    is stored as an int.
    """

    alpha: float
    beta: float
    gamma: float
    theta: int
    m1: float
    m2: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} = {v!r} must be finite and >= 0")
        if not math.isfinite(self.m1) or self.m1 <= 0:
            raise ValueError(f"m1 = {self.m1!r} must be finite and > 0")
        if not math.isfinite(self.m2) or self.m2 < 0:
            raise ValueError(f"m2 = {self.m2!r} must be finite and >= 0")
        if self.theta not in (-1, 1):
            raise ValueError(f"theta = {self.theta!r} must be -1 or +1")
        if type(self.theta) is not int:
            object.__setattr__(self, "theta", int(self.theta))

    @cached_property
    def coupling(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """A = [[alpha, -beta], [-theta beta, -gamma]] by rows; the exponents are g = A u.
        Made once per Params, on first use."""
        b = float(self.beta)
        return (float(self.alpha), -b), (-self.theta * b, -float(self.gamma))


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Node radii plus the derived finite-volume geometry.

    Stored at construction (all length conventions relative to n cells):

    r          n+1 node radii, r[0] = 0, r[n] = 1
    volumes    n+1 cell r-volumes V_i = integral of r dr over cell i, whose
               faces are the midpoints of adjacent nodes; sum(V) = 1/2 exactly
    weights    disk quadrature weights 2*pi*V_i; sum = pi exactly
    log_ratio  face factors ln(r_{j+1}/r_j) per cell j = 1..n-1, and 2 at
               j = 0: the axis rule u_0 - u_1 = 2 mtilde_{1/2}

    The face transmissibilities t = 1/log_ratio that every tridiagonal
    assembly reads are kept as ``_transmissibility``; ``_pinned_rows``, the
    ones the chemical Newton solve and the heat step share, are made on first
    use, so a grid that never assembles them carries nothing extra.
    """

    r: np.ndarray
    volumes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    log_ratio: np.ndarray = field(init=False, repr=False)
    _transmissibility: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1 or r.size < 2:
            raise ValueError("grid needs a 1-d array of at least two radii")
        if r[0] != 0.0 or r[-1] != 1.0:
            raise ValueError("grid must span [0, 1] with exact endpoints")
        if not np.all(np.diff(r) > 0):  # NaN-safe: a NaN node fails
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "r", r)
        edges = np.concatenate(([0.0], 0.5 * (r[1:] + r[:-1]), [1.0]))
        object.__setattr__(self, "volumes", 0.5 * np.diff(edges**2))
        object.__setattr__(self, "weights", 2.0 * np.pi * self.volumes)
        lr = np.empty(r.size - 1)
        lr[0] = 2.0
        np.log(r[2:] / r[1:-1], out=lr[1:])
        object.__setattr__(self, "log_ratio", lr)
        object.__setattr__(self, "_transmissibility", 1.0 / lr)

    @cached_property
    def _pinned_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(upper, lower, outward, inward): the off-diagonal rows, in gtsv's
        banded layout, of the matrix with the couplings -t between cells and
        the wall row the identity, decoupled from the rest; and t with a zero
        appended and prepended, the couplings through each cell's outer and
        inner face, which a diagonal adds in that order."""
        t = self._transmissibility
        upper, lower, pad = np.zeros(t.size + 1), np.zeros(t.size + 1), np.zeros(t.size + 2)
        upper[1:-1] = lower[:-2] = -t[:-1]
        pad[1:-1] = t
        for row in (upper, lower, pad):
            row.flags.writeable = False  # shared by every assembly on the grid
        return upper, lower, pad[1:], pad[:-1]

    @property
    def n(self) -> int:
        """Number of cells (nodes minus one)."""
        return self.r.size - 1

    def same_as(self, other: "RadialGrid") -> bool:
        return self is other or np.array_equal(self.r, other.r)


def make_grid(n: int, kind: str = "uniform") -> RadialGrid:
    """Build an n-cell grid, 'uniform' (r_i = i/n) or 'graded' (r_i = (i/n)^2,
    clustering near the center for concentration experiments).

    Raises ValueError for n < 8.
    """
    if n < 8:
        raise ValueError(f"n = {n} < 8")
    x = np.linspace(0.0, 1.0, n + 1)
    if kind == "uniform":
        return RadialGrid(x)
    if kind == "graded":
        return RadialGrid(x * x)
    raise ValueError(f"unknown grid kind {kind!r}")


@dataclass(frozen=True, eq=False)
class RadialField:
    """Nodal samples of a radial scalar on a grid, optionally tagged.

    Both tags assert finite samples; kind 'density' asserts nonnegativity,
    kind 'potential' the homogeneous Dirichlet value at the wall
    (values[-1] == 0).
    """

    grid: RadialGrid
    values: np.ndarray
    kind: str | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.r.shape:
            raise ValueError(
                f"field has {v.size} samples for {self.grid.r.size} nodes"
            )
        object.__setattr__(self, "values", v)
        if self.kind not in (None, "density", "potential"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind and not np.isfinite(v).all():
            raise ValueError(f"{self.kind} tag requires finite values")
        if self.kind == "density" and (v < 0).any():
            raise ValueError("density tag requires values >= 0")
        if self.kind == "potential" and v[-1] != 0.0:
            raise ValueError("potential tag requires an exact zero at r = 1")

    @classmethod
    def density(cls, grid: RadialGrid, values: np.ndarray) -> "RadialField":
        return cls(grid, values, kind="density")

    @classmethod
    def potential(cls, grid: RadialGrid, values: np.ndarray) -> "RadialField":
        return cls(grid, values, kind="potential")

    def with_values(self, values: np.ndarray) -> "RadialField":
        return RadialField(self.grid, values, self.kind)

    @classmethod
    def _checked(cls, grid: RadialGrid, values: np.ndarray, kind: str) -> "RadialField":
        """A field over a float array of the grid's shape that the caller
        has already checked for the kind: no copy, no checks."""
        f = object.__new__(cls)
        f.__dict__.update(grid=grid, values=values, kind=kind)
        return f


@dataclass(frozen=True)
class FlowConfig:
    """Time-integration configuration for the three limit systems.

    (delta1, delta2, epsilon) selects the limit, one of FLOW_LIMITS.
    """

    delta1: float
    delta2: float
    epsilon: float
    dt: float
    t_end: float
    adapt: bool = True

    def __post_init__(self) -> None:
        limits = (self.delta1, self.delta2, self.epsilon)
        if limits not in FLOW_LIMITS.values():
            raise ValueError(
                f"(delta1, delta2, epsilon) = {limits} is not one of "
                f"{sorted(FLOW_LIMITS.values())}"
            )
        for name, value in (("dt", self.dt), ("t_end", self.t_end)):
            if not value >= _DT_FLOOR:  # a t_end below it forces a step below it
                raise ValueError(f"{name} = {value!r} must be >= {_DT_FLOOR:g}")


# The flow cases by name, each with its (delta1, delta2, epsilon) limit.
FLOW_LIMITS = {
    "single": (1.0, 0.0, 0.0),  # species 2 instantaneous
    "pair": (1.0, 1.0, 0.0),  # both densities parabolic
    "potentials": (0.0, 0.0, 1.0),  # potential relaxation
}
DEFAULT_LADDER = tuple(float(2**k) for k in range(1, 11))
"""Dyadic blow-down psi rungs 2..1024: three decades of ln psi, exponents still tame."""
_DT_FLOOR = 1e-14  # smallest flow dt: configs start at or above it, run_flow stalls below


def project_density(f: RadialField, m: float) -> RadialField:
    """Rescale a nonnegative field so its disk integral equals m.

    Raises ValueError when f carries no mass.
    """
    from .calculus import integrate_disk

    if m <= 0:
        raise ValueError(f"target mass {m!r} must be > 0")
    peak = float(np.max(f.values))
    if 0.0 < peak < 2.0**-900:
        # exact power-of-two rescale: tiny samples lose bits and overflow m / total
        f = f.with_values(np.ldexp(f.values, -np.frexp(peak)[1]))
    total = integrate_disk(f)
    if total == 0.0:
        raise ValueError("cannot normalize a field with zero disk integral")
    return RadialField.density(f.grid, (m / total) * f.values)
