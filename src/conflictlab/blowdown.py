"""Blow-down rescaling experiments and the unboundedness slope estimator.

The blow-down concentrates a configuration toward the origin, density by
psi^2 rho(psi r) and potential by gluing the shifted core w(psi r) +
(m/2pi) ln psi to the pure exterior logarithm.  Each term of the joint free
energy then shifts by a known multiple of ln psi, and fitting the total
against ln psi certifies unboundedness from below whenever the fitted slope
is negative.  The scale is always psi itself: a half-scale family, at
sqrt(psi), is the ladder of the square roots.

Transformed fields live on a purpose-built grid: a scaled copy of the input
nodes, one epsilon node that terminates the core support, and a geometric
tail out to the wall.  On that grid the disk mass and the entropy, pairing
and Dirichlet shift identities hold to roundoff; resampling onto a fixed
grid would bury them under interpolation error.

One private walk, _ladder, scales the fields, solves for the potential and
evaluates the raw energy terms once per rung, refusing masses whose
predicted shifts overflow.  The shift table takes its psi = 1 base terms
from the walk's first rung; the slope fit and the CLI's blow-down table fit
the totals of the walk that made the shift rows, and the CLI's functional
table reads its rungs from a walk of its own.  The closed-form coefficient
they predict is phase.blowdown_coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import inv_laplacian
from .functionals import _joint, _joint_terms
from .model import DEFAULT_LADDER, Params, RadialField, RadialGrid
from .phase import blowdown_coefficients

__all__ = [
    "DEFAULT_LADDER",
    "BlowdownFamily",
    "ShiftRow",
    "blowdown_density",
    "blowdown_potential",
    "slope_estimate",
    "verify_identities",
]

TWO_PI = 2.0 * math.pi

_EPS_GAP = 2e-12

# the headroom, over the largest predicted shift of a ladder's top rung (at
# least one ln unit), that the measured terms of every rung need
_MARGIN = 2.0**10


def _scaled_grid(grid: RadialGrid, scale: float) -> RadialGrid:
    """Shrunken copy of ``grid`` plus an epsilon node and a geometric tail."""
    n_tail = max(512, grid.n // 4)
    eps = (1.0 + _EPS_GAP) / scale
    width = math.log(scale / (1.0 + _EPS_GAP))
    tail = eps * np.exp(np.arange(1, n_tail + 1) * (width / n_tail))
    nodes = np.concatenate([grid.r / scale, [eps], tail])
    nodes[-1] = 1.0
    return RadialGrid(nodes)


@dataclass(frozen=True, eq=False)
class BlowdownFamily:
    """A base configuration together with the psi ladder to push it along.

    Each rung concentrates the base fields at the scale psi, so every shift
    identity carries ln psi.  The half-scale family, whose identities carry
    ln sqrt(psi), is the ladder of the square roots.
    """

    base_rho: RadialField
    base_w: RadialField
    psis: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_LADDER))

    def __post_init__(self) -> None:
        if self.base_rho.kind != "density":
            raise ValueError("base_rho must be density-tagged")
        if self.base_w.kind != "potential":
            raise ValueError("base_w must be potential-tagged")
        if not self.base_rho.grid.same_as(self.base_w.grid):
            raise ValueError("base fields live on different grids")
        psis = np.asarray(self.psis, dtype=float)
        if psis.ndim != 1 or psis.size == 0:
            raise ValueError("psis must be a nonempty 1-d array")
        top = float(self.base_rho.values.max())
        for psi in psis.tolist():  # Python floats overflow to inf, unwarned
            if not math.isfinite(psi * psi * top):
                raise ValueError(f"psi = {psi!r}: its rung's density psi^2 rho overflows")
        # a rung at or below 1 + _EPS_GAP leaves its geometric tail no width;
        # the first rung that is too low or does not exceed the one before is named
        low = psis <= 1.0 + _EPS_GAP
        bad = np.flatnonzero(low | (np.diff(psis, prepend=-math.inf) <= 0))
        if bad.size:
            i = int(bad[0])
            why = "is not" if low[i] else f"follows {float(psis[i - 1])!r}"
            raise ValueError(
                f"psis must be strictly increasing and all > 1 + {_EPS_GAP:g} "
                f"(psi = {float(psis[i])!r} {why})"
            )
        object.__setattr__(self, "psis", psis)


def blowdown_density(rho: RadialField, psi: float) -> RadialField:
    """Concentrated copy of ``rho``: psi^2 rho(psi r), zero outside the core.

    The output grid is the scaled copy of the input nodes plus a geometric
    tail, so the disk mass is preserved to roundoff and the entropy and
    pairing shift identities are exact.  psi = 1 returns ``rho`` itself.
    """
    if rho.kind != "density":
        raise ValueError("blowdown_density needs a density-tagged field")
    if not np.isfinite(psi) or psi < 1.0:
        raise ValueError(f"psi = {psi!r} must be >= 1")
    if psi == 1.0:
        return rho
    g = _scaled_grid(rho.grid, psi)
    vals = np.zeros(g.r.size)
    vals[: rho.grid.r.size] = (psi * psi) * rho.values
    return RadialField.density(g, vals)


def blowdown_potential(w: RadialField, m: float, psi: float) -> RadialField:
    """Concentrated copy of a potential carrying boundary mass flux ``m``.

    Inside [0, 1/psi] the values are w(psi r) + (m/2pi) ln psi; outside they
    follow the exterior logarithm -(m/2pi) ln r.  The two pieces meet
    continuously at the seam and vanish at the wall.  psi = 1 returns ``w``
    itself.
    """
    if w.kind != "potential":
        raise ValueError("blowdown_potential needs a potential-tagged field")
    if not np.isfinite(psi) or psi < 1.0:
        raise ValueError(f"psi = {psi!r} must be >= 1")
    if psi == 1.0:
        return w
    g = _scaled_grid(w.grid, psi)
    core = w.grid.r.size
    vals = np.empty(g.r.size)
    vals[:core] = w.values + (m / TWO_PI) * math.log(psi)
    vals[core:] = -(m / TWO_PI) * np.log(g.r[core:])
    vals[-1] = 0.0
    return RadialField.potential(g, vals)


@dataclass(frozen=True)
class ShiftRow:
    """One verified shift: predicted is NaN when the row is not applicable."""

    psi: float
    term: str
    predicted: float
    measured: float


def _shift_coefficients(p: Params):
    """The ln psi coefficients of the five shift rows: entropy, interaction,
    dirichlet, log_term (NaN where it does not apply) and total."""
    total, log_term = map(float, blowdown_coefficients(p.m1, p.m2, p))
    return 2.0 * p.m1, -(p.m1 * p.m1) / TWO_PI, p.m2 * p.m2 / TWO_PI, log_term, total


def _ladder(base_rho: RadialField, base_w: RadialField, p: Params, psis):
    """Walk the blow-down ladder of psis in the given order.

    For each psi yields (psi, u_s, terms, report): the potential u_s of the
    scaled density, the four raw terms of the joint free energy of the
    scaled fields (entropy, pairing, Dirichlet, log-partition) and their
    FunctionalReport.  psi = 1 gives the base fields.  Raises ValueError
    before the first rung when _MARGIN times the largest predicted shift
    of the top rung overflows, and at any rung whose terms or total do.
    """
    top = float(max(psis))
    largest = float(np.nanmax(np.abs(_shift_coefficients(p))))
    if not math.isfinite(_MARGIN * max(1.0, math.log(top)) * largest):
        raise ValueError(
            f"masses m1 = {p.m1!r}, m2 = {p.m2!r} overflow the blow-down "
            f"shifts up to psi = {top!r}"
        )
    for psi in psis:
        psi = float(psi)
        rho_s = blowdown_density(base_rho, psi)
        w_s = blowdown_potential(base_w, p.m2, psi)
        u_s = inv_laplacian(rho_s)
        terms = _joint_terms(rho_s, w_s, u_s, p)
        report = _joint(p, *terms)
        if not all(map(math.isfinite, (*terms, report.total))):
            raise ValueError(f"the blow-down rung psi = {psi!r} overflows its energy terms")
        yield psi, u_s, terms, report


def verify_identities(fam: BlowdownFamily, p: Params) -> list[ShiftRow]:
    """Measured vs predicted ln(psi) shifts for every rung of the family.

    Five rows per psi: entropy (2 m1 ln psi), interaction (-m1^2/2pi ln psi),
    dirichlet (+m2^2/2pi ln psi), log_term (m2 x ln psi with x the scaling
    exponent of the chemical integrand, applicable only while x > 0) and
    total (the joint free energy, whose coefficient includes the log_term
    contribution exactly when it applies).  The first three identities are
    exact on the transform grids; the last two hold asymptotically in psi.
    """
    return _shift_table(fam, p)[0]


def _shift_table(fam: BlowdownFamily, p: Params):
    """verify_identities, with the (ln psi, total) pair of every rung that
    slope_estimate fits, from one walk of the ladder: psi = 1, whose terms
    are the base of every shift, then the family's rungs."""
    rungs = _ladder(fam.base_rho, fam.base_w, p, (1.0, *fam.psis))
    _, _, base, base_report = next(rungs)
    f0 = base_report.total

    *coefs, total_coef = _shift_coefficients(p)
    # per raw term: row name, ln psi coefficient, factor on the measured shift
    names = ("entropy", "interaction", "dirichlet", "log_term")
    shifts = tuple(zip(names, coefs, (1.0, 1.0, 1.0, p.m2)))

    rows = []
    fit = []
    for psi, _, terms, report in rungs:
        ln_psi = math.log(psi)
        for (name, coef, factor), term, term0 in zip(shifts, terms, base):
            rows.append(ShiftRow(psi, name, coef * ln_psi, factor * (term - term0)))
        rows.append(ShiftRow(psi, "total", total_coef * ln_psi, report.total - f0))
        fit.append((ln_psi, report.total))
    return rows, fit


def slope_estimate(fam: BlowdownFamily, p: Params) -> float:
    """Least-squares slope of the joint free energy against ln(psi).

    The two smallest rungs are discarded before fitting: the identities
    carry an O(1) term that only the asymptotic coefficient survives.  A
    negative slope certifies that the energy is unbounded below along the
    family.  Raises ValueError when the ladder has fewer than 4 rungs.
    """
    return _fitted_slope(_shift_table(fam, p)[1])


def _fitted_slope(fit) -> float:
    """slope_estimate of the (ln psi, total) pairs of a walk of the ladder."""
    if len(fit) < 4:
        raise ValueError(f"need at least 4 rungs, got {len(fit)}")
    log_psis, totals = zip(*fit)
    return float(np.polyfit(log_psis[2:], totals[2:], 1)[0])
