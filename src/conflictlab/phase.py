"""Closed-form existence and boundedness conditions in the (m1, m2) plane.

The quadratic forms here decide, per mass pair, whether the two-species
free energy is bounded below, bounded only among radial candidates,
unbounded, or not covered by any condition we implement.  Each sign
convention has one rule table that works on broadcast arrays of masses:
the conflict table is an ordered list of strict inequalities, the
cooperative table the subset-positivity conditions specialized to two
species.  classify() evaluates the table of p.theta at the one point
(p.m1, p.m2); sweep() evaluates it over a whole mass grid in one call and
emits the analytic boundary curves alongside the verdicts.  Rule (2) of
the conflict table is the sign of blowdown_coefficients, the ln psi slope
of the blow-down family's free energy, built from the same Lambda values.

All comparisons that decide a verdict are strict: a point whose deciding
quantity sits within 1e-12 of its threshold is classified Unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Params

__all__ = [
    "PhaseVerdict",
    "SweepResult",
    "VERDICTS",
    "blowdown_coefficients",
    "classify",
    "lambda_values",
    "strip_mass",
    "sweep",
]

VERDICTS = (
    "BoundedBelow",
    "RadiallyBounded",
    "UnboundedBelow",
    "Unknown",
    "Exists",
    "NotCovered",
)

_TOL = 1e-12
_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class PhaseVerdict:
    """Verdict at one mass pair, with the inequality values that decided it.

    ``fired`` is a tuple of (name, value) pairs; positive values mean the
    named inequality holds in the direction its rule needs.  ``rule`` is
    the 1-based index of the rule (or case) that fired, 0 when none did.
    """

    point: tuple[float, float]
    verdict: str
    fired: tuple[tuple[str, float], ...]
    rule: int

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


@np.errstate(over="ignore", invalid="ignore")  # an overflowing Lambda is refused
def lambda_values(m1, m2, p: Params):
    """The quadratic form Lambda and its two-part split, as (L, L1, L2).

    L1 = m2*((beta*m1 - gamma*m2)/2pi - 2), L2 = 2*m1 - alpha*m1^2/4pi
    + gamma*m2^2/4pi, and L = L1 + L2 exactly (the sum is how L is built).
    Accepts scalars or broadcasting arrays for m1, m2.  Squares are plain
    products x*x, correctly rounded; x**2 on a Python float goes through
    libm pow, which is not always.  Scalars and arrays give the same bits.
    Raises ValueError, naming the first such pair, where L overflows.
    """
    if np.any(np.asarray(m1) <= 0):
        raise ValueError("lambda_values needs m1 > 0")
    if np.any(np.asarray(m2) < 0):
        raise ValueError("lambda_values needs m2 >= 0")
    lam1 = m2 * ((p.beta * m1 - p.gamma * m2) / (2.0 * math.pi) - 2.0)
    lam2 = (
        2.0 * m1 - p.alpha * (m1 * m1) / _FOUR_PI + p.gamma * (m2 * m2) / _FOUR_PI
    )
    lam = lam1 + lam2
    ok = np.isfinite(lam)  # so are its parts: inf plus anything is inf or NaN
    if not np.all(ok):
        i = np.argmin(ok)
        b1, b2 = (float(np.broadcast_to(m, ok.shape).flat[i]) for m in (m1, m2))
        raise ValueError(f"masses m1 = {b1!r}, m2 = {b2!r} overflow Lambda")
    return lam, lam1, lam2


def blowdown_coefficients(m1, m2, p: Params):
    """The ln psi coefficients (total, log_term) of the joint free energy
    along the blow-down family at masses m1, m2, scalars or broadcasting
    arrays: (Lambda, Lambda1) where the log term's core exponent x, row 2
    of p.coupling times (m1, m2) over 2pi minus 2, is positive, (Lambda2,
    NaN) elsewhere, as always at theta = +1.  A negative total certifies
    that the energy is unbounded below."""
    lam, lam1, lam2 = lambda_values(m1, m2, p)
    a_u, a_w = p.coupling[1]
    applies = (a_u * m1 + a_w * m2) / (2.0 * math.pi) - 2.0 > 0
    return np.where(applies, lam, lam2), np.where(applies, lam1, math.nan)


def _critical_mass(p: Params) -> float:
    """8pi/alpha, the critical mass of species 1 alone; +inf at alpha = 0."""
    return math.inf if p.alpha == 0.0 else 8.0 * math.pi / p.alpha


def _strip_top(p: Params) -> float:
    """m2* = (4pi/gamma)(2beta/alpha - 1), the top edge of the strip."""
    return (_FOUR_PI / p.gamma) * (2.0 * p.beta / p.alpha - 1.0)


def strip_mass(p: Params) -> float:
    """Largest m1 the radial existence strip reaches, +inf when gamma = 0.

    The strip's top edge sits at m2* = (4pi/gamma)(2beta/alpha - 1); the
    returned mass is the larger root of Lambda(., m2*) = 0,

        (4pi + beta m2* + sqrt(16pi^2 - 4pi alpha m2* + beta^2 m2*^2)) / alpha.

    The square root is the hypot of beta m2* - 2pi alpha/beta and
    4pi sqrt(1 - (alpha/2beta)^2), real for beta > alpha/2, so no
    intermediate overflows before the root itself does (as gamma -> 0).
    Requires alpha > 0 and beta > alpha/2.
    """
    if p.alpha <= 0:
        raise ValueError("strip_mass needs alpha > 0")
    if p.beta <= p.alpha / 2.0:
        raise ValueError("strip_mass is defined for beta > alpha/2")
    if p.gamma == 0.0:
        return math.inf
    m2s = _strip_top(p)
    half = p.alpha / (2.0 * p.beta)
    root = math.hypot(
        p.beta * m2s - 2.0 * math.pi * p.alpha / p.beta,
        _FOUR_PI * math.sqrt(1.0 - half * half),
    )
    return (_FOUR_PI + p.beta * m2s + root) / p.alpha


def _decide(margins):
    """Masks (fire, fail) of 'every margin holds strictly': fail where some
    margin is at or below -tol, fire where none fails and all are at or
    above +tol.  A point in neither sits on a fence."""
    fire, fail = np.True_, np.False_
    for m in margins:
        fire = fire & (m >= _TOL)
        fail = fail | (m <= -_TOL)
    return fire & ~fail, fail


class _Table:
    """Verdict and rule arrays filled by an ordered list of rules.

    Each rule settles the points that are still open: where it fires they
    take its verdict, on its fence they stay Unknown with rule 0, and where
    it fails they take ``fail_verdict`` or, without one, stay open for the
    next rule.  Points no rule settles end Unknown.
    """

    def __init__(self, shape):
        self.verdict = np.full(shape, "Unknown", dtype=object)
        self.rule = np.zeros(shape, dtype=int)
        self.open = np.ones(shape, dtype=bool)

    def settle(self, decided, verdict, rule, fail_verdict=None):
        fire, fail = decided
        hit = self.open & fire
        self.verdict[hit], self.rule[hit] = verdict, rule
        if fail_verdict is None:
            self.open = self.open & fail
        else:
            miss = self.open & fail
            self.verdict[miss], self.rule[miss] = fail_verdict, rule
            self.open = np.zeros_like(self.open)


def _conflict_table(p: Params, m1, m2, table, fired):
    """Ordered rule table for the conflict convention, first match wins.

    (1) m1 below the critical mass: BoundedBelow for every m2.
    (2) blowdown_coefficients' total < 0, which is Lambda < 0 and
        Lambda2 < 0: UnboundedBelow.
    (3) beta > alpha/2, Lambda > 0, the strip condition
        2beta/alpha > gamma*m2/4pi + 1, and m1 < strip_mass: RadiallyBounded.
    (4) some m2' <= m2 passes rule (3): RadiallyBounded (monotone extension
        upward in m2).  Lambda(m1, .) is a concave quadratic with leading
        coefficient -gamma/4pi, so its maximum over the admissible interval
        [0, hi] sits at clip((beta*m1 - 4pi)/gamma, 0, hi), or at an end of
        the interval when gamma = 0.
    (5) Unknown.

    Any rule that lands within 1e-12 of its threshold makes the point
    Unknown: the underlying statements are all strict inequalities.
    """
    beta_gap = p.beta - p.alpha / 2.0
    strip_gap = (math.inf if p.alpha == 0.0
                 else 2.0 * p.beta / p.alpha - p.gamma * m2 / _FOUR_PI - 1.0)
    strip_edge = strip_mass(p) if p.alpha > 0.0 and beta_gap > 0.0 else None
    edge_gap = math.nan if strip_edge is None else strip_edge - m1
    fired.update(strip_mass_gap=edge_gap, strip_gap=strip_gap)

    table.settle(_decide([fired["critical_gap"]]), "BoundedBelow", 1)
    table.settle(_decide([-blowdown_coefficients(m1, m2, p)[0]]), "UnboundedBelow", 2)
    if strip_edge is None:
        return
    table.settle(_decide([beta_gap, fired["lambda"], strip_gap, edge_gap]), "RadiallyBounded", 3)
    if beta_gap >= _TOL:
        table.open = table.open & (edge_gap >= _TOL)
        if p.gamma == 0.0:
            best_m2 = np.where(p.beta * m1 / (2.0 * math.pi) - 2.0 > 0.0, m2, 0.0)
        else:
            hi = np.minimum(m2, _strip_top(p))
            with np.errstate(over="ignore"):  # subnormal gamma: an end of [0, hi]
                best_m2 = np.clip((p.beta * m1 - _FOUR_PI) / p.gamma, 0.0, hi)
        best = lambda_values(m1, best_m2, p)[0]
        table.settle(_decide([best]), "RadiallyBounded", 4)


def _onset_mass(p: Params) -> float:
    """m1 where the existence conic first enters the positive quadrant.

    Larger root of (beta^2 + alpha*gamma) m1^2 - 8pi (beta + gamma) m1
    + 16pi^2, from the discriminant of the quadratic in m2.  The root's own
    discriminant is taken as 64pi^2 gamma (2beta + gamma - alpha): expanded,
    it cancels to a negative number when gamma is tiny.  When alpha = beta
    = 0 every coefficient of the existence quadratic is positive, the conic
    never enters, and the onset is +inf, as it is where the quotient
    overflows.  Scaling the constants by c divides the onset by c, so ones
    past 2^511 are scaled by an exact power of two: no term overflows.
    """
    e = max(0, math.frexp(max(p.alpha, p.beta, p.gamma))[1] - 511)
    alpha, beta, gamma = (math.ldexp(v, -e) for v in (p.alpha, p.beta, p.gamma))
    lead = beta * beta + alpha * gamma
    if lead == 0.0:
        return math.inf
    root = math.sqrt(gamma * (2.0 * beta + gamma - alpha))
    return math.ldexp(_FOUR_PI * (beta + gamma + root) / lead, -e)


def _cooperative_table(p: Params, m1, m2, table, fired):
    """Existence cases for the cooperative convention.

    Case (a) 2beta < alpha: any m2 works below the critical mass.
    Case (b) 2beta >= alpha, gamma = 0: the interval condition decides.
    Case (c) 2beta >= alpha, gamma > 0: below the conic onset mass any m2
    works; between the onset and the critical mass the interval condition
    decides.  The interval condition asks that the existence quadratic
    q(m) = gamma/2 m^2 + (4pi - beta*m1) m + m1/2 (8pi - alpha*m1), the
    two-species specialization of the box condition, be positive on
    (0, m2]: its minimum there (``box_min``) captures the universal
    quantifier over intermediate masses, while q(m2) > 0 alone
    (``only_condition``) is the closed-curve condition.
    """
    crit_gap = fired["critical_gap"]
    a2 = 0.5 * p.gamma
    a1 = _FOUR_PI - p.beta * m1
    a0 = 0.5 * m1 * (8.0 * math.pi - p.alpha * m1)
    only = (a2 * m2 + a1) * m2 + a0
    box_min = np.minimum(a0, only)
    if a2 > 0.0:
        with np.errstate(over="ignore", invalid="ignore"):  # subnormal gamma
            v = -a1 / (2.0 * a2)  # an infinite vertex is never inside
            vertex = (a2 * v + a1) * v + a0
        inside = (0.0 < v) & (v < m2)
        box_min = np.where(inside, np.minimum(box_min, vertex), box_min)
    fired.update(only_condition=only, box_min=box_min)

    if 2.0 * p.beta < p.alpha:
        table.settle(_decide([crit_gap]), "Exists", 1, "NotCovered")
    elif p.gamma == 0.0:
        table.settle(_decide([box_min]), "Exists", 2, "NotCovered")
    else:
        fired["onset_gap"] = onset_gap = _onset_mass(p) - m1
        table.settle(_decide([onset_gap]), "Exists", 3)
        table.settle(_decide([crit_gap, box_min]), "Exists", 3, "NotCovered")


def _rule_table(p: Params, m1, m2):
    """The rule table of p.theta at broadcast m1, m2, as (verdicts, rules,
    fired): the shared Lambda values, critical gap and _Table, which
    _conflict_table or _cooperative_table extends with its own quantities
    and settles.  ``fired`` maps each deciding quantity's name to its values.
    """
    lam, lam1, lam2 = lambda_values(m1, m2, p)
    fired = {"lambda": lam, "lambda1": lam1, "lambda2": lam2,
             "critical_gap": _critical_mass(p) - m1}
    table = _Table(np.shape(lam))
    (_conflict_table if p.theta == -1 else _cooperative_table)(p, m1, m2, table, fired)
    return table.verdict, table.rule, fired


def classify(p: Params) -> PhaseVerdict:
    """The rule table of p.theta (see _conflict_table, _cooperative_table)
    at the point (p.m1, p.m2)."""
    verdict, rule, fired = _rule_table(p, p.m1, p.m2)
    return PhaseVerdict(
        point=(p.m1, p.m2),
        verdict=str(verdict[()]),
        fired=tuple((name, float(value)) for name, value in fired.items()),
        rule=int(rule[()]),
    )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Verdict grid over the mass rectangle, plus analytic boundary curves.

    At (m1s[i], m2s[j]), ``verdicts[i, j]`` is the verdict string,
    ``rules[i, j]`` the number of the rule that decided it (0 when none
    did) and ``lambdas[:, i, j]`` is (Lambda, Lambda1, Lambda2).  ``curves``
    maps curve names to (k, 2) point arrays in the (m1, m2) plane; NaN rows
    separate disconnected branches.
    """

    params: Params
    m1s: np.ndarray
    m2s: np.ndarray
    verdicts: np.ndarray
    rules: np.ndarray
    lambdas: np.ndarray
    curves: dict


# a subnormal gamma sends the roots to +-inf or NaN: out of range, so NaN rows
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _boundary_curves(p: Params, m1_range, m2_range, samples: int = 1024) -> dict:
    """The analytic boundaries as (k, 2) point arrays, the sloped ones over
    one set of m1 samples; a vertical line outside m1_range is empty."""
    lo, hi = m2_range
    m1s = np.linspace(max(m1_range[0], 1e-9), m1_range[1], samples)

    def vertical(x):
        if not (math.isfinite(x) and m1_range[0] < x <= m1_range[1]):
            return np.empty((0, 2))
        return np.column_stack([np.full(samples, x), np.linspace(lo, hi, samples)])

    def in_range(m2s):
        return np.column_stack([m1s, np.where((lo <= m2s) & (m2s <= hi), m2s, np.nan)])

    half_critical = math.inf if p.beta == 0.0 else _FOUR_PI / p.beta
    # Lambda(m1, m2) = 0 as a quadratic in m2; the square goes through libm
    # pow (float_power), whose bits the written curves carry
    const = 2.0 * m1s - p.alpha * np.float_power(m1s, 2.0) / _FOUR_PI
    lin = p.beta * m1s / (2.0 * math.pi) - 2.0
    if p.gamma == 0.0:
        lambda_zero = in_range(np.where(np.abs(lin) < 1e-12, np.nan, -const / lin))
        lambda1_zero = vertical(half_critical)
    else:
        quad = -p.gamma / _FOUR_PI
        # the root pair without cancellation between lin and sqrt(disc); a
        # negative discriminant gives NaN roots
        q = -lin - np.copysign(np.sqrt(lin * lin - 4.0 * quad * const), lin)
        r1, r2 = q / (2.0 * quad), 2.0 * const / q
        swap = r2 < r1
        lower, upper = np.where(swap, r2, r1), np.where(swap, r1, r2)
        lambda_zero = np.vstack([in_range(lower), [(math.nan, math.nan)], in_range(upper)])
        lambda1_zero = in_range((p.beta * m1s - _FOUR_PI) / p.gamma)
    has_strip = p.theta == -1 and p.alpha > 0.0 and p.beta > p.alpha / 2.0
    return {
        "m1_critical": vertical(_critical_mass(p)),
        "m1_half_critical": vertical(half_critical),
        "lambda_zero": lambda_zero,
        "lambda1_zero": lambda1_zero,
        "strip_mass": vertical(strip_mass(p)) if has_strip else np.empty((0, 2)),
    }


def sweep(p_base: Params, m1_range, m2_range, resolution: int) -> SweepResult:
    """Classify every point of a resolution^2 mass grid in one table call.

    The m1 axis is sampled half-open from above, (lo, hi], so a zero lower
    bound never produces a zero mass; the m2 axis is sampled closed.  A
    zero-width range on either axis yields an empty grid; a range bound
    that is not finite raises ValueError.

    For the conflict convention, the provable disjointness of rules (1)
    and (2) is re-checked on the grid; overlap raises RuntimeError.
    """
    lo1, hi1 = map(float, m1_range)
    lo2, hi2 = map(float, m2_range)
    if not all(map(math.isfinite, (lo1, hi1, lo2, hi2))):
        raise ValueError(f"mass ranges must be finite: m1 {m1_range}, m2 {m2_range}")
    if resolution < 0:
        raise ValueError("resolution must be nonnegative")
    if hi1 > lo1 and resolution > 0:
        m1s = lo1 + (hi1 - lo1) * np.arange(1, resolution + 1) / resolution
    else:
        m1s = np.empty(0)
    if hi2 > lo2 and resolution > 0:
        m2s = np.linspace(lo2, hi2, resolution)
    else:
        m2s = np.empty(0)

    mm1, mm2 = np.meshgrid(m1s, m2s, indexing="ij")
    verdicts, rules, fired = _rule_table(p_base, mm1, mm2)
    lambdas = np.stack([fired["lambda"], fired["lambda1"], fired["lambda2"]])

    if p_base.theta == -1:
        lam, _, lam2 = lambdas
        overlap = (mm1 < _critical_mass(p_base) - _TOL) & (lam < -_TOL) & (lam2 < -_TOL)
        if np.any(overlap):
            raise RuntimeError("rules (1) and (2) fired together; Lambda2 must "
                               "be positive below the critical mass")

    curves = _boundary_curves(p_base, (lo1, hi1), (lo2, hi2))
    return SweepResult(
        params=p_base,
        m1s=m1s,
        m2s=m2s,
        verdicts=verdicts,
        rules=rules,
        lambdas=lambdas,
        curves=curves,
    )
