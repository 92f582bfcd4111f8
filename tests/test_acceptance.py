"""End-to-end gates, one test per advertised guarantee of the package.

Each test drives a full pipeline (solver, scaling family, flow, or sweep)
against an independent closed form and pins the tolerance it must meet,
so ``pytest tests/test_acceptance.py -v`` reads as a checklist.  The
bars here are deliberately looser than the unit suites: they are the
promises, not the best observed numbers.
"""

import math
import time

import numpy as np

from conflictlab import flow
from conflictlab.annulus_ode import (
    AnnulusParams,
    asymptotic_ratio,
    exact_solution,
    integrate_annulus,
    match_energy,
)
from conflictlab.blowdown import (
    BlowdownFamily,
    blowdown_density,
    slope_estimate,
    verify_identities,
)
from conflictlab.calculus import inv_laplacian
from conflictlab.functionals import moser_trudinger
from conflictlab.liouville import Solution, bubble, residual, solve_single
from conflictlab.model import (
    FlowConfig,
    Params,
    RadialField,
    make_grid,
    project_density,
)
from conflictlab.phase import lambda_values, strip_mass, sweep

PI = math.pi
EIGHT_PI = 8.0 * PI
TWO_LN_2 = 2.0 * math.log(2.0)


def smooth_pair(grid, p):
    """The standard smooth base fields: a flat bump and its chemical partner."""
    rho = project_density(RadialField.density(grid, 2.0 - grid.r**2), p.m1)
    chem = project_density(RadialField.density(grid, np.exp(-3.0 * grid.r**2)), p.m2)
    return rho, inv_laplacian(chem)


def random_density(grid, rng, mass):
    width = rng.uniform(0.5, 3.0)
    amp = rng.uniform(-0.4, 0.4)
    k = int(rng.integers(1, 4))
    shape = np.exp(-width * grid.r**2) * (1.0 + amp * np.cos(math.pi * k * grid.r))
    return project_density(RadialField.density(grid, shape), mass)


def random_potential(grid, rng):
    a = rng.uniform(-0.4, 0.4)
    b = rng.uniform(-0.3, 0.3)
    k = int(rng.integers(1, 4))
    vals = a * (1.0 - grid.r**2) * (1.0 + b * np.cos(math.pi * k * grid.r))
    return RadialField.potential(grid, vals)


def test_01_critical_mass_threshold():
    grid = make_grid(4096)
    start = time.perf_counter()
    sol = solve_single(0.95 * EIGHT_PI, 1.0, grid)
    elapsed = time.perf_counter() - start
    assert sol.residual <= 1e-10
    assert elapsed < 5.0

    for k in range(1, 9):
        m = EIGHT_PI * (1.0 - 2.0**-k)
        s = solve_single(m, 1.0, grid)
        delta = m / (EIGHT_PI - m)
        exact = 2.0 * math.log1p(delta)
        assert abs(np.max(s.u1.values) - exact) <= 1e-3 * exact


def test_02_bubble_closed_form():
    sol = solve_single(4.0 * PI, 1.0, make_grid(4096))
    assert abs(sol.u1.values[0] - TWO_LN_2) <= 1e-6

    p = Params(alpha=1.0, beta=0.0, gamma=0.0, theta=-1, m1=4.0 * PI, m2=0.0)
    defects = []
    for n in (1024, 2048, 4096):
        grid = make_grid(n)
        hand = Solution(
            u1=bubble(1.0, 1.0, grid),
            u2=RadialField.potential(grid, np.zeros(grid.r.size)),
            residual=math.nan,
            iterations=0,
            multipliers=(1.0, 0.0),
        )
        defects.append(residual(hand, p)[0])
    for coarse, finer in zip(defects, defects[1:]):
        assert 3.7 <= coarse / finer <= 4.3


def test_03_blowdown_shift_identities():
    start = time.perf_counter()
    grid = make_grid(8192, kind="graded")
    p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=10.0, m2=4.0)
    rho, w = smooth_pair(grid, p)
    rows = verify_identities(BlowdownFamily(rho, w, psis=np.array([16.0])), p)
    elapsed = time.perf_counter() - start

    exact_terms = {"entropy", "interaction", "dirichlet"}
    checked = set()
    for row in rows:
        if row.term in exact_terms:
            assert abs(row.measured - row.predicted) <= 1e-5 * abs(row.predicted)
            checked.add(row.term)
    assert checked == exact_terms
    assert elapsed < 10.0


def test_04_unbounded_slope_certificate():
    p = Params(alpha=1.0, beta=2.0, gamma=0.0, theta=-1, m1=30.0, m2=1.0)
    grid = make_grid(2048, kind="graded")
    rho, w = smooth_pair(grid, p)
    fam = BlowdownFamily(rho, w, psis=2.0 ** np.arange(3, 11))
    slope = slope_estimate(fam, p)
    lam = lambda_values(p.m1, p.m2, p)[0]
    assert slope < 0.0
    assert abs(slope - lam) <= 0.03 * abs(lam)


def test_05_annulus_profile_limit():
    gaps = []
    for psi in (1e-4, 1e-6, 1e-8):
        lp = AnnulusParams(gamma=1.0, beta_m=10.0 * PI, m2=2.0 * PI, psi=psi)
        gaps.append(abs(asymptotic_ratio(lp) - 1.0))
    assert gaps[1] <= 0.02
    assert gaps[0] > gaps[1] > gaps[2]

    lp = AnnulusParams(gamma=1.0, beta_m=10.0 * PI, m2=2.0 * PI, psi=1e-6)
    sol = integrate_annulus(lp)
    e = match_energy(lp)
    window = sol.r >= math.sqrt(lp.psi)
    t = -np.log(sol.r[window])
    shift = (lp.beta_m / (2.0 * PI) - 2.0) / lp.gamma
    closed = exact_solution(e, lp.gamma, lp.psi, t) + shift * t
    assert np.max(np.abs(sol.v[window] - closed)) <= 1e-8
    assert sol.energy_drift <= 1e-10


def test_06_flow_energy_monotonicity():
    grid = make_grid(256)

    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = Params(
            alpha=1.0, beta=1.0, gamma=1.0, theta=-1,
            m1=rng.uniform(2.0, 20.0), m2=rng.uniform(0.5, 5.0),
        )
        cfg = FlowConfig(1.0, 0.0, 0.0, dt=1e-3, t_end=0.2, adapt=False)
        s = flow.initial_state(p, cfg, rho1=random_density(grid, rng, p.m1))
        for _ in range(200):
            s = flow.step_single_density(s, p, cfg.dt)
        e = s.energy_trace[:, 1]
        assert np.all(np.diff(e) <= 1e-10 * np.abs(e[:-1]))
        m1 = s.mass_trace[:, 1]
        assert np.max(np.abs(m1 - m1[0])) <= 1e-12 * m1[0]

    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        p = Params(
            alpha=2.0, beta=1.0, gamma=1.0, theta=-1,
            m1=rng.uniform(2.0, 10.0), m2=rng.uniform(0.5, 5.0),
        )
        assert p.alpha * p.gamma > p.beta**2
        cfg = FlowConfig(0.0, 0.0, 1.0, dt=5e-3, t_end=1.0, adapt=False)
        s = flow.initial_state(
            p, cfg, u1=random_potential(grid, rng), u2=random_potential(grid, rng)
        )
        for _ in range(200):
            s = flow.step_potentials(s, p, cfg.dt)
        e = s.energy_trace[:, 1]
        assert np.all(np.diff(e) <= 1e-10 * np.abs(e[:-1]))
        masses = s.mass_trace[:, 1:]
        assert np.max(np.abs(masses - masses[0]) / masses[0]) <= 1e-12


def test_07_flow_solver_consistency():
    grid = make_grid(256)
    zero = RadialField.potential(grid, np.zeros(grid.r.size))

    p = Params(alpha=1.0, beta=0.0, gamma=1.0, theta=-1, m1=4.0 * PI, m2=0.0)
    cfg = FlowConfig(0.0, 0.0, 1.0, dt=0.05, t_end=200.0)
    end = flow.run_flow(flow.initial_state(p, cfg, u1=zero, u2=zero), p, cfg)
    ref = solve_single(4.0 * PI, 1.0, grid)
    assert np.max(np.abs(end.u1.values - ref.u1.values)) <= 1e-4

    p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=9.0, m2=3.0)
    cfg = FlowConfig(1.0, 0.0, 0.0, dt=0.01, t_end=100.0)
    bump = project_density(RadialField.density(grid, np.exp(-4.0 * grid.r**2)), p.m1)
    end = flow.run_flow(flow.initial_state(p, cfg, rho1=bump), p, cfg)
    r1, r2 = residual(flow.steady_solution(end, p), p)
    assert r1 <= 1e-6
    assert r2 <= 1e-6


def _assert_changes_track_curves(res):
    p = res.params
    strip = strip_mass(p)

    def curve_fns(m1, m2):
        lam = lambda_values(m1, m2, p)[0]
        return (
            m1 - EIGHT_PI / p.alpha,
            lam,
            p.beta * m1 - p.gamma * m2 - 4.0 * PI,
            m1 - strip,
        )

    for i in range(res.m1s.size):
        for j in range(res.m2s.size):
            for di, dj in ((1, 0), (0, 1)):
                ii, jj = i + di, j + dj
                if ii >= res.m1s.size or jj >= res.m2s.size:
                    continue
                va = res.verdicts[i, j]
                vb = res.verdicts[ii, jj]
                if va == vb or "Unknown" in (va, vb):
                    continue
                fa = curve_fns(res.m1s[i], res.m2s[j])
                fb = curve_fns(res.m1s[ii], res.m2s[jj])
                assert any(x * y <= 0.0 for x, y in zip(fa, fb)), (
                    f"{va}->{vb} off-curve at "
                    f"({res.m1s[i]:.3f},{res.m2s[j]:.3f})"
                )


def _assert_no_cofire(res):
    m1g, m2g = np.meshgrid(res.m1s, res.m2s, indexing="ij")
    lam, _, lam2 = lambda_values(m1g, m2g, res.params)
    fires_1 = EIGHT_PI / res.params.alpha - m1g >= 1e-12
    fires_2 = (lam <= -1e-12) & (lam2 <= -1e-12)
    assert not np.any(fires_1 & fires_2)


def _assert_radial_monotone_up(res):
    for i in range(res.m1s.size):
        seen = False
        for j in range(res.m2s.size):
            v = res.verdicts[i, j]
            if seen:
                assert v in ("RadiallyBounded", "Unknown")
            seen = seen or v == "RadiallyBounded"


def test_08_phase_sweep_alignment():
    start = time.perf_counter()
    sweeps = [
        sweep(
            Params(alpha=1.0, beta=2.0, gamma=g, theta=-1, m1=1.0, m2=0.0),
            (0.0, 40.0),
            (0.0, 40.0),
            200,
        )
        for g in (0.0, 1.0)
    ]
    elapsed = time.perf_counter() - start
    for res in sweeps:
        _assert_changes_track_curves(res)
        _assert_no_cofire(res)
        _assert_radial_monotone_up(res)
    assert elapsed < 60.0


def test_09_moser_trudinger_boundary():
    grid = make_grid(2048, kind="graded")
    psis = 2.0 ** np.arange(1, 21)

    def ladder(m):
        base = project_density(RadialField.density(grid, 2.0 - grid.r**2), m)
        vals = [
            moser_trudinger(inv_laplacian(blowdown_density(base, float(psi))), m, 1.0)
            for psi in psis
        ]
        return np.array(vals)

    # subcritical: the infimum over the family is attained early and holds
    m_low = 0.95 * EIGHT_PI
    vals = ladder(m_low)
    running_min = np.minimum.accumulate(vals)
    assert running_min[-1] == running_min[3]
    assert np.all(np.diff(vals[4:]) > 0.0)

    # supercritical: descent certified through the ln(psi) shift rate, so
    # the -1e6 crossing is reached without evaluating astronomical scales
    m_high = 1.05 * EIGHT_PI
    vals = ladder(m_high)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) < 0.0)
    rate = np.polyfit(np.log(psis[4:]), vals[4:], 1)[0]
    coef = 2.0 * m_high - m_high**2 / (4.0 * PI)
    assert coef < 0.0
    assert abs(rate - coef) <= 0.01 * abs(coef)
    ln_cross = math.log(psis[-1]) + (-1e6 - vals[-1]) / rate
    assert math.isfinite(ln_cross) and ln_cross < 4e5
    assert vals[-1] + rate * (4e5 - math.log(psis[-1])) < -1e6


def test_10_strip_mass_oracle():
    p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=12.0 * PI, m2=4.0 * PI)
    assert abs(strip_mass(p) - 12.0 * PI) <= 1e-9
    lam = lambda_values(12.0 * PI, 4.0 * PI, p)[0]
    assert abs(lam) <= 1e-10
