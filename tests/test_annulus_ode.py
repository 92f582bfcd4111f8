"""Tests for the annulus profile machinery."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from conflictlab import annulus_ode
from conflictlab.annulus_ode import (
    AnnulusParams,
    asymptotic_ratio,
    exact_solution,
    integrate_annulus,
    match_energy,
)

from oracles import rk4_vector

TWO_PI = 2.0 * math.pi


def frozen_instance(psi):
    # gamma=1, beta_m=10pi, m2=2pi: slope limit (10pi - 2pi)/2pi - 2 = 2
    return AnnulusParams(gamma=1.0, beta_m=10 * math.pi, m2=2 * math.pi, psi=psi)


class TestAnnulusParams:
    def test_derived_quantities(self):
        lp = frozen_instance(1e-6)
        assert np.isclose(lp.slope_limit, 2.0, rtol=1e-14)
        assert np.isclose(lp.log_width, 6.0 * math.log(10.0), rtol=1e-14)

    # each kind of refusal, which names its cases, and the form of its message
    REFUSALS = {
        "GammaZero": "^the annulus reduction needs gamma > 0$",
        "NegativeConstant": "^gamma = .+ must be finite and >= 0$",
        "NonpositiveMass": "^m2 = .+ must be > 0$",
        "ValueError": r"^(psi = .+ must lie in \[|beta_m = inf must be finite$)",
        "HypothesisViolated": r"^\(beta_m - gamma\*m2\)/2pi - 2 = .+ <= 0$",
        "SlopeUnderflow": "^slope limit .+ underflows the energy match$",
    }

    @pytest.mark.parametrize(
        "kwargs, refusal",
        [
            (dict(gamma=0.0), "GammaZero"),
            (dict(gamma=-1.0), "NegativeConstant"),
            (dict(gamma=math.nan), "NegativeConstant"),
            (dict(m2=0.0), "NonpositiveMass"),
            (dict(m2=-2.0), "NonpositiveMass"),
            (dict(psi=0.0), "ValueError"),
            (dict(psi=1e-13), "ValueError"),
            (dict(psi=1.0), "ValueError"),
            (dict(beta_m=math.inf), "ValueError"),
            (dict(beta_m=5 * math.pi), "HypothesisViolated"),
            # boundary case: hypothesis is a strict inequality
            (dict(beta_m=6 * math.pi), "HypothesisViolated"),
            # a slope limit near 1e-266, whose square, the energy bracket, is 0
            (dict(gamma=5.4e267, beta_m=831.5, m2=8.4e-266), "SlopeUnderflow"),
        ],
    )
    def test_rejections(self, kwargs, refusal):
        base = dict(gamma=1.0, beta_m=10 * math.pi, m2=2 * math.pi, psi=1e-4)
        base.update(kwargs)
        with pytest.raises(ValueError, match=self.REFUSALS[refusal]):
            AnnulusParams(**base)


class TestExactSolution:
    E, GAMMA, PSI = 0.5, 1.0, math.exp(-10.0)

    def test_ode_residual_fourth_order(self):
        h = 3.5e-3
        stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
        for t in map(float, range(10)):
            pts = np.array([t - 2 * h, t - h, t, t + h, t + 2 * h])
            d2 = stencil @ exact_solution(self.E, self.GAMMA, self.PSI, pts)
            source = math.exp(-self.GAMMA * exact_solution(self.E, self.GAMMA, self.PSI, t))
            assert abs(d2 + source) <= 1e-9

    def test_energy_invariant(self):
        h = 1e-4
        stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
        for t in map(float, range(10)):
            pts = np.array([t - 2 * h, t - h, t + h, t + 2 * h])
            slope = stencil @ exact_solution(self.E, self.GAMMA, self.PSI, pts)
            value = exact_solution(self.E, self.GAMMA, self.PSI, t)
            energy = 0.5 * slope**2 - math.exp(-self.GAMMA * value) / self.GAMMA
            assert abs(energy - self.E) <= 1e-9

    def test_blows_down_at_inner_edge(self):
        width = -math.log(self.PSI)
        vals = [
            exact_solution(self.E, self.GAMMA, self.PSI, width - 10.0**-k)
            for k in (2, 4, 6, 8)
        ]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < -20.0

    def test_at_blowdown_raises(self):
        width = -math.log(self.PSI)
        for t in (width, width + 0.5):
            with pytest.raises(ValueError, match=r"^t >= ln\(1/psi\) = 10; the profile blows down"):
                exact_solution(self.E, self.GAMMA, self.PSI, t)
        with pytest.raises(ValueError, match=r"^t >= ln\(1/psi\) = 10; the profile blows down"):
            exact_solution(self.E, self.GAMMA, self.PSI, np.array([0.0, width]))

    def test_vector_matches_scalar(self):
        ts = np.linspace(-1.0, 9.5, 12)
        vec = exact_solution(self.E, self.GAMMA, self.PSI, ts)
        scal = [exact_solution(self.E, self.GAMMA, self.PSI, t) for t in ts]
        assert np.array_equal(vec, scal)

    @pytest.mark.parametrize(
        "e, gamma, psi",
        [(0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (0.5, 0.0, 0.5), (0.5, -2.0, 0.5),
         (0.5, 1.0, 0.0), (0.5, 1.0, 1.0)],
    )
    def test_validation(self, e, gamma, psi):
        with pytest.raises(ValueError):
            exact_solution(e, gamma, psi, 0.1)


class TestMatchEnergy:
    # frozen with scipy.optimize.brentq on the matching relation before the
    # bisection below existed
    @pytest.mark.parametrize(
        "psi, expected",
        [
            (1e-2, 1.9991986829761947),
            (1e-4, 1.9999999199999718),
            (1e-6, 1.9999999999919997),
            (1e-8, 1.9999999999999991),
        ],
    )
    def test_frozen_values(self, psi, expected):
        assert np.isclose(match_energy(frozen_instance(psi)), expected, atol=1e-10)

    @pytest.mark.parametrize("psi", [1e-2, 1e-4, 1e-6])
    def test_relation_residual(self, psi):
        lp = frozen_instance(psi)
        e = match_energy(lp)
        s = math.sqrt(2.0 * e)
        gap = s / math.tanh(0.5 * s * lp.gamma * lp.log_width) - lp.slope_limit
        assert abs(gap) <= 1e-12

    def test_strictly_below_limit_and_increasing(self):
        energies = [match_energy(frozen_instance(p)) for p in (1e-2, 1e-3, 1e-4)]
        limit = 0.5 * frozen_instance(1e-2).slope_limit ** 2
        assert all(e < limit for e in energies)
        assert np.all(np.diff(energies) > 0)

    def test_small_psi_limit(self):
        e = match_energy(frozen_instance(1e-8))
        assert abs(math.sqrt(2.0 * e) - 2.0) < 1e-3

    def test_coth_correction_scaling(self):
        # the wall-slope gap is 2 s e^(-s gamma L) ~ 4 psi^2 for this instance
        e = match_energy(frozen_instance(1e-2))
        assert np.isclose(2.0 - math.sqrt(2.0 * e), 4e-4, rtol=5e-3)

    def test_no_root_for_wide_psi(self):
        # AnnulusParams refuses it before any bisection, with ValueError
        with pytest.raises(ValueError, match="the annulus is too thin"):
            frozen_instance(0.5)

    @pytest.mark.parametrize(
        "lp",
        [frozen_instance(psi) for psi in (1e-2, 1e-4, 1e-6, 1e-8)]
        # a slope limit near 1.6e4, whose ulp 1.8e-12 no absolute 1e-12 stop
        # can reach
        + [AnnulusParams(1.0, 1e5, TWO_PI, 0.9998427796560113)],
        ids=lambda lp: f"psi={lp.psi:g}",
    )
    def test_bisects_to_adjacent_doubles(self, lp):
        # the smallest double whose gap is not negative, within ulps of the root
        def gap(e):
            s = math.sqrt(2.0 * e)
            return s / math.tanh(0.5 * s * lp.gamma * lp.log_width) - lp.slope_limit

        e = match_energy(lp)
        assert gap(math.nextafter(e, 0.0)) < 0.0 <= gap(e) <= 4.0 * math.ulp(lp.slope_limit)

    @given(
        gamma=st.floats(0.4, 3.0),
        m2=st.floats(0.5, 10.0),
        excess=st.floats(2.0, 8.0),
        log10_psi=st.floats(-8.0, -2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_relation_always_solved(self, gamma, m2, excess, log10_psi):
        beta_m = gamma * m2 + TWO_PI * (2.0 + gamma * excess)
        lp = AnnulusParams(gamma=gamma, beta_m=beta_m, m2=m2, psi=10.0**log10_psi)
        e = match_energy(lp)
        s = math.sqrt(2.0 * e)
        gap = s / math.tanh(0.5 * s * gamma * lp.log_width) - lp.slope_limit
        assert abs(gap) <= 1e-12
        assert 0.0 < e <= 2.0 * lp.slope_limit**2


PROFILE_CASES = [
    AnnulusParams(1.0, 10 * math.pi, 2 * math.pi, 1e-4),
    AnnulusParams(1.0, 10 * math.pi, 2 * math.pi, 1e-6),
    AnnulusParams(2.0, 16 * math.pi, math.pi, 1e-5),
    AnnulusParams(0.5, 8 * math.pi, math.pi, 1e-3),
]


class TestIntegrateAnnulus:
    @pytest.mark.parametrize("lp", PROFILE_CASES, ids=lambda lp: f"psi={lp.psi:g}")
    def test_route_equivalence(self, lp):
        sol = integrate_annulus(lp)
        e = match_energy(lp)
        window = sol.r >= math.sqrt(lp.psi)
        t = -np.log(sol.r[window])
        shift = (lp.beta_m / TWO_PI - 2.0) / lp.gamma
        closed = exact_solution(e, lp.gamma, lp.psi, t) + shift * t
        assert np.max(np.abs(sol.v[window] - closed)) <= 1e-8

    def test_energy_drift(self):
        sol = integrate_annulus(frozen_instance(1e-6))
        assert sol.energy_drift <= 1e-10

    def test_wall_data_exact(self):
        lp = frozen_instance(1e-4)
        sol = integrate_annulus(lp)
        assert sol.r[-1] == 1.0
        assert sol.rv_r[-1] == -lp.m2 / TWO_PI

    def test_mass_coordinate_uniform_on_window(self):
        lp = frozen_instance(1e-6)
        sol = integrate_annulus(lp)
        window = sol.r >= math.sqrt(lp.psi)
        target = lp.m2 / TWO_PI
        assert np.max(np.abs(sol.rv_r[window] + target)) <= 0.02 * target

    def test_monotone_on_window_turns_inside(self):
        sol = integrate_annulus(frozen_instance(1e-4))
        window = sol.r >= 1e-2
        assert np.all(np.diff(sol.v[window]) <= 1e-12)
        # the blow-down side: v climbs with r near the inner edge
        assert np.all(np.diff(sol.v[:5]) > 0)

    def test_inner_node_one_cell_above_psi(self):
        lp = frozen_instance(1e-4)
        sol = integrate_annulus(lp, n=4096)
        assert lp.psi < sol.r[0] < lp.psi * math.exp(2 * lp.log_width / 4096)

    def test_too_coarse(self):
        with pytest.raises(ValueError, match="^n = 999 < 1000$"):
            integrate_annulus(frozen_instance(1e-4), n=999)

    @given(
        gamma=st.floats(0.1, 10.0),
        log10_beta_m=st.floats(0.0, math.log10(1e5 * TWO_PI)),
        m2=st.floats(0.1, 30.0),
        log10_psi=st.floats(-12.0, math.log10(0.999)),
    )
    @example(gamma=1.0, log10_beta_m=math.log10(20.0), m2=1.0, log10_psi=-2.0)
    @settings(max_examples=150, deadline=None)
    def test_refuses_exactly_where_the_window_turns(self, gamma, log10_beta_m, m2, log10_psi):
        # the closed-form test against the RK4 slope on the same nodes, away
        # from the fence where the window's inner slope v_t(W/2) is near 0
        try:
            lp = AnnulusParams(gamma, 10.0**log10_beta_m, m2, 10.0**log10_psi)
        except ValueError:
            assume(False)
        e, b, width = match_energy(lp), lp.beta_m / TWO_PI, lp.log_width
        s = math.sqrt(2.0 * e)
        inner_slope = (b - 2.0) / gamma - s / math.tanh(0.25 * s * gamma * width)
        assume(abs(inner_slope) >= 1e-6 * m2 / TWO_PI)
        t = np.arange(1024) * (width / 1024)
        v0 = exact_solution(e, gamma, lp.psi, 0.0)
        vt = annulus_ode._rk4(b, gamma, v0, m2 / TWO_PI, t)[1]
        if np.any(vt[t <= 0.5 * width] < 0.0):
            with pytest.raises(ValueError, match=r"^the profile at psi = .+ turns inside "
                               r"the outer window \[sqrt\(psi\), 1\]$"):
                integrate_annulus(lp, 1024)
        else:
            assert np.all(integrate_annulus(lp, 1024).rv_r[-513:] <= 0.0)

    @given(
        gamma=st.floats(0.5, 2.0),
        m2=st.floats(1.0, 8.0),
        excess=st.floats(2.0, 6.0),
        log10_psi=st.floats(-6.0, -2.5),
    )
    @settings(max_examples=10, deadline=None)
    def test_profile_properties(self, gamma, m2, excess, log10_psi):
        beta_m = gamma * m2 + TWO_PI * (2.0 + gamma * excess)
        lp = AnnulusParams(gamma=gamma, beta_m=beta_m, m2=m2, psi=10.0**log10_psi)
        sol = integrate_annulus(lp, n=2048)
        assert sol.energy_drift <= 1e-10
        window = sol.r >= math.sqrt(lp.psi)
        t = -np.log(sol.r[window])
        shift = (lp.beta_m / TWO_PI - 2.0) / lp.gamma
        closed = exact_solution(sol.energy, lp.gamma, lp.psi, t) + shift * t
        assert np.max(np.abs(sol.v[window] - closed)) <= 1e-8
        assert np.all(sol.rv_r[window] <= 1e-12)


class TestAsymptoticRatio:
    @pytest.mark.parametrize(
        "psi, expected",
        [
            # regression pins; the leading deficit 8 psi / ln(1/psi) below the
            # limit was verified analytically before freezing
            (1e-4, 0.9999132341138789),
            (1e-6, 0.9999994209495605),
        ],
    )
    def test_frozen_regression(self, psi, expected):
        assert np.isclose(asymptotic_ratio(frozen_instance(psi)), expected, atol=1e-9)

    def test_monotone_from_below(self):
        ratios = [
            asymptotic_ratio(frozen_instance(p)) for p in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert np.all(np.diff(ratios) > 0)
        assert all(r < 1.0 for r in ratios)

    def test_limit_value(self):
        ratio = asymptotic_ratio(frozen_instance(1e-6))
        assert abs(ratio - 1.0) < 0.02
        assert 0.0 < 1.0 - ratio < 5e-6

    def test_mass_doubling_quadruples_limit(self):
        lp2 = frozen_instance(1e-6)
        lp4 = AnnulusParams(gamma=1.0, beta_m=10 * math.pi, m2=4 * math.pi, psi=1e-6)
        quadrupling = asymptotic_ratio(lp4) / asymptotic_ratio(lp2)
        assert abs(quadrupling - 4.0) <= 0.04

    def test_node_count_rounds_up(self):
        lp = frozen_instance(1e-2)
        assert asymptotic_ratio(lp, n=997) == asymptotic_ratio(lp, n=1000)


class TestBitIdentity:
    """The scalar RK4 and the numpy Simpson sum give the bits of their
    references: the array-form RK4 and scipy.integrate.simpson."""

    @pytest.mark.parametrize("n", [1000, 2048, 4096])
    @pytest.mark.parametrize("lp", PROFILE_CASES, ids=lambda lp: f"psi={lp.psi:g}")
    def test_rk4_matches_vector_form(self, lp, n):
        t = np.arange(n) * (lp.log_width / n)
        v0 = exact_solution(match_energy(lp), lp.gamma, lp.psi, 0.0)
        args = (lp.beta_m / TWO_PI, lp.gamma, v0, lp.m2 / TWO_PI, t)
        for got, want in zip(annulus_ode._rk4(*args), rk4_vector(*args)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1000, 4096])
    @pytest.mark.parametrize("psi", [0.45, 1e-2, 1e-4, 1e-8])
    def test_rk4_matches_vector_form_gamma_zero(self, psi, n):
        # the gamma = 0 equation v_tt + exp((b-2) t) = 0 at b = 5, m2 = 2pi:
        # the scalar steps agree with the vector form without saturation too
        t = np.arange(n) * (-math.log(psi) / n)
        args = (10 * math.pi / TWO_PI, 0.0, 0.0, 2 * math.pi / TWO_PI, t)
        for got, want in zip(annulus_ode._rk4(*args), rk4_vector(*args)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [997, 1024, 4096])
    @pytest.mark.parametrize("lp", PROFILE_CASES + [frozen_instance(1e-8)],
                             ids=lambda lp: f"psi={lp.psi:g}")
    def test_simpson_matches_scipy(self, lp, n):
        n4 = 4 * ((n + 3) // 4)
        sol = integrate_annulus(lp, n4)
        integrand = sol.rv_r[(n4 - 1) - n4 // 2:][::-1] ** 2
        assert integrand.size % 2 == 1
        want = float(simpson(integrand, dx=lp.log_width / n4) / (0.5 * lp.log_width))
        assert asymptotic_ratio(lp, n).hex() == want.hex()


class TestIdentification:
    """The chemical minimizer restricted to an annulus with a fully
    concentrated core reproduces the integrated profile up to an additive
    constant."""

    def test_matches_chemical_minimizer(self):
        from conflictlab.functionals import relaxed_free_energy
        from conflictlab.model import Params, RadialField, RadialGrid

        psi, n_ann = 1e-5, 2048
        lp = frozen_instance(psi)
        p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=5 * math.pi,
                   m2=2 * math.pi)

        width = lp.log_width
        core = psi * np.linspace(0.0, 1.0, 25)
        annulus = psi * np.exp(np.arange(1, n_ann + 1) * (width / n_ann))
        nodes = np.concatenate([core, annulus])
        nodes[-1] = 1.0
        grid = RadialGrid(nodes)

        vals = np.where(grid.r <= psi, 1.0, 0.0)
        vals *= p.m1 / (grid.weights @ vals)
        rho = RadialField.density(grid, vals)
        # the max-norm flux defect has a roundoff floor ~ 1e-5 on cells this
        # small; the Newton stop, relative to the chemical density's peak
        # (about 3e10 here), sits well above it
        w = relaxed_free_energy(rho, p)[1]

        sol = integrate_annulus(lp, n=8192)
        window = grid.r >= math.sqrt(psi)
        v = np.interp(grid.r[window], sol.r, sol.v)
        gap = w.values[window] - v
        assert np.ptp(gap) / 2.0 <= 1e-4
