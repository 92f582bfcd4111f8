import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictlab.calculus import face_masses, integrate_disk, inv_laplacian
from conflictlab.errors import (
    GammaZero,
    NonpositiveMass,
    Oscillation,
    SolverDiverged,
    Supercritical,
)
from conflictlab.liouville import (
    SolveOptions,
    Solution,
    _DampingController,
    bubble,
    bubble_mass,
    minimize_w,
    residual,
    solve_pair,
    solve_single,
)
from conflictlab.model import Params, RadialField, make_grid

from oracles import boundary_mass_flux, shoot_pair

G256 = make_grid(256)


def zero_potential(grid):
    return RadialField.potential(grid, np.zeros_like(grid.r))


class TestSolveOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tol=0.0),
            dict(tol=-1e-10),
            dict(damping=0.0),
            dict(damping=1.5),
            dict(max_iter=0),
            dict(continuation_steps=0),
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)


class TestBubble:
    def test_wall_value_and_center(self, g1024):
        b = bubble(2.0, 3.0, g1024)
        assert b.values[-1] == 0.0
        assert np.isclose(b.values[0], np.log(4.0), rtol=1e-14)

    def test_mass_formula(self):
        assert np.isclose(bubble_mass(1.0, 1.0), 4 * np.pi, rtol=1e-15)

    def test_quadrature_of_exponential(self, g4096):
        delta = 1.0
        b = bubble(1.0, delta, g4096)
        val = integrate_disk(RadialField(g4096, np.exp(b.values)))
        assert np.isclose(val, np.pi * (1 + delta), rtol=1e-8)

    @pytest.mark.parametrize("alpha, delta", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_bad_parameters(self, alpha, delta, g1024):
        with pytest.raises(ValueError):
            bubble(alpha, delta, g1024)

    def test_inserted_bubble_residual_is_second_order(self):
        p = Params(1.0, 0.0, 0.0, -1, 4 * np.pi, 0.0)
        errs = []
        for n in (1024, 2048, 4096):
            g = make_grid(n)
            sol = Solution(
                u1=bubble(1.0, 1.0, g),
                u2=zero_potential(g),
                residual=np.nan,
                iterations=0,
                multipliers=(2.0, 0.0),
            )
            errs.append(residual(sol, p)[0])
        assert 3.7 < errs[0] / errs[1] < 4.3
        assert 3.7 < errs[1] / errs[2] < 4.3


class TestSolveSingle:
    def test_center_value_at_half_critical(self, g4096):
        sol = solve_single(4 * np.pi, 1.0, g4096)
        assert sol.residual <= 1e-10
        assert abs(sol.u1.values[0] - 2 * np.log(2)) < 1e-6
        assert np.isclose(sol.multipliers[0], 2.0, rtol=1e-6)
        assert sol.iterations < 500

    def test_scaled_coupling(self, g4096):
        sol = solve_single(2 * np.pi, 2.0, g4096)
        assert abs(sol.u1.values[0] - np.log(2)) < 1e-6

    def test_near_critical_with_defaults(self, g4096):
        sol = solve_single(0.95 * 8 * np.pi, 1.0, g4096)
        assert sol.residual <= 1e-10
        assert sol.iterations <= 500

    def test_small_mass_limit(self, g1024):
        m = 1e-6
        sol = solve_single(m, 1.0, g1024)
        assert np.max(np.abs(sol.u1.values)) < m

    @pytest.mark.parametrize("m", [8 * np.pi, 9 * np.pi, 100.0])
    def test_supercritical_refusal(self, m, g1024):
        with pytest.raises(Supercritical):
            solve_single(m, 1.0, g1024)

    def test_nonpositive_mass(self, g1024):
        with pytest.raises(NonpositiveMass):
            solve_single(0.0, 1.0, g1024)

    def test_dirichlet_value_exact(self, g1024):
        sol = solve_single(2 * np.pi, 1.0, g1024)
        assert sol.u1.values[-1] == 0.0

    def test_boundary_mass_flux_identity(self, g1024):
        m = 4 * np.pi
        sol = solve_single(m, 1.0, g1024)
        e = np.exp(sol.u1.values)
        rho = m * e / integrate_disk(RadialField(g1024, e))
        assert abs(boundary_mass_flux(g1024, sol._flux1, rho) - m) < 1e-8

    def test_reported_residual_matches_residual_op(self, g1024):
        m = 2 * np.pi
        sol = solve_single(m, 1.0, g1024)
        r1, r2 = residual(sol, Params(1.0, 0.0, 0.0, -1, m, 0.0))
        assert r1 <= 1e-10 and r2 == 0.0

    def test_continuation_ladder_agrees_with_direct(self, g1024):
        m = 4 * np.pi
        direct = solve_single(m, 1.0, g1024)
        laddered = solve_single(m, 1.0, g1024, SolveOptions(continuation_steps=3))
        np.testing.assert_allclose(laddered.u1.values, direct.u1.values, atol=1e-9)

    @given(st.floats(0.05, 0.9), st.floats(0.5, 3.0))
    @settings(max_examples=10, deadline=None)
    def test_matches_bubble_family(self, frac, alpha):
        m = frac * 8 * np.pi / alpha
        sol = solve_single(m, alpha, G256, SolveOptions(max_iter=2000))
        delta = m * alpha / (8 * np.pi - m * alpha)
        sup = (2 / alpha) * np.log(1 + delta)
        assert sol.residual <= 1e-10
        assert abs(sol.u1.values[0] - sup) <= 1e-3 * max(sup, 1e-3)
        assert np.all(np.diff(sol.u1.values) <= 0.0)


class TestSolvePair:
    def test_regression_point(self, g4096):
        p = Params(alpha=1.0, beta=2.0, gamma=0.0, theta=-1, m1=2 * np.pi, m2=1.0)
        sol = solve_pair(p, g4096)
        assert sol.residual <= 1e-10
        assert np.isclose(sol.u1.values[0], 0.54296778324945916, atol=1e-9)
        assert np.isclose(sol.u2.values[0], 0.10245785818429404, atol=1e-9)
        assert np.isclose(sol.u1.values[2048], 0.39879713704492747, atol=1e-9)
        assert np.isclose(sol.u2.values[2048], 0.071631986562406921, atol=1e-9)
        assert np.isclose(sol.multipliers[0], 1.6787354460952577, atol=1e-8)
        assert np.isclose(sol.multipliers[1], 0.17873544166687505, atol=1e-8)

    def test_against_shooting_oracle(self, g1024):
        p = Params(alpha=1.0, beta=2.0, gamma=0.0, theta=-1, m1=2 * np.pi, m2=1.0)
        sol = solve_pair(p, g1024)
        _, u1, u2 = shoot_pair(p)
        assert abs(sol.u1.values[0] - u1[0]) < 5e-6
        assert abs(sol.u2.values[0] - u2[0]) < 5e-6

    def test_zero_second_mass_reduces_to_single(self, g1024):
        p = Params(1.0, 2.0, 1.0, -1, 4 * np.pi, 0.0)
        sol = solve_pair(p, g1024)
        single = solve_single(4 * np.pi, 1.0, g1024)
        assert np.all(sol.u2.values == 0.0)
        np.testing.assert_allclose(sol.u1.values, single.u1.values, atol=1e-11)

    def test_decoupled_at_zero_beta(self, g1024):
        p = Params(1.0, 0.0, 1.0, -1, 4 * np.pi, 2 * np.pi)
        sol = solve_pair(p, g1024)
        single = solve_single(4 * np.pi, 1.0, g1024)
        np.testing.assert_allclose(sol.u1.values, single.u1.values, atol=1e-11)
        r1, r2 = residual(sol, p)
        assert r1 <= 1e-10 and r2 <= 1e-10

    def test_conflict_free_theta(self, g1024):
        p = Params(1.0, 0.5, 1.0, 1, 2 * np.pi, np.pi)
        sol = solve_pair(p, g1024)
        assert sol.residual <= 1e-10
        assert sol.u1.values[-1] == 0.0 and sol.u2.values[-1] == 0.0

    def test_boundary_flux_both_species(self, g1024):
        p = Params(1.0, 2.0, 0.5, -1, 2 * np.pi, 1.0)
        sol = solve_pair(p, g1024)
        g1 = p.alpha * sol.u1.values - p.beta * sol.u2.values
        g2 = -p.gamma * sol.u2.values - p.theta * p.beta * sol.u1.values
        for m, g, flux in ((p.m1, g1, sol._flux1), (p.m2, g2, sol._flux2)):
            e = np.exp(g)
            rho = m * e / integrate_disk(RadialField(g1024, e))
            assert abs(boundary_mass_flux(g1024, flux, rho) - m) < 1e-8

    def test_diverges_cleanly_far_supercritical(self, g256):
        p = Params(1.0, 0.0, 0.0, -1, 40 * np.pi, 0.0)
        with pytest.raises(SolverDiverged):
            solve_pair(p, g256, SolveOptions(max_iter=120))


class TestMinimizeW:
    def test_gamma_zero_is_callers_bug(self, g256):
        rho = RadialField.density(g256, np.ones_like(g256.r))
        p = Params(1.0, 1.0, 0.0, -1, 1.0, 1.0)
        with pytest.raises(GammaZero):
            minimize_w(rho, p, g256)

    def test_zero_mass_gives_zero(self, g256):
        rho = RadialField.density(g256, np.ones_like(g256.r))
        p = Params(1.0, 1.0, 1.0, -1, 1.0, 0.0)
        w = minimize_w(rho, p, g256)
        assert np.all(w.values == 0.0)

    def test_vacuum_density_example(self, g1024):
        p = Params(1.0, 1.0, 1.0, -1, 1.0, 2 * np.pi)
        rho = RadialField.density(g1024, np.zeros_like(g1024.r))
        w = minimize_w(rho, p, g1024, SolveOptions(max_iter=2000))
        e = np.exp(-w.values)
        rho_w = p.m2 * e / integrate_disk(RadialField(g1024, e))
        flux = face_masses(RadialField(g1024, rho_w))
        assert abs(boundary_mass_flux(g1024, flux, rho_w) - p.m2) < 1e-8
        fixed = inv_laplacian(RadialField(g1024, rho_w)).values
        assert np.max(np.abs(fixed - w.values)) < 1e-8

    def test_monotone_for_monotone_density(self, g256):
        rho = RadialField.density(g256, np.exp(-2 * g256.r**2))
        p = Params(1.0, 1.5, 1.0, -1, 1.0, np.pi)
        w = minimize_w(rho, p, g256, SolveOptions(max_iter=2000))
        assert np.all(np.diff(w.values) <= 1e-14)


class TestDampingController:
    def test_oscillation_at_floor(self):
        ctrl = _DampingController(1.0 / 64.0)
        with pytest.raises(Oscillation):
            for i in range(200):
                ctrl.update(2.0 if i % 2 else 1.0)

    def test_growth_capped_at_one(self):
        ctrl = _DampingController(0.9)
        for i in range(20):
            ctrl.update(1.0 / (i + 1))
        assert ctrl.d == 1.0
