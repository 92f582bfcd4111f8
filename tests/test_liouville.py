import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conflictlab import liouville
from conflictlab.calculus import _green, face_masses, integrate_disk, inv_laplacian
from conflictlab.errors import Oscillation, SolverDiverged
from conflictlab.flow import initial_state, run_flow, steady_solution
from conflictlab.functionals import relaxed_free_energy
from conflictlab.liouville import (
    Solution,
    _DampingController,
    _exponents,
    _minimize_w,
    _picard_loop,
    bubble,
    residual,
    solve_pair,
    solve_single,
)
from conflictlab.model import FlowConfig, Params, RadialField, make_grid, project_density

from oracles import boundary_mass_flux, shoot_pair

G256 = make_grid(256)
# solve_pair's refusal of masses on or past the Pohozaev line
PAST_THE_LINE = r"^alpha m1 = .+ at or above the critical value 8 pi \+ 2 beta m2 = .+: no steady state exists$"


def zero_potential(grid):
    return RadialField.potential(grid, np.zeros_like(grid.r))


class TestBubble:
    def test_wall_value_and_center(self, g1024):
        b = bubble(2.0, 3.0, g1024)
        assert b.values[-1] == 0.0
        assert np.isclose(b.values[0], np.log(4.0), rtol=1e-14)

    def test_quadrature_of_exponential(self, g4096):
        delta = 1.0
        b = bubble(1.0, delta, g4096)
        val = integrate_disk(RadialField(g4096, np.exp(b.values)))
        assert np.isclose(val, np.pi * (1 + delta), rtol=1e-8)

    @pytest.mark.parametrize("alpha, delta", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_bad_parameters(self, alpha, delta, g1024):
        with pytest.raises(ValueError):
            bubble(alpha, delta, g1024)

    @pytest.mark.parametrize("alpha", [1e-310, 5e-324])
    def test_alpha_with_infinite_reciprocal_is_refused(self, alpha, g256):
        calls = [
            lambda: bubble(alpha, 1.0, g256),
            lambda: solve_single(1.0, alpha, g256),
            lambda: solve_pair(Params(alpha, 2.0, 1.0, -1, 1.0, 4.0), g256),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha!r}")):
                    call()

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
        with pytest.raises(ValueError, match=PAST_THE_LINE):
            solve_single(m, 1.0, g1024)

    def test_nonpositive_mass(self, g1024):
        with pytest.raises(ValueError, match="^m1 = 0.0 must be finite and > 0$"):
            solve_single(0.0, 1.0, g1024)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_alpha(self, alpha, g1024):
        with pytest.raises(ValueError, match="alpha must be positive"):
            solve_single(1.0, alpha, g1024)

    @pytest.mark.parametrize("m", [-1.0, np.nan, np.inf])
    def test_mass_not_finite_and_positive(self, m, g1024):
        # refused by Params before any solve; inf included, though above 8 pi
        with pytest.raises(ValueError, match=f"^m1 = {m!r} must be finite and > 0$"):
            solve_single(m, 1.0, g1024)

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

    @given(st.floats(0.05, 0.9), st.floats(0.5, 3.0))
    @settings(max_examples=10, deadline=None)
    def test_matches_bubble_family(self, frac, alpha):
        m = frac * 8 * np.pi / alpha
        sol = solve_single(m, alpha, G256)
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

    @given(
        n=st.integers(64, 256),
        alpha=st.floats(0.0, 4.0, exclude_min=True),
        frac=st.floats(0.0, 0.99, exclude_min=True, exclude_max=True),
        beta=st.floats(0.0, 100.0),
        gamma=st.floats(0.0, 100.0),
        theta=st.sampled_from([-1, 1]),
    )
    @example(n=256, alpha=1.0, frac=0.5, beta=2.0, gamma=1.0, theta=-1)
    @example(n=128, alpha=3.7, frac=0.95, beta=0.7, gamma=0.0, theta=1)
    @settings(max_examples=30, deadline=None)
    def test_zero_second_mass_reduces_to_single(self, n, alpha, frac, beta, gamma, theta):
        # bit for bit, failures included: at m2 = 0 the pair is the single solve
        grid = make_grid(n)
        m = frac * 8.0 * np.pi / alpha
        assume(math.isfinite(m))

        def outcome(solve, *args):
            try:
                return _solution_print(solve(*args))
            except Exception as err:
                return type(err), str(err)

        pair = outcome(solve_pair, Params(alpha, beta, gamma, theta, m, 0.0), grid)
        assert pair == outcome(solve_single, m, alpha, grid)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_converges_at_zero_second_mass_near_critical(self, n):
        # raised Oscillation when species 1 started from rest
        grid = make_grid(n)
        sol = solve_pair(Params(1.0, 2.0, 1.0, -1, 24.0, 0.0), grid)
        assert sol.residual <= 1e-10
        assert _solution_print(sol) == _solution_print(solve_single(24.0, 1.0, grid))

    def test_conflict_free_scan_converges_below_m1_25(self):
        # the scan of scripts/steady_scan.py on 256 cells, short of m1 = 25
        for m1 in np.linspace(0.0, 25.0, 12)[1:-1]:
            for m2 in np.linspace(0.0, 40.0, 13):
                sol = solve_pair(Params(1.0, 2.0, 1.0, 1, m1, m2), G256)
                assert sol.residual <= 1e-10, (m1, m2)

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

    def test_refuses_far_supercritical_alone(self, g256):
        with pytest.raises(ValueError, match=PAST_THE_LINE):
            solve_pair(Params(1.0, 0.0, 0.0, -1, 40 * np.pi, 0.0), g256)

    def test_refuses_far_supercritical_pair(self, g256):
        with pytest.raises(ValueError, match=PAST_THE_LINE):
            solve_pair(Params(1.0, 0.0, 1.0, -1, 40 * np.pi, 1.0), g256)

    @pytest.mark.parametrize("theta", [-1, 1])
    def test_refuses_on_the_pohozaev_line(self, g256, theta):
        # alpha m1 = 8 pi + 2 beta m2, exactly in floating point
        p = Params(1.0, 0.5, 1.0, theta, 8.0 * np.pi + 4.0, 4.0)
        with pytest.raises(ValueError, match=PAST_THE_LINE):
            solve_pair(p, g256)


# the steady workload's five pairs and five more, four with alpha m1 above 8 pi
NESTED_PAIRS = (
    (1.0, 2.0, 1.0, -1, 10.0, 4.0),
    (1.0, 2.0, 1.0, 1, 10.0, 4.0),
    (1.0, 2.0, 0.0, -1, 20.0, 5.0),
    (1.0, 2.0, 1.0, 1, 20.0, 10.0),
    (1.0, 2.0, 1.0, -1, 22.0, 8.0),
    (1.0, 0.6, 1.0, -1, 26.0, 8.0),
    (1.0, 2.0, 0.0, -1, 30.0, 4.0),
    (1.0, 3.0, 2.0, -1, 40.0, 10.0),
    (1.0, 1.0, 1.0, -1, 35.0, 20.0),
    (1.0, 2.0, 1.0, 1, 22.0, 8.0),
)
# solve_pair on its 256-cell sub-grid raises Oscillation; the sub-grid
# Anderson solve of its nested start converges
SUBGRID_OSCILLATES = Params(1.0, 2.0, 1.0, 1, 25.0, 40.0 / 3.0)


def failing_level(monkeypatch, fails):
    """Patch liouville._anderson_loop to raise Oscillation on the grids for
    which fails(grid) holds and to run elsewhere; returns the list of the
    cell counts of the grids it received, in order."""
    grids, loop = [], liouville._anderson_loop

    def patched(grid, *args):
        grids.append(grid.n)
        if fails(grid):
            raise Oscillation(f"the Anderson solve on {grid.n} cells fails")
        return loop(grid, *args)

    monkeypatch.setattr(liouville, "_anderson_loop", patched)
    return grids


class TestNestedStart:
    """A pair on 4096 cells or more starts from its own solution on the
    grid of every 16th node, and from the closed form when the sub-grid
    solve or the solve from it fails."""

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    @pytest.mark.parametrize("n", [4096, 6000, 16384])
    def test_agrees_with_the_closed_form_start(self, monkeypatch, kind, n):
        grid = make_grid(n, kind)
        params = [Params(*args) for args in NESTED_PAIRS]
        nested = [solve_pair(p, grid) for p in params]
        monkeypatch.setattr(liouville, "_NEST_MIN_CELLS", math.inf)
        for p, sol in zip(params, nested):
            ref = solve_pair(p, grid)
            assert sol.iterations < ref.iterations, p
            assert max(sol.residual, *residual(sol, p)) <= 1e-10, p
            for u, v in ((sol.u1, ref.u1), (sol.u2, ref.u2)):
                assert np.max(np.abs(u.values - v.values)) <= 1e-10, p

    def test_subgrid_of_every_16th_node_and_the_wall(self, monkeypatch):
        grids, loop = [], liouville._anderson_loop

        def recorded(grid, *args):
            grids.append(grid.r)
            return loop(grid, *args)

        monkeypatch.setattr(liouville, "_anderson_loop", recorded)
        fine, p = make_grid(4100), Params(*NESTED_PAIRS[0])
        assert liouville._nested_solve(p, fine, p.coupling) is not None
        sub, top = grids
        assert np.array_equal(sub, np.append(fine.r[:4097:16], 1.0))
        assert top is fine.r

    def test_calls_solve_pair_once(self, monkeypatch, g4096):
        # the sub-grid solve does not go through the module's solve_pair,
        # so a wrapper of that name sees the caller's solve alone
        calls, solve = [], liouville.solve_pair

        def counted(p, grid):
            calls.append(grid.n)
            return solve(p, grid)

        monkeypatch.setattr(liouville, "solve_pair", counted)
        assert liouville.solve_pair(Params(*NESTED_PAIRS[0]), g4096).residual <= 1e-10
        assert calls == [4096]

    def test_falls_back_when_the_nested_solve_fails(self, monkeypatch, g4096):
        p = Params(*NESTED_PAIRS[0])
        grids = failing_level(monkeypatch, lambda grid: grid.n == 4096)
        sol = solve_pair(p, g4096)
        assert grids == [256, 4096]  # the sub-grid solve ran, the fine one failed
        monkeypatch.setattr(liouville, "_NEST_MIN_CELLS", math.inf)
        assert _solution_print(sol) == _solution_print(solve_pair(p, g4096))

    def test_falls_back_to_the_closed_form_start(self, monkeypatch, g4096):
        with pytest.raises(Oscillation):
            solve_pair(SUBGRID_OSCILLATES, make_grid(256))
        nested = solve_pair(SUBGRID_OSCILLATES, g4096)
        assert nested.iterations <= 30 and nested.residual <= 1e-10
        grids = failing_level(monkeypatch, lambda grid: grid.n == 256)
        fallback = solve_pair(SUBGRID_OSCILLATES, g4096)
        assert grids == [256]
        # recorded before the nested start: the same bits and iterations
        assert _solution_print(fallback) == (
            "10af91c43fb4d173c74f2cf56fdc38382aa4b1433e5c77e7e5f978010f78f0a3",
            "(9.608883706350175e-11, (0.07067464694612746, 23.353902427560094), 231)",
        )
        for u, v in ((nested.u1, fallback.u1), (nested.u2, fallback.u2)):
            assert np.max(np.abs(u.values - v.values)) <= 1e-10

    @pytest.mark.parametrize("n", [1024, 2048, 4095])
    def test_below_4096_cells_no_subgrid(self, monkeypatch, n):
        monkeypatch.setattr(liouville, "_nested_solve", None)  # a call would raise
        assert solve_pair(Params(*NESTED_PAIRS[0]), make_grid(n)).residual <= 1e-10

    def test_single_species_no_subgrid(self, monkeypatch, g4096):
        monkeypatch.setattr(liouville, "_nested_solve", None)
        assert solve_single(20.0, 1.0, g4096).residual <= 1e-10


class TestLeastSquaresStep:
    """_anderson_loop's step: the image differences combined with the
    coefficients that fit the defect differences to the defect."""

    @staticmethod
    def columns(seed, k):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((k, 2, 50)), rng.standard_normal((k, 2, 50)), rng.standard_normal((2, 50))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_lstsq(self, seed, k):
        dfs, dgs, f = self.columns(seed, k)
        gamma = np.linalg.lstsq(dfs.reshape(k, -1).T, f.ravel(), rcond=None)[0]
        want = np.tensordot(gamma, dgs, axes=1)
        got = liouville._least_squares_step(list(zip(dfs, dgs)), f)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_collinear_differences_take_the_newest_alone(self):
        dfs, dgs, f = self.columns(0, 2)
        dfs[1] = 3.0 * dfs[0]
        got = liouville._least_squares_step(list(zip(dfs, dgs)), f)
        want = liouville._least_squares_step([(dfs[0], dgs[0])], f)
        assert np.array_equal(got, want)


class TestExponents:
    @given(
        alpha=st.floats(0.0, 1e6),
        beta=st.floats(0.0, 1e6),
        gamma=st.floats(0.0, 1e6),
        theta=st.sampled_from([-1, 1]),
        us=st.integers(1, 40).flatmap(
            lambda n: st.tuples(*[arrays(np.float64, n, elements=st.floats(-1e6, 1e6))] * 2)
        ),
    )
    def test_rows_of_the_coupling_are_the_readme_exponents(self, alpha, beta, gamma, theta, us):
        p = Params(alpha, beta, gamma, theta, 1.0, 1.0)
        u1, u2 = us
        g1, g2 = _exponents(p.coupling, (u1, u2))
        for got, want in ((g1, alpha * u1 - beta * u2), (g2, -gamma * u2 - theta * beta * u1)):
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        (a11, a12), (a21, _) = p.coupling
        assert (a11, a12) == (alpha, -beta) and a12 == theta * a21  # diag(1, theta) A symmetric


class TestPohozaevIdentity:
    """Multiplying species 1's steady equation by x . grad and integrating
    gives 4 m1 - 4 pi rho1(1) - alpha m1^2 / 2 pi + (beta / pi) int rho1 M2 dx
    = 0, with M2(r) species 2's mass inside radius r.  The defect D below is
    computed from u1 and u2 alone (Boltzmann densities, a trapezoid
    cumulative mass, grid.weights), so it shares no code with the solver,
    and falls like n^-2."""

    @staticmethod
    def defect(p, n):
        grid = make_grid(n)
        sol = solve_pair(p, grid)
        u1, u2 = sol.u1.values, sol.u2.values

        def boltzmann(g, m):
            e = np.exp(g - g.max())
            return m * e / np.sum(grid.weights * e)

        rho1 = boltzmann(p.alpha * u1 - p.beta * u2, p.m1)
        rho2 = boltzmann(-p.gamma * u2 - p.theta * p.beta * u1, p.m2)
        ring = 2.0 * np.pi * grid.r * rho2
        mass2 = np.concatenate(([0.0], np.cumsum(0.5 * (ring[1:] + ring[:-1]) * np.diff(grid.r))))
        return (
            4.0 * p.m1
            - 4.0 * np.pi * rho1[-1]
            - p.alpha * p.m1**2 / (2.0 * np.pi)
            + (p.beta / np.pi) * np.sum(grid.weights * rho1 * mass2)
        )

    @pytest.mark.parametrize(
        "params",
        [
            (1.0, 2.0, 1.0, -1, 22.0, 8.0),
            (1.0, 0.6, 1.0, -1, 26.0, 8.0),
            (1.0, 2.0, 1.0, 1, 10.0, 4.0),
            (1.0, 2.0, 0.0, -1, 20.0, 5.0),
            (1.0, 2.0, 1.0, -1, 10.0, 4.0),
        ],
    )
    def test_defect_falls_second_order(self, params):
        p = Params(*params)
        coarse, fine = self.defect(p, 1024), self.defect(p, 4096)
        assert abs(fine) <= 2e-5
        assert 12.0 <= coarse / fine <= 20.0


class TestMinimizeW:
    def test_zero_mass_gives_zero(self, g256):
        rho = RadialField.density(g256, np.ones_like(g256.r))
        p = Params(1.0, 1.0, 1.0, -1, 1.0, 0.0)
        w = relaxed_free_energy(rho, p)[1]
        assert np.all(w.values == 0.0)

    def test_vacuum_density_example(self, g1024):
        p = Params(1.0, 1.0, 1.0, -1, 1.0, 2 * np.pi)
        rho = RadialField.density(g1024, np.zeros_like(g1024.r))
        w = relaxed_free_energy(rho, p)[1]
        e = np.exp(-w.values)
        rho_w = p.m2 * e / integrate_disk(RadialField(g1024, e))
        flux = face_masses(RadialField(g1024, rho_w))
        assert abs(boundary_mass_flux(g1024, flux, rho_w) - p.m2) < 1e-8
        fixed = inv_laplacian(RadialField(g1024, rho_w)).values
        assert np.max(np.abs(fixed - w.values)) < 1e-8

    def test_monotone_for_monotone_density(self, g256):
        rho = RadialField.density(g256, np.exp(-2 * g256.r**2))
        p = Params(1.0, 1.5, 1.0, -1, 1.0, np.pi)
        w = relaxed_free_energy(rho, p)[1]
        assert np.all(np.diff(w.values) <= 1e-14)


# Chemical problems on which the Picard iteration failed: Oscillation at
# residual 2.5e2, SolverDiverged at residual 2.4e-5, and a stall at the
# absolute round-off floor of 1.2e-10.
HARD_CHEMICAL = [
    (256, (1, 8.854033802553948, 45.035744779737875, -1, 59.95203916487965, 95.36379762276704),
     133.66562192185035),
    (32, (1, 7.74664134923732, 36.892907707513686, -1, 45.58018318232084, 59.7028031750704),
     183.57960530559708),
    (4096, (1, 6.538660110683944, 2.5637844491450723, -1, 52.05249828796773, 63.217190398841694),
     162.14973324520668),
]


def _chemical_problem(n, args, width):
    grid = make_grid(n)
    p = Params(*args)
    shape = RadialField.density(grid, np.exp(-width * grid.r**2))
    return grid, p, project_density(shape, p.m1)


class TestNewtonChemicalSolve:
    @pytest.mark.parametrize("n, args, width", HARD_CHEMICAL, ids=["n256", "n32", "n4096"])
    def test_converges_where_picard_failed(self, n, args, width):
        grid, p, rho = _chemical_problem(n, args, width)
        w = relaxed_free_energy(rho, p)[1]
        g = _exponents(p.coupling, (inv_laplacian(rho).values, w.values))[1]
        e = RadialField(grid, np.exp(g - g.max()))
        image = inv_laplacian(e.with_values(p.m2 * e.values / integrate_disk(e))).values
        assert np.max(np.abs(image - w.values)) <= 1e-10 * max(1.0, rho.values.max())

    def test_max_iter_counts_newton_steps(self, monkeypatch):
        monkeypatch.setattr(liouville, "_MAX_ITER", 1)
        grid, p, rho = _chemical_problem(*HARD_CHEMICAL[0])
        with pytest.raises(SolverDiverged):
            relaxed_free_energy(rho, p)

    @given(
        n=st.sampled_from([32, 256]),
        gamma=st.floats(0.05, 5.0),
        beta=st.floats(0.0, 3.0),
        theta=st.sampled_from([-1, 1]),
        m1=st.floats(0.5, 20.0),
        m2=st.floats(0.5, 20.0),
        width=st.floats(0.5, 20.0),
        warm=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_picard_reference(self, n, gamma, beta, theta, m1, m2, width, warm):
        grid, p, rho = _chemical_problem(n, (1.0, beta, gamma, theta, m1, m2), width)
        u = _green(grid, rho.values)[0]
        drive = -p.theta * p.beta * u
        start = ([np.zeros_like(grid.r)], [np.zeros(grid.n)])
        try:
            (ref,), *_ = _picard_loop(
                grid, (p.m2,), lambda ws: (-p.gamma * ws[0] + drive,), start
            )
        except (Oscillation, SolverDiverged):
            assume(False)
        w0 = 0.5 * ref if warm else None
        w = _minimize_w(grid, u, p, w0=w0)[0]
        assert np.max(np.abs(w - ref)) <= 1e-8 * max(1.0, np.abs(ref).max())


RESIDUAL = re.compile(r"residual \d\.\d{3}e[+-]\d+")


class TestFailuresKeepNoArrays:
    """A failure that leaves solve_pair or relaxed_free_energy holds no
    array of the solve: its frames are cleared, and its message names the
    residual and the iteration count."""

    def test_oscillation_near_critical_mass(self, keeps_no_arrays, monkeypatch):
        updates = [0]  # one per Picard iteration of the latest solve
        update = liouville._DampingController.update

        def counted(ctrl, res):
            updates[0] += 1
            update(ctrl, res)

        def solve(*args):
            updates[0] = 0
            return solve_single(*args)

        monkeypatch.setattr(liouville._DampingController, "update", counted)
        setup = lambda grid: (solve, 25.0, 1.0, grid)
        (err,) = keeps_no_arrays(setup, Oscillation, sizes=(8192,))
        assert RESIDUAL.search(str(err)) and "over 50 iterations" in str(err)
        assert str(err).endswith(f"; stopped at Picard iteration {updates[0]}")
        assert updates[0] > 50

    def test_pair_out_of_iterations(self, keeps_no_arrays, monkeypatch):
        # 10 iterations: the sub-grid Anderson solve of the 8192-cell nested
        # start takes 11 and the closed-form Picard solve 22
        monkeypatch.setattr(liouville, "_MAX_ITER", 10)
        p = Params(1.0, 2.0, 1.0, -1, 10.0, 4.0)
        for err in keeps_no_arrays(lambda grid: (solve_pair, p, grid), SolverDiverged):
            assert RESIDUAL.search(str(err)) and "after 10 iterations" in str(err)
        with pytest.raises(AssertionError):  # the bare solve keeps its arrays
            keeps_no_arrays(lambda grid: (solve_pair.__wrapped__, p, grid), SolverDiverged)

    def test_pair_after_a_caught_subgrid_failure(self, keeps_no_arrays, monkeypatch):
        # the sub-grid Anderson solve fails too (it takes 11 iterations, the
        # closed-form Picard solve 22), and its failure is dropped, not chained
        monkeypatch.setattr(liouville, "_MAX_ITER", 10)
        starts, nested = [], liouville._nested_solve
        monkeypatch.setattr(liouville, "_nested_solve", lambda *args: starts.append(nested(*args)))
        p = Params(1.0, 2.0, 1.0, -1, 10.0, 4.0)
        errs = keeps_no_arrays(lambda grid: (solve_pair, p, grid), SolverDiverged, sizes=(4096, 16384))
        assert starts and not any(starts)
        for err in errs:
            assert "after 10 iterations" in str(err)
            assert err.__context__ is None and err.__cause__ is None

    def test_chemical_solve_out_of_newton_steps(self, keeps_no_arrays, monkeypatch):
        monkeypatch.setattr(liouville, "_MAX_ITER", 1)
        _, args, width = HARD_CHEMICAL[0]
        p = Params(*args)

        def setup(grid):
            shape = RadialField.density(grid, np.exp(-width * grid.r**2))
            return relaxed_free_energy, project_density(shape, p.m1), p

        for err in keeps_no_arrays(setup, SolverDiverged):
            assert RESIDUAL.search(str(err)) and "after 1 Newton steps" in str(err)


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


def _digest(*arrays):
    d = hashlib.sha256()
    for a in arrays:
        d.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return d.hexdigest()


def _solution_print(sol):
    fields = (sol.u1.values, sol.u2.values, sol._flux1, sol._flux2)
    return _digest(*fields), repr((sol.residual, sol.multipliers, sol.iterations))


_RHO = RadialField.density(G256, np.exp(-2 * G256.r**2))
_PW = Params(1.0, 1.5, 1.0, -1, 1.0, math.pi)


def _pair_print(*args):
    p = Params(*args)
    sol = solve_pair(p, G256)
    return _solution_print(sol) + (repr(residual(sol, p)),)


def _warm_w():
    w0 = 0.5 * relaxed_free_energy(_RHO, _PW)[1].values
    u = _green(G256, _RHO.values)[0]
    return (_digest(_minimize_w(G256, u, _PW, w0=w0)[0]),)


def _relaxed_print(*args):
    val, w = relaxed_free_energy(_RHO, Params(*args))
    return _digest(w.values), repr(val)


def _steady_multipliers():
    p = Params(1.0, 0.5, 1.0, -1, 8.0, 0.0)
    cfg = FlowConfig(1.0, 0.0, 0.0, dt=0.001, t_end=0.02)
    rho1 = RadialField.density(G256, np.exp(-G256.r**2))
    s = run_flow(initial_state(p, cfg, rho1=rho1), p, cfg)
    return (repr(steady_solution(s, p).multipliers),)


# Solver outputs on 256 cells: the sha256 of the raw float64 bytes of the
# fields, and the repr of every scalar (residual, multipliers, iterations,
# the residual() pair, energy values), recorded before the Picard entry
# points shared one seed, one package step and one zero-mass rule
# (numpy 2.4, x86-64).  Any change in a bit of a solve shows up here.  The
# minimize_w-cold, minimize_w-warm and relaxed-gamma pins were re-recorded
# when the chemical solve moved from Picard to Newton: the minimizers moved
# by at most 1.1e-11 relative, the relaxed energy by 1.6e-16.  The three
# pair pins with m2 > 0 were re-recorded when species 1 began to start from
# one Green application of its bubble's density instead of from rest: their
# fields moved by at most 1.5e-11.  The two minimize_w pins read the
# chemical minimizer through relaxed_free_energy, its one public entry.
_SINGLE_5 = (
    "89164a1dfcbaa1d819adf4b65d941474675ef9db1f21baa36659aac0456e84ac",
    "(6.888223325063336e-11, (1.274920131734214, 0.0), 11)",
)
PINNED_SOLVES = {
    "single-5": (lambda: _solution_print(solve_single(5.0, 1.0, G256)), _SINGLE_5),
    "single-24": (lambda: _solution_print(solve_single(24.0, 1.0, G256)), (
        "a8f58f37224097129b80c6196e9dcc10aa00add3ef9d539fa41e08b8829597e9",
        "(1.3088197192701045e-11, (0.3438049098176474, 0.0), 35)",
    )),
    "pair-cooperative": (lambda: _pair_print(1.0, 2.0, 1.0, 1, 10.0, 4.0), (
        "51f8013e26a370fad5ca9be1e0aa13ccb49d20ac1d8b8d6246d8ad5a354a4121",
        "(5.6632032396919385e-11, (2.5290200375125735, 2.8897812979242685), 28)",
        "(5.6632032396919385e-11, 9.102080309507894e-12)",
    )),
    "pair-conflict": (lambda: _pair_print(1.0, 2.0, 1.0, -1, 10.0, 4.0), (
        "e5bd72ab5fc0c786fefeccfcc814c79cc3361db29d876c4b8d18de9b86a50597",
        "(8.599743139825478e-11, (3.126990836107618, 0.6598553655543615), 22)",
        "(8.599743139825478e-11, 3.467359732667319e-11)",
    )),
    "pair-gamma-zero": (lambda: _pair_print(1.0, 2.0, 0.0, -1, 20.0, 5.0), (
        "f176919ca5efb32b53713ba7ff2497a6bca984a97d198f0cc49b618daa9664b3",
        "(5.927702773078636e-11, (4.974086401573762, 0.19941202079916298), 38)",
        "(1.368949398283803e-11, 5.927702773078636e-11)",
    )),
    # at m2 = 0 the pair solve is the single solve, bit for bit
    "pair-m2-zero": (lambda: _pair_print(1.0, 0.0, 0.0, -1, 5.0, 0.0), (
        *_SINGLE_5, "(6.888223325063336e-11, 0.0)",
    )),
    "minimize_w-cold": (lambda: (_digest(relaxed_free_energy(_RHO, _PW)[1].values),), (
        "59a0c948c298402c1b691808c645ea3256851c0dfb2932a24450cdbae3867d5b",
    )),
    "minimize_w-warm": (_warm_w, (
        "fba3d28b5868935a5a53138adc17780146c5b16beffca35eb79c922cf6cf4851",
    )),
    "relaxed-gamma": (lambda: _relaxed_print(1.0, 1.5, 1.0, -1, 1.0, math.pi), (
        "59a0c948c298402c1b691808c645ea3256851c0dfb2932a24450cdbae3867d5b",
        "2.735470808680106",
    )),
    "relaxed-gamma-zero": (lambda: _relaxed_print(1.0, 1.5, 0.0, -1, 1.0, math.pi), (
        "d5fe696dc1aa5c0a800bf800ce8fc6e26ab622c7dd7de4b9fd0c304fe4036256",
        "2.939607024350808",
    )),
    "relaxed-m2-zero": (lambda: _relaxed_print(1.0, 1.5, 1.0, -1, 1.0, 0.0), (
        "d5fe696dc1aa5c0a800bf800ce8fc6e26ab622c7dd7de4b9fd0c304fe4036256",
        "-0.9989379095211782",
    )),
    "steady-m2-zero": (_steady_multipliers, ("(2.326018592343506, 0.0)",)),
}


@pytest.mark.parametrize("case", list(PINNED_SOLVES))
def test_solver_outputs_are_pinned(case):
    compute, expected = PINNED_SOLVES[case]
    assert compute() == expected
