import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictlab import blowdown
from conflictlab.blowdown import (
    DEFAULT_LADDER,
    BlowdownFamily,
    blowdown_density,
    blowdown_potential,
    slope_estimate,
    verify_identities,
)
from conflictlab.calculus import (
    dirichlet_energy,
    entropy,
    integrate_disk,
    inv_laplacian,
)
from conflictlab.cli import _base_fields
from conflictlab.functionals import moser_trudinger
from conflictlab.model import Params, RadialField, make_grid, project_density
from conflictlab.phase import blowdown_coefficients

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def gg():
    return make_grid(1024, kind="graded")


def smooth_rho(grid, mass, shape=None):
    x = shape if shape is not None else (2.0 - grid.r**2)
    return project_density(RadialField.density(grid, x), mass)


def zero_w(grid):
    return RadialField.potential(grid, np.zeros(grid.r.size))


def lambda_coeffs(p):
    l1 = p.m2 * ((p.beta * p.m1 - p.gamma * p.m2) / TWO_PI - 2.0)
    l2 = 2.0 * p.m1 - p.alpha * p.m1**2 / (2 * TWO_PI) + p.gamma * p.m2**2 / (2 * TWO_PI)
    return l1, l2, l1 + l2


class TestBlowdownDensity:
    def test_psi_one_is_identity(self, gg):
        rho = smooth_rho(gg, 2.0)
        assert blowdown_density(rho, 1.0) is rho

    def test_uniform_doubling(self, gg):
        uni = RadialField.density(gg, np.full(gg.r.size, 1.0 / np.pi))
        out = blowdown_density(uni, 2.0)
        inside = out.grid.r <= 0.5
        assert np.all(out.values[inside] == 4.0 / np.pi)
        assert np.all(out.values[~inside] == 0.0)
        assert np.isclose(integrate_disk(out), 1.0, rtol=1e-10, atol=0.0)

    def test_support_ends_at_core_edge(self, gg):
        rho = smooth_rho(gg, 2.0)
        out = blowdown_density(rho, 32.0)
        edge = 1.0 / 32.0
        assert np.all(out.values[out.grid.r > edge * (1.0 + 1e-10)] == 0.0)
        assert out.values[np.searchsorted(out.grid.r, edge)] > 0.0

    @pytest.mark.parametrize("psi, exc", [(0.5, ValueError), (np.inf, ValueError)])
    def test_rejects_bad_arguments(self, gg, psi, exc):
        rho = smooth_rho(gg, 2.0)
        with pytest.raises(exc):
            blowdown_density(rho, psi)

    def test_rejects_potential_input(self, gg):
        with pytest.raises(ValueError):
            blowdown_density(zero_w(gg), 2.0)

    @given(mass=st.floats(0.5, 50.0), log2_psi=st.floats(0.05, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_and_entropy_shift_preserved(self, mass, log2_psi):
        grid = make_grid(64, kind="graded")
        rho = smooth_rho(grid, mass)
        psi = 2.0**log2_psi
        out = blowdown_density(rho, psi)
        assert abs(integrate_disk(out) - mass) <= 1e-10 * mass
        gap = entropy(out) - entropy(rho) - 2.0 * mass * np.log(psi)
        assert abs(gap) <= 1e-6


class TestBlowdownPotential:
    def test_psi_one_is_identity(self, gg):
        w = inv_laplacian(smooth_rho(gg, 2.0))
        assert blowdown_potential(w, 2.0, 1.0) is w

    def test_piecewise_values(self, gg):
        m = 3.0
        w = inv_laplacian(smooth_rho(gg, m))
        psi = 8.0
        out = blowdown_potential(w, m, psi)
        core = gg.r.size
        assert np.array_equal(
            out.values[:core], w.values + (m / TWO_PI) * np.log(psi)
        )
        tail = out.grid.r[core:-1]
        assert np.allclose(
            out.values[core:-1], -(m / TWO_PI) * np.log(tail), rtol=0, atol=1e-14
        )
        assert out.values[-1] == 0.0

    def test_continuous_at_seam(self, gg):
        m = 3.0
        w = inv_laplacian(smooth_rho(gg, m))
        out = blowdown_potential(w, m, 64.0)
        core = gg.r.size
        assert abs(out.values[core] - out.values[core - 1]) < 1e-10

    def test_matches_potential_of_transformed_density(self, gg):
        rho = smooth_rho(gg, 5 * np.pi)
        u0 = inv_laplacian(rho)
        for psi in (16.0, 1024.0):
            via_density = inv_laplacian(blowdown_density(rho, psi))
            via_glue = blowdown_potential(u0, 5 * np.pi, psi)
            assert np.max(np.abs(via_density.values - via_glue.values)) <= 1e-6

    def test_dirichlet_shift_exact(self, gg):
        m = np.pi
        w = inv_laplacian(smooth_rho(gg, m, shape=np.exp(-3 * gg.r**2)))
        base = dirichlet_energy(w)
        for psi in (16.0, 1024.0):
            shifted = dirichlet_energy(blowdown_potential(w, m, psi))
            predicted = base + (m**2 / TWO_PI) * np.log(psi)
            assert np.isclose(shifted, predicted, rtol=1e-12, atol=1e-12)

    def test_rejects_density_input(self, gg):
        with pytest.raises(ValueError):
            blowdown_potential(smooth_rho(gg, 1.0), 1.0, 2.0)

    def test_rejects_psi_below_one(self, gg):
        with pytest.raises(ValueError):
            blowdown_potential(zero_w(gg), 1.0, 0.25)


class TestBlowdownFamily:
    def test_default_ladder(self, gg):
        fam = BlowdownFamily(smooth_rho(gg, 1.0), zero_w(gg))
        assert np.array_equal(fam.psis, np.array(DEFAULT_LADDER))
        assert fam.psis[0] == 2.0 and fam.psis[-1] == 1024.0

    @pytest.mark.parametrize(
        "psis",
        [
            np.array([2.0, 2.0, 4.0]),
            np.array([4.0, 2.0, 8.0]),
            np.array([0.5, 2.0]),
            np.array([]),
            np.array([2.0, 1e200]),  # psi*psi overflows, and must not warn
            np.array([np.inf, np.inf]),
        ],
    )
    def test_rejects_bad_ladders(self, gg, psis):
        with pytest.raises(ValueError):
            BlowdownFamily(smooth_rho(gg, 1.0), zero_w(gg), psis=psis)

    def test_rejects_a_rung_within_the_epsilon_gap_of_1(self, gg):
        at_the_gap = 1.0 + blowdown._EPS_GAP
        with pytest.raises(ValueError, match=re.escape(f"(psi = {at_the_gap!r} is not)")):
            BlowdownFamily(smooth_rho(gg, 1.0), zero_w(gg), psis=np.array([at_the_gap, 2.0]))
        fam = BlowdownFamily(smooth_rho(gg, 1.0), zero_w(gg), psis=np.array([1.0 + 3e-12, 2.0]))
        assert blowdown._scaled_grid(gg, fam.psis[0]).n > gg.n

    def test_rejects_mismatched_grids(self, gg):
        other = make_grid(256)
        with pytest.raises(ValueError, match="^base fields live on different grids$"):
            BlowdownFamily(smooth_rho(gg, 1.0), zero_w(other))

    def test_rejects_untagged_base(self, gg):
        with pytest.raises(ValueError):
            BlowdownFamily(zero_w(gg), zero_w(gg))
        with pytest.raises(ValueError):
            BlowdownFamily(smooth_rho(gg, 1.0), smooth_rho(gg, 1.0))


@pytest.fixture(scope="module")
def table(gg):
    rho = smooth_rho(gg, 5 * np.pi)
    w = inv_laplacian(smooth_rho(gg, np.pi, shape=np.exp(-3 * gg.r**2)))
    p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=5 * np.pi, m2=np.pi)
    fam = BlowdownFamily(rho, w, psis=np.array([2.0, 16.0, 1024.0]))
    return verify_identities(fam, p), p


class TestVerifyIdentities:
    def test_table_layout(self, table):
        rows, _ = table
        assert len(rows) == 15
        terms = [r.term for r in rows[:5]]
        assert terms == ["entropy", "interaction", "dirichlet", "log_term", "total"]
        assert [r.psi for r in rows[::5]] == [2.0, 16.0, 1024.0]

    def test_exact_rows_tight(self, table):
        rows, _ = table
        for r in rows:
            if r.term in ("entropy", "interaction", "dirichlet") and r.psi >= 16.0:
                assert abs(r.measured - r.predicted) <= 1e-10 * abs(r.predicted)

    def test_log_row_converges_like_inverse_log(self, table):
        rows, _ = table
        gaps = {
            r.psi: abs(r.measured - r.predicted) / abs(r.predicted)
            for r in rows
            if r.term == "log_term"
        }
        assert gaps[1024.0] < gaps[16.0] < gaps[2.0]
        assert gaps[1024.0] < 2e-2

    def test_total_row_tracks_lambda(self, table):
        rows, p = table
        _, _, lam = lambda_coeffs(p)
        for r in rows:
            if r.term == "total" and r.psi == 1024.0:
                assert np.isclose(r.predicted, lam * np.log(1024.0), rtol=1e-12)
                assert abs(r.measured - r.predicted) <= 1e-2 * abs(r.predicted)

    def test_log_row_not_applicable_when_core_recedes(self, gg):
        # beta m1 - gamma m2 < 4 pi: the tail owns the partition integral
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=4.0, m2=2.0)
        rho = smooth_rho(gg, 4.0)
        w = inv_laplacian(smooth_rho(gg, 2.0, shape=np.exp(-3 * gg.r**2)))
        fam = BlowdownFamily(rho, w, psis=np.array([4.0, 64.0, 1024.0]))
        rows = verify_identities(fam, p)
        _, l2, _ = lambda_coeffs(p)
        for r in rows:
            if r.term == "log_term":
                assert np.isnan(r.predicted)
            if r.term == "total" and r.psi == 1024.0:
                assert np.isclose(r.predicted, l2 * np.log(1024.0), rtol=1e-12)
                assert abs(r.measured - r.predicted) <= 2e-2 * abs(r.predicted)

    def test_half_mode_shifts_carry_half_log(self, gg):
        # the half-scale rung of psi = 16 is the rung of its square root
        m1 = 5 * np.pi
        rho = smooth_rho(gg, m1)
        w = inv_laplacian(smooth_rho(gg, np.pi, shape=np.exp(-3 * gg.r**2)))
        p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=m1, m2=np.pi)
        full, half = (
            next(r for r in verify_identities(BlowdownFamily(rho, w, psis=np.array([psi])), p)
                 if r.term == "entropy")
            for psi in (16.0, 4.0)
        )
        assert np.isclose(half.predicted, 2.0 * m1 * np.log(4.0), rtol=1e-15)
        assert np.isclose(half.measured, half.predicted, rtol=1e-10)
        assert np.isclose(half.measured, 0.5 * full.measured, rtol=1e-10)


class TestSlopeEstimate:
    def test_concentration_regime_hits_lambda(self, gg):
        p = Params(alpha=1.0, beta=3.0, gamma=0.0, theta=-1, m1=20.0, m2=2.0)
        fam = BlowdownFamily(smooth_rho(gg, 20.0), zero_w(gg))
        slope = slope_estimate(fam, p)
        # 2(m1 - m2) - alpha m1^2/4pi + beta m1 m2/2pi, frozen by hand
        assert np.isclose(slope, 23.267604552648375, rtol=1e-5)
        assert np.isclose(slope, 23.267607928762178, rtol=0, atol=1e-9)

    def test_half_mode_agrees(self, gg):
        # the half-scale ladder is the default ladder's square roots
        p = Params(alpha=1.0, beta=3.0, gamma=0.0, theta=-1, m1=20.0, m2=2.0)
        psis = np.sqrt(DEFAULT_LADDER)
        fam = BlowdownFamily(smooth_rho(gg, 20.0), zero_w(gg), psis=psis)
        assert np.isclose(slope_estimate(fam, p), 23.267604552648375, rtol=1e-5)

    def test_negative_slope_instance(self, gg):
        p = Params(alpha=1.0, beta=2.0, gamma=0.0, theta=-1, m1=30.0, m2=1.0)
        fam = BlowdownFamily(smooth_rho(gg, 30.0), zero_w(gg))
        slope = slope_estimate(fam, p)
        assert np.isclose(slope, -4.070427805839195, rtol=1e-5)
        assert slope < 0.0

    def test_tail_regime_hits_lambda2(self, gg):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=4.0, m2=2.0)
        rho = smooth_rho(gg, 4.0)
        w = inv_laplacian(smooth_rho(gg, 2.0, shape=np.exp(-3 * gg.r**2)))
        slope = slope_estimate(BlowdownFamily(rho, w), p)
        _, l2, _ = lambda_coeffs(p)
        assert np.isclose(slope, l2, rtol=1e-4)

    def test_single_species_coefficient(self, gg):
        p = Params(alpha=1.0, beta=0.0, gamma=0.0, theta=-1, m1=20.0, m2=0.0)
        fam = BlowdownFamily(smooth_rho(gg, 20.0), zero_w(gg))
        slope = slope_estimate(fam, p)
        assert np.isclose(slope, 2.0 * 20.0 - 20.0**2 / (2 * TWO_PI), rtol=1e-9)

    @pytest.mark.parametrize(
        "p",
        [
            Params(alpha=1.0, beta=2.0, gamma=0.0, theta=-1, m1=30.0, m2=1.0),
            Params(alpha=1.0, beta=0.3, gamma=1.0, theta=-1, m1=35.0, m2=2.0),
        ],
    )
    def test_unbounded_instances_fit_negative(self, gg, p):
        # both lambda and lambda_2 negative: the energy must escape downward
        l1, l2, lam = lambda_coeffs(p)
        assert lam < 0 and l2 < 0
        if p.gamma == 0.0:
            w = zero_w(gg)
        else:
            w = inv_laplacian(smooth_rho(gg, p.m2, shape=np.exp(-3 * gg.r**2)))
        slope = slope_estimate(BlowdownFamily(smooth_rho(gg, p.m1), w), p)
        assert slope < 0.0

    def test_sign_matches_coefficient_on_a_coarse_plane(self):
        """slope_estimate has the sign of the blow-down coefficient at 8^2
        masses in (0, 150]^2 of five random theta = -1 sets, on graded 512
        cells, off a band where the fit is not yet asymptotic: |x| < 1 for
        the log-term exponent x = (beta m1 - gamma m2)/2pi - 2, or a
        coefficient under 5 % of its largest term.  In a study of 600 such
        sets (38,400 points) every sign disagreement had |x| <= 0.71, and
        off the band the slope stayed within 2.6 % of that largest term."""
        grid = make_grid(512, kind="graded")
        rng = np.random.default_rng(20)
        masses = np.linspace(0.0, 150.0, 9)[1:]
        signs = []
        for _ in range(5):
            alpha, beta = rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0)
            gamma = rng.uniform(0.0, 3.0) if rng.random() < 0.5 else 0.0
            for m1, m2 in itertools.product(masses, masses):
                p = Params(alpha, beta, gamma, -1, m1, m2)
                coef = float(blowdown_coefficients(m1, m2, p)[0])
                x = (beta * m1 - gamma * m2) / TWO_PI - 2.0
                terms = (2.0 * m1, alpha * m1**2 / (2 * TWO_PI), gamma * m2**2 / (2 * TWO_PI), m2 * x)
                if abs(x) < 1.0 or abs(coef) < 0.05 * max(terms):
                    continue
                slope = slope_estimate(BlowdownFamily(*_base_fields(grid, p)), p)
                assert np.sign(slope) == np.sign(coef), (p, slope, coef)
                signs.append(np.sign(coef))
        assert signs.count(-1.0) >= 20 and signs.count(1.0) >= 20

    def test_too_few_rungs(self, gg):
        fam = BlowdownFamily(
            smooth_rho(gg, 1.0), zero_w(gg), psis=np.array([2.0, 4.0, 8.0])
        )
        with pytest.raises(ValueError, match="^need at least 4 rungs, got 3$"):
            slope_estimate(fam, Params(1.0, 0.0, 0.0, -1, 1.0, 0.0))


class TestMoserTrudingerLadder:
    @pytest.mark.parametrize(
        "frac, sign", [(0.95, 1.0), (1.05, -1.0)], ids=["subcritical", "supercritical"]
    )
    def test_rung_difference_matches_coefficient(self, gg, frac, sign):
        m = frac * 8.0 * np.pi
        u = inv_laplacian(smooth_rho(gg, m))
        coef = 2.0 * m - m**2 / (2 * TWO_PI)
        assert np.sign(coef) == sign
        v19 = moser_trudinger(blowdown_potential(u, m, 2.0**19), m, 1.0)
        v20 = moser_trudinger(blowdown_potential(u, m, 2.0**20), m, 1.0)
        assert np.isclose((v20 - v19) / np.log(2.0), coef, rtol=1e-3)
        assert np.isfinite(v20)
