import numpy as np
import pytest

from conflictlab.calculus import dirichlet_energy, inv_laplacian, log_partition
from conflictlab.functionals import (
    FunctionalReport,
    chemical_energy,
    free_energy,
    joint_free_energy,
    moser_trudinger,
    relaxed_free_energy,
    two_species_energy_rho,
    two_species_energy_u,
)
from conflictlab.liouville import bubble, solve_pair
from conflictlab.model import Params, RadialField, make_grid

from oracles import central_difference, random_direction

G256 = make_grid(256)


def uniform_density(grid, m=1.0):
    return RadialField.density(grid, np.full_like(grid.r, m / np.pi))


def zero_potential(grid):
    return RadialField.potential(grid, np.zeros_like(grid.r))


def report_parts_sum(rep: FunctionalReport) -> float:
    return (
        rep.entropy1 + rep.entropy2 + rep.interaction
        + rep.dirichlet + rep.cross + rep.log_terms
    )


def test_report_total_is_the_sum_of_its_parts():
    assert FunctionalReport(entropy1=1.0).total == 1.0
    rep = FunctionalReport(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    assert rep.total == 0.1 + 0.2 + 0.3 + 0.4 + 0.5 + 0.6
    with pytest.raises(TypeError):
        FunctionalReport(total=1.0)


class TestFreeEnergy:
    def test_frozen_uniform_value(self, g1024):
        p = Params(1.0, 0.0, 0.0, -1, 1.0, 0.0)
        rep = free_energy(uniform_density(g1024), p)
        assert abs(rep.total - (-1.1646242537358871)) < 2e-8

    def test_interaction_off(self, g1024):
        p = Params(0.0, 0.0, 0.0, -1, 1.0, 0.0)
        rep = free_energy(uniform_density(g1024), p)
        assert abs(rep.total - (-np.log(np.pi))) < 1e-14
        assert rep.interaction == 0.0

    def test_decomposition(self, g1024):
        p = Params(2.0, 0.0, 0.0, -1, 1.0, 0.0)
        rep = free_energy(uniform_density(g1024), p)
        assert np.isclose(rep.total, report_parts_sum(rep), rtol=1e-12)
        assert rep.dirichlet == 0.0 and rep.cross == 0.0 and rep.log_terms == 0.0


class TestMoserTrudinger:
    def test_zero_potential(self, g1024):
        m = 3.0
        assert abs(moser_trudinger(zero_potential(g1024), m, 1.0) + m * np.log(np.pi)) < 1e-12

    def test_bounded_below_at_critical_mass(self, g4096):
        m = 8 * np.pi
        floor = -8 * np.pi * (1 + np.log(np.pi))
        for delta in (1.0, 10.0, 100.0, 1000.0):
            val = moser_trudinger(bubble(1.0, delta, g4096), m, 1.0)
            assert val > floor - 1e-6

    @pytest.mark.parametrize("delta", [1.0, 10.0, 100.0])
    def test_bubble_closed_form(self, g4096, delta):
        # at alpha=1 the family gives (8pi - m) ln(1+delta) - 8pi delta/(1+delta) - m ln pi
        m = 5.0
        expect = (8 * np.pi - m) * np.log(1 + delta) - 8 * np.pi * delta / (1 + delta) - m * np.log(np.pi)
        val = moser_trudinger(bubble(1.0, delta, g4096), m, 1.0)
        assert np.isclose(val, expect, rtol=1e-4)

    def test_validation(self, g1024):
        with pytest.raises(ValueError, match="^mass must be positive, got 0.0$"):
            moser_trudinger(zero_potential(g1024), 0.0, 1.0)
        with pytest.raises(ValueError):
            moser_trudinger(zero_potential(g1024), 1.0, 0.0)


class TestChemicalEnergy:
    def test_frozen_quadrature_value(self, g1024):
        # rho = 1/pi, w = 0, beta = 1, m = 1: the value is
        # ln(4 pi^2 (e^{1/4pi} - 1)), computed independently by adaptive
        # quadrature before this test was written.
        p = Params(1.0, 1.0, 1.0, -1, 1.0, 1.0)
        val = chemical_energy(uniform_density(g1024), zero_potential(g1024), 1.0, p)
        assert np.isclose(val, 1.1847824649487126, rtol=1e-6)

    def test_vacuum(self, g1024):
        p = Params(1.0, 1.0, 1.0, -1, 1.0, 1.0)
        rho = RadialField.density(g1024, np.zeros_like(g1024.r))
        m = 2.5
        assert abs(chemical_energy(rho, zero_potential(g1024), m, p) - m * np.log(np.pi)) < 1e-12

    def test_gamma_zero_ignores_w(self, g1024):
        p = Params(1.0, 2.0, 0.0, -1, 1.0, 1.0)
        rho = uniform_density(g1024)
        rng = np.random.default_rng(7)
        w1 = RadialField.potential(g1024, random_direction(g1024, rng))
        w2 = RadialField.potential(g1024, random_direction(g1024, rng))
        assert chemical_energy(rho, w1, 1.0, p) == chemical_energy(rho, w2, 1.0, p)


class TestJointFreeEnergy:
    def test_additivity(self, g1024):
        p = Params(1.0, 1.5, 0.8, -1, 2.0, 1.3)
        rho = uniform_density(g1024, 2.0)
        rng = np.random.default_rng(3)
        w = RadialField.potential(g1024, random_direction(g1024, rng))
        rep = joint_free_energy(rho, w, p)
        expect = free_energy(rho, p).total + chemical_energy(rho, w, p.m2, p)
        assert np.isclose(rep.total, expect, rtol=1e-13)

    def test_reduces_to_free_energy(self, g1024):
        p = Params(1.0, 1.5, 0.0, -1, 2.0, 0.0)
        rho = uniform_density(g1024, 2.0)
        rng = np.random.default_rng(4)
        w = RadialField.potential(g1024, random_direction(g1024, rng))
        assert joint_free_energy(rho, w, p).total == free_energy(rho, p).total

    def test_decomposition_invariant(self, g1024):
        p = Params(1.0, 1.5, 0.8, -1, 2.0, 1.3)
        rho = uniform_density(g1024, 2.0)
        rng = np.random.default_rng(5)
        w = RadialField.potential(g1024, random_direction(g1024, rng))
        rep = joint_free_energy(rho, w, p)
        assert np.isclose(rep.total, report_parts_sum(rep), rtol=1e-12)


class TestRelaxedFreeEnergy:
    def test_gamma_zero_closed_form(self, g1024):
        p = Params(1.0, 2.0, 0.0, -1, 2 * np.pi, 1.5)
        rho = uniform_density(g1024, p.m1)
        val, w_star = relaxed_free_energy(rho, p)
        assert np.all(w_star.values == 0.0)
        u = inv_laplacian(rho)
        expect = free_energy(rho, p).total + p.m2 * log_partition([(p.beta, u)])
        assert np.isclose(val, expect, rtol=1e-13)

    def test_zero_second_mass(self, g1024):
        p = Params(1.0, 2.0, 1.0, -1, 2 * np.pi, 0.0)
        rho = uniform_density(g1024, p.m1)
        val, w_star = relaxed_free_energy(rho, p)
        assert np.all(w_star.values == 0.0)
        assert np.isclose(val, free_energy(rho, p).total, rtol=1e-13)

    def test_minimizer_beats_random_candidates(self, g256):
        p = Params(1.0, 1.0, 1.0, -1, 2 * np.pi, np.pi)
        rho = uniform_density(g256, p.m1)
        val, w_star = relaxed_free_energy(rho, p)
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = RadialField.potential(
                g256, w_star.values + random_direction(g256, rng, amplitude=0.3)
            )
            assert val <= joint_free_energy(rho, w, p).total + 1e-12


class TestTwoSpeciesEnergyU:
    @pytest.mark.parametrize("theta", [-1, 1])
    def test_zero_fields(self, g1024, theta):
        p = Params(1.0, 1.0, 1.0, theta, 3.0, 2.0)
        rep = two_species_energy_u(zero_potential(g1024), zero_potential(g1024), p)
        expect = -p.m1 * np.log(np.pi) - theta * p.m2 * np.log(np.pi)
        assert abs(rep.total - expect) < 1e-12

    def test_decoupled_conflict_free(self, g1024):
        p = Params(1.0, 0.0, 0.0, 1, 2 * np.pi, 1.5)
        u1 = bubble(1.0, 2.0, g1024)
        rep = two_species_energy_u(u1, zero_potential(g1024), p)
        expect = moser_trudinger(u1, p.m1, p.alpha) - p.m2 * np.log(np.pi)
        assert np.isclose(rep.total, expect, rtol=1e-12)

    def test_zero_second_mass_conflict(self, g1024):
        p = Params(1.0, 0.0, 0.7, -1, 2 * np.pi, 0.0)
        rng = np.random.default_rng(9)
        u1 = bubble(1.0, 1.0, g1024)
        u2 = RadialField.potential(g1024, random_direction(g1024, rng))
        rep = two_species_energy_u(u1, u2, p)
        expect = moser_trudinger(u1, p.m1, p.alpha) + 0.5 * p.gamma * dirichlet_energy(u2)
        assert np.isclose(rep.total, expect, rtol=1e-12)

    @pytest.mark.parametrize(
        "p",
        [
            Params(1.0, 2.0, 0.0, -1, 2 * np.pi, 1.0),
            Params(1.0, 0.5, 1.0, 1, 2 * np.pi, np.pi),
        ],
    )
    def test_solved_pair_is_critical_point(self, g1024, p):
        sol = solve_pair(p, g1024)
        rng = np.random.default_rng(17)
        for _ in range(5):
            d1 = random_direction(g1024, rng)
            d2 = random_direction(g1024, rng)

            def along(eps):
                u1 = RadialField.potential(g1024, sol.u1.values + eps * d1)
                u2 = RadialField.potential(g1024, sol.u2.values + eps * d2)
                return two_species_energy_u(u1, u2, p).total

            assert abs(central_difference(along)) < 1e-5

    def test_rejects_untagged_fields_and_two_grids(self, g1024):
        p = Params(1.0, 1.0, 1.0, -1, 1.0, 1.0)
        untagged = RadialField(g1024, np.zeros_like(g1024.r))
        with pytest.raises(ValueError, match="potential-tagged"):
            two_species_energy_u(untagged, zero_potential(g1024), p)
        with pytest.raises(ValueError, match="potential-tagged"):
            two_species_energy_u(zero_potential(g1024), uniform_density(g1024), p)
        with pytest.raises(ValueError, match="^two_species_energy_u needs a shared grid$"):
            two_species_energy_u(zero_potential(g1024), zero_potential(G256), p)


class TestTwoSpeciesEnergyRho:
    def test_vacuum_second_species(self, g1024):
        p = Params(1.0, 2.0, 1.0, -1, 1.0, 1.0)
        rho1 = uniform_density(g1024)
        rho2 = RadialField.density(g1024, np.zeros_like(g1024.r))
        rep = two_species_energy_rho(rho1, rho2, p)
        assert np.isclose(rep.total, free_energy(rho1, p).total, rtol=1e-14)

    def test_conflict_free_self_terms_cancel(self, g1024):
        # theta = +1 with alpha = gamma: the two self-pairings enter with
        # opposite signs and cancel, leaving twice the entropy.
        p = Params(1.3, 0.0, 1.3, 1, 1.0, 1.0)
        rho = uniform_density(g1024)
        rep = two_species_energy_rho(rho, rho, p)
        assert abs(rep.interaction) < 1e-15
        assert np.isclose(rep.total, 2 * rep.entropy1, rtol=1e-12)

    def test_conflict_self_terms_double(self, g1024):
        # theta = -1 with alpha = gamma: the self-pairings add up while the
        # entropies cancel.
        p = Params(1.3, 0.0, 1.3, -1, 1.0, 1.0)
        rho = uniform_density(g1024)
        rep = two_species_energy_rho(rho, rho, p)
        assert rep.entropy1 + rep.entropy2 == 0.0
        assert np.isclose(rep.interaction, -1.3 / (8 * np.pi), rtol=1e-5)

    def test_cross_term_self_adjoint(self, g1024):
        p = Params(1.0, 1.7, 0.5, -1, 1.0, 1.0)
        rho1 = RadialField.density(g1024, np.exp(-2 * g1024.r**2))
        rho2 = RadialField.density(g1024, (1 - g1024.r**2) ** 2)
        a = two_species_energy_rho(rho1, rho2, p).cross
        b = two_species_energy_rho(rho2, rho1, p).cross
        assert abs(a - b) < 1e-8

    def test_rejects_two_grids(self, g1024):
        p = Params(1.0, 1.0, 1.0, -1, 1.0, 1.0)
        with pytest.raises(ValueError, match="^two_species_energy_rho needs a shared grid$"):
            two_species_energy_rho(uniform_density(g1024), uniform_density(G256), p)
