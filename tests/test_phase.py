import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conflictlab import phase
from conflictlab.blowdown import BlowdownFamily, slope_estimate
from conflictlab.calculus import inv_laplacian
from conflictlab.liouville import residual, solve_pair
from conflictlab.model import Params, RadialField, make_grid, project_density
from conflictlab.phase import (
    PhaseVerdict,
    blowdown_coefficients,
    classify,
    lambda_values,
    strip_mass,
    sweep,
)
from oracles import (
    AsymmetricMatrix,
    all_subsets_positive,
    boundary_curves_by_sample,
    refined_condition,
    subset_lambda,
)

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi


def conflict(alpha, beta, gamma, m1=1.0, m2=1.0):
    return Params(alpha=alpha, beta=beta, gamma=gamma, theta=-1, m1=m1, m2=m2)


def coop(alpha, beta, gamma, m1=1.0, m2=1.0):
    return Params(alpha=alpha, beta=beta, gamma=gamma, theta=1, m1=m1, m2=m2)


class TestLambdaValues:
    def test_symmetric_point_cancels_exactly(self):
        lam, lam1, lam2 = lambda_values(7.0, 7.0, conflict(1.0, 1.0, 1.0))
        assert lam == 0.0
        assert lam1 == -14.0
        assert lam2 == 14.0

    def test_second_mass_zero_leaves_lambda2(self):
        lam, lam1, lam2 = lambda_values(5.0, 0.0, conflict(1.0, 2.0, 1.0))
        assert lam1 == 0.0
        assert lam == lam2

    def test_zero_at_critical_mass(self):
        lam, _, _ = lambda_values(EIGHT_PI, 0.0, conflict(1.0, 2.0, 0.0))
        assert np.isclose(lam, 0.0, atol=1e-9)

    def test_round_masses_give_eight_pi(self):
        # 2(4pi - 2pi) = 4pi, -alpha (4pi)^2/4pi = -4pi, +beta 4pi 2pi/2pi = 8pi
        lam, _, _ = lambda_values(FOUR_PI, 2.0 * math.pi, conflict(1.0, 2.0, 0.0))
        assert np.isclose(lam, EIGHT_PI, rtol=1e-14)

    def test_frozen_split(self):
        lam, lam1, lam2 = lambda_values(30.0, 1.0, conflict(1.0, 2.0, 0.0))
        assert np.isclose(lam, -4.0704278058391825, rtol=1e-14)
        assert np.isclose(lam1, 7.549296585513721, rtol=1e-14)
        assert np.isclose(lam2, -11.619724391352904, rtol=1e-14)
        lam, _, _ = lambda_values(20.0, 2.0, conflict(1.0, 3.0, 0.0))
        assert np.isclose(lam, 23.267604552648375, rtol=1e-14)

    def test_broadcasts(self):
        p = conflict(1.0, 2.0, 1.0)
        m1 = np.array([5.0, 20.0, 35.0])
        m2 = np.array([0.0, 3.0, 11.0])
        lam, lam1, lam2 = lambda_values(m1, m2, p)
        for k in range(3):
            expect = lambda_values(float(m1[k]), float(m2[k]), p)
            assert lam[k] == expect[0]
            assert lam1[k] == expect[1]
            assert lam2[k] == expect[2]

    @pytest.mark.parametrize("m1, m2", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5)])
    def test_rejects_bad_masses(self, m1, m2):
        with pytest.raises(ValueError, match="^lambda_values needs m[12] >=? 0$"):
            lambda_values(m1, m2, conflict(1.0, 1.0, 1.0))

    @given(
        m1=st.floats(1e-3, 100.0),
        m2=st.floats(0.0, 100.0),
        alpha=st.floats(0.0, 4.0),
        beta=st.floats(0.0, 4.0),
        gamma=st.floats(0.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_sums_exactly(self, m1, m2, alpha, beta, gamma):
        lam, lam1, lam2 = lambda_values(m1, m2, conflict(alpha, beta, gamma))
        assert lam == lam1 + lam2


class TestSubsetLambda:
    def test_single_species_recovers_critical_mass(self):
        a = [[1.0]]
        below = subset_lambda([EIGHT_PI - 1e-6], a, {0})
        above = subset_lambda([EIGHT_PI + 1e-6], a, {0})
        assert below > 0.0 > above

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("m2", [0.1, 10.0, 500.0])
    def test_negative_diagonal_subset_always_positive(self, gamma, m2):
        a = [[1.0, 2.0], [2.0, -gamma]]
        assert subset_lambda([1.0, m2], a, {1}) > 0.0

    def test_two_species_hand_value(self):
        val = subset_lambda([3.0, 5.0], [[1.0, 2.0], [2.0, -1.0]], (0, 1))
        expect = FOUR_PI * 8.0 - 0.5 * (9.0 + 2.0 * 2.0 * 15.0 - 25.0)
        assert np.isclose(val, expect, rtol=1e-14)

    def test_duplicate_indices_collapse(self):
        a = [[1.0, 0.5], [0.5, 1.0]]
        assert subset_lambda([2.0, 3.0], a, [0, 0, 1]) == subset_lambda(
            [2.0, 3.0], a, [0, 1]
        )

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(AsymmetricMatrix):
            subset_lambda([1.0, 1.0], [[1.0, 2.0], [2.1, 1.0]], {0, 1})

    @pytest.mark.parametrize("subset", [set(), {2}, {-1}])
    def test_bad_subsets_rejected(self, subset):
        with pytest.raises(ValueError):
            subset_lambda([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], subset)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_double_loop(self, data):
        n = data.draw(st.integers(1, 4))
        masses = data.draw(
            st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n)
        )
        flat = data.draw(
            st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n)
        )
        b = np.asarray(flat).reshape(n, n)
        a = (b + b.T) / 2.0
        J = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        expect = FOUR_PI * sum(masses[i] for i in J) - 0.5 * sum(
            a[i, j] * masses[i] * masses[j] for i in J for j in J
        )
        assert np.isclose(subset_lambda(masses, a, J), expect, rtol=1e-12)


class TestAllSubsetsPositive:
    def test_small_cooperative_masses(self):
        a = [[1.0, 0.3], [0.3, 1.0]]
        assert all_subsets_positive([2.0, 3.0], a)

    def test_supercritical_first_species_fails(self):
        a = [[1.0, 0.3], [0.3, 1.0]]
        assert not all_subsets_positive([EIGHT_PI + 0.1, 1.0], a)

    def test_three_species(self):
        a = np.eye(3)
        assert all_subsets_positive([4.0, 4.0, 4.0], a)
        assert not all_subsets_positive([4.0, 30.0, 4.0], a)


class TestRefinedCondition:
    @staticmethod
    def brute(masses, a, n_grid=161):
        grids = np.meshgrid(
            *[np.linspace(0.0, m, n_grid) for m in masses], indexing="ij"
        )
        pts = np.stack([g.ravel() for g in grids], axis=1)[1:]
        q = FOUR_PI * pts.sum(axis=1) - 0.5 * np.einsum(
            "ki,ij,kj->k", pts, np.asarray(a), pts
        )
        return float(q.min())

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_grid_minimum(self, seed):
        rng = np.random.default_rng(seed)
        masses = rng.uniform(0.5, 30.0, 2)
        b = rng.uniform(-1.5, 1.5, (2, 2))
        a = (b + b.T) / 2.0
        brute_min = self.brute(masses, a)
        if abs(brute_min) < 1e-6:
            pytest.skip("grid minimum too close to zero to trust")
        assert refined_condition(masses, a) == (brute_min > 0.0)

    def test_conflict_matrix_instances(self):
        a = [[1.0, -2.0], [-2.0, -1.0]]
        assert refined_condition([4.0, 3.0], a)
        assert not refined_condition([30.0, 0.5], a)

    def test_tiny_masses_pass(self):
        assert refined_condition([1e-6, 1e-6], [[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_nonpositive_masses(self):
        with pytest.raises(ValueError, match="^box condition needs positive masses$"):
            refined_condition([1.0, 0.0], np.eye(2))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_subset_positivity_implies_box(self, data):
        n = data.draw(st.integers(1, 3))
        masses = data.draw(st.lists(st.floats(0.5, 30.0), min_size=n, max_size=n))
        flat = data.draw(
            st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
        )
        b = np.asarray(flat).reshape(n, n)
        a = (b + b.T) / 2.0
        np.fill_diagonal(a, np.abs(np.diagonal(a)))
        if all_subsets_positive(masses, a):
            assert refined_condition(masses, a)

    @given(
        m1=st.floats(0.1, 60.0),
        m2=st.floats(0.1, 60.0),
        alpha=st.floats(0.0, 4.0),
        beta=st.floats(0.0, 4.0),
        gamma=st.floats(0.0, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_species_box_matches_cooperative_box_min(
        self, m1, m2, alpha, beta, gamma
    ):
        v = classify(coop(alpha, beta, gamma, m1, m2))
        box_min = dict(v.fired)["box_min"]
        assume(abs(box_min) > 1e-9)
        a = [[alpha, beta], [beta, -gamma]]
        assert refined_condition([m1, m2], a) == (box_min > 0.0)


class TestStripMass:
    def test_unit_couplings_give_twelve_pi(self):
        # m2* = 4pi, and  M^2 - 16 pi M + 48 pi^2  has roots 4pi and 12pi
        assert np.isclose(strip_mass(conflict(1.0, 1.0, 1.0)), 12.0 * math.pi,
                          rtol=1e-12)

    def test_root_substitutes_back(self):
        p = conflict(1.0, 2.0, 1.0)
        ms = strip_mass(p)
        assert np.isclose(ms, 161.23849684564013, rtol=1e-12)
        m2s = (FOUR_PI / p.gamma) * (2.0 * p.beta / p.alpha - 1.0)
        lam, _, _ = lambda_values(ms, m2s, p)
        assert np.isclose(lam, 0.0, atol=1e-10)

    def test_is_the_larger_root(self):
        p = conflict(1.0, 1.0, 1.0)
        ms = strip_mass(p)
        m2s = FOUR_PI
        assert lambda_values(ms * (1.0 - 1e-6), m2s, p)[0] > 0.0
        assert lambda_values(ms * (1.0 + 1e-6), m2s, p)[0] < 0.0

    def test_gamma_zero_is_infinite(self):
        assert strip_mass(conflict(1.0, 2.0, 0.0)) == math.inf

    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (1.0, 0.2), (0.0, 1.0)])
    def test_outside_domain_rejected(self, alpha, beta):
        with pytest.raises(ValueError):
            strip_mass(conflict(alpha, beta, 1.0))

    @pytest.mark.parametrize("alpha, gamma", [(1.0, 1e-200), (1e-300, 1.0)])
    def test_huge_strip_mass_does_not_overflow(self, alpha, gamma):
        # the strip mass grows like 1/gamma and 1/alpha: it must come out
        # huge or +inf, not overflow an intermediate
        ms = strip_mass(conflict(alpha, 2.0, gamma))
        assert ms > 1e150
        v = classify(conflict(alpha, 2.0, gamma, 1e12, 1.0))
        assert dict(v.fired)["strip_mass_gap"] > 0.0


class TestClassifyConflict:
    @pytest.mark.parametrize(
        "alpha, beta, gamma, m1, m2, verdict, rule",
        [
            (1.0, 0.3, 0.5, 10.0, 7.0, "BoundedBelow", 1),
            (1.0, 2.0, 0.0, 30.0, 1.0, "UnboundedBelow", 2),
            (1.0, 2.0, 0.0, 30.0, 4.0, "RadiallyBounded", 3),
            (1.0, 2.0, 1.0, 30.0, 39.0, "RadiallyBounded", 4),
            (1.0, 0.6, 1.0, 26.0, 8.0, "Unknown", 0),
            (0.0, 1.0, 1.0, 50.0, 5.0, "BoundedBelow", 1),
        ],
    )
    def test_rule_table(self, alpha, beta, gamma, m1, m2, verdict, rule):
        v = classify(conflict(alpha, beta, gamma, m1, m2))
        assert v.verdict == verdict
        assert v.rule == rule
        assert v.point == (m1, m2)

    def test_critical_boundary_is_unknown(self):
        v = classify(conflict(1.0, 2.0, 0.0, EIGHT_PI, 5.0))
        assert v.verdict == "Unknown"
        assert v.rule == 0

    def test_fired_carries_the_deciding_values(self):
        p = conflict(1.0, 2.0, 0.0, 30.0, 4.0)
        v = classify(p)
        names = [name for name, _ in v.fired]
        assert names == [
            "lambda",
            "lambda1",
            "lambda2",
            "critical_gap",
            "strip_mass_gap",
            "strip_gap",
        ]
        assert dict(v.fired)["lambda"] == lambda_values(30.0, 4.0, p)[0]
        assert dict(v.fired)["critical_gap"] == EIGHT_PI - 30.0

    @pytest.mark.parametrize(
        "m1, verdict",
        [
            (5.0, "BoundedBelow"),
            (20.0, "BoundedBelow"),
            (EIGHT_PI - 1e-3, "BoundedBelow"),
            (EIGHT_PI + 1e-3, "UnboundedBelow"),
            (30.0, "UnboundedBelow"),
        ],
    )
    def test_second_mass_zero_matches_single_species(self, m1, verdict):
        v = classify(conflict(1.0, 2.0, 1.0, m1, 0.0))
        assert v.verdict == verdict

    def test_radial_verdict_monotone_in_second_mass(self):
        seen = False
        for m2 in np.linspace(0.0, 40.0, 120):
            v = classify(conflict(1.0, 2.0, 1.0, 30.0, float(m2)))
            if seen:
                assert v.verdict in ("RadiallyBounded", "Unknown")
            seen = seen or v.verdict == "RadiallyBounded"
        assert seen

    def test_rule_four_has_a_witness_below(self):
        top = classify(conflict(1.0, 2.0, 1.0, 30.0, 39.0))
        witness = classify(conflict(1.0, 2.0, 1.0, 30.0, 30.0))
        assert top.rule == 4
        assert witness.rule == 3
        assert witness.verdict == "RadiallyBounded"

    @given(
        m1=st.floats(1e-2, 100.0),
        m2=st.floats(0.0, 100.0),
        alpha=st.floats(0.1, 4.0),
        beta=st.floats(0.0, 4.0),
        gamma=st.floats(0.0, 4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_first_two_rules_never_co_fire(self, m1, m2, alpha, beta, gamma):
        p = conflict(alpha, beta, gamma)
        lam, _, lam2 = lambda_values(m1, m2, p)
        below_critical = m1 < EIGHT_PI / alpha - 1e-12
        unbounded = lam < -1e-12 and lam2 < -1e-12
        assert not (below_critical and unbounded)


class TestClassifyConflictFree:
    @pytest.mark.parametrize(
        "alpha, beta, gamma, m1, m2, verdict, rule",
        [
            (1.0, 0.4, 1.0, 10.0, 5.0, "Exists", 1),
            (1.0, 0.4, 1.0, 26.0, 5.0, "NotCovered", 1),
            (1.0, 1.0, 0.0, 10.0, 1.0, "Exists", 2),
            (1.0, 1.0, 0.0, 20.0, 10.0, "NotCovered", 2),
            (1.0, 1.0, 1.0, 20.0, 100.0, "Exists", 3),
            (1.0, 1.0, 1.0, 22.0, 3.0, "Exists", 3),
            (1.0, 1.0, 1.0, 22.0, 8.0, "NotCovered", 3),
            (1.0, 1.0, 1.0, 22.0, 20.0, "NotCovered", 3),
        ],
    )
    def test_case_table(self, alpha, beta, gamma, m1, m2, verdict, rule):
        v = classify(coop(alpha, beta, gamma, m1, m2))
        assert v.verdict == verdict
        assert v.rule == rule

    @pytest.mark.parametrize(
        "m1, verdict", [(10.0, "Exists"), (26.0, "NotCovered")]
    )
    def test_second_mass_zero_reduces_to_critical_mass(self, m1, verdict):
        v = classify(coop(1.0, 1.0, 1.0, m1, 0.0))
        assert v.verdict == verdict

    def test_onset_protects_every_second_mass(self):
        # conic onset at 2pi(2 + sqrt 2) for unit couplings
        onset = 2.0 * math.pi * (2.0 + math.sqrt(2.0))
        for m2 in (0.5, 7.0, 300.0):
            v = classify(coop(1.0, 1.0, 1.0, onset - 0.2, m2))
            assert v.verdict == "Exists"
        v = classify(coop(1.0, 1.0, 1.0, onset + 0.2, 100.0))
        assert v.verdict == "NotCovered"

    def test_tiny_gamma_onset_is_real(self):
        # the expanded onset discriminant cancels below zero at tiny gamma
        v = classify(coop(0.0, 3.0, 5.279800547705063e-27, 1.0, 1.0))
        assert (v.verdict, v.rule) == ("Exists", 3)
        # onset at 4pi (beta + gamma + sqrt(gamma (2beta + gamma))) / beta^2
        assert np.isclose(dict(v.fired)["onset_gap"], FOUR_PI / 3.0 - 1.0, rtol=1e-12)

    def test_uncoupled_first_species_exists_everywhere(self):
        # alpha = beta = 0: every coefficient of the existence quadratic is
        # positive, so the conic never enters the quadrant
        v = classify(coop(0.0, 0.0, 1.0, 50.0, 30.0))
        assert (v.verdict, v.rule) == ("Exists", 3)
        assert dict(v.fired)["onset_gap"] == math.inf

    def test_fired_includes_interval_minimum(self):
        v = classify(coop(1.0, 1.0, 1.0, 22.0, 8.0))
        assert dict(v.fired)["box_min"] < 0.0
        assert dict(v.fired)["only_condition"] < 0.0

    @given(
        m1=st.floats(1e-2, 100.0),
        m2=st.floats(0.0, 100.0),
        beta=st.floats(0.0, 0.49),
        gamma=st.floats(0.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_weak_cross_coupling_decided_by_critical_mass(
        self, m1, m2, beta, gamma
    ):
        v = classify(coop(1.0, beta, gamma, m1, m2))
        gap = EIGHT_PI - m1
        if gap >= 1e-12:
            assert v.verdict == "Exists"
        elif gap <= -1e-12:
            assert v.verdict == "NotCovered"
        else:
            assert v.verdict == "Unknown"


class TestPhaseVerdict:
    def test_rejects_unknown_vocabulary(self):
        with pytest.raises(ValueError, match="verdict"):
            PhaseVerdict(point=(1.0, 1.0), verdict="Sideways", fired=(), rule=1)


@pytest.fixture(scope="module")
def conflict_sweep():
    return sweep(conflict(1.0, 2.0, 1.0), (0.0, 40.0), (0.0, 40.0), 40)


class TestSweep:
    def test_grid_shape_and_sampling(self, conflict_sweep):
        res = conflict_sweep
        assert res.verdicts.shape == (40, 40)
        assert res.m1s[0] == 1.0 and res.m1s[-1] == 40.0
        assert res.m2s[0] == 0.0 and res.m2s[-1] == 40.0

    def test_curve_keys(self, conflict_sweep):
        assert set(conflict_sweep.curves) == {
            "m1_critical",
            "m1_half_critical",
            "lambda_zero",
            "lambda1_zero",
            "strip_mass",
        }

    def test_lambda_zero_curve_sits_on_the_locus(self, conflict_sweep):
        p = conflict_sweep.params
        pts = conflict_sweep.curves["lambda_zero"]
        finite = pts[np.isfinite(pts).all(axis=1)]
        assert finite.shape[0] > 100
        lam, _, _ = lambda_values(finite[:, 0], finite[:, 1], p)
        assert np.max(np.abs(lam)) < 1e-8

    def test_lambda1_zero_curve_sits_on_the_line(self, conflict_sweep):
        p = conflict_sweep.params
        pts = conflict_sweep.curves["lambda1_zero"]
        finite = pts[np.isfinite(pts).all(axis=1)]
        vals = p.beta * finite[:, 0] - p.gamma * finite[:, 1] - FOUR_PI
        assert np.max(np.abs(vals)) < 1e-8

    def test_verdict_changes_cross_an_analytic_curve(self, conflict_sweep):
        res = conflict_sweep
        p = res.params
        strip = strip_mass(p)

        def fns(m1, m2):
            lam = lambda_values(m1, m2, p)[0]
            return (
                m1 - EIGHT_PI,
                lam,
                p.beta * m1 - p.gamma * m2 - FOUR_PI,
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
                    fa = fns(res.m1s[i], res.m2s[j])
                    fb = fns(res.m1s[ii], res.m2s[jj])
                    assert any(x * y <= 0.0 for x, y in zip(fa, fb))

    def test_radial_region_monotone_up_each_column(self, conflict_sweep):
        res = conflict_sweep
        for i in range(res.m1s.size):
            seen = False
            for j in range(res.m2s.size):
                v = res.verdicts[i, j]
                if seen:
                    assert v in ("RadiallyBounded", "Unknown")
                seen = seen or v == "RadiallyBounded"

    def test_bottom_row_matches_single_species(self, conflict_sweep):
        res = conflict_sweep
        assert res.m2s[0] == 0.0
        for i in range(res.m1s.size):
            v = res.verdicts[i, 0]
            m1 = res.m1s[i]
            if m1 < EIGHT_PI - 1e-9:
                assert v == "BoundedBelow"
            elif m1 > EIGHT_PI + 1e-9:
                assert v == "UnboundedBelow"

    @given(
        alpha=st.floats(0.0, 4.0),
        beta=st.floats(0.0, 4.0),
        gamma=st.floats(0.0, 4.0),
        theta=st.sampled_from((-1, 1)),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_cell_matches_the_point_classifier(self, alpha, beta, gamma, theta):
        p = Params(alpha=alpha, beta=beta, gamma=gamma, theta=theta, m1=1.0, m2=0.0)
        res = sweep(p, (0.0, 40.0), (0.0, 40.0), 12)
        for i, m1 in enumerate(res.m1s.tolist()):
            for j, m2 in enumerate(res.m2s.tolist()):
                v = classify(replace(p, m1=m1, m2=m2))
                assert res.verdicts[i, j] == v.verdict
                assert res.rules[i, j] == v.rule
                got = [x.hex() for x in res.lambdas[:, i, j].tolist()]
                want = [dict(v.fired)[n].hex() for n in ("lambda", "lambda1", "lambda2")]
                assert got == want

    def test_zero_width_range_gives_empty_grid(self):
        res = sweep(conflict(1.0, 2.0, 1.0), (10.0, 10.0), (0.0, 40.0), 30)
        assert res.verdicts.shape == (0, 30)
        res = sweep(conflict(1.0, 2.0, 1.0), (0.0, 40.0), (5.0, 5.0), 30)
        assert res.verdicts.shape == (30, 0)

    def test_negative_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            sweep(conflict(1.0, 2.0, 1.0), (0.0, 40.0), (0.0, 40.0), -1)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-320, 1e-310])
    @pytest.mark.parametrize("theta", [-1, 1])
    def test_subnormal_gamma_curves_are_nan_without_warnings(self, gamma, theta):
        p = Params(alpha=1.0, beta=2.0, gamma=gamma, theta=theta, m1=1.0, m2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sweep(p, (0.0, 40.0), (0.0, 40.0), 8)
        # the line Lambda1 = 0 sits at m2 beyond 1e300, out of range
        assert np.all(np.isnan(res.curves["lambda1_zero"][:, 1]))
        assert res.curves["lambda1_zero"].shape == (1024, 2)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-320, 1e-310, 1e-6])
    @pytest.mark.parametrize("theta", [-1, 1])
    def test_small_gamma_lambda_zero_rows_solve_lambda(self, gamma, theta):
        # gamma/4pi underflows to zero at 5e-324, leaving the linear root
        p = Params(alpha=1.0, beta=2.0, gamma=gamma, theta=theta, m1=1.0, m2=1.0)
        pts = sweep(p, (0.0, 40.0), (0.0, 40.0), 8).curves["lambda_zero"]
        m1, m2 = pts[np.isfinite(pts).all(axis=1)].T
        assert m1.size > 100
        lam, _, _ = lambda_values(m1, m2, p)
        assert np.all(np.abs(lam) <= 1e-12 * (1.0 + m1 + m2 * m2))
        assert not np.any((pts[:, 1] == 0.0) & np.signbit(pts[:, 1]))

    def test_cooperative_sweep_exists_only_below_critical(self):
        res = sweep(coop(1.0, 0.4, 1.0), (0.0, 40.0), (0.0, 40.0), 30)
        assert set(res.verdicts.ravel()) == {"Exists", "NotCovered"}
        rows = np.nonzero(res.verdicts == "Exists")[0]
        assert np.all(res.m1s[rows] < EIGHT_PI)


coupling = st.one_of(st.just(0.0), st.floats(0.0, 4.0))


class TestBoundaryCurves:
    @given(
        alpha=coupling,
        beta=coupling,
        gamma=st.one_of(
            st.just(0.0),
            st.sampled_from((5e-324, 1e-320, 1e-310)),
            st.floats(1e-12, 4.0),
        ),
        theta=st.sampled_from((-1, 1)),
        m1_range=st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 100.0)),
        m2_range=st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 100.0)),
        samples=st.sampled_from((1, 2, 17, 1024)),
    )
    @example(4.0, 1.0, 1.0, -1, (11.0, 3.0), (0.0, 40.0), 1024)  # disc < 0 throughout
    @example(1.0, 2.0, 5e-324, 1, (0.0, 40.0), (0.0, 40.0), 1024)
    @example(1.0, 2.0, 0.0, -1, (5.0, 35.0), (2.0, 38.0), 1024)
    @settings(max_examples=60, deadline=None)
    def test_bits_match_the_per_sample_reference(
        self, alpha, beta, gamma, theta, m1_range, m2_range, samples
    ):
        p = Params(alpha=alpha, beta=beta, gamma=gamma, theta=theta, m1=1.0, m2=1.0)
        m1_range = (m1_range[0], m1_range[0] + m1_range[1])
        m2_range = (m2_range[0], m2_range[0] + m2_range[1])
        has_strip = theta == -1 and alpha > 0.0 and beta > alpha / 2.0
        want = boundary_curves_by_sample(
            p, m1_range, m2_range, strip_mass(p) if has_strip else None, samples
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = phase._boundary_curves(p, m1_range, m2_range, samples)
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == want[name].shape, name
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_negative_discriminant_gives_nan_rows(self):
        # Lambda(m1, .) < 0 for every m2 when 11 <= m1 <= 14 at these couplings
        p = Params(alpha=4.0, beta=1.0, gamma=1.0, theta=-1, m1=1.0, m2=1.0)
        pts = phase._boundary_curves(p, (11.0, 14.0), (0.0, 40.0))["lambda_zero"]
        assert pts.shape == (2049, 2)
        assert np.all(np.isnan(pts[:, 1]))


def test_no_existence_verdict_violates_the_pohozaev_bound():
    """A steady state needs alpha m1 < 8pi + 2 beta m2 (the Pohozaev
    identity): no cell at or beyond that line may carry a verdict of
    existence or boundedness, in either convention."""
    rng = np.random.default_rng(12)
    beyond_cells = 0
    for k in range(60):
        alpha, beta, gamma = rng.uniform(0.0, 4.0, 3) * (rng.uniform(size=3) > 0.15)
        p = Params(alpha, beta, gamma, (-1, 1)[k % 2], m1=1.0, m2=0.0)
        res = sweep(p, (0.0, 150.0), (0.0, 150.0), 60)
        mm1, mm2 = np.meshgrid(res.m1s, res.m2s, indexing="ij")
        beyond = alpha * mm1 >= EIGHT_PI + 2.0 * beta * mm2
        existence = np.isin(res.verdicts, ("Exists", "BoundedBelow", "RadiallyBounded"))
        assert not np.any(beyond & existence), p
        beyond_cells += np.count_nonzero(beyond)
    assert beyond_cells > 10_000


# sha256 of the "verdict rule" lines of a 200 x 200 sweep over (0, 80] x
# [0, 80], in grid order, recorded from the point-by-point classifier that
# the array rule tables replaced (rule (4) then searched by golden section).
PINNED_GRIDS = {
    (1.0, 2.0, 0.0, -1): "8dbed3155d0a5cfb6acaaf16dd9698879f3a477d17efb3a304903776b84120c1",
    (0.5, 3.0, 2.0, -1): "d18683973e9e3ecea56c4748e12a1e5653647a295601c7f024de5a2ed69d0217",
    (0.0, 2.0, 1.0, -1): "3be8437fe8e07c138dcd21b4066d15d02813d50204bfa4b693882e24644bc0ad",
    (1.0, 2.0, 1.0, -1): "0cc683937452d0ce8904c74ae08ed83f8eee1556e27fdc05296c7a7029068a21",
    (1.0, 2.0, 0.0, 1): "0805ee58d8b635289fa64d621ec4dad1fb5fffc2330261fa758e37fa17269773",
    (0.5, 3.0, 2.0, 1): "c1f0d28c44f3f520f3ec8307e7cfc01bdad3fcbd4b02726fdf015e82af03d6ba",
    (0.0, 2.0, 1.0, 1): "5d66ccd945cf066cba3a742b06f0cb03970aac4446a0565aeda1b6b9a99f5ef4",
    (1.0, 0.4, 1.0, 1): "786bc81a0f773d2b91051683e1d50088458ac03090042058c7df5e9b79c06684",
}


@pytest.mark.parametrize("alpha, beta, gamma, theta", list(PINNED_GRIDS))
def test_verdict_grid_is_pinned(alpha, beta, gamma, theta):
    p = Params(alpha=alpha, beta=beta, gamma=gamma, theta=theta, m1=1.0, m2=0.0)
    res = sweep(p, (0.0, 80.0), (0.0, 80.0), 200)
    pairs = zip(res.verdicts.ravel().tolist(), res.rules.ravel().tolist())
    text = "\n".join(f"{v} {r}" for v, r in pairs)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_GRIDS[alpha, beta, gamma, theta]


@pytest.fixture(scope="module")
def fine():
    return make_grid(1024, kind="graded")


@pytest.fixture(scope="module")
def coarse():
    return make_grid(512)


class TestCrossValidation:
    @pytest.mark.parametrize("m1, m2", [(30.0, 1.0), (35.0, 2.0)])
    def test_unbounded_verdicts_have_negative_slopes(self, fine, m1, m2):
        p = conflict(1.0, 2.0, 0.0, m1, m2)
        assert classify(p).verdict == "UnboundedBelow"
        rho = project_density(RadialField.density(fine, 2.0 - fine.r**2), m1)
        w = inv_laplacian(
            project_density(
                RadialField.density(fine, np.exp(-3.0 * fine.r**2)), m2
            )
        )
        assert slope_estimate(BlowdownFamily(rho, w), p) < 0.0

    @pytest.mark.parametrize(
        "m1, m2, verdict",
        [
            (10.0, 5.0, "BoundedBelow"),
            (20.0, 20.0, "BoundedBelow"),
            (30.0, 4.0, "RadiallyBounded"),
        ],
    )
    def test_bounded_verdicts_admit_steady_states(self, coarse, m1, m2, verdict):
        p = conflict(1.0, 2.0, 0.0, m1, m2)
        assert classify(p).verdict == verdict
        sol = solve_pair(p, coarse)
        assert max(residual(sol, p)) < 1e-8

    @pytest.mark.parametrize("theta", [-1, 1])
    def test_blowdown_coefficient_matches_verdicts_plane_wide(self, theta):
        """No bounded or existence verdict has a negative blow-down
        coefficient, and every UnboundedBelow cell has one; at theta = -1,
        where the coefficient is Lambda if Lambda1 > 0 and Lambda2 otherwise,
        rule (2) decides exactly the cells whose critical gap and
        coefficient are both at or below -1e-12, fences included.  Random
        parameter sets, 80^2 masses in (0, 150]^2."""
        rng = np.random.default_rng([17, theta + 1])
        for _ in range(100):
            alpha, beta = rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0)
            gamma = rng.uniform(0.0, 3.0) if rng.random() < 0.5 else 0.0
            res = sweep(Params(alpha, beta, gamma, theta, 1.0, 1.0), (0, 150), (0, 150), 80)
            mm1, mm2 = np.meshgrid(res.m1s, res.m2s, indexing="ij")
            coef = blowdown_coefficients(mm1, mm2, res.params)[0]
            bounded = np.isin(res.verdicts, ["BoundedBelow", "RadiallyBounded", "Exists"])
            unbounded = res.verdicts == "UnboundedBelow"
            assert not np.any(bounded & (coef < -1e-9))
            assert np.all(coef[unbounded] < 0.0)
            if theta == -1:
                crit_gap = 8.0 * math.pi / alpha - mm1
                decided = (crit_gap <= -1e-12) & (coef <= -1e-12)
                assert np.array_equal(res.rules == 2, decided)
