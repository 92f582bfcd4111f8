import math
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import solve_banded

from conflictlab import flow, liouville
from conflictlab.calculus import integrate_disk, inv_laplacian
from conflictlab.errors import (
    DegenerateQuadraticForm,
    NegativeDensity,
    SolverDiverged,
    Stalled,
    StepRejected,
)
from conflictlab.functionals import _joint_terms, two_species_energy_rho, two_species_energy_u
from conflictlab.liouville import minimize_w, residual, solve_pair, solve_single
from conflictlab.model import (
    FlowConfig,
    Params,
    RadialField,
    make_grid,
    project_density,
)

PI = math.pi

CFG2 = FlowConfig(1.0, 0.0, 0.0, dt=1e-3, t_end=0.5)
CFG_FULL = FlowConfig(1.0, 1.0, 0.0, dt=1e-3, t_end=0.5)
CFG_POT = FlowConfig(0.0, 0.0, 1.0, dt=0.05, t_end=200.0)


def bump_density(grid, mass, width=4.0):
    f = RadialField.from_function(grid, lambda r: np.exp(-width * r**2), kind="density")
    return project_density(f, mass)


def assert_virial_bound(s, p, step):
    """After each of 400 steps of 2^-12 from s, the second moment of rho1 is
    within the virial bound d/dt int |x|^2 rho1 <= m1 (4 - alpha m1 / 2 pi
    + beta m2 / pi), which holds subcritical or not."""
    grid = s.rho1.grid
    moment = lambda s: np.sum(grid.weights * grid.r**2 * s.rho1.values)
    start = moment(s)
    rate = p.m1 * (4.0 - p.alpha * p.m1 / (2.0 * PI) + p.beta * p.m2 / PI)
    for _ in range(400):
        s = step(s, p, 2.0**-12)
        assert moment(s) <= start + s.t * rate


def uniform_density(grid, mass):
    return RadialField.density(grid, np.full_like(grid.r, mass / PI))


def zero_potential(grid):
    return RadialField.potential(grid, np.zeros_like(grid.r))


class TestBernoulli:
    def test_at_zero_and_symmetry(self):
        x = np.array([0.0, 1e-9, -1e-9, 0.3, -0.3, 30.0, -30.0])
        b = flow._bernoulli(x)
        assert b[0] == 1.0
        np.testing.assert_allclose(b / flow._bernoulli(-x), np.exp(-x), rtol=1e-12)

    def test_extreme_arguments_stay_finite(self):
        b = flow._bernoulli(np.array([800.0, -800.0]))
        assert b[0] == 0.0
        assert np.isclose(b[1], 800.0)

    def test_bits_match_masked_reference(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([
            [0.0, -0.0, 1e-5, -1e-5, 1e-300, 709.0, 710.0, -745.0, 1e200],
            rng.standard_normal(501) * 10.0 ** rng.uniform(-8, 3, 501),
        ]).reshape(2, -1)
        want = np.empty_like(x)
        small = np.abs(x) < 1e-5
        xs = x[small]
        want[small] = 1.0 - 0.5 * xs + xs * xs / 12.0
        with np.errstate(over="ignore"):
            want[~small] = x[~small] / np.expm1(x[~small])
        assert flow._bernoulli(x).tobytes() == want.tobytes()


class TestSolveTridiag:
    @staticmethod
    def system(k, seed):
        rng = np.random.default_rng([k, seed])
        ab = rng.uniform(-1.0, 1.0, (3, k)) * 10.0 ** rng.uniform(-3, 3)
        ab[1] = np.abs(ab[0]) + np.abs(ab[2]) + rng.uniform(0.1, 2.0, k)
        ab[1] *= rng.choice([-1.0, 1.0])
        return ab, rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 9, 33, 64, 257, 1000, 4096, 4097])
    def test_bits_match_solve_banded(self, k):
        for seed in range(4):
            ab, b = self.system(k, seed)
            want = solve_banded((1, 1), ab, b)
            got = flow._solve_tridiag(ab, b)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [2, 9, 257, 4097])
    def test_two_columns_match_solve_banded(self, k):
        for seed in range(4):
            ab, b = self.system(k, seed)
            b = np.column_stack([b, self.system(k, seed + 10)[1]])
            want = solve_banded((1, 1), ab, b)
            got = flow._solve_tridiag(ab, b)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [2, 9, 257, 4097])
    def test_block_with_zero_junction_matches_solve_banded(self, k):
        for seed in range(4):
            (ab1, b1), (ab2, b2) = self.system(k, seed), self.system(k + 3, seed + 10)
            ab = np.concatenate([ab1, ab2], axis=1)
            ab[0, k] = 0.0
            ab[2, k - 1] = 0.0
            b = np.concatenate([b1, b2])
            want = solve_banded((1, 1), ab, b)
            assert flow._solve_tridiag(ab, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("row", [0, 4, 8])
    def test_singular_matrix_raises_lin_alg_error(self, row):
        ab, b = self.system(9, 1)
        ab[1, row] = 0.0
        ab[0, row] = 0.0
        if row + 1 < 9:
            ab[0, row + 1] = 0.0
        ab[2, row] = 0.0
        if row > 0:
            ab[2, row - 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            solve_banded((1, 1), ab, b)
        with pytest.raises(np.linalg.LinAlgError):
            flow._solve_tridiag(ab, b)

    def test_bits_match_solve_banded_imported_after(self, tmp_path):
        # This module imports scipy.linalg first; a fresh interpreter sees
        # the CLI's order: the solver loads LAPACK, then scipy.linalg comes.
        ab, b = self.system(4097, 0)
        np.savez(tmp_path / "system.npz", ab=ab, b=np.column_stack([b, self.system(4097, 10)[1]]))
        code = (
            "import sys, numpy as np\n"
            "from conflictlab.calculus import _solve_tridiag\n"
            "s = np.load(sys.argv[1])\n"
            "ab, bs = s['ab'], (s['b'][:, 0], s['b'])\n"
            "got = [_solve_tridiag(ab, b) for b in bs]\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "from scipy.linalg import solve_banded\n"
            "want = [solve_banded((1, 1), ab, b) for b in bs]\n"
            "assert [g.tobytes() for g in got] == [w.tobytes() for w in want]\n"
            "assert scipy.linalg._flapack is sys.modules['scipy.linalg._flapack']\n"
            "want = [scipy.linalg._flapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3] for b in bs]\n"
            "assert [g.tobytes() for g in got] == [w.tobytes() for w in want]\n"
        )
        result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "system.npz")],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_fine_steps_do_not_fault_the_heap():
    """Once the solver has loaded, a 4096-cell step reuses its heap pages:
    glibc's trim threshold stays above the step's temporaries, so it does
    not give the heap top back at each free and fault it in again."""
    code = (
        "import resource, numpy as np\n"
        "from conflictlab import flow, model\n"
        "g = model.make_grid(4096)\n"
        "p = model.Params(1.0, 2.0, 1.0, -1, 10.0, 4.0)\n"
        "cfg = model.FlowConfig(1.0, 0.0, 0.0, dt=2.0**-11, t_end=1.0, adapt=False)\n"
        "rho = model.project_density(model.RadialField.density(g, np.exp(-2 * g.r**2)), 10.0)\n"
        "s = flow.initial_state(p, cfg, rho1=rho)\n"
        "for _ in range(5):\n"
        "    s = flow.step_single_density(s, p, cfg.dt)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(40):\n"
        "    s = flow.step_single_density(s, p, cfg.dt)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) <= 2 * 40


def isolated(s):
    """The same state holding its own copy of the trace rows."""
    rows = flow.trace_rows(s)
    return flow.FlowState(s.t, s.rho1, s.u1, s.u2, s.rho2, flow._Trace(rows), len(rows))


def same_state(a, b):
    assert a.t == b.t
    assert flow.trace_rows(a).tobytes() == flow.trace_rows(b).tobytes()
    for name in ("rho1", "u1", "u2", "rho2"):
        fa, fb = getattr(a, name), getattr(b, name)
        assert (fa is None) == (fb is None)
        if fa is not None:
            assert fa.values.tobytes() == fb.values.tobytes()


class TestTraceSharing:
    # theta = -1 with beta^2 > alpha*gamma: neither the pair nor the
    # potential regime enforces its energy, so each can step the other's state.
    P = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=6.0, m2=3.0)

    @pytest.fixture
    def parent(self):
        g = make_grid(64)
        s = flow.initial_state(
            self.P, CFG_FULL, rho1=bump_density(g, 6.0), rho2=bump_density(g, 3.0, width=1.0)
        )
        for _ in range(5):
            s = flow.step_two_densities(s, self.P, 1e-3)
        return s

    @pytest.mark.parametrize(
        "first, second",
        [
            (("step_two_densities", 1e-3), ("step_two_densities", 3e-3)),
            (("step_two_densities", 1e-3), ("step_potentials", 1e-3)),
            (("step_potentials", 2e-3), ("step_two_densities", 2e-3)),
        ],
    )
    def test_sibling_steps_keep_their_own_rows(self, parent, first, second):
        before = flow.trace_rows(parent)
        children = [getattr(flow, name)(parent, self.P, dt) for name, dt in (first, second)]
        grandchild = flow.step_two_densities(children[0], self.P, 1e-3)
        for (name, dt), child in zip((first, second), children):
            rows = flow.trace_rows(child)
            assert rows.shape == (len(before) + 1, 5)
            assert rows[:-1].tobytes() == before.tobytes()
            same_state(child, getattr(flow, name)(isolated(parent), self.P, dt))
        same_state(grandchild, flow.step_two_densities(isolated(children[0]), self.P, 1e-3))
        assert flow.trace_rows(parent).tobytes() == before.tobytes()
        assert parent.mass_trace.shape == (len(before), 3)

    def test_traces_are_read_only_views_of_the_rows(self, parent):
        rows = flow.trace_rows(parent)
        np.testing.assert_array_equal(parent.energy_trace, rows[:, [0, 3]])
        np.testing.assert_array_equal(parent.mass_trace, rows[:, :3])
        np.testing.assert_array_equal(parent.sup_trace, rows[:, [0, 4]])
        for trace in (parent.energy_trace, parent.mass_trace, parent.sup_trace):
            with pytest.raises(ValueError):
                trace[0, 1] = 0.0

    def test_rejected_children_leave_no_rows(self, monkeypatch):
        g = make_grid(64)
        p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=10.0, m2=5.0)
        cfg = FlowConfig(1.0, 0.0, 0.0, dt=1e-3, t_end=0.03, adapt=True)
        start = flow.initial_state(p, cfg, rho1=bump_density(g, 10.0))
        real = flow.step_single_density

        def run(build_first):
            calls = []

            def flaky(s, p, dt):
                calls.append(dt)
                child = real(s, p, dt) if build_first else None
                if len(calls) in (3, 7, 8):
                    raise StepRejected("forced")
                return child or real(s, p, dt)

            monkeypatch.setitem(flow._STEPPERS, (1.0, 0.0, 0.0), flaky)
            return flow.run_flow(start, p, cfg), len(calls)

        built, attempts = run(build_first=True)
        clean, _ = run(build_first=False)
        same_state(built, clean)
        accepted = len(built.mass_trace) - 1
        assert attempts == accepted + 3
        assert np.all(np.diff(built.energy_trace[:, 0]) > 0)
        assert len(start.mass_trace) == 1


class TestInitialState:
    def test_single_density_regime_seeds_traces(self, g256):
        p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=9.0, m2=3.0)
        s = flow.initial_state(p, CFG2, rho1=bump_density(g256, 9.0))
        assert s.t == 0.0
        assert s.energy_trace.shape == (1, 2)
        assert s.mass_trace.shape == (1, 3)
        assert s.sup_trace.shape == (1, 2)
        assert np.isclose(s.mass_trace[0, 1], 9.0, rtol=1e-12)
        assert np.isclose(integrate_disk(s.rho2), 3.0, rtol=1e-12)

    def test_gamma_zero_gives_flat_chemical_potential(self, g256):
        p = Params(alpha=1.0, beta=1.0, gamma=0.0, theta=-1, m1=9.0, m2=3.0)
        s = flow.initial_state(p, CFG2, rho1=bump_density(g256, 9.0))
        assert np.all(s.u2.values == 0.0)

    def test_potential_regime_induces_densities(self, g256):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=6.0, m2=2.0)
        u1 = RadialField.potential(g256, 0.3 * (1.0 - g256.r**2))
        s = flow.initial_state(p, CFG_POT, u1=u1, u2=zero_potential(g256))
        assert np.isclose(integrate_disk(s.rho1), 6.0, rtol=1e-12)
        assert np.isclose(integrate_disk(s.rho2), 2.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "cfg, kwargs",
        [
            (CFG2, {}),
            (CFG2, {"rho1": "rho", "rho2": "rho"}),
            (CFG_FULL, {"rho1": "rho"}),
            (CFG_FULL, {"rho1": "rho", "u1": "u"}),
            (CFG_POT, {"u1": "u"}),
            (CFG_POT, {"u1": "u", "u2": "u", "rho1": "rho"}),
        ],
    )
    def test_rejects_wrong_field_combinations(self, g256, cfg, kwargs):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=6.0, m2=2.0)
        fields = {"rho": bump_density(g256, 6.0), "u": zero_potential(g256)}
        with pytest.raises(ValueError):
            flow.initial_state(p, cfg, **{k: fields[v] for k, v in kwargs.items()})

    def test_state_rejects_mistagged_fields(self, g256):
        rho = bump_density(g256, 5.0)
        u = zero_potential(g256)
        with pytest.raises(ValueError):
            flow.FlowState(t=0.0, rho1=u, u1=u, u2=u)
        with pytest.raises(ValueError):
            flow.FlowState(t=0.0, rho1=rho, u1=rho, u2=u)
        with pytest.raises(ValueError):
            flow.FlowState(t=0.0, rho1=rho, u1=u, u2=u, rho2=u)
        with pytest.raises(ValueError):
            flow.FlowState(t=0.0, rho1=rho, u1=u, u2=u, rho2=RadialField(g256, -rho.values))

    def test_state_rejects_mixed_grids(self, g256):
        other = make_grid(128)
        with pytest.raises(ValueError):
            flow.FlowState(
                t=0.0,
                rho1=bump_density(g256, 5.0),
                u1=zero_potential(other),
                u2=zero_potential(other),
            )


class TestHandBuiltState:
    """A state built with the FlowState constructor has no trace row, so
    stepping it names initial_state instead of failing on the empty trace."""

    P = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=5.0)

    @pytest.fixture
    def state(self, g256):
        rho, u = bump_density(g256, 5.0), zero_potential(g256)
        return flow.FlowState(t=0.0, rho1=rho, u1=u, u2=u, rho2=rho)

    @pytest.mark.parametrize(
        "name", ["step_single_density", "step_two_densities", "step_potentials"]
    )
    def test_steppers_name_initial_state(self, state, name):
        with pytest.raises(ValueError, match="initial_state"):
            getattr(flow, name)(state, self.P, 1e-3)

    @pytest.mark.parametrize("cfg", [CFG2, CFG_FULL, CFG_POT])
    def test_run_flow_names_initial_state(self, state, cfg):
        with pytest.raises(ValueError, match="initial_state"):
            flow.run_flow(state, self.P, cfg)

    def test_fields_are_rows_of_one_checked_copy(self, state):
        for row, name in zip(state._stack, ("rho1", "u1", "u2", "rho2")):
            assert getattr(state, name).values.base is state._stack
            assert getattr(state, name).values.tobytes() == row.tobytes()

    @pytest.mark.parametrize("row, col", [(0, 3), (3, 0), (1, -1), (2, -1)])
    def test_new_stacks_are_checked_once(self, state, row, col):
        stack = state._stack.copy()
        stack[row, col] = -1e-300 if row in (0, 3) else 1e-300
        with pytest.raises(NegativeDensity if row in (0, 3) else ValueError):
            flow._advanced(state.rho1.grid, 0.0, flow._Trace(), 0, stack, 0.0)


class TestNonFiniteStates:
    """Every state passes one finiteness check, so a NaN or an infinity
    that reaches a field raises ValueError instead of flowing on."""

    P = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=3.0)

    @staticmethod
    def fields(grid):
        return {
            "rho1": bump_density(grid, 5.0),
            "rho2": bump_density(grid, 3.0),
            "u1": RadialField.potential(grid, 0.3 * (1.0 - grid.r**2)),
            "u2": RadialField.potential(grid, 0.1 * (1.0 - grid.r**2)),
        }

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["rho1", "u1", "u2", "rho2"])
    def test_state_rejects_non_finite_field(self, g256, name, bad):
        fields = self.fields(g256)
        fields[name].values[5] = bad  # after the field's own check
        with pytest.raises(ValueError, match="finite"):
            flow.FlowState(t=0.0, **fields)

    @pytest.mark.parametrize(
        "cfg, names",
        [(CFG2, ("rho1",)), (CFG_FULL, ("rho1", "rho2")), (CFG_POT, ("u1", "u2"))],
        ids=["single", "pair", "potentials"],
    )
    def test_initial_state_rejects_non_finite_field(self, g256, cfg, names):
        fields = self.fields(g256)
        fields[names[-1]].values[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            flow.initial_state(self.P, cfg, **{n: fields[n] for n in names})

    @pytest.mark.parametrize(
        "cfg, names",
        [(CFG2, ("rho1",)), (CFG_FULL, ("rho1", "rho2")), (CFG_POT, ("u1", "u2"))],
        ids=["single", "pair", "potentials"],
    )
    def test_step_with_nan_solve_raises(self, keeps_no_arrays, monkeypatch, cfg, names):
        # and the failure, held, keeps none of the step's arrays
        def setup(grid):
            fields = self.fields(grid)
            s = flow.initial_state(self.P, cfg, **{n: fields[n] for n in names})
            return flow._STEPPERS[cfg.delta1, cfg.delta2, cfg.epsilon], s, self.P, cfg.dt

        monkeypatch.setattr(flow, "_solve_tridiag", lambda ab, b: np.full(b.shape, np.nan))
        for err in keeps_no_arrays(setup, ValueError):
            assert "finite" in str(err)


class TestPotentialSources:
    """step_potentials reuses the densities stored by the potential regime
    under equal Params and recomputes them for any other state."""

    P = Params(alpha=2.0, beta=1.0, gamma=1.0, theta=-1, m1=6.0, m2=2.0)

    def start(self, grid):
        u1 = RadialField.potential(grid, 0.3 * (1.0 - grid.r**2))
        return flow.initial_state(self.P, CFG_POT, u1=u1, u2=zero_potential(grid))

    @staticmethod
    def counted_densities(monkeypatch):
        calls = []
        real = flow._densities

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(flow, "_densities", counted)
        return calls

    def test_reused_sources_equal_recomputed(self, g256):
        s = self.start(g256)
        for _ in range(5):
            reused = flow.step_potentials(s, self.P, 0.01)
            same_state(reused, flow.step_potentials(isolated(s), self.P, 0.01))
            s = reused

    def test_equal_params_reuse_the_stored_densities(self, g256, monkeypatch):
        s = self.start(g256)
        calls = self.counted_densities(monkeypatch)
        flow.step_potentials(s, replace(self.P), 0.01)
        assert len(calls) == 1  # the new state's densities only

    @pytest.mark.parametrize(
        "changes", [{"m1": 6.5}, {"m2": 0.0}, {"beta": 1.5}, {"gamma": 0.75}, {"alpha": 2.5}]
    )
    def test_other_params_recompute(self, g256, monkeypatch, changes):
        s = self.start(g256)
        other = replace(self.P, **changes)
        calls = self.counted_densities(monkeypatch)
        got = flow.step_potentials(s, other, 0.01)
        assert len(calls) == 2
        same_state(got, flow.step_potentials(isolated(s), other, 0.01))

    def test_other_regime_recomputes(self, monkeypatch):
        g = make_grid(64)
        p = TestTraceSharing.P
        s = flow.initial_state(
            p, CFG_FULL, rho1=bump_density(g, 6.0), rho2=bump_density(g, 3.0, width=1.0)
        )
        calls = self.counted_densities(monkeypatch)
        s = flow.step_potentials(s, p, 1e-3)
        assert len(calls) == 2
        flow.step_potentials(s, p, 1e-3)
        assert len(calls) == 3


class TestSingleDensityStep:
    def test_uniform_no_coupling_is_stationary(self, g256):
        p = Params(alpha=0.0, beta=0.0, gamma=1.0, theta=-1, m1=2.0, m2=1.0)
        s0 = flow.initial_state(p, CFG2, rho1=uniform_density(g256, 2.0))
        s1 = flow.step_single_density(s0, p, 0.05)
        assert np.max(np.abs(s1.rho1.values - s0.rho1.values)) < 1e-12
        assert abs(s1.mass_trace[-1, 1] - 2.0) < 1e-12

    def test_pair_solution_is_a_fixed_point(self, g256):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=8.0, m2=4.0)
        sol = solve_pair(p, g256)
        e = np.exp(p.alpha * sol.u1.values - p.beta * sol.u2.values)
        rho = RadialField.density(
            g256, p.m1 * e / integrate_disk(RadialField(g256, e))
        )
        s = flow.initial_state(p, CFG2, rho1=rho)
        f0 = s.energy_trace[-1, 1]
        for _ in range(50):
            s = flow.step_single_density(s, p, 0.01)
        assert np.max(np.abs(s.rho1.values - rho.values)) < 1e-9
        assert np.max(np.abs(s.u1.values - sol.u1.values)) < 1e-9
        assert abs(s.energy_trace[-1, 1] - f0) < 1e-10

    def test_energy_never_rises_beyond_slack(self, g256):
        p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=10.0, m2=5.0)
        end = flow.run_flow(flow.initial_state(p, CFG2, rho1=bump_density(g256, 10.0)), p, CFG2)
        e = end.energy_trace[:, 1]
        assert np.all(np.diff(e) <= 1e-10 * np.maximum(1.0, np.abs(e[:-1])))

    def test_mass_conserved_and_positive_along_run(self, g256):
        p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=10.0, m2=5.0)
        end = flow.run_flow(flow.initial_state(p, CFG2, rho1=bump_density(g256, 10.0)), p, CFG2)
        m1s = end.mass_trace[:, 1]
        assert np.max(np.abs(m1s - m1s[0])) / m1s[0] < 1e-12
        assert end.rho1.values.min() >= 0.0

    def test_frozen_terminal_energy(self, g256):
        p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=10.0, m2=5.0)
        end = flow.run_flow(flow.initial_state(p, CFG2, rho1=bump_density(g256, 10.0)), p, CFG2)
        assert end.t == 0.5
        assert np.isclose(end.energy_trace[-1, 1], 19.036937783402205, rtol=1e-9)
        assert np.isclose(np.max(end.rho1.values), 3.4140065674838502, rtol=1e-9)


    @pytest.mark.parametrize("m1, m2, beta", [(10, 0, 0), (30, 0, 0), (40, 0, 0), (30, 1, 2), (10, 4, 2)])
    def test_second_moment_obeys_the_virial_bound(self, g256, m1, m2, beta):
        p = Params(alpha=1.0, beta=beta, gamma=1.0, theta=-1, m1=m1, m2=m2)
        s = flow.initial_state(p, CFG2, rho1=bump_density(g256, m1, width=2.0))
        assert_virial_bound(s, p, flow.step_single_density)


class TestTwoDensityStep:
    @pytest.mark.parametrize(
        "m1, m2, beta, theta",
        [(10, 4, 0.5, -1), (10, 4, 0.5, 1), (30, 1, 2, -1), (30, 1, 2, 1), (20, 8, 2, -1)],
    )
    def test_second_moment_obeys_the_virial_bound(self, g256, m1, m2, beta, theta):
        p = Params(alpha=1.0, beta=beta, gamma=1.0, theta=theta, m1=m1, m2=m2)
        s = flow.initial_state(
            p, CFG_FULL,
            rho1=bump_density(g256, m1, width=2.0), rho2=bump_density(g256, m2, width=1.0),
        )
        assert_virial_bound(s, p, flow.step_two_densities)

    def test_requires_second_density(self, g256):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=1, m1=6.0, m2=4.0)
        s = flow.FlowState(
            t=0.0,
            rho1=bump_density(g256, 6.0),
            u1=zero_potential(g256),
            u2=zero_potential(g256),
        )
        with pytest.raises(ValueError, match="rho2"):
            flow.step_two_densities(s, p, 1e-3)

    def test_cooperative_energy_monotone(self, g256):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=1, m1=6.0, m2=4.0)
        s = flow.initial_state(
            p,
            CFG_FULL,
            rho1=bump_density(g256, 6.0),
            rho2=project_density(
                RadialField.from_function(g256, lambda r: 2.0 - r**2, kind="density"), 4.0
            ),
        )
        end = flow.run_flow(s, p, CFG_FULL)
        e = end.energy_trace[:, 1]
        assert np.all(np.diff(e) <= 1e-10 * np.maximum(1.0, np.abs(e[:-1])))
        m = end.mass_trace
        assert np.max(np.abs(m[:, 1] - 6.0)) < 6e-12
        assert np.max(np.abs(m[:, 2] - 4.0)) < 4e-12

    def test_conflict_case_steps_without_enforcement(self, g256):
        p = Params(alpha=0.5, beta=2.0, gamma=0.5, theta=-1, m1=6.0, m2=4.0)
        s = flow.initial_state(
            p, CFG_FULL, rho1=bump_density(g256, 6.0), rho2=uniform_density(g256, 4.0)
        )
        for _ in range(20):
            s = flow.step_two_densities(s, p, 1e-3)
        assert s.t > 0.019
        assert np.isclose(s.mass_trace[-1, 1], 6.0, rtol=1e-12)


class TestPotentialStep:
    def test_degenerate_form_warns_and_proceeds(self, g256):
        p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=4.0, m2=2.0)
        s = flow.initial_state(p, CFG_POT, u1=zero_potential(g256), u2=zero_potential(g256))
        with pytest.warns(DegenerateQuadraticForm):
            s = flow.step_potentials(s, p, 0.01)
        assert s.t == 0.01

    def test_definite_form_does_not_warn(self, g256):
        p = Params(alpha=2.0, beta=1.0, gamma=1.0, theta=-1, m1=4.0, m2=2.0)
        s = flow.initial_state(p, CFG_POT, u1=zero_potential(g256), u2=zero_potential(g256))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateQuadraticForm)
            flow.step_potentials(s, p, 0.01)

    def test_wall_values_stay_zero(self, g256):
        p = Params(alpha=2.0, beta=1.0, gamma=1.0, theta=-1, m1=4.0, m2=2.0)
        u1 = RadialField.potential(g256, 0.5 * (1.0 - g256.r**2))
        s = flow.initial_state(p, CFG_POT, u1=u1, u2=zero_potential(g256))
        for _ in range(5):
            s = flow.step_potentials(s, p, 0.1)
        assert s.u1.values[-1] == 0.0
        assert s.u2.values[-1] == 0.0

    def test_sourceless_potential_decays(self, g256):
        p = Params(alpha=1.0, beta=0.0, gamma=1.0, theta=-1, m1=4.0 * PI, m2=0.0)
        cfg = FlowConfig(0.0, 0.0, 1.0, dt=0.05, t_end=3.0, adapt=False)
        u2 = RadialField.potential(g256, 0.2 * (1.0 - g256.r**2) ** 2)
        s = flow.initial_state(p, cfg, u1=zero_potential(g256), u2=u2)
        end = flow.run_flow(s, p, cfg)
        assert np.max(np.abs(end.u2.values)) < 1e-6

    def test_decoupled_flow_reaches_single_species_solution(self, g256):
        p = Params(alpha=1.0, beta=0.0, gamma=1.0, theta=-1, m1=4.0 * PI, m2=0.0)
        s = flow.initial_state(p, CFG_POT, u1=zero_potential(g256), u2=zero_potential(g256))
        end = flow.run_flow(s, p, CFG_POT)
        ref = solve_single(4.0 * PI, 1.0, g256)
        assert np.max(np.abs(end.u1.values - ref.u1.values)) < 1e-8
        r1, r2 = residual(flow.steady_solution(end, p), p)
        assert r1 < 1e-7 and r2 == 0.0

    def test_enforced_conflict_energy_monotone(self, g256):
        p = Params(alpha=2.0, beta=1.0, gamma=1.0, theta=-1, m1=10.0, m2=4.0)
        u1 = RadialField.potential(g256, 0.3 * (1.0 - g256.r**2))
        cfg = FlowConfig(0.0, 0.0, 1.0, dt=1e-3, t_end=0.3, adapt=False)
        s = flow.initial_state(p, cfg, u1=u1, u2=zero_potential(g256))
        end = flow.run_flow(s, p, cfg)
        e = end.energy_trace[:, 1]
        assert np.all(np.diff(e) <= 1e-10 * np.maximum(1.0, np.abs(e[:-1])))


class TestSharedEvaluation:
    """A step derives its energy from the values it already holds; the
    public functionals of the new state must give the same bits."""

    @pytest.mark.parametrize("theta", [-1, 1])
    def test_single_energy_is_the_joint_terms_sum(self, theta):
        g = make_grid(64)
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=theta, m1=8.0, m2=4.0)
        s = flow.initial_state(p, CFG2, rho1=bump_density(g, 8.0))
        for _ in range(4):
            ent, pairing, dirichlet, log_z = _joint_terms(s.rho1, s.u2, s.u1, p)
            expect = ent + 0.5 * p.alpha * pairing - p.theta * (
                0.5 * p.gamma * dirichlet + p.m2 * log_z
            )
            assert s.energy_trace[-1, 1] == expect
            s = flow.step_single_density(s, p, 1e-3)

    @pytest.mark.parametrize("theta", [-1, 1])
    def test_pair_energy_is_the_public_functional(self, theta):
        g = make_grid(64)
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=theta, m1=8.0, m2=4.0)
        s = flow.initial_state(
            p, CFG_FULL, rho1=bump_density(g, 8.0), rho2=bump_density(g, 4.0, width=1.0)
        )
        for _ in range(4):
            assert s.energy_trace[-1, 1] == two_species_energy_rho(s.rho1, s.rho2, p).total
            s = flow.step_two_densities(s, p, 1e-3)

    @pytest.mark.parametrize("theta, m2", [(-1, 4.0), (1, 4.0), (-1, 0.0)])
    def test_potential_energy_is_the_public_functional(self, theta, m2):
        g = make_grid(64)
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=theta, m1=8.0, m2=m2)
        u1 = RadialField.potential(g, 0.3 * (1.0 - g.r**2))
        s = flow.initial_state(p, CFG_POT, u1=u1, u2=zero_potential(g))
        for _ in range(4):
            assert s.energy_trace[-1, 1] == two_species_energy_u(s.u1, s.u2, p).total
            s = flow.step_potentials(s, p, 0.01)


class TestRunFlow:
    def test_detects_steady_state_early(self, g256):
        p = Params(alpha=1.0, beta=0.0, gamma=1.0, theta=-1, m1=4.0 * PI, m2=0.0)
        s = flow.initial_state(p, CFG_POT, u1=zero_potential(g256), u2=zero_potential(g256))
        end = flow.run_flow(s, p, CFG_POT)
        assert end.t < CFG_POT.t_end
        assert len(end.mass_trace) < 200

    def test_fixed_step_grid_without_adapt(self, g256):
        p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=9.0, m2=3.0)
        cfg = FlowConfig(1.0, 0.0, 0.0, dt=0.01, t_end=0.05, adapt=False)
        end = flow.run_flow(flow.initial_state(p, cfg, rho1=bump_density(g256, 9.0)), p, cfg)
        np.testing.assert_allclose(np.diff(end.mass_trace[:, 0]), 0.01, rtol=1e-12)
        assert np.isclose(end.t, 0.05, rtol=1e-12)

    def test_stalls_when_every_step_is_rejected(self, g256, monkeypatch):
        def always_reject(s, p, dt):
            raise StepRejected("forced")

        monkeypatch.setitem(flow._STEPPERS, (1.0, 0.0, 0.0), always_reject)
        p = Params(alpha=0.0, beta=0.0, gamma=1.0, theta=-1, m1=2.0, m2=1.0)
        s = flow.initial_state(p, CFG2, rho1=uniform_density(g256, 2.0))
        with pytest.raises(Stalled):
            flow.run_flow(s, p, CFG2)

    def test_rejection_propagates_without_adapt(self, g256, monkeypatch):
        def always_reject(s, p, dt):
            raise StepRejected("forced")

        monkeypatch.setitem(flow._STEPPERS, (1.0, 0.0, 0.0), always_reject)
        p = Params(alpha=0.0, beta=0.0, gamma=1.0, theta=-1, m1=2.0, m2=1.0)
        cfg = FlowConfig(1.0, 0.0, 0.0, dt=0.01, t_end=0.05, adapt=False)
        s = flow.initial_state(p, cfg, rho1=uniform_density(g256, 2.0))
        with pytest.raises(StepRejected):
            flow.run_flow(s, p, cfg)

    def test_trace_rows_layout(self, g256):
        p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=9.0, m2=3.0)
        cfg = FlowConfig(1.0, 0.0, 0.0, dt=0.01, t_end=0.05, adapt=False)
        end = flow.run_flow(flow.initial_state(p, cfg, rho1=bump_density(g256, 9.0)), p, cfg)
        rows = flow.trace_rows(end)
        assert rows.shape == (len(end.mass_trace), 5)
        assert np.all(np.diff(rows[:, 0]) > 0)
        np.testing.assert_array_equal(rows[:, 3], end.energy_trace[:, 1])
        assert rows[-1, 4] == np.max(end.rho1.values)


class TestFailuresKeepNoArrays:
    """A failure that leaves initial_state or run_flow holds no array of the
    flow: its frames are cleared, those along a Stalled run's cause
    included.  TestNonFiniteStates holds the steps to the same."""

    P = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=10.0, m2=4.0)
    FIXED = FlowConfig(1.0, 0.0, 0.0, dt=1e-3, t_end=0.01, adapt=False)

    def run(self, cfg):
        """setup(grid): run_flow and its arguments, from a bump on grid."""

        def setup(grid):
            return flow.run_flow, flow.initial_state(self.P, cfg, bump_density(grid, 10.0)), self.P, cfg

        return setup

    @staticmethod
    def nan_solves(monkeypatch, module):
        monkeypatch.setattr(module, "_solve_tridiag", lambda ab, b: np.full(b.shape, np.nan))

    @staticmethod
    def reject_after_two_steps(monkeypatch):
        """Each step runs, and from the third on is then rejected, so the
        failure leaves run_flow with accepted states in its frames."""

        def step(s, p, dt):
            new = flow.step_single_density(s, p, dt)
            if s._rows > 2:
                raise StepRejected(f"forced at t = {s.t:.6g}")
            return new

        monkeypatch.setitem(flow._STEPPERS, (1.0, 0.0, 0.0), step)

    def test_initial_state_with_nan_solve(self, keeps_no_arrays, monkeypatch):
        self.nan_solves(monkeypatch, liouville)  # the chemical Newton solve's
        setup = lambda grid: (flow.initial_state, self.P, self.FIXED, bump_density(grid, 10.0))
        for err in keeps_no_arrays(setup, SolverDiverged):
            assert re.search(r"residual \d\.\d{3}e\+00 .* Newton step 1$", str(err))

    def test_run_with_nan_solve(self, keeps_no_arrays, monkeypatch):
        self.nan_solves(monkeypatch, flow)  # the steps', not initial_state's
        for err in keeps_no_arrays(self.run(self.FIXED), ValueError):
            assert "finite" in str(err)

    def test_step_rejected_without_adapt(self, keeps_no_arrays, monkeypatch):
        self.reject_after_two_steps(monkeypatch)
        for err in keeps_no_arrays(self.run(self.FIXED), StepRejected):
            assert str(err) == "forced at t = 0.002"

    def test_stalled(self, keeps_no_arrays, monkeypatch):
        self.reject_after_two_steps(monkeypatch)
        for err in keeps_no_arrays(self.run(replace(self.FIXED, adapt=True)), Stalled):
            assert str(err) == "dt underflow at t = 0.0022: forced at t = 0.0022"
            assert isinstance(err.__cause__, StepRejected)


class TestSteadySolution:
    def test_residual_small_at_fixed_point(self, g256):
        p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=9.0, m2=3.0)
        cfg = FlowConfig(1.0, 0.0, 0.0, dt=0.01, t_end=100.0)
        end = flow.run_flow(flow.initial_state(p, cfg, rho1=bump_density(g256, 9.0)), p, cfg)
        r1, r2 = residual(flow.steady_solution(end, p), p)
        assert r1 < 1e-8
        assert r2 < 1e-8

    def test_residual_honest_away_from_fixed_point(self, g256):
        p = Params(alpha=1.0, beta=0.0, gamma=1.0, theta=-1, m1=4.0 * PI, m2=0.0)
        s = flow.initial_state(p, CFG_POT, u1=zero_potential(g256), u2=zero_potential(g256))
        r1, _ = residual(flow.steady_solution(s, p), p)
        assert r1 > 0.1

    def test_multipliers_positive_at_fixed_point(self, g256):
        p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=9.0, m2=3.0)
        cfg = FlowConfig(1.0, 0.0, 0.0, dt=0.01, t_end=100.0)
        end = flow.run_flow(flow.initial_state(p, cfg, rho1=bump_density(g256, 9.0)), p, cfg)
        lam1, lam2 = flow.steady_solution(end, p).multipliers
        assert lam1 > 0 and lam2 > 0


class TestWarmStart:
    def test_matches_cold_start(self, g256):
        p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=10.0, m2=5.0)
        rho = bump_density(g256, 10.0, width=3.0)
        cold = minimize_w(rho, p, g256)
        warm = minimize_w(rho, p, g256, w0=cold)
        assert np.max(np.abs(cold.values - warm.values)) < 1e-9

    def test_rejects_foreign_grid_seed(self, g256):
        from conflictlab.errors import GridMismatch

        p = Params(alpha=1.0, beta=2.0, gamma=1.0, theta=-1, m1=10.0, m2=5.0)
        rho = bump_density(g256, 10.0)
        w0 = zero_potential(make_grid(128))
        with pytest.raises(GridMismatch):
            minimize_w(rho, p, g256, w0=w0)


@settings(max_examples=25, deadline=None)
@given(
    mass=st.floats(1.0, 20.0),
    amp=st.floats(-0.5, 0.5),
    mode=st.integers(1, 3),
)
def test_step_preserves_mass_and_positivity(mass, amp, mode):
    grid = make_grid(64)
    p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=mass, m2=2.0)
    vals = np.exp(amp * np.cos(mode * PI * grid.r))
    rho = project_density(RadialField.density(grid, vals), mass)
    s = flow.initial_state(p, CFG2, rho1=rho)
    for _ in range(3):
        s = flow.step_single_density(s, p, 1e-3)
    assert np.isclose(s.mass_trace[-1, 1], mass, rtol=1e-12)
    assert s.rho1.values.min() >= 0.0
