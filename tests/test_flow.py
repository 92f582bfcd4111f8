import copy
import itertools
import math
import platform
import re
import subprocess
import sys
import warnings
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import solve_banded

from conflictlab import flow, liouville
from conflictlab.calculus import integrate_disk, inv_laplacian
from conflictlab.errors import SolverDiverged, StepRejected
from conflictlab.functionals import (
    _joint_terms,
    relaxed_free_energy,
    two_species_energy_rho,
    two_species_energy_u,
)
from conflictlab.liouville import _minimize_w, residual, solve_pair, solve_single
from conflictlab.model import (
    FLOW_LIMITS,
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


# each regime by the name its failures give: its config and its start fields
START_FIELDS = {
    "single-density": (CFG2, ("rho1",)),
    "two-density": (CFG_FULL, ("rho1", "rho2")),
    "potential": (CFG_POT, ("u1", "u2")),
}
WRONG_FIELD_SETS = [
    pytest.param(name, keys, id=f"{name}-{'+'.join(keys)}")
    for name, (_, wanted) in START_FIELDS.items()
    for k in range(1, 5)
    for keys in itertools.combinations(("rho1", "rho2", "u1", "u2"), k)
    if keys != wanted
]


def bump_density(grid, mass, width=4.0):
    return project_density(RadialField(grid, np.exp(-width * grid.r**2), "density"), mass)


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
    """Once warm, a step on 4096 or 16384 cells reuses its heap pages:
    glibc's thresholds, which importing calculus sets, stay above the
    step's temporaries (3.8 MiB at 16384 cells), so it neither unmaps nor
    trims them at each free to fault them in again."""
    code = (
        "import resource, numpy as np\n"
        "from conflictlab import flow, model\n"
        "p = model.Params(1.0, 2.0, 1.0, -1, 10.0, 4.0)\n"
        "cfg = model.FlowConfig(1.0, 0.0, 0.0, dt=2.0**-11, t_end=1.0, adapt=False)\n"
        "for n in (4096, 16384):\n"
        "    g = model.make_grid(n)\n"
        "    rho = model.project_density(model.RadialField.density(g, np.exp(-2 * g.r**2)), 10.0)\n"
        "    s = flow.initial_state(p, cfg, rho1=rho)\n"
        "    for _ in range(5):\n"
        "        s = flow.step_single_density(s, p, cfg.dt)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    for _ in range(40):\n"
        "        s = flow.step_single_density(s, p, cfg.dt)\n"
        "    print(n, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    faults = dict(map(int, line.split()) for line in result.stdout.splitlines())
    assert faults.keys() == {4096, 16384}
    assert all(count <= 2 * 40 for count in faults.values()), faults


def isolated(s):
    """The same state holding its own copy of the trace rows, and no stored
    Params, so that a potential step recomputes its sources."""
    out = copy.copy(s)
    out.__dict__.update(_trace=s._trace[: 5 * s._rows], _boltzmann=None)
    return out


def same_state(a, b):
    assert a.t == b.t
    assert flow.trace_rows(a).tobytes() == flow.trace_rows(b).tobytes()
    for name in ("rho1", "u1", "u2", "rho2"):
        assert getattr(a, name).values.tobytes() == getattr(b, name).values.tobytes()


def patch_core(monkeypatch, case, core):
    """Give the regime of FLOW_LIMITS[case] the core core(grid, stack,
    boltzmann, p, dt, bands): run_flow and the public step both call it."""
    *row, _ = flow._REGIMES[FLOW_LIMITS[case]]
    monkeypatch.setitem(flow._REGIMES, FLOW_LIMITS[case], (*row, core))


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

    def test_traces_are_read_only_copies_of_the_rows(self, parent):
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
        real = flow._single_core

        def run(build_first):
            calls = []

            def flaky(*args):
                calls.append(args[4])
                child = real(*args) if build_first else None
                if len(calls) in (3, 7, 8):
                    raise StepRejected("forced")
                return child or real(*args)

            patch_core(monkeypatch, "single", flaky)
            return flow.run_flow(start, p, cfg), len(calls)

        built, attempts = run(build_first=True)
        clean, _ = run(build_first=False)
        same_state(built, clean)
        accepted = len(built.mass_trace) - 1
        assert attempts == accepted + 3
        assert np.all(np.diff(built.energy_trace[:, 0]) > 0)
        assert len(start.mass_trace) == 1

    def test_first_child_extends_in_place_and_a_sibling_copies(self, parent):
        # The O(1) append: copying the rows on every step makes a run's
        # bookkeeping grow quadratically with its length.
        first = flow.step_two_densities(parent, self.P, 1e-3)
        second = flow.step_two_densities(parent, self.P, 2e-3)
        assert first._trace is parent._trace
        assert second._trace is not parent._trace
        assert len(second._trace) == 5 * second._rows == len(first._trace)
        assert flow.trace_rows(second)[:-1].tobytes() == flow.trace_rows(parent).tobytes()

    def test_a_long_run_stores_its_rows_in_one_array(self):
        p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=1, m1=2.0, m2=1.0)
        g = make_grid(8)
        start = flow.initial_state(
            p, CFG_FULL, rho1=bump_density(g, 2.0), rho2=bump_density(g, 1.0)
        )
        s = start
        for _ in range(2000):
            s = flow.step_two_densities(s, p, 1e-3)
        assert s._trace is start._trace
        assert s._rows == 2001
        assert sys.getsizeof(s._trace) <= 2 * 40 * s._rows

    def test_taken_traces_outlive_further_steps(self, parent):
        traces = (parent.energy_trace, parent.mass_trace, parent.sup_trace)
        rows = flow.trace_rows(parent)
        before = [t.copy() for t in (*traces, rows)]
        s = parent
        for _ in range(20):  # extends the shared array: a view of it would raise BufferError
            s = flow.step_two_densities(s, self.P, 1e-3)
        assert s._trace is parent._trace
        for taken, kept in zip((*traces, rows), before):
            assert taken.tobytes() == kept.tobytes()


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
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=2.0)
        rho, u = bump_density(g256, 5.0), zero_potential(g256)
        untagged = RadialField(g256, rho.values.copy())
        for cfg, fields in [
            (CFG2, {"rho1": u}),
            (CFG2, {"rho1": untagged}),
            (CFG_FULL, {"rho1": u, "rho2": rho}),
            (CFG_FULL, {"rho1": rho, "rho2": untagged}),
            (CFG_POT, {"u1": rho, "u2": u}),
            (CFG_POT, {"u1": u, "u2": untagged}),
        ]:
            with pytest.raises(ValueError, match="-tagged"):
                flow.initial_state(p, cfg, **fields)

    def test_state_rejects_mixed_grids(self, g256):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=2.0)
        other = make_grid(128)
        with pytest.raises(ValueError, match="^the initial fields need a shared grid$"):
            flow.initial_state(p, CFG_FULL, rho1=bump_density(g256, 5.0), rho2=bump_density(other, 2.0))
        with pytest.raises(ValueError, match="^the initial fields need a shared grid$"):
            flow.initial_state(p, CFG_POT, u1=zero_potential(g256), u2=zero_potential(other))

    @pytest.mark.parametrize("name, keys", WRONG_FIELD_SETS)
    def test_refuses_every_other_field_set(self, g256, name, keys):
        cfg, wanted = START_FIELDS[name]
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=2.0)
        rho, u = bump_density(g256, 5.0), zero_potential(g256)
        fields = {key: rho if key.startswith("rho") else u for key in keys}
        message = f"the {name} regime takes exactly {' and '.join(wanted)}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            flow.initial_state(p, cfg, **fields)


class TestHandBuiltState:
    """No state is built by hand: FlowState(...) raises TypeError, and
    _advanced, the one maker behind initial_state and the steppers, checks
    the four rows once and makes them read-only; the fields are views of
    the rows."""

    P = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=5.0)
    KINDS = (("rho1", "density"), ("u1", "potential"), ("u2", "potential"), ("rho2", "density"))
    REGIMES = [(CFG2, ("rho1",)), (CFG_FULL, ("rho1", "rho2")), (CFG_POT, ("u1", "u2"))]

    @pytest.fixture
    def state(self, g256):
        rho = bump_density(g256, 5.0)
        return flow.initial_state(self.P, CFG_FULL, rho1=rho, rho2=rho)

    def test_constructor_refuses(self, state):
        with pytest.raises(TypeError):
            flow.FlowState(state.t, state.rho1, state.u1, state.u2, state.rho2)
        with pytest.raises(TypeError):
            flow.FlowState()

    @pytest.mark.parametrize("cfg, names", REGIMES, ids=["single", "pair", "potentials"])
    def test_every_state_holds_four_rows(self, g256, cfg, names):
        fields = TestNonFiniteStates.fields(g256)
        start = flow.initial_state(self.P, cfg, **{n: fields[n] for n in names})
        step = flow._STEPPERS[cfg.delta1, cfg.delta2, cfg.epsilon]
        for s in (start, step(start, self.P, 1e-3)):
            assert s._stack.shape == (4, g256.r.size)
            for name, kind in self.KINDS:
                assert getattr(s, name).kind == kind
                assert getattr(s, name).values.base is s._stack

    # A write through a field once rewrote a checked state: a step then
    # took a negative density row as its source without error.
    @pytest.mark.parametrize("cfg, names", REGIMES, ids=["single", "pair", "potentials"])
    def test_states_are_read_only(self, g256, cfg, names):
        fields = TestNonFiniteStates.fields(g256)
        start = flow.initial_state(self.P, cfg, **{n: fields[n] for n in names})
        before = start._stack.tobytes()
        step = flow._STEPPERS[cfg.delta1, cfg.delta2, cfg.epsilon]
        for s in (start, step(start, self.P, 1e-3)):
            assert not s._stack.flags.writeable
            for name, _ in self.KINDS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(s, name).values[:] = -1.0
        assert start._stack.tobytes() == before

    def test_fields_are_rows_of_one_checked_copy(self, state):
        for row, name in zip(state._stack, ("rho1", "u1", "u2", "rho2")):
            assert getattr(state, name).values.base is state._stack
            assert getattr(state, name).values.tobytes() == row.tobytes()

    @pytest.mark.parametrize("row, col", [(0, 3), (3, 0), (1, -1), (2, -1)])
    def test_new_stacks_are_checked_once(self, state, row, col):
        def advanced(value):
            stack = state._stack.copy()
            stack[row, col] = value
            return flow._advanced(state.rho1.grid, 0.0, array("d"), 0, stack, 0.0)

        with pytest.raises(ValueError, match="^density tag requires values >= 0$" if row in (0, 3)
                           else "^potential tag requires an exact zero at r = 1$"):
            advanced(-1e-300 if row in (0, 3) else 1e-300)
        # The row maximum and minimum carry NaN and both infinities through.
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^state fields must be finite$"):
                advanced(bad)
        if row in (0, 3):
            assert advanced(-0.0)._stack[row, col] == 0.0


class TestNonFiniteStates:
    """initial_state checks its inputs finite and every state passes one
    finiteness check, so a NaN or inf that reaches a field raises
    ValueError instead of flowing on, and a step's failure names its
    regime, time and dt."""

    P = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=3.0)

    @staticmethod
    def fields(grid):
        return {
            "rho1": bump_density(grid, 5.0),
            "rho2": bump_density(grid, 3.0),
            "u1": RadialField.potential(grid, 0.3 * (1.0 - grid.r**2)),
            "u2": RadialField.potential(grid, 0.1 * (1.0 - grid.r**2)),
        }

    # A sample written in after the field's own check is caught before any
    # regime arithmetic: an inf in the single regime's rho1 or in a
    # potential would otherwise raise RuntimeWarning there.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rho1", "u1", "u2", "rho2"])
    def test_state_rejects_non_finite_field(self, g256, name, bad):
        kind = "potential" if name.startswith("u") else "density"
        for cfg, names in [(CFG2, ("rho1",)), (CFG_FULL, ("rho1", "rho2")), (CFG_POT, ("u1", "u2"))]:
            if name in names:
                fields = self.fields(g256)
                fields[name].values[5] = bad  # after the field's own check
                with pytest.raises(ValueError, match=f"^the initial {kind} must be finite$"):
                    flow.initial_state(self.P, cfg, **{n: fields[n] for n in names})

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
        "cfg, names, regime",
        [
            (CFG2, ("rho1",), "single-density"),
            (CFG_FULL, ("rho1", "rho2"), "two-density"),
            (CFG_POT, ("u1", "u2"), "potential"),
        ],
        ids=["single", "pair", "potentials"],
    )
    def test_step_with_nan_solve_raises(self, keeps_no_arrays, monkeypatch, cfg, names, regime):
        # and the failure, held, keeps none of the step's arrays
        def setup(grid):
            fields = self.fields(grid)
            s = flow.initial_state(self.P, cfg, **{n: fields[n] for n in names})
            return flow._STEPPERS[cfg.delta1, cfg.delta2, cfg.epsilon], s, self.P, cfg.dt

        monkeypatch.setattr(flow, "_solve_tridiag", lambda ab, b: np.full(b.shape, np.nan))
        for err in keeps_no_arrays(setup, ValueError):
            assert str(err) == (
                f"state fields must be finite after the {regime} step "
                f"to t = {cfg.dt:.6g} (dt = {cfg.dt:.6g})"
            )


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

    def test_cooperative_energy_monotone(self, g256):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=1, m1=6.0, m2=4.0)
        s = flow.initial_state(
            p,
            CFG_FULL,
            rho1=bump_density(g256, 6.0),
            rho2=project_density(
                RadialField(g256, 2.0 - g256.r**2, "density"), 4.0
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
    @staticmethod
    def rising(monkeypatch):
        """Make the potential core report an energy risen by 1 plus its
        size, leaving whether that energy is enforced to the core."""
        *_, real = flow._REGIMES[FLOW_LIMITS["potentials"]]

        def risen(*args):
            stack, energy, boltzmann, enforced = real(*args)
            return stack, energy + 1.0 + abs(energy), boltzmann, enforced

        patch_core(monkeypatch, "potentials", risen)

    def test_degenerate_form_proceeds_unmonitored(self, g256, monkeypatch):
        # alpha*gamma = beta^2: no gradient flow, so a risen energy passes
        p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=4.0, m2=2.0)
        s = flow.initial_state(p, CFG_POT, u1=zero_potential(g256), u2=zero_potential(g256))
        self.rising(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = flow.step_potentials(s, p, 0.01)
        assert s.t == 0.01

    def test_definite_form_does_not_warn(self, g256):
        p = Params(alpha=2.0, beta=1.0, gamma=1.0, theta=-1, m1=4.0, m2=2.0)
        s = flow.initial_state(p, CFG_POT, u1=zero_potential(g256), u2=zero_potential(g256))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flow.step_potentials(s, p, 0.01)

    @pytest.mark.parametrize("alpha, beta, gamma", [(1e-6, 0.0, 1e-6), (1e-7, 1e-8, 1e-7)])
    def test_small_definite_forms_are_monitored(self, g256, monkeypatch, alpha, beta, gamma):
        # alpha*gamma > beta^2, though alpha*gamma - beta^2 is below 1e-12
        p = Params(alpha=alpha, beta=beta, gamma=gamma, theta=-1, m1=4.0, m2=2.0)
        cfg = replace(CFG_POT, dt=0.01, t_end=0.05, adapt=False)
        s = flow.initial_state(p, cfg, u1=zero_potential(g256), u2=zero_potential(g256))
        self.rising(monkeypatch)
        for run in (lambda: flow.step_potentials(s, p, 0.01), lambda: flow.run_flow(s, p, cfg)):
            with pytest.raises(StepRejected, match="^monitored energy rose from "):
                run()

    def test_nearly_degenerate_form_keeps_its_energy_falling(self, g256):
        # alpha*gamma - beta^2 = 2e-13: definite, so every step is checked
        p = Params(alpha=1.0, beta=1.0 - 1e-13, gamma=1.0, theta=-1, m1=4.0, m2=2.0)
        cfg = replace(CFG_POT, dt=1e-3, t_end=0.5, adapt=False)
        s = flow.initial_state(p, cfg, u1=zero_potential(g256), u2=zero_potential(g256))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            end = flow.run_flow(s, p, cfg)
        assert end._rows == 501 and math.isclose(end.t, 0.5, rel_tol=1e-12)
        assert np.all(np.diff(end.energy_trace[:, 1]) <= 0.0)

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
        def always_reject(*args):
            raise StepRejected("forced")

        patch_core(monkeypatch, "single", always_reject)
        p = Params(alpha=0.0, beta=0.0, gamma=1.0, theta=-1, m1=2.0, m2=1.0)
        s = flow.initial_state(p, CFG2, rho1=uniform_density(g256, 2.0))
        with pytest.raises(RuntimeError, match="^dt underflow at t = 0: forced$") as err:
            flow.run_flow(s, p, CFG2)
        assert type(err.value) is RuntimeError

    def test_rejection_propagates_without_adapt(self, g256, monkeypatch):
        def always_reject(*args):
            raise StepRejected("forced")

        patch_core(monkeypatch, "single", always_reject)
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


def stepped_loop(start, p, cfg):
    """run_flow written as a Python loop of the regime's public step."""
    step = flow._STEPPERS[cfg.delta1, cfg.delta2, cfg.epsilon]
    s, dt = start, cfg.dt
    while s.t < cfg.t_end * (1.0 - 1e-12):
        step_dt = min(dt, cfg.t_end - s.t)
        try:
            new = step(s, p, step_dt)
        except StepRejected as err:
            if not cfg.adapt:
                raise
            dt *= 0.5
            if dt < 1e-14:
                raise RuntimeError(f"dt underflow at t = {s.t:.6g}: {err}") from err
            continue
        change = float((abs(new._stack - s._stack) / np.array(s._scale)[:, None]).max()) / step_dt
        s = new
        if change < 1e-10:
            break
        if cfg.adapt:
            dt *= 1.2
    return s


class TestRunFlowIsTheStepLoop:
    """run_flow steps arrays and makes one state at the end; it must give,
    byte for byte, the trace rows, final stack, t and stored Params of the
    loop of the public steps, whose every state is made and checked."""

    CASES = {"single": ("rho1",), "pair": ("rho1", "rho2"), "potentials": ("u1", "u2")}

    @staticmethod
    def start(case, p, cfg, grid):
        fields = TestNonFiniteStates.fields(grid)
        return flow.initial_state(p, cfg, **{k: fields[k] for k in TestRunFlowIsTheStepLoop.CASES[case]})

    @staticmethod
    def assert_same_run(a, b):
        assert flow.trace_rows(a).tobytes() == flow.trace_rows(b).tobytes()
        assert a._stack.tobytes() == b._stack.tobytes()
        assert a.t == b.t and a._rows == b._rows
        assert a._boltzmann == b._boltzmann

    @pytest.mark.parametrize("theta", [1, -1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fixed_dt(self, case, theta):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=theta, m1=5.0, m2=3.0)
        cfg = FlowConfig(*FLOW_LIMITS[case], dt=2.0**-10, t_end=40 * 2.0**-10, adapt=False)
        s = self.start(case, p, cfg, make_grid(64))
        end = flow.run_flow(s, p, cfg)
        assert end._rows == 41
        self.assert_same_run(end, stepped_loop(s, p, cfg))

    def test_heat_bands_once_per_dt(self, monkeypatch):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=3.0)
        cfg = FlowConfig(*FLOW_LIMITS["potentials"], dt=2.0**-10, t_end=40 * 2.0**-10, adapt=False)
        s = self.start("potentials", p, cfg, make_grid(64))
        built = []
        real = flow._heat_bands
        monkeypatch.setattr(flow, "_heat_bands", lambda grid, dt: built.append(dt) or real(grid, dt))
        flow.run_flow(s, p, cfg)
        assert built == [cfg.dt]

    @staticmethod
    def rising(monkeypatch, case, rejected):
        """Make the regime's core raise StepRejected at the calls in
        rejected, and report an enforced energy risen by 1 at its third call,
        for the step's own check to reject; returns the dt of each call."""
        *_, real = flow._REGIMES[FLOW_LIMITS[case]]
        calls = []

        def flaky(*args):
            calls.append(args[4])
            stack, energy, boltzmann, enforced = real(*args)
            if len(calls) in rejected:
                raise StepRejected("forced")
            if len(calls) == 3:
                return stack, energy + 1.0, boltzmann, True
            return stack, energy, boltzmann, enforced

        patch_core(monkeypatch, case, flaky)
        return calls

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_adapt_through_rejections(self, monkeypatch, case):
        # rejected attempts halve dt, accepted steps regrow it: a new dt,
        # and new heat bands, at every attempt
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=1, m1=5.0, m2=3.0)
        cfg = FlowConfig(*FLOW_LIMITS[case], dt=1e-3, t_end=0.03, adapt=True)
        s = self.start(case, p, cfg, make_grid(64))
        calls = self.rising(monkeypatch, case, rejected=(7, 8))
        end = flow.run_flow(s, p, cfg)
        dts, calls[:] = list(calls), []
        self.assert_same_run(end, stepped_loop(s, p, cfg))
        assert calls == dts and len(set(dts)) == len(dts) == end._rows - 1 + 3

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_energy_rise_without_adapt(self, monkeypatch, case):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=1, m1=5.0, m2=3.0)
        cfg = FlowConfig(*FLOW_LIMITS[case], dt=1e-3, t_end=0.03, adapt=False)
        s = self.start(case, p, cfg, make_grid(64))
        calls = self.rising(monkeypatch, case, rejected=())
        messages = []
        for run in (flow.run_flow, stepped_loop):
            calls.clear()
            with pytest.raises(StepRejected) as err:
                run(s, p, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("monitored energy rose from ")

    @pytest.mark.parametrize("params", [None, Params(1.0, 0.5, 1.0, -1, 4.0, 2.0)])
    def test_potential_start_without_its_sources(self, monkeypatch, params):
        # The first step recomputes its sources, the later ones take them
        # from the densities of the step before: one Boltzmann evaluation
        # per step, for the new state, and one more.
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=3.0)
        cfg = FlowConfig(*FLOW_LIMITS["potentials"], dt=2.0**-10, t_end=20 * 2.0**-10, adapt=False)
        s = isolated(self.start("potentials", p, cfg, make_grid(64)))
        s.__dict__["_boltzmann"] = params
        real, calls = flow._densities, []
        monkeypatch.setattr(flow, "_densities", lambda *args: calls.append(1) or real(*args))
        ends = [run(s, p, cfg) for run in (flow.run_flow, stepped_loop)]
        self.assert_same_run(*ends)
        assert ends[0]._boltzmann == p
        assert len(calls) == 2 * 21

    def test_degenerate_form_runs_without_warnings(self):
        p = Params(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=4.0, m2=2.0)
        cfg = FlowConfig(*FLOW_LIMITS["potentials"], dt=2.0**-10, t_end=20 * 2.0**-10, adapt=False)
        s = self.start("potentials", p, cfg, make_grid(64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ends = [run(s, p, cfg) for run in (flow.run_flow, stepped_loop)]
        assert caught == []
        self.assert_same_run(*ends)
        assert ends[0]._rows == 21

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_nan_solve(self, monkeypatch, case):
        p = Params(alpha=1.0, beta=0.5, gamma=1.0, theta=-1, m1=5.0, m2=3.0)
        cfg = FlowConfig(*FLOW_LIMITS[case], dt=1e-3, t_end=0.01, adapt=False)
        s = self.start(case, p, cfg, make_grid(64))
        monkeypatch.setattr(flow, "_solve_tridiag", lambda ab, b: np.full(b.shape, np.nan))
        messages = []
        for run in (flow.run_flow, stepped_loop):
            with pytest.raises(ValueError) as err:
                run(s, p, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("state fields must be finite after the ")


class TestFailuresKeepNoArrays:
    """A failure that leaves initial_state or run_flow holds no array of the
    flow: its frames are cleared, those along a stalled run's cause
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

    def rejected_after_two_steps(self, monkeypatch, cfg):
        """setup(grid) of a run as run(cfg) gives, whose steps each run the
        core, and from the third on are then rejected, so the failure leaves
        run_flow with accepted steps' arrays in its frames."""
        accepted = []  # the dt of each accepted step of the current run

        def core(*args):
            out = flow._single_core(*args)
            if len(accepted) == 2:
                raise StepRejected(f"forced at t = {sum(accepted):.6g}")
            accepted.append(args[4])
            return out

        patch_core(monkeypatch, "single", core)

        def setup(grid):
            entry, *args = self.run(cfg)(grid)

            def fresh_run():
                accepted.clear()
                return entry(*args)

            return (fresh_run,)

        return setup

    def test_initial_state_with_nan_solve(self, keeps_no_arrays, monkeypatch):
        self.nan_solves(monkeypatch, liouville)  # the chemical Newton solve's
        setup = lambda grid: (flow.initial_state, self.P, self.FIXED, bump_density(grid, 10.0))
        for err in keeps_no_arrays(setup, SolverDiverged):
            assert re.search(r"residual \d\.\d{3}e\+00 .* Newton step 1$", str(err))

    def test_run_with_nan_solve(self, keeps_no_arrays, monkeypatch):
        self.nan_solves(monkeypatch, flow)  # the steps', not initial_state's
        for err in keeps_no_arrays(self.run(self.FIXED), ValueError):
            assert str(err) == (
                "state fields must be finite after the single-density step to t = 0.001 (dt = 0.001)"
            )

    def test_step_rejected_without_adapt(self, keeps_no_arrays, monkeypatch):
        setup = self.rejected_after_two_steps(monkeypatch, self.FIXED)
        for err in keeps_no_arrays(setup, StepRejected):
            assert str(err) == "forced at t = 0.002"

    def test_stalled(self, keeps_no_arrays, monkeypatch):
        setup = self.rejected_after_two_steps(monkeypatch, replace(self.FIXED, adapt=True))
        for err in keeps_no_arrays(setup, RuntimeError):
            # the stall itself, not the StepRejected that caused it
            assert type(err) is RuntimeError
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
        u = inv_laplacian(rho).values
        cold = relaxed_free_energy(rho, p)[1]
        warm = _minimize_w(g256, u, p, w0=cold.values)[0]
        assert np.max(np.abs(cold.values - warm)) < 1e-9


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
