import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conflictlab.calculus import (
    _entropy,
    _face_flux,
    _face_masses,
    _green,
    _pairing,
    _pinned_tridiag,
    dirichlet_energy,
    entropy,
    face_flux,
    face_masses,
    integrate_disk,
    interaction_energy,
    inv_laplacian,
    log_partition,
)
from conflictlab.flow import _heat_bands
from conflictlab.liouville import _flux_defect, solve_pair, solve_single
from conflictlab.model import Params, RadialField, make_grid

G64 = make_grid(64)

density_arrays = arrays(float, 65, elements=st.floats(0.0, 30.0))


class TestIntegrateDisk:
    def test_constant_is_exact(self, g1024):
        f = RadialField(g1024, np.full_like(g1024.r, 1 / np.pi))
        assert abs(integrate_disk(f) - 1.0) < 1e-14

    def test_parabola(self, g1024):
        f = RadialField(g1024, 1.0 - g1024.r**2)
        assert np.isclose(integrate_disk(f), np.pi / 2, rtol=2e-6)

    def test_parabola_second_order(self):
        errs = []
        for n in (512, 1024, 2048):
            g = make_grid(n)
            f = RadialField(g, 1.0 - g.r**2)
            errs.append(abs(integrate_disk(f) - np.pi / 2))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5


class TestInvLaplacian:
    def test_constant_density(self, g1024):
        m = 2.5
        rho = RadialField.density(g1024, np.full_like(g1024.r, m / np.pi))
        u = inv_laplacian(rho)
        np.testing.assert_allclose(u.values, m * (1 - g1024.r**2) / (4 * np.pi), atol=1e-6)
        assert np.isclose(u.values[0], m / (4 * np.pi), rtol=1e-5)

    def test_zero_density(self, g1024):
        rho = RadialField.density(g1024, np.zeros_like(g1024.r))
        assert np.all(inv_laplacian(rho).values == 0.0)

    def test_exterior_log_potential_is_exact(self, g1024):
        rho = RadialField.density(g1024, np.where(g1024.r < 0.25, 1.0, 0.0))
        m = integrate_disk(rho)
        u = inv_laplacian(rho)
        outside = g1024.r >= 0.5
        expect = (m / (2 * np.pi)) * np.log(1 / g1024.r[outside])
        np.testing.assert_allclose(u.values[outside], expect, atol=1e-14)

    @given(density_arrays)
    @settings(max_examples=50, deadline=None)
    def test_maximum_principle_and_monotonicity(self, vals):
        rho = RadialField.density(G64, vals)
        u = inv_laplacian(rho).values
        assert np.all(u >= 0.0)
        assert np.all(np.diff(u) <= 0.0)

    @given(density_arrays, density_arrays, st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, v1, v2, a, b):
        f1, f2 = RadialField(G64, v1), RadialField(G64, v2)
        mixed = RadialField(G64, a * v1 + b * v2)
        lhs = inv_laplacian(mixed).values
        rhs = a * inv_laplacian(f1).values + b * inv_laplacian(f2).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestEntropy:
    def test_uniform_density(self, g1024):
        rho = RadialField.density(g1024, np.full_like(g1024.r, 1 / np.pi))
        assert abs(entropy(rho) - (-1.1447298858494002)) < 1e-14

    def test_uniform_with_mass(self, g1024):
        m = 3.7
        rho = RadialField.density(g1024, np.full_like(g1024.r, m / np.pi))
        assert np.isclose(entropy(rho), m * np.log(m / np.pi), rtol=1e-13)

    def test_vacuum_cells_contribute_zero(self):
        vals = np.zeros_like(G64.r)
        vals[:10] = 1.0
        assert np.isfinite(entropy(RadialField.density(G64, vals)))
        assert entropy(RadialField.density(G64, np.zeros_like(G64.r))) == 0.0

    def test_rejects_signed_input(self):
        vals = np.full_like(G64.r, 0.5)
        vals[1] = -0.1
        with pytest.raises(ValueError, match="^entropy needs rho >= 0$"):
            entropy(RadialField(G64, vals))


class TestPairingAndDirichlet:
    def test_uniform_interaction(self, g1024):
        rho = RadialField.density(g1024, np.full_like(g1024.r, 1 / np.pi))
        assert abs(interaction_energy(rho) - (-0.039788735772973836)) < 2e-8

    def test_dirichlet_of_uniform_potential(self, g1024):
        m = 1.0
        rho = RadialField.density(g1024, np.full_like(g1024.r, m / np.pi))
        w = inv_laplacian(rho)
        assert abs(dirichlet_energy(w) - m**2 / (8 * np.pi)) < 2e-8

    def test_log_tail_energy_is_exact(self, g256):
        m = 3.0
        cut = 0.5
        vals = (m / (2 * np.pi)) * np.log(1 / np.maximum(g256.r, cut))
        w = RadialField.potential(g256, vals)
        expect = (m**2 / (2 * np.pi)) * np.log(1 / cut)
        assert abs(dirichlet_energy(w) - expect) < 1e-13

    def test_dirichlet_requires_potential_tag(self, g256):
        f = RadialField(g256, 1.0 - g256.r**2)
        with pytest.raises(ValueError):
            dirichlet_energy(f)

    @given(density_arrays, density_arrays)
    @settings(max_examples=50, deadline=None)
    def test_pairing_symmetry(self, v1, v2):
        f, g = face_masses(RadialField(G64, v1)), face_masses(RadialField(G64, v2))
        assert np.isclose(_pairing(G64, f, g), _pairing(G64, g, f), rtol=1e-13, atol=1e-300)

    @given(density_arrays)
    @settings(max_examples=50, deadline=None)
    def test_duality_with_interaction(self, vals):
        rho = RadialField(G64, vals)
        d = dirichlet_energy(inv_laplacian(rho))
        assert np.isclose(d, -interaction_energy(rho), rtol=1e-12, atol=1e-300)

    def test_face_flux_reproduces_face_masses(self, g256):
        rho = RadialField.density(g256, np.exp(-3 * g256.r**2))
        np.testing.assert_allclose(
            face_flux(inv_laplacian(rho)), face_masses(rho), rtol=1e-7, atol=1e-12
        )


class TestLogPartition:
    def test_empty_is_log_pi(self):
        assert log_partition([]) == np.log(np.pi)

    def test_constant_field(self, g256):
        c = 2.75
        f = RadialField(g256, np.full_like(g256.r, c))
        assert abs(log_partition([(1.0, f)]) - (c + np.log(np.pi))) < 1e-14

    def test_shift_invariance_is_exact(self, g256):
        f = RadialField(g256, 1.0 - g256.r**2)
        shift = RadialField(g256, np.full_like(g256.r, 5.0))
        assert log_partition([(1.0, f), (1.0, shift)]) == log_partition([(1.0, f)]) + 5.0

    def test_overflow_safe(self, g256):
        f = RadialField(g256, 1.0 - g256.r**2)
        val = log_partition([(1e4, f)])
        assert np.isfinite(val) and val > 9e3

    def test_grid_mismatch(self, g256, g1024):
        f = RadialField(g256, np.ones_like(g256.r))
        g = RadialField(g1024, np.ones_like(g1024.r))
        with pytest.raises(ValueError, match="^log_partition needs all fields on one grid$"):
            log_partition([(1.0, f), (1.0, g)])


class TestStackedRows:
    """The cores give each row of a stack the bits of its own 1-D call."""

    @staticmethod
    def rows(data, n, k, low=0.0, faces=False):
        """A grid of n cells and k rows of nodal values (face values if faces)."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3, (k, 1))
        width = n if faces else n + 1
        return make_grid(n, data.draw(st.sampled_from(["uniform", "graded"]))), (
            rng.uniform(low, 1.0, (k, width)) * scale
        )

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 4096), data=st.data())
    def test_green_rows(self, n, data):
        grid, rhos = self.rows(data, n, 2, low=-0.5)
        us, mts = _green(grid, rhos)
        for rho, u, mt in zip(rhos, us, mts):
            u1, mt1 = _green(grid, rho)
            assert u.tobytes() == u1.tobytes()
            assert mt.tobytes() == mt1.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 4096), data=st.data())
    def test_face_masses_rows(self, n, data):
        grid, rhos = self.rows(data, n, 2, low=-0.5)
        for mt, rho in zip(_face_masses(grid, rhos), rhos):
            assert mt.tobytes() == _face_masses(grid, rho).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 4096), data=st.data())
    def test_face_flux_rows(self, n, data):
        grid, vs = self.rows(data, n, 2, low=-1.0)
        for c, v in zip(_face_flux(grid, vs), vs):
            assert c.tobytes() == _face_flux(grid, v).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 4096), data=st.data())
    def test_entropy_rows(self, n, data):
        grid, rhos = self.rows(data, n, 3)
        rhos[1, ::3] = 0.0
        got = _entropy(grid, rhos)
        assert got.tolist() == [_entropy(grid, rho) for rho in rhos]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 4096), data=st.data())
    def test_pairing_rows_and_matrix(self, n, data):
        grid, faces = self.rows(data, n, 3, low=-1.0, faces=True)
        a, b = faces[:2], faces[1:]
        assert _pairing(grid, a, b).tolist() == [_pairing(grid, x, y) for x, y in zip(a, b)]
        gram = _pairing(grid, faces[:, None], faces[None]).tolist()
        assert gram == [[_pairing(grid, x, y) for y in faces] for x in faces]


def tridiag_then_pin(grid, diag):
    """The assembly the pinned rows replaced: the Green couplings t around
    diag in a zeroed banded matrix, then the wall row made the identity."""
    t = 1.0 / grid.log_ratio
    ab = np.zeros((3, grid.n + 1))
    ab[1] = diag
    ab[1, :-1] += t
    ab[1, 1:] += t
    ab[0, 1:] = -t
    ab[2, :-1] = -t
    ab[0][-1] = 0.0
    ab[1][-1] = 1.0
    ab[2][-2] = 0.0
    return ab


class TestPinnedTridiag:
    GRIDS = [(n, kind) for n in (8, 33, 4097) for kind in ("uniform", "graded")]

    @pytest.mark.parametrize("n, kind", GRIDS)
    def test_newton_diagonals_match_the_old_assembly(self, n, kind):
        grid = make_grid(n, kind)
        rng = np.random.default_rng(n)
        for gamma in (0.5, 1.0, 26.737):
            vr = grid.volumes * rng.uniform(0.0, 50.0, n + 1)
            want = tridiag_then_pin(grid, gamma * vr)
            vr[-1] = 0.0  # as the Newton step passes it
            assert _pinned_tridiag(grid, gamma * vr).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, kind", GRIDS)
    def test_heat_bands_match_the_old_assembly(self, n, kind):
        grid = make_grid(n, kind)
        for dt in (2.0**-11, 1e-3, 0.1, 1e-14, 3.0):
            want = tridiag_then_pin(grid, grid.volumes / dt)
            assert _heat_bands(grid, dt).tobytes() == want.tobytes()

    def test_rows_made_once_on_first_use_and_read_only(self):
        grid = make_grid(16)
        assert "_pinned_rows" not in vars(grid)
        _pinned_tridiag(grid, grid.volumes)
        rows = vars(grid)["_pinned_rows"]
        _pinned_tridiag(grid, grid.volumes)
        assert grid._pinned_rows is rows
        assert not any(row.flags.writeable for row in rows)

    def test_steady_solves_make_no_rows(self):
        grid = make_grid(64)
        solve_pair(Params(1.0, 0.5, 1.0, 1, 10.0, 4.0), grid)
        solve_single(5.0, 1.0, grid)
        assert "_pinned_rows" not in vars(grid)


class TestFluxDefect:
    @pytest.mark.parametrize("n, kind", [(8, "uniform"), (33, "graded"), (4097, "uniform")])
    def test_jumps_and_defect_match_their_definition(self, n, kind):
        grid = make_grid(n, kind)
        d = np.random.default_rng(n).standard_normal(n)
        res, jumps = _flux_defect(grid, d)
        want = np.empty(n + 1)
        want[0], want[1:-1], want[-1] = d[0], d[1:] - d[:-1], 0.0
        assert jumps.tobytes() == want.tobytes()
        div = np.empty(n)
        div[0] = d[0] / grid.volumes[0]
        div[1:] = (d[1:] - d[:-1]) / grid.volumes[1:n]
        assert res == float(abs(div).max())


def run_fresh(code):
    """Run code in a fresh interpreter; its standard output."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestHeapThresholds:
    """Importing calculus sets glibc's mmap threshold to 4 MiB and its trim
    threshold to 8 MiB, and sets nothing where the C library has no
    mallopt."""

    # a C library stand-in: numpy is imported first, since it loads
    # libraries through ctypes itself
    LIBC = (
        "import ctypes, numpy as np\n"
        "calls = []\n"
        "class Libc:\n"
        "    def __init__(self, name):\n"
        "        assert name is None\n"
        "{}"
        "ctypes.CDLL = Libc\n"
        "from conflictlab import liouville, model\n"
    )

    def test_import_sets_both_thresholds(self):
        code = self.LIBC.format(
            "        self.mallopt = lambda param, value: calls.append((param, value)) or 1\n"
        ) + "print(calls)\n"
        assert run_fresh(code).strip() == str([(-3, 4 << 20), (-1, 8 << 20)])

    def test_imports_without_mallopt(self):
        code = self.LIBC.format("") + (
            "print(liouville.solve_single(5.0, 1.0, model.make_grid(64)).u1.values.tobytes().hex())\n"
        )
        want = solve_single(5.0, 1.0, make_grid(64)).u1.values.tobytes().hex()
        assert run_fresh(code).strip() == want

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
    def test_second_steady_solve_does_not_fault_the_heap(self):
        """A repeated 16384-cell pair solve, which never loads LAPACK,
        reuses its heap pages: at glibc's default thresholds it faulted
        them in again at every Picard iteration, some 1,200 times."""
        code = (
            "import resource, sys\n"
            "from conflictlab import liouville, model\n"
            "g = model.make_grid(16384)\n"
            "p = model.Params(1.0, 2.0, 1.0, -1, 22.0, 8.0)\n"
            "liouville.solve_pair(p, g)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "liouville.solve_pair(p, g)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert not any(m.startswith('scipy') for m in sys.modules)\n"
            "print(after - before)\n"
        )
        assert int(run_fresh(code)) <= 16
