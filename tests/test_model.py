from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conflictlab.calculus import integrate_disk
from conflictlab.model import (
    FlowConfig,
    Params,
    RadialField,
    RadialGrid,
    make_grid,
    project_density,
)

G32 = make_grid(32)


class TestMakeGrid:
    def test_uniform_nodes(self):
        g = make_grid(16)
        assert g.n == 16
        assert g.r[0] == 0.0 and g.r[-1] == 1.0
        np.testing.assert_allclose(g.r, np.linspace(0, 1, 17))

    def test_graded_clusters_near_center(self):
        g = make_grid(16, kind="graded")
        assert g.r[0] == 0.0 and g.r[-1] == 1.0
        assert np.all(np.diff(np.diff(g.r)) > 0)

    def test_too_coarse(self):
        with pytest.raises(ValueError, match="^n = 7 < 8$"):
            make_grid(7)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_grid(64, kind="chebyshev")

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_exact_volume_and_weight_sums(self, kind):
        g = make_grid(97, kind=kind)
        assert abs(g.volumes.sum() - 0.5) < 1e-15
        assert abs(g.weights.sum() - np.pi) < 1e-14
        assert np.all(g.volumes > 0)

    def test_rejects_bad_node_arrays(self):
        with pytest.raises(ValueError):
            RadialGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            RadialGrid(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            RadialGrid(np.array([0.0, 0.5, 0.9]))
        with pytest.raises(ValueError, match="at least two radii"):
            RadialGrid(np.array([0.0]))
        with pytest.raises(ValueError, match="1-d array"):
            RadialGrid(np.array([[0.0, 0.5, 1.0]]))

    def test_rejects_nan_node(self):
        with pytest.raises(ValueError, match="increasing"):
            RadialGrid(np.array([0.0, 0.25, np.nan, 0.75, 1.0]))


class TestValidateParams:
    """Params checks itself when made: Params(...) and dataclasses.replace
    raise the same error, so no invalid Params can exist."""

    BASE = dict(alpha=1.0, beta=1.0, gamma=1.0, theta=-1, m1=1.0, m2=1.0)

    # each kind of refusal, which names its cases, and the form of its message
    REFUSALS = {
        "NegativeConstant": r"^(alpha|beta|gamma) = .+ must be finite and >= 0$",
        "NonpositiveMass": r"^m[12] = .+ must be finite and >=? 0$",
        "BadTheta": r"^theta = .+ must be -1 or \+1$",
    }

    @classmethod
    def same_error_both_ways(cls, refusal, **kwargs):
        """The message of the ValueError that the constructor and replace
        on a valid Params raise alike, of the refusal's form."""
        with pytest.raises(ValueError, match=cls.REFUSALS[refusal]) as made:
            Params(**{**cls.BASE, **kwargs})
        with pytest.raises(ValueError, match=cls.REFUSALS[refusal]) as replaced:
            replace(Params(**cls.BASE), **kwargs)
        assert str(made.value) == str(replaced.value)
        return str(made.value)

    def test_passes_and_normalizes_theta(self):
        p = Params(1.0, 2.0, 0.5, theta=1.0, m1=3.0, m2=0.0)
        assert p.theta == 1 and type(p.theta) is int
        q = replace(Params(**self.BASE), theta=np.float64(1.0))
        assert q.theta == 1 and type(q.theta) is int

    def test_returns_valid_params_with_int_theta_unchanged(self):
        p = Params(1.0, 2.0, 0.5, theta=-1, m1=3.0, m2=0.0)
        assert (p.alpha, p.beta, p.gamma, p.theta, p.m1, p.m2) == (1.0, 2.0, 0.5, -1, 3.0, 0.0)
        assert replace(p, m1=4.0) == Params(1.0, 2.0, 0.5, -1, 4.0, 0.0)

    @pytest.mark.parametrize(
        "kwargs, refusal",
        [
            (dict(alpha=-1.0), "NegativeConstant"),
            (dict(beta=np.nan), "NegativeConstant"),
            (dict(gamma=-0.5), "NegativeConstant"),
            (dict(alpha=np.inf), "NegativeConstant"),
            (dict(m1=0.0), "NonpositiveMass"),
            (dict(m1=-2.0), "NonpositiveMass"),
            (dict(m2=-1.0), "NonpositiveMass"),
            (dict(theta=0), "BadTheta"),
            (dict(theta=2), "BadTheta"),
        ],
    )
    def test_rejections(self, kwargs, refusal):
        ((name, bad),) = kwargs.items()
        bound = {"m1": "finite and > 0", "theta": "-1 or +1"}.get(name, "finite and >= 0")
        assert self.same_error_both_ways(refusal, **kwargs) == f"{name} = {bad!r} must be {bound}"

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("name, bound", [("m1", "> 0"), ("m2", ">= 0")])
    def test_non_finite_mass_is_named_as_not_finite(self, name, bound, bad):
        message = self.same_error_both_ways("NonpositiveMass", **{name: bad})
        assert message == f"{name} = {bad!r} must be finite and {bound}"


class TestRadialField:
    def test_density_rejects_negative(self):
        vals = np.zeros_like(G32.r)
        vals[3] = -1e-12
        with pytest.raises(ValueError, match="^density tag requires values >= 0$"):
            RadialField.density(G32, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["density", "potential"])
    def test_tags_reject_non_finite_samples(self, kind, bad):
        vals = np.zeros_like(G32.r)
        vals[3] = bad
        with pytest.raises(ValueError, match="finite"):
            RadialField(G32, vals, kind=kind)

    def test_potential_requires_zero_at_wall(self):
        with pytest.raises(ValueError):
            RadialField.potential(G32, np.full_like(G32.r, 0.1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            RadialField(G32, np.zeros(5))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RadialField(G32, np.zeros_like(G32.r), kind="flux")

    def test_with_values_revalidates(self):
        w = RadialField.potential(G32, np.zeros_like(G32.r))
        with pytest.raises(ValueError):
            w.with_values(np.ones_like(G32.r))


class TestFlowConfig:
    @pytest.mark.parametrize("limit", [(1.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
    def test_supported_limits(self, limit):
        FlowConfig(*limit, dt=1e-3, t_end=1.0)

    def test_unsupported_limit(self):
        with pytest.raises(ValueError, match=r"^\(delta1, delta2, epsilon\) = \(1.0, 1.0, 1.0\) is not one of "):
            FlowConfig(1.0, 1.0, 1.0, dt=1e-3, t_end=1.0)

    # a t_end below the dt floor forces one step below it
    @pytest.mark.parametrize(
        "kwargs", [dict(dt=0.0), dict(t_end=-1.0), dict(t_end=5e-324), dict(t_end=1e-310)]
    )
    def test_bad_times(self, kwargs):
        base = dict(delta1=1.0, delta2=1.0, epsilon=0.0, dt=1e-3, t_end=1.0)
        base.update(kwargs)
        ((name, value),) = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} = {value!r} must be >= 1e-14$"):
            FlowConfig(**base)

    @pytest.mark.parametrize("dt", [5e-324, 1e-300, 9.9e-15])
    def test_dt_below_the_floor(self, dt):
        with pytest.raises(ValueError, match=f"dt = {dt!r}"):
            FlowConfig(1.0, 0.0, 0.0, dt=dt, t_end=1.0)
        FlowConfig(1.0, 0.0, 0.0, dt=1e-14, t_end=1.0)


class TestProjectDensity:
    def test_constant_hits_target_exactly(self):
        f = RadialField.density(G32, np.ones_like(G32.r))
        out = project_density(f, 2.5)
        assert abs(integrate_disk(out) - 2.5) < 1e-14

    def test_zero_density(self):
        f = RadialField.density(G32, np.zeros_like(G32.r))
        with pytest.raises(ValueError, match="^cannot normalize a field with zero disk integral$"):
            project_density(f, 1.0)

    def test_nonpositive_mass(self):
        f = RadialField.density(G32, np.ones_like(G32.r))
        with pytest.raises(ValueError, match="^target mass 0.0 must be > 0$"):
            project_density(f, 0.0)

    @given(
        arrays(float, 33, elements=st.floats(0.0, 50.0)),
        st.floats(0.1, 20.0),
    )
    # near-subnormal samples: m / total overflows and the quadrature loses
    # bits unless the values are rescaled first
    @example(np.full(33, 2.22507386e-311), 1.0)
    @example(np.r_[5e-324, np.zeros(32)], 1.0)
    @example(np.r_[np.zeros(32), 5e-324], 1.0)
    @settings(max_examples=50, deadline=None)
    def test_projection_hits_target_mass(self, vals, m):
        if vals.sum() == 0.0:
            return
        f = RadialField.density(G32, vals)
        out = project_density(f, m)
        assert np.isclose(integrate_disk(out), m, rtol=1e-12)
        again = project_density(out, m)
        np.testing.assert_allclose(again.values, out.values, rtol=1e-14)


class TestCoupling:
    def test_made_once_per_params(self):
        p = Params(1.0, 2.0, 0.5, -1, 3.0, 4.0)
        assert p.coupling is p.coupling
        assert p.coupling == ((1.0, -2.0), (2.0, -0.5))

    def test_replace_gives_the_new_coupling(self):
        p = Params(1.0, 2.0, 0.5, -1, 3.0, 4.0)
        p.coupling
        q = replace(p, beta=3.0)
        assert q.coupling == ((1.0, -3.0), (3.0, -0.5))
        assert replace(q, theta=1).coupling == ((1.0, -3.0), (-3.0, -0.5))
        assert p.coupling == ((1.0, -2.0), (2.0, -0.5))
        assert q == Params(1.0, 3.0, 0.5, -1, 3.0, 4.0) and hash(q) == hash(Params(1.0, 3.0, 0.5, -1, 3.0, 4.0))
