import dataclasses
import math

import numpy as np
import pytest

from lipkit import activations
from lipkit.activations import (
    ELEMENTWISE,
    NAMES,
    _LOGIT_BOX,
    ActivationSpec,
    _elementwise,
    _top_eigenvalues,
    closed_form_lipschitz,
    make_activation,
    numeric_scalar_lipschitz,
    numeric_softmax_lipschitz,
    softmax_jacobian,
)
from lipkit.errors import NotSimplex, UnknownActivation

# appendix-precision constants
SWISH_K = 1.099839320129
GELU_K = 1.128904145185


class TestClosedForms:
    @pytest.mark.parametrize(
        "name,expect",
        [
            ("relu", 1.0),
            ("sigmoid", 0.25),
            ("tanh", 1.0),
            ("softplus", 1.0),
            ("softmax", 0.5),
        ],
    )
    def test_table_values(self, name, expect):
        spec = make_activation(name, dim=3 if name == "softmax" else 0)
        assert closed_form_lipschitz(spec) == expect

    def test_swish_appendix_digits(self):
        assert closed_form_lipschitz(make_activation("swish")) == pytest.approx(
            SWISH_K, abs=1e-9
        )

    @pytest.mark.parametrize("name", ["swish", "gelu"])
    def test_constant_is_the_least_double_not_below_the_exact_value(self, name):
        import mpmath

        with mpmath.workdps(50):
            if name == "swish":
                # 1/2 + x/4 at the root of x * tanh(x/2) = 2
                exact = 0.5 + mpmath.findroot(lambda x: x * mpmath.tanh(x / 2) - 2, 2.5) / 4
            else:
                # Phi + x*phi at x = sqrt(2)
                exact = (1 + mpmath.erf(1)) / 2 + mpmath.exp(-1) / mpmath.sqrt(mpmath.pi)
            const = closed_form_lipschitz(make_activation(name))
            assert mpmath.mpf(const) >= exact
            assert mpmath.mpf(math.nextafter(const, 0.0)) < exact

    def test_gelu_appendix_digits(self):
        assert closed_form_lipschitz(make_activation("gelu")) == pytest.approx(
            GELU_K, abs=1e-9
        )

    @pytest.mark.parametrize("name", ["leaky_relu", "elu"])
    def test_alpha_monotone_with_kink(self, name):
        alphas = [0.1, 0.5, 1.0, 1.5, 3.0]
        consts = [closed_form_lipschitz(make_activation(name, alpha=a)) for a in alphas]
        assert consts == [1.0, 1.0, 1.0, 1.5, 3.0]
        assert all(b >= a for a, b in zip(consts, consts[1:]))

    def test_unknown_name(self):
        with pytest.raises(UnknownActivation):
            make_activation("selu")

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            make_activation("leaky_relu", alpha=alpha)


class TestTable:
    @pytest.mark.parametrize("alpha", [1.0, 0.3, 2.0, -0.5, -2.0])
    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_derivative_matches_central_differences(self, name, alpha):
        # no probe point sits on the relu/elu kink at 0
        fn, derivative, _ = _elementwise(alpha)[name]
        xs, step = np.linspace(-6.0, 6.0, 24), 1e-5
        fd = (fn(xs + step) - fn(xs - step)) / (2 * step)
        assert np.max(np.abs(fd - derivative(xs))) <= 1e-6

    @pytest.mark.parametrize("alpha", [1e308, -1e308, 2.0, 1.0, 0.3])
    def test_leaky_relu_derivative_forms_no_product(self, alpha):
        # alpha * x overflows at alpha = 1e308; Python floats do not warn on it
        xs = np.array([-20.0, -1e-300, 0.0, 1e-300, 20.0])
        with np.errstate(all="raise"):
            got = _elementwise(alpha)["leaky_relu"][1](xs)
        assert got.tolist() == [alpha if alpha * x > x else 1.0 for x in xs.tolist()]


class TestSpec:
    def test_spec_is_a_plain_value(self):
        assert [f.name for f in dataclasses.fields(ActivationSpec)] == ["name", "alpha", "dim"]
        assert make_activation("gelu") == make_activation("gelu")

    def test_dim_kept_for_softmax_only(self):
        assert make_activation("tanh") == ActivationSpec("tanh")
        assert make_activation("softmax", dim=7).dim == 7

    @pytest.mark.parametrize("build", [make_activation, ActivationSpec])
    @pytest.mark.parametrize(
        "name, params, field",
        [("relu", {"alpha": 5}, "alpha"), ("tanh", {"dim": 7}, "dim"),
         ("softmax", {"dim": 3, "alpha": 3}, "alpha")],
    )
    def test_parameter_it_does_not_read_refused(self, build, name, params, field):
        with pytest.raises(ValueError, match=f"activation '{name}' does not read '{field}'"):
            build(name, **params)

    def test_parameter_at_its_default_accepted(self):
        assert make_activation("relu", alpha=1.0, dim=0) == make_activation("relu")

    @pytest.mark.parametrize("dim", [0, 1])
    def test_softmax_needs_dim_two(self, dim):
        with pytest.raises(ValueError, match="softmax needs dim >= 2"):
            ActivationSpec("softmax", dim=dim)

    def test_alpha_checked_before_name(self):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            ActivationSpec("selu", alpha=float("nan"))


class TestNumericScalar:
    def test_sigmoid_quarter_at_zero(self):
        res = numeric_scalar_lipschitz(make_activation("sigmoid"))
        assert res.value == pytest.approx(0.25, abs=1e-9)
        assert abs(res.argmax) <= 1e-4
        assert res.attained

    def test_tanh_one_at_zero(self):
        res = numeric_scalar_lipschitz(make_activation("tanh"))
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.attained

    def test_softplus_boundary_not_attained(self):
        res = numeric_scalar_lipschitz(make_activation("softplus"))
        assert res.value < 1.0
        assert res.value == pytest.approx(1.0, abs=5e-9)
        assert not res.attained

    @pytest.mark.parametrize(
        "name,alpha",
        [
            ("relu", 1.0),
            ("leaky_relu", 0.3),
            ("leaky_relu", 2.0),
            ("leaky_relu", -2.0),
            ("leaky_relu", -0.5),
            ("leaky_relu", 0.1),
            ("leaky_relu", 3.0),
            ("sigmoid", 1.0),
            ("tanh", 1.0),
            ("softplus", 1.0),
            ("elu", 0.5),
            ("elu", 1.7),
            ("elu", -2.0),
            ("elu", -0.5),
            ("elu", 0.1),
            ("elu", 3.0),
            ("swish", 1.0),
            ("gelu", 1.0),
        ],
    )
    def test_numeric_brackets_closed_form(self, name, alpha):
        spec = make_activation(name, alpha=alpha)
        closed = closed_form_lipschitz(spec)
        res = numeric_scalar_lipschitz(spec)
        assert res.value <= closed + 1e-6
        assert res.value >= closed - 1e-3

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            numeric_scalar_lipschitz(make_activation("tanh"), grid=8)

    @pytest.mark.parametrize(
        "domain", [(float("nan"), 5.0), (float("inf"), 5.0), (-20.0, float("inf")), (3.0, 3.0), (5.0, 3.0)]
    )
    def test_domain_validation(self, domain):
        with pytest.raises(ValueError, match="domain must be finite with lo < hi"):
            numeric_scalar_lipschitz(make_activation("tanh"), domain=domain)

    def test_softmax_rejected(self):
        with pytest.raises(UnknownActivation):
            numeric_scalar_lipschitz(make_activation("softmax", dim=3))



class TestSoftmaxJacobian:
    def test_two_point_half(self):
        j = softmax_jacobian(np.array([0.5, 0.5]))
        np.testing.assert_allclose(j.array, [[0.25, -0.25], [-0.25, 0.25]])
        assert np.linalg.norm(j.array, 2) == pytest.approx(0.5)

    def test_vertex_is_zero(self):
        assert not softmax_jacobian(np.array([1.0, 0.0])).array.any()

    def test_uniform_three(self):
        j = softmax_jacobian(np.ones(3) / 3.0)
        assert np.linalg.norm(j.array, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rows_sum_zero_and_psd(self, rng):
        p = rng.dirichlet(np.ones(6))
        j = softmax_jacobian(p).array
        np.testing.assert_allclose(j.sum(axis=1), 0.0, atol=1e-15)
        assert np.linalg.eigvalsh(j).min() >= -1e-12
        assert np.array_equal(j, j.T)

    def test_not_simplex(self):
        with pytest.raises(NotSimplex):
            softmax_jacobian(np.array([0.7, 0.7]))
        with pytest.raises(NotSimplex):
            softmax_jacobian(np.array([1.5, -0.5]))


class TestNumericSoftmax:
    def test_dim_two(self):
        assert numeric_softmax_lipschitz(2, restarts=4, seed=0) == pytest.approx(
            0.5, abs=1e-4
        )

    def test_dim_three_all_equal_start_is_third(self):
        # the all-equal-logits point itself scores 1/3; restarts escape it
        p = np.ones(3) / 3.0
        local = np.linalg.eigvalsh(np.diag(p) - np.outer(p, p))[-1]
        assert local == pytest.approx(1.0 / 3.0, abs=1e-12)
        best = numeric_softmax_lipschitz(3, restarts=8, seed=0)
        assert best > local
        assert best == pytest.approx(0.5, abs=1e-3)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            numeric_softmax_lipschitz(1)

    def test_restarts_validation(self):
        for restarts in (0, -2):
            with pytest.raises(ValueError, match=f"restarts must be at least 1, got {restarts}"):
                numeric_softmax_lipschitz(3, restarts=restarts)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_gradient_matches_central_differences(self, dim):
        step = 1e-6
        for z in np.random.default_rng(dim).standard_normal((5, dim)) * 2.0:
            grad = _top_eigenvalues(z[None])[1][0]
            lam, _ = _top_eigenvalues(np.vstack([z + step * np.eye(dim), z - step * np.eye(dim)]))
            fd = (lam[:dim] - lam[dim:]) / (2 * step)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("dim", [2, 3, 8, 10, 32])
    def test_reaches_half(self, dim):
        assert abs(numeric_softmax_lipschitz(dim) - 0.5) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 10, 16, 32, 64])
    def test_reaches_half_from_every_seed(self, dim):
        for seed in range(10):
            assert abs(numeric_softmax_lipschitz(dim, seed=seed) - 0.5) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_uniform_start_alone_reaches_half(self, dim):
        assert abs(numeric_softmax_lipschitz(dim, restarts=1) - 0.5) <= 1e-12

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("dim", [8, 32])
    def test_block_size_does_not_change_the_float(self, monkeypatch, dim, block):
        default = numeric_softmax_lipschitz(dim)
        stacks = []
        eigh = np.linalg.eigh

        def recording(a):
            stacks.append(len(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        monkeypatch.setattr(activations, "_BLOCK_BYTES", 8 * dim * dim * block)
        assert numeric_softmax_lipschitz(dim) == default
        assert max(stacks) == block

    def test_same_seed_same_float(self):
        assert numeric_softmax_lipschitz(8, seed=3) == numeric_softmax_lipschitz(8, seed=3)

    def test_eigh_calls_bounded(self, monkeypatch):
        # a derivative-free simplex search needs about 28 600 calls here
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        numeric_softmax_lipschitz(8, restarts=10, seed=0)
        assert 0 < len(calls) <= 4 * _LOGIT_BOX


def test_no_scipy_optimize_needed(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize called")

    for name in ("minimize", "minimize_scalar", "brentq"):
        monkeypatch.setattr(scipy.optimize, name, refuse)
    for name in NAMES:
        spec = make_activation(name, dim=3 if name == "softmax" else 0)
        closed = closed_form_lipschitz(spec)
        if name == "softmax":
            numeric = numeric_softmax_lipschitz(3)
        else:
            numeric = numeric_scalar_lipschitz(spec).value
        assert abs(numeric - closed) <= 1e-6
