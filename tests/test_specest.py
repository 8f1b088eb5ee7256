import math

import numpy as np
import pytest

from lipkit.errors import CallbackFailure, NonConvergence, NotSkew
from lipkit.matcore import DenseMatrix
from lipkit.specest import (
    bjorck_orthogonalize,
    cayley_orthogonal,
    expmap_orthogonal,
    local_lipschitz_sample,
    power_iteration,
    semi_orthogonality_defect,
)

from conftest import random_matrix_with_spectrum


class TestPowerIteration:
    def test_rank_one_converges_in_one_step(self, rng):
        a = rng.standard_normal(6)
        b = rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        res = power_iteration(DenseMatrix(5.0 * np.outer(a, b)), iters=1, seed=3)
        assert res.sigma_est == pytest.approx(5.0, abs=1e-12)

    def test_diag_two_one(self):
        res = power_iteration(DenseMatrix(np.diag([2.0, 1.0])), iters=50, seed=7)
        assert abs(res.sigma_est - 2.0) <= 2.0 * 0.5**50 * 1e4
        assert res.sigma_est == pytest.approx(2.0, abs=1e-12)

    def test_isotropic(self):
        res = power_iteration(DenseMatrix(2.5 * np.eye(4)), iters=3, seed=1)
        assert res.sigma_est == pytest.approx(2.5, abs=1e-12)

    def test_zero_matrix_convention(self):
        res = power_iteration(DenseMatrix(np.zeros((3, 2))), iters=5, seed=0)
        assert res.sigma_est == 0.0
        assert not res.u.any() and not res.v.any()
        assert res.ratio_est == 0.0

    @pytest.mark.parametrize("exponent", [-700, 700])
    def test_power_of_two_scale_changes_nothing_but_the_scale(self, exponent):
        # squared norms at 2^(+-1400) are out of float range; the iteration
        # must not see them
        a = np.random.default_rng(4).standard_normal((300, 300))
        res = power_iteration(DenseMatrix(a), iters=40, seed=2)
        scaled = power_iteration(DenseMatrix(np.ldexp(a, exponent)), iters=40, seed=2)
        assert scaled.sigma_est == math.ldexp(res.sigma_est, exponent)
        assert np.array_equal(scaled.history, np.ldexp(res.history, exponent))
        assert np.array_equal(scaled.u, res.u) and np.array_equal(scaled.v, res.v)
        assert scaled.ratio_est == res.ratio_est

    def test_tiny_entries_give_a_finite_estimate(self):
        a = 1e-200 * np.random.default_rng(5).standard_normal((300, 300))
        res = power_iteration(DenseMatrix(a), iters=100, seed=0)
        top = 1e-200 * np.linalg.norm(a / 1e-200, 2)
        assert 0.99 * top <= res.sigma_est <= top * (1 + 1e-12)

    def test_huge_entries_give_the_norm_not_zero(self):
        res = power_iteration(DenseMatrix(np.full((2, 2), 1e300)), iters=5, seed=0)
        assert res.sigma_est == pytest.approx(2e300, rel=1e-15)

    def test_never_exceeds_sigma1(self, rng):
        a = DenseMatrix(rng.standard_normal((8, 8)))
        top = np.linalg.svd(a.array, compute_uv=False)[0]
        for t in (1, 3, 10, 60):
            res = power_iteration(a, iters=t, seed=5)
            assert res.sigma_est <= top + 1e-12

    def test_monotone_on_spd(self, rng):
        b = rng.standard_normal((6, 6))
        spd = DenseMatrix(b @ b.T + 0.5 * np.eye(6))
        hist = power_iteration(spd, iters=40, seed=2).history
        assert np.all(np.diff(hist) >= -1e-12)

    def test_ratio_est_tracks_gap(self, rng):
        a = DenseMatrix(random_matrix_with_spectrum(rng, 16, 16, [1.0, 0.6] + [0.1] * 14))
        res = power_iteration(a, iters=60, seed=9)
        assert res.ratio_est == pytest.approx(0.6, abs=0.05)

    def test_residual_contracts_at_gap_rate(self, rng):
        # iterate residual ||A v - est*u|| shrinks by sigma2/sigma1 per step
        ratio = 0.7
        sigmas = [1.0, ratio] + list(ratio * np.exp(-np.linspace(0.3, 3, 10)))
        a = DenseMatrix(random_matrix_with_spectrum(rng, 12, 12, sigmas))
        ts = np.arange(4, 40, 2)
        residuals = []
        for t in ts:
            r = power_iteration(a, iters=int(t), seed=11)
            residuals.append(np.linalg.norm(a.array @ r.v - r.sigma_est * r.u))
        residuals = np.array(residuals)
        keep = residuals > 1e-12
        slope = np.polyfit(ts[keep], np.log(residuals[keep]), 1)[0]
        assert slope / np.log(ratio) == pytest.approx(1.0, abs=0.2)

    def test_iters_validation(self):
        with pytest.raises(ValueError):
            power_iteration(DenseMatrix(np.eye(2)), iters=0)


class TestLocalLipschitzSample:
    def test_constant_gradient(self):
        g = np.array([3.0, 4.0])
        est = local_lipschitz_sample(lambda x: g, np.zeros(2), 1.0, n_samples=8, seed=0)
        assert est == pytest.approx(5.0)

    def test_sine_reaches_analytic_sup(self):
        grad = lambda x: np.array([2 * np.pi * np.cos(2 * np.pi * x[0])])
        est = local_lipschitz_sample(grad, np.zeros(1), 1.0, n_samples=10_000, seed=1)
        assert est >= 0.999 * 2 * np.pi
        assert est <= 2 * np.pi + 1e-12

    def test_zero_gradient_field(self):
        est = local_lipschitz_sample(lambda x: np.zeros(3), np.zeros(3), 0.5, n_samples=16)
        assert est == 0.0

    def test_linf_ball_and_maxnorm(self):
        # gradient ||x||-dependent: sup over the cube is at a corner
        grad = lambda x: x
        est = local_lipschitz_sample(
            grad, np.zeros(2), 1.0, p=np.inf, q=np.inf, n_samples=20_000, seed=2
        )
        assert est == pytest.approx(1.0, abs=0.01)

    def test_general_p_ball_stays_inside(self):
        seen = []

        def grad(x):
            seen.append(np.sum(np.abs(x) ** 1.5) ** (1 / 1.5))
            return x

        local_lipschitz_sample(grad, np.zeros(3), 2.0, p=1.5, n_samples=256, seed=3)
        assert max(seen) <= 2.0 + 1e-9

    def test_callback_failure_wrapped(self):
        def bad(x):
            raise RuntimeError("boom")

        with pytest.raises(CallbackFailure):
            local_lipschitz_sample(bad, np.zeros(2), 1.0, n_samples=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            local_lipschitz_sample(lambda x: x, np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            local_lipschitz_sample(lambda x: x, np.zeros(2), 1.0, p=0.5)


class TestBjorck:
    def test_orthogonal_input_is_fixed_point(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        res = bjorck_orthogonalize(DenseMatrix(q), p_order=1, iters=10)
        assert max(res.defects) <= 1e-14

    def test_diag_example_converges(self):
        res = bjorck_orthogonalize(DenseMatrix(np.diag([2.0, 0.5])), p_order=1, iters=30)
        assert res.defects[-1] <= 1e-8
        assert len(res.defects) - 1 <= 30

    def test_random_tall_converges(self):
        rng = np.random.default_rng(4)
        res = bjorck_orthogonalize(DenseMatrix(rng.standard_normal((8, 4))), 1, 50)
        assert res.defects[-1] <= 1e-8

    def test_defects_nonincreasing(self, rng):
        res = bjorck_orthogonalize(DenseMatrix(rng.standard_normal((6, 3))), 1, 50)
        d = np.array(res.defects)
        assert np.all(np.diff(d) <= 1e-13)

    def test_higher_order_faster(self, rng):
        w = DenseMatrix(rng.standard_normal((6, 4)))
        slow = bjorck_orthogonalize(w, p_order=1, iters=50)
        fast = bjorck_orthogonalize(w, p_order=3, iters=50)
        assert len(fast.defects) <= len(slow.defects)
        assert fast.defects[-1] <= 1e-8

    def test_rank_deficient_raises(self):
        w = DenseMatrix(np.outer(np.ones(4), [1.0, 2.0]))  # rank 1, 2 columns
        with pytest.raises(NonConvergence):
            bjorck_orthogonalize(w, p_order=1, iters=50)


class TestCayley:
    def test_zero_gives_identity(self):
        q = cayley_orthogonal(DenseMatrix(np.zeros((3, 3))))
        np.testing.assert_allclose(q.array, np.eye(3))

    def test_planar_rotation(self):
        b = DenseMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        q = cayley_orthogonal(b).array
        assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-12
        assert np.linalg.det(q) == pytest.approx(1.0)

    def test_random_skew(self, rng):
        w = rng.standard_normal((5, 5))
        q = cayley_orthogonal(DenseMatrix(w - w.T)).array
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-10

    def test_not_skew_raises(self, rng):
        with pytest.raises(NotSkew):
            cayley_orthogonal(DenseMatrix(rng.standard_normal((4, 4))))


class TestExpMap:
    def test_symmetric_input_gives_identity(self, rng):
        b = rng.standard_normal((4, 4))
        q = expmap_orthogonal(DenseMatrix(b + b.T))
        np.testing.assert_allclose(q.array, np.eye(4), atol=1e-14)

    def test_rotation_closed_form(self):
        theta = 0.7
        q = expmap_orthogonal(DenseMatrix(np.array([[0.0, theta], [0.0, 0.0]]))).array
        expect = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        np.testing.assert_allclose(q, expect, atol=1e-14)

    def test_special_orthogonal(self, rng):
        q = expmap_orthogonal(DenseMatrix(rng.standard_normal((4, 4)))).array
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-8
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-8)

    def test_large_norm_scaling_squaring(self, rng):
        w = rng.standard_normal((5, 5)) * 4.0
        q = expmap_orthogonal(DenseMatrix(w)).array
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-10

    def test_matches_scipy(self, rng):
        import scipy.linalg

        w = rng.standard_normal((4, 4))
        got = expmap_orthogonal(DenseMatrix(w)).array
        expect = scipy.linalg.expm(w - w.T)
        np.testing.assert_allclose(got, expect, atol=1e-12)


class TestSemiOrthogonality:
    def test_identity(self):
        res = semi_orthogonality_defect(DenseMatrix(np.eye(3)))
        assert res.defect == 0.0 and res.is_isometry_side

    def test_column_orthonormal(self):
        res = semi_orthogonality_defect(DenseMatrix(np.eye(3)[:, :2]))
        assert res.defect == 0.0 and res.is_isometry_side

    def test_row_orthonormal(self):
        res = semi_orthogonality_defect(DenseMatrix(np.eye(3)[:2, :]))
        assert res.defect == pytest.approx(0.0, abs=1e-15)

    def test_diag_two_one(self):
        res = semi_orthogonality_defect(DenseMatrix(np.diag([2.0, 1.0])))
        assert res.defect == pytest.approx(3.0)
