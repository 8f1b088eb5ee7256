import math

import numpy as np
import pytest

from lipkit import dynamics
from lipkit.dynamics import (
    LayerDynamicsState,
    NetworkDynamics,
    aggregate,
    driving_forces,
    euler_maruyama,
    log_lip_increment,
    opnorm_jacobian,
    simulate_ensemble,
    trajectory_stats,
)
from lipkit.errors import CallbackFailure, DegenerateSpectrum, NotPSD
from lipkit.matcore import DenseMatrix, vec
from lipkit.svdcalc import fd_gradient_oracle, sv_hessian

from conftest import random_matrix_with_spectrum


def make_state(rng, sigmas=(2.0, 1.2, 0.7, 0.3), shape=(4, 5), eta=1e-3, cov=None, grad=None):
    theta = DenseMatrix(random_matrix_with_spectrum(rng, *shape, list(sigmas)))
    d = shape[0] * shape[1]
    if cov is None:
        cov = DenseMatrix(np.eye(d))
    if grad is None:
        grad = np.zeros(d)
    return LayerDynamicsState.create(theta, grad, cov, eta)


def random_psd(rng, d, scale=1.0):
    b = rng.standard_normal((d, d))
    return DenseMatrix(scale * (b @ b.T) / d)


class TestStateValidation:
    def test_asymmetric_cov_rejected(self, rng):
        theta = DenseMatrix(np.diag([2.0, 1.0]))
        cov = np.eye(4)
        cov[0, 1] = 0.5
        with pytest.raises(NotPSD):
            LayerDynamicsState.create(theta, np.zeros(4), DenseMatrix(cov), 0.1)

    def test_indefinite_cov_rejected(self):
        theta = DenseMatrix(np.diag([2.0, 1.0]))
        cov = np.diag([1.0, 1.0, -0.5, 1.0])
        with pytest.raises(NotPSD):
            LayerDynamicsState.create(theta, np.zeros(4), DenseMatrix(cov), 0.1)

    def test_grad_length_checked(self):
        theta = DenseMatrix(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            LayerDynamicsState.create(theta, np.zeros(3), DenseMatrix(np.eye(4)), 0.1)

    def test_matrix_grad_refused_asking_for_vec(self):
        # a 2-D gradient read row-major would pair G[0, 1] with theta[1, 0]
        theta = DenseMatrix(np.array([[2.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"grad must be vec\(G\), of length 4, got shape \(2, 2\)"):
            LayerDynamicsState.create(theta, np.eye(2), DenseMatrix(np.eye(4)), 0.1)

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            LayerDynamicsState.create(
                DenseMatrix(np.eye(2)), np.zeros(4), DenseMatrix(np.eye(4)), 0.1
            )

    def test_eta_positive(self):
        theta = DenseMatrix(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            LayerDynamicsState.create(theta, np.zeros(4), DenseMatrix(np.eye(4)), 0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -1.0])
    def test_eta_must_be_positive_and_finite(self, eta):
        theta = DenseMatrix(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError, match=f"eta must be positive and finite, got {eta}"):
            LayerDynamicsState.create(theta, np.zeros(4), DenseMatrix(np.eye(4)), eta)


class TestOpnormJacobian:
    def test_diag_example(self):
        state = LayerDynamicsState.create(
            DenseMatrix(np.diag([3.0, 1.0])), np.zeros(4), DenseMatrix(np.eye(4)), 0.1
        )
        np.testing.assert_allclose(opnorm_jacobian(state), [1.0, 0.0, 0.0, 0.0])

    def test_unit_norm(self, rng):
        state = make_state(rng)
        assert np.linalg.norm(opnorm_jacobian(state)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_fd_oracle(self, rng):
        state = make_state(rng, shape=(4, 5))
        fd = fd_gradient_oracle(state.theta, 1, 1e-6)
        np.testing.assert_allclose(opnorm_jacobian(state), vec(fd), atol=1e-8)


class TestDrivingForces:
    def test_noiseless_limit(self, rng):
        d = 20
        state = make_state(rng, cov=DenseMatrix(np.zeros((d, d))))
        f = driving_forces(state)
        assert f.kappa == 0.0
        assert not f.lam.any()

    def test_aligned_descent(self, rng):
        state0 = make_state(rng)
        c = 0.37
        grad = -c * opnorm_jacobian(state0)
        state = LayerDynamicsState.create(state0.theta, grad, state0.noise_cov, state0.eta)
        assert driving_forces(state).mu == pytest.approx(c / state.sigma1, abs=1e-12)

    def test_orthogonal_gradient(self, rng):
        state0 = make_state(rng)
        j = opnorm_jacobian(state0)
        g = rng.standard_normal(20)
        g -= (g @ j) * j
        state = LayerDynamicsState.create(state0.theta, g, state0.noise_cov, state0.eta)
        assert driving_forces(state).mu == pytest.approx(0.0, abs=1e-12)

    def test_mu_invariant_under_orthogonal_component(self, rng):
        state0 = make_state(rng, grad=None)
        j = opnorm_jacobian(state0)
        g = rng.standard_normal(20)
        perp = rng.standard_normal(20)
        perp -= (perp @ j) * j
        s1 = LayerDynamicsState.create(state0.theta, g, state0.noise_cov, state0.eta)
        s2 = LayerDynamicsState.create(state0.theta, g + 3.0 * perp, state0.noise_cov, state0.eta)
        assert driving_forces(s1).mu == pytest.approx(driving_forces(s2).mu, abs=1e-12)

    def test_kappa_matches_dense_hessian(self, rng):
        state0 = make_state(rng)
        cov = random_psd(rng, 20)
        state = LayerDynamicsState.create(state0.theta, state0.grad, cov, state0.eta)
        h = sv_hessian(state.svd, 1).array
        expect = state.eta / (2.0 * state.sigma1) * float(np.sum(h * cov.array))
        assert driving_forces(state).kappa == pytest.approx(expect, rel=1e-12)

    def test_kappa_nonnegative_random_psd(self, rng):
        state0 = make_state(rng)
        for _ in range(50):
            cov = random_psd(rng, 20)
            state = LayerDynamicsState.create(state0.theta, state0.grad, cov, state0.eta)
            assert driving_forces(state).kappa >= -1e-10

    def test_lambda_zero_iff_projected_noise_zero(self, rng):
        state0 = make_state(rng)
        j = opnorm_jacobian(state0)
        # covariance supported on the orthogonal complement of J
        basis = np.linalg.svd(np.eye(20) - np.outer(j, j))[0][:, :19]
        cov = DenseMatrix(basis @ basis.T)
        state = LayerDynamicsState.create(state0.theta, state0.grad, cov, state0.eta)
        assert np.linalg.norm(driving_forces(state).lam) <= 1e-9


class TestAggregate:
    def test_single_layer(self, rng):
        state = make_state(rng, grad=rng.standard_normal(20))
        f = driving_forces(state)
        mu_z, kappa_z, lambda_z = aggregate(NetworkDynamics([state]))
        assert mu_z == f.mu and kappa_z == f.kappa
        assert lambda_z == pytest.approx(np.linalg.norm(f.lam))

    def test_two_identical_layers(self, rng):
        state = make_state(rng, grad=rng.standard_normal(20))
        f = driving_forces(state)
        mu_z, kappa_z, lambda_z = aggregate(NetworkDynamics([state, state]))
        assert mu_z == pytest.approx(2 * f.mu)
        assert kappa_z == pytest.approx(2 * f.kappa)
        assert lambda_z == pytest.approx(math.sqrt(2) * np.linalg.norm(f.lam))

    def test_noiseless_layers(self, rng):
        state = make_state(rng, cov=DenseMatrix(np.zeros((20, 20))))
        _, kappa_z, lambda_z = aggregate(NetworkDynamics([state, state]))
        assert kappa_z == 0.0 and lambda_z == 0.0

    def test_bound_is_product_of_spectral_norms(self, rng):
        layers = [make_state(rng), make_state(rng, sigmas=(1.5, 0.9, 0.4, 0.2))]
        net = NetworkDynamics(layers)
        product = np.prod([l.sigma1 for l in layers])
        assert net.bound == pytest.approx(product, rel=1e-10)


class TestEulerMaruyama:
    def test_frozen_trajectory(self, rng):
        d = 20
        state = make_state(rng, cov=DenseMatrix(np.zeros((d, d))))
        traj = euler_maruyama(state, dt=0.1, steps=5, seed=0)
        for theta in traj:
            assert theta == state.theta

    def test_constant_drift_explicit_euler(self, rng):
        d = 20
        g = rng.standard_normal(d)
        state = make_state(rng, cov=DenseMatrix(np.zeros((d, d))), grad=g)
        traj = euler_maruyama(state, dt=0.05, steps=40, seed=0)
        expect = vec(state.theta) - g * 40 * 0.05
        np.testing.assert_allclose(vec(traj[-1]), expect, atol=1e-12)

    def test_drift_callback_matches_constant(self, rng):
        g = rng.standard_normal(20)
        state = make_state(rng, grad=g, eta=1e-4)
        a = euler_maruyama(state, dt=0.01, steps=20, seed=3)
        b = euler_maruyama(state, dt=0.01, steps=20, seed=3, drift_fn=lambda theta: g)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.array, tb.array)

    def test_state_dependent_drift_matches_step_loop(self, rng):
        state = make_state(rng, eta=1e-4)
        dt, steps, seed = 0.01, 20, 4
        traj = euler_maruyama(state, dt, steps, seed=seed, drift_fn=lambda theta: 0.5 * vec(theta))
        noise = dynamics._stream(seed).standard_normal((steps, traj[0].rows * traj[0].cols))
        x = vec(state.theta)
        expect = [x]
        for t in range(steps):
            x = x - 0.5 * x * dt + math.sqrt(state.eta * dt) * (state.sqrt_cov @ noise[t])
            expect.append(x)
        assert len(traj) == steps + 1
        for theta, x in zip(traj, expect):
            np.testing.assert_array_equal(vec(theta), x)

    def test_store_every_decimation(self, rng):
        state = make_state(rng, eta=1e-4)
        traj = euler_maruyama(state, dt=0.01, steps=10, seed=1, store_every=4)
        # steps 0, 4, 8 and the final step 10
        assert len(traj) == 4

    def test_deterministic_given_seed(self, rng):
        state = make_state(rng, eta=1e-4)
        a = euler_maruyama(state, dt=0.01, steps=15, seed=9)
        b = euler_maruyama(state, dt=0.01, steps=15, seed=9)
        assert all(x == y for x, y in zip(a, b))

    def test_validation(self, rng):
        state = make_state(rng)
        with pytest.raises(ValueError):
            euler_maruyama(state, dt=0.0, steps=5)
        with pytest.raises(ValueError):
            euler_maruyama(state, dt=0.1, steps=0)

    @pytest.mark.parametrize("simulate", ["euler_maruyama", "simulate_ensemble"])
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -1.0])
    def test_dt_must_be_positive_and_finite(self, rng, simulate, dt):
        state = make_state(rng)
        kwargs = {"n_paths": 2} if simulate == "simulate_ensemble" else {}
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
            getattr(dynamics, simulate)(state, dt=dt, steps=5, **kwargs)

    @pytest.mark.parametrize(
        "drift_fn, shape",
        [(lambda theta: 1.0, "()"), (lambda theta: theta.array.T, r"\(5, 4\)"),
         (lambda theta: vec(theta)[:, None], r"\(20, 1\)")],
        ids=["scalar", "transposed-matrix", "column"],
    )
    def test_drift_fn_must_return_a_vector_of_length_mn(self, rng, drift_fn, shape):
        state = make_state(rng)
        with pytest.raises(ValueError, match=f"length 20, got shape {shape}"):
            euler_maruyama(state, dt=0.01, steps=3, drift_fn=drift_fn)

    def test_raising_drift_fn_is_a_callback_failure(self, rng):
        state = make_state(rng)
        with pytest.raises(CallbackFailure, match="drift_fn") as info:
            euler_maruyama(state, dt=0.01, steps=3, drift_fn=lambda theta: 1 / 0)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_non_finite_state_is_not_a_callback_failure(self, rng):
        state = make_state(rng)
        with pytest.raises(ValueError, match="finite"):
            euler_maruyama(state, dt=0.01, steps=3, drift_fn=lambda theta: np.full(20, np.inf))


class TestLogLipIncrement:
    def test_zero(self, rng):
        state = make_state(rng)
        assert log_lip_increment(state, DenseMatrix(np.zeros((4, 5)))) == 0.0

    def test_top_direction_push(self, rng):
        state = make_state(rng)
        eps = 1e-4
        u1 = state.svd.u(1)
        v1 = state.svd.v(1)
        got = log_lip_increment(state, DenseMatrix(eps * np.outer(u1, v1)))
        assert got == pytest.approx(eps / state.sigma1, rel=1e-3)

    def test_matches_direct_svd_recomputation(self, rng):
        state = make_state(rng)
        d_theta = 1e-3 * rng.standard_normal((4, 5))
        got = log_lip_increment(state, DenseMatrix(d_theta))
        s_new = np.linalg.svd(state.theta.array + d_theta, compute_uv=False)[0]
        actual = math.log(s_new) - math.log(state.sigma1)
        # the proxy tracks d sigma / sigma: expansions differ at third order
        # plus the 1/2 (d sigma/sigma)^2 log-correction
        assert got == pytest.approx(actual, abs=5e-7)

    def test_shape_mismatch(self, rng):
        state = make_state(rng)
        with pytest.raises(ValueError):
            log_lip_increment(state, DenseMatrix(np.zeros((5, 4))))

    def test_matches_dense_quadratic_form(self, rng):
        state = make_state(rng)
        d_theta = rng.standard_normal((4, 5))
        dv = vec(DenseMatrix(d_theta))
        h = sv_hessian(state.svd, 1).array
        expect = (float(opnorm_jacobian(state) @ dv) + 0.5 * float(dv @ h @ dv)) / state.sigma1
        assert log_lip_increment(state, DenseMatrix(d_theta)) == pytest.approx(expect, rel=1e-12)


class TestEnsemble:
    def test_deterministic_and_shape(self, rng):
        state = make_state(rng, eta=1e-4)
        a = simulate_ensemble(state, dt=0.01, steps=10, n_paths=8, seed=4)
        b = simulate_ensemble(state, dt=0.01, steps=10, n_paths=8, seed=4)
        assert a.shape == (8, 4, 5)
        np.testing.assert_array_equal(a, b)

    def test_noiseless_paths_constant(self, rng):
        state = make_state(rng, cov=DenseMatrix(np.zeros((20, 20))))
        finals = simulate_ensemble(state, dt=0.01, steps=10, n_paths=3, seed=0)
        for f in finals:
            np.testing.assert_allclose(f, state.theta.array, atol=1e-14)

    def test_mean_log_growth_matches_kappa(self, rng):
        # smaller version of the module's central validation
        state = make_state(rng)
        f = driving_forces(state)
        dt, steps, paths = 0.01, 50, 4000
        finals = simulate_ensemble(state, dt, steps, paths, seed=12)
        s1 = np.linalg.svd(finals, compute_uv=False)[:, 0]
        dlog = np.log(s1) - math.log(state.sigma1)
        se = dlog.std(ddof=1) / math.sqrt(paths)
        assert abs(dlog.mean() - f.kappa * dt * steps) <= 3 * se


class TestTrajectoryStats:
    def test_rows_report_forces(self, rng):
        state = make_state(rng, eta=1e-4)
        traj = euler_maruyama(state, dt=0.01, steps=4, seed=2)
        rows = trajectory_stats(traj, 4, state)
        assert len(rows) == 5
        step0 = rows[0]
        assert step0[1] == pytest.approx(state.sigma1)
        assert step0[2] == pytest.approx(math.log(state.sigma1))
        f = driving_forces(state)
        assert step0[3] == pytest.approx(f.mu)
        assert step0[4] == pytest.approx(f.kappa)

    def test_step_labels_with_decimation(self, rng):
        state = make_state(rng, eta=1e-4)
        traj = euler_maruyama(state, dt=0.01, steps=10, seed=1, store_every=4)
        rows = trajectory_stats(traj, 10, state, store_every=4)
        assert [r[0] for r in rows] == [0, 4, 8, 10]

    def test_length_mismatch_rejected(self, rng):
        state = make_state(rng, eta=1e-4)
        traj = euler_maruyama(state, dt=0.01, steps=4, seed=2)
        with pytest.raises(ValueError):
            trajectory_stats(traj, 9, state)

    def test_one_covariance_root_per_run(self, rng, monkeypatch):
        # state, trajectory and per-row stats together take one eigh
        calls = []
        psd_sqrt = dynamics._psd_sqrt

        def counting(cov, *args, **kwargs):
            calls.append(cov.shape)
            return psd_sqrt(cov, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_psd_sqrt", counting)
        state = make_state(rng, eta=1e-4, cov=random_psd(rng, 20))
        traj = euler_maruyama(state, dt=0.01, steps=6, seed=2)
        rows = trajectory_stats(traj, 6, state)
        assert len(rows) == 7
        assert calls == [(20, 20)]

    def test_start_row_reuses_state_svd(self, rng, monkeypatch):
        state = make_state(rng, eta=1e-4)
        traj = euler_maruyama(state, dt=0.01, steps=3, seed=2)
        svds = []
        full_svd = dynamics.full_svd

        def counting(theta, *args, **kwargs):
            svds.append(theta)
            return full_svd(theta, *args, **kwargs)

        monkeypatch.setattr(dynamics, "full_svd", counting)
        trajectory_stats(traj, 3, state)
        assert svds == traj[1:]

    def test_rows_equal_per_row_states(self, rng):
        state = make_state(rng, eta=1e-4, cov=random_psd(rng, 20), grad=rng.standard_normal(20))
        traj = euler_maruyama(state, dt=0.01, steps=5, seed=4)
        rows = trajectory_stats(traj, 5, state)
        for row, theta in zip(rows, traj):
            st = LayerDynamicsState.create(theta, state.grad, state.noise_cov, state.eta)
            f = driving_forces(st)
            assert row[1:] == (
                st.sigma1, math.log(st.sigma1), f.mu, f.kappa, float(np.linalg.norm(f.lam))
            )

    def test_degenerate_row_rejected(self, rng):
        state = make_state(rng, eta=1e-4)
        traj = [state.theta, DenseMatrix(np.eye(4, 5))]
        with pytest.raises(DegenerateSpectrum):
            trajectory_stats(traj, 1, state)

    def test_row_shape_checked(self, rng):
        state = make_state(rng, eta=1e-4)
        traj = [state.theta, DenseMatrix(np.ones((5, 4)))]
        with pytest.raises(ValueError):
            trajectory_stats(traj, 1, state)
