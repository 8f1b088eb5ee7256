"""Each numpy kernel against an independent reference computation."""

import math
import tracemalloc

import numpy as np
import pytest

from lipkit import _kernels
from lipkit.dynamics import LayerDynamicsState, euler_maruyama, simulate_ensemble
from lipkit.matcore import DenseMatrix

from conftest import random_matrix_with_spectrum


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_backend_reports_numpy():
    assert _kernels.backend_name() == "numpy"


def test_power_iterate_converges_to_spectral_norm(rng):
    a = np.ascontiguousarray(random_matrix_with_spectrum(rng, 9, 6, [3.0, 1.0, 0.5, 0.2]))
    _, _, history = _kernels.power_iterate(a, np.ascontiguousarray(a.T), rng.standard_normal(9), 60)
    assert history[-1] == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_power_iterate_two_products_per_step(rng):
    # one product with A and one with A^T per step, plus the two that start it
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return np.asarray(self) @ other

    a = rng.standard_normal((6, 4))
    _kernels.power_iterate(a.view(Counted), a.T.copy().view(Counted), rng.standard_normal(6), 10)
    assert len(products) == 2 + 2 * 10


def shapley_loop(values, weights, popcounts, n_players):
    """Explicit per-mask sum of weighted marginal contributions."""
    psi = np.zeros(n_players)
    for i in range(n_players):
        bit = 1 << i
        acc = 0.0
        for mask in range(values.shape[0]):
            if mask & bit:
                continue
            acc += weights[popcounts[mask]] * (values[mask | bit] - values[mask])
        psi[i] = acc
    return psi


def test_shapley_accumulate_matches_mask_loop(rng):
    m = 7
    values = rng.standard_normal(1 << m)
    weights = np.array(
        [math.factorial(s) * math.factorial(m - 1 - s) / math.factorial(m) for s in range(m)]
    )
    pc = np.array([bin(mask).count("1") for mask in range(1 << m)], dtype=np.int64)
    np.testing.assert_allclose(
        _kernels.shapley_accumulate(values, weights, pc, m),
        shapley_loop(values, weights, pc, m),
        atol=1e-12,
    )


def cumulative_sum_paths(theta, drift, sqrt_cov, noise, dt, scale):
    """Every state of constant-drift Euler-Maruyama paths, start included."""
    steps = np.cumsum(-drift * dt + scale * noise @ sqrt_cov.T, axis=0)
    return np.concatenate([theta[None], theta + steps])


def test_em_path_matches_cumulative_sum(rng):
    theta = rng.standard_normal(8)
    drift = rng.standard_normal(8)
    sqrt_cov = rng.standard_normal((8, 8))
    noise = rng.standard_normal((30, 8))
    dt, scale = 0.02, 0.05
    expect = cumulative_sum_paths(theta, drift, sqrt_cov, noise, dt, scale)
    np.testing.assert_allclose(
        _kernels.em_path(theta, lambda x: drift, sqrt_cov, dt, scale, iter(noise), range(31)),
        expect,
        atol=1e-13,
    )


@pytest.mark.parametrize("keep", [range(31), [0, 7, 30], {30, 12}], ids=["all", "subset", "set"])
def test_em_path_stacked_paths_and_kept_steps(rng, keep):
    thetas = rng.standard_normal((3, 8))
    drift = rng.standard_normal(8)
    sqrt_cov = rng.standard_normal((8, 8))
    noise = rng.standard_normal((30, 3, 8))
    dt, scale = 0.02, 0.05
    expect = cumulative_sum_paths(thetas, drift, sqrt_cov, noise, dt, scale)
    got = _kernels.em_path(thetas, lambda x: drift, sqrt_cov, dt, scale, iter(noise), keep)
    assert len(got) == len(keep)
    np.testing.assert_allclose(got, expect[sorted(keep)], atol=1e-13)


def direct_dft_loop(samples, proj, ts, scale):
    """Explicit cos/sin double loop."""
    out = np.empty(ts.shape[0], dtype=np.complex128)
    for j in range(ts.shape[0]):
        acc_re = 0.0
        acc_im = 0.0
        w = -2.0 * math.pi * ts[j]
        for i in range(samples.shape[0]):
            ang = w * proj[i]
            acc_re += samples[i] * math.cos(ang)
            acc_im += samples[i] * math.sin(ang)
        out[j] = complex(acc_re * scale, acc_im * scale)
    return out


def test_direct_dft_matches_cos_sin_loop(rng):
    samples = rng.standard_normal(300)
    proj = rng.standard_normal(300)
    ts = np.linspace(-2.0, 2.0, 21)
    np.testing.assert_allclose(
        _kernels.direct_dft(samples, (proj,), ts, 0.3),
        direct_dft_loop(samples, proj, ts, 0.3),
        atol=1e-12,
    )


def test_direct_dft_2d_matches_cos_sin_loop(rng):
    # non-square grid, unequal spacings, a negative direction component
    grid = rng.standard_normal((5, 7))
    direction = (0.28, -0.96)
    p0 = direction[0] * (0.3 * np.arange(5))
    p1 = direction[1] * (0.7 * np.arange(7))
    proj = (p0[:, None] + p1[None, :]).ravel()
    ts = np.array([0.0, -3.5, -1.0, 0.25, 2.0, 4.75])
    np.testing.assert_allclose(
        _kernels.direct_dft(grid.ravel(), (p0, p1), ts, 0.21),
        direct_dft_loop(grid.ravel(), proj, ts, 0.21),
        atol=1e-12,
    )


def test_direct_dft_2d_memory_stays_small():
    # 256 x 256 grid, 64 values of t: a (T x N) phase matrix alone would be
    # 4 194 304 complex entries, 67 MB
    n = 256
    samples = np.random.default_rng(0).standard_normal(n * n)
    axis = 0.6 * (np.arange(n) / n), 0.8 * (np.arange(n) / n)
    ts = np.linspace(0.0, n / 4, 64)
    tracemalloc.start()
    try:
        out = _kernels.direct_dft(samples, axis, ts, 1.0 / n**2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (64,)
    assert peak < 8_000_000


def test_simulate_ensemble_pinned_output():
    # Diagonal covariance: every noise product has one nonzero term, so the
    # result does not depend on the BLAS summation order.
    state = LayerDynamicsState.create(
        DenseMatrix(np.array([[2.0, 0.5], [0.25, 1.0]])),
        np.array([0.5, -1.0, 0.25, 2.0]),
        DenseMatrix(np.diag([0.5, 1.0, 2.0, 0.25])),
        0.01,
    )
    finals = simulate_ensemble(state, dt=0.1, steps=4, n_paths=3, seed=7)
    expect = np.array(
        [
            [[1.7968188361300224, 0.4057015512363179], [0.7273811849044133, 0.21124792664999012]],
            [[1.8402957608483992, 0.4706855934814978], [0.6079885147384606, 0.20150756668202083]],
            [[1.8059544967344694, 0.42734945646579825], [0.6345112912518868, 0.20965051993862846]],
        ]
    )
    np.testing.assert_array_equal(finals, expect)


def test_one_path_ensemble_ends_where_euler_maruyama_ends(rng):
    theta = DenseMatrix(random_matrix_with_spectrum(rng, 3, 4, [2.0, 1.0, 0.5]))
    cov = rng.standard_normal((12, 12))
    state = LayerDynamicsState.create(
        theta, rng.standard_normal(12), DenseMatrix(cov @ cov.T / 12), 1e-3
    )
    path = euler_maruyama(state, dt=0.05, steps=25, seed=3, store_every=25)
    (final,) = simulate_ensemble(state, dt=0.05, steps=25, n_paths=1, seed=3)
    np.testing.assert_array_equal(final, path[-1].array)


def test_em_path_memory_does_not_grow_with_steps():
    # 20 000 steps of a 20-entry state with two stored states; a (steps, d)
    # noise array alone would be 3.2 MB
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 20))
    state = LayerDynamicsState.create(
        DenseMatrix(random_matrix_with_spectrum(rng, 4, 5, [2.0, 1.0, 0.5, 0.2])),
        np.zeros(20),
        DenseMatrix(a @ a.T / 20),
        1e-4,
    )
    tracemalloc.start()
    try:
        traj = euler_maruyama(state, dt=0.01, steps=20000, seed=0, store_every=10000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 3
    assert peak < 1_000_000
