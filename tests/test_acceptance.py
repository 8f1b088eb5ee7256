"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 7's ratio law is implemented exactly as specified and is
a known-red check; see the analysis in the repository notes.
"""

import math
import time

import numpy as np
import pytest

from lipkit.activations import (
    closed_form_lipschitz,
    make_activation,
    numeric_scalar_lipschitz,
    numeric_softmax_lipschitz,
)
from lipkit.dynamics import LayerDynamicsState, driving_forces, simulate_ensemble
from lipkit.fourlip import (
    SpectralSignal,
    band_bound,
    band_remove,
    grid_gradient_sup,
    spectral_lipschitz_bound,
)
from lipkit.matcore import DenseMatrix, full_svd, vec
from lipkit.netbounds import dag_bound
from lipkit.specest import (
    bjorck_orthogonalize,
    cayley_orthogonal,
    expmap_orthogonal,
    power_iteration,
    semi_orthogonality_defect,
)
from lipkit.specgame import CoalitionGame, importance_score, shapley_exact, shapley_mc
from lipkit.svdcalc import (
    PerturbationSeries,
    fd_gradient_oracle,
    sv_expansion_coeff,
    sv_hessian,
    sv_jacobian,
)

from conftest import random_matrix_with_spectrum
from test_netbounds import enumerate_path_sum, figure_graph, random_dag
from test_specgame import permutation_brute_force


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {name}: {status}{detail}")
    return ok


def jacobian_fixtures():
    """Ten 6x10 matrices: i.i.d. standard normal and uniform[0,1], seeds 1-5."""
    fixtures = []
    for seed in range(1, 6):
        fixtures.append(DenseMatrix(np.random.default_rng(seed).standard_normal((6, 10))))
    for seed in range(1, 6):
        fixtures.append(DenseMatrix(np.random.default_rng(seed).uniform(0.0, 1.0, (6, 10))))
    return fixtures


def test_criterion_1_jacobian_vs_finite_differences():
    start = time.monotonic()
    worst = 0.0
    for mat in jacobian_fixtures():
        svd = full_svd(mat)
        for k in range(1, svd.rank + 1):
            closed = sv_jacobian(svd, k)
            fd = fd_gradient_oracle(mat, k, step=1e-6)
            worst = max(worst, float(np.linalg.norm(closed.array - fd.array)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    assert report(
        1, "singular-value Jacobian", ok,
        f" (max l2 dev {worst:.3e}, {elapsed:.2f}s)",
    )


def test_criterion_2_hessian_vs_fd_of_jacobian():
    start = time.monotonic()
    step = 1e-5
    worst = 0.0
    psd_floor = 0.0
    for mat in jacobian_fixtures():
        svd = full_svd(mat)
        m, n = mat.shape
        base = np.array(mat.array)
        # FD of the closed-form Jacobian; one sweep covers every k
        fd = {k: np.empty((m * n, m * n)) for k in range(1, svd.rank + 1)}
        for col in range(m * n):
            i, j = col % m, col // m
            bumped = base.copy()
            bumped[i, j] += step
            up = full_svd(DenseMatrix(bumped))
            bumped[i, j] -= 2 * step
            down = full_svd(DenseMatrix(bumped))
            for k in fd:
                diff = sv_jacobian(up, k).array - sv_jacobian(down, k).array
                fd[k][:, col] = diff.ravel(order="F") / (2 * step)
        for k in fd:
            h = sv_hessian(svd, k).array
            worst = max(worst, float(np.abs(h - fd[k]).max()))
            assert np.array_equal(h, h.T), "Hessian must be exactly symmetric"
        h1 = sv_hessian(svd, 1).array
        psd_floor = min(psd_floor, float(np.linalg.eigvalsh(h1).min()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and psd_floor >= -1e-10 and elapsed < 30.0
    assert report(
        2, "singular-value Hessian", ok,
        f" (max dev {worst:.3e}, PSD floor {psd_floor:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_3_expansion_orders_one_to_four():
    rng = np.random.default_rng(2)
    base = DenseMatrix(random_matrix_with_spectrum(rng, 4, 4, [3.0, 2.1, 1.3, 0.6]))
    a1 = DenseMatrix(rng.standard_normal((4, 4)))
    series = PerturbationSeries(base, [a1])
    svd = full_svd(base)
    xs = np.array([s * 1e-3 for s in (-4, -3, -2, -1, 1, 2, 3, 4)])
    worst_rel = 0.0
    for k in (1, 2, 3, 4):
        coeffs = {n: sv_expansion_coeff(series, k, n) for n in (1, 2, 3, 4)}
        # polynomial-fit oracle over x in +-{1..4}e-3 (degree-5, scaled)
        ys = np.array(
            [np.linalg.svd(series.evaluate(x).array, compute_uv=False)[k - 1] for x in xs]
        )
        t = xs / 1e-3
        coef, *_ = np.linalg.lstsq(np.vander(t, 6, increasing=True), ys, rcond=None)
        for n in (1, 2, 3, 4):
            fit = coef[n] / (1e-3) ** n
            worst_rel = max(worst_rel, abs(coeffs[n] - fit) / max(1e-12, abs(fit)))
        # order 1: Jacobian pairing; order 2: half the Hessian quadratic form
        pairing = float(vec(sv_jacobian(svd, k)) @ vec(a1))
        assert abs(coeffs[1] - pairing) <= 1e-12
        quad = 0.5 * float(vec(a1) @ sv_hessian(svd, k).array @ vec(a1))
        assert abs(coeffs[2] - quad) <= 1e-9
    ok = worst_rel <= 1e-3
    assert report(3, "n-th order expansion", ok, f" (worst rel dev {worst_rel:.2e})")


def test_criterion_4_activation_constants():
    checks = []
    num = numeric_scalar_lipschitz(make_activation("sigmoid"))
    checks.append(abs(num.value - 0.25) <= 1e-9)
    num = numeric_scalar_lipschitz(make_activation("tanh"))
    checks.append(abs(num.value - 1.0) <= 1e-9)
    soft = numeric_scalar_lipschitz(make_activation("softplus"))
    checks.append(abs(soft.value - 1.0) <= 5e-9 and not soft.attained)
    checks.append(closed_form_lipschitz(make_activation("softplus")) == 1.0)
    checks.append(abs(closed_form_lipschitz(make_activation("swish")) - 1.09983932) <= 1e-6)
    checks.append(abs(closed_form_lipschitz(make_activation("gelu")) - 1.128904145) <= 1e-6)
    for dim in (2, 3, 10):
        est = numeric_softmax_lipschitz(dim, restarts=10, seed=0)
        checks.append(abs(est - 0.5) <= 1e-3)
    ok = all(checks)
    assert report(4, "activation constants", ok, f" ({sum(checks)}/{len(checks)} checks)")


def gaussian_signal(a, n=256, half_width=8.0):
    h = 2 * half_width / n
    coords = -half_width + h * np.arange(n)
    x, y = np.meshgrid(coords, coords, indexing="ij")
    return SpectralSignal(np.exp(-a * (x**2 + y**2)), (h, h))


def test_criterion_5_gaussian_spectral_bound():
    start = time.monotonic()
    sig = gaussian_signal(1.0)
    bound = spectral_lipschitz_bound(sig)
    sup = grid_gradient_sup(sig)
    checks = [
        abs(bound - math.sqrt(math.pi)) <= 0.02 * math.sqrt(math.pi),
        abs(sup - math.sqrt(2 / math.e)) <= 0.01 * math.sqrt(2 / math.e),
        sup < bound,
    ]
    target_ratio = math.sqrt(2 / (math.pi * math.e))
    for a in (0.5, 1.0, 2.0, 4.0):
        s = gaussian_signal(a)
        ratio = grid_gradient_sup(s) / spectral_lipschitz_bound(s)
        checks.append(abs(ratio - target_ratio) <= 0.03 * target_ratio)
    elapsed = time.monotonic() - start
    ok = all(checks) and elapsed < 10.0
    assert report(
        5, "Gaussian spectral bound", ok,
        f" (bound {bound:.5f}, sup {sup:.5f}, {elapsed:.2f}s)",
    )


def test_criterion_6_multi_sine_bound():
    worst_rel = 0.0
    ok = True
    n, period = 50_000, 10.0
    h = period / n
    x = -5.0 + h * np.arange(n)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        amps = rng.uniform(0.1, 1.0, 10)
        # frequencies land on the transform's bin grid (multiples of 1/period)
        # so the sampled sinusoids carry no leakage
        freqs = np.round(rng.uniform(0.1, 5.0, 10) / 0.1) * 0.1
        f = sum(a * np.sin(2 * np.pi * w * x) for a, w in zip(amps, freqs))
        sig = SpectralSignal(f, (h,))
        discrete = spectral_lipschitz_bound(sig)
        analytic = float(np.sum(2 * np.pi * amps * freqs))
        ok &= grid_gradient_sup(sig) <= discrete
        rel = abs(discrete - analytic) / analytic
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 0.01
    assert report(6, "multi-sine bound", ok, f" (worst rel dev {worst_rel:.2e})")


def test_criterion_7_band_perturbation_ratio():
    """Implemented exactly as specified. This check is known-red: on the
    discrete Gaussian experiment the measured sup/bound ratio is orders of
    magnitude above sqrt(pi)*delta for every eps convention; the cited
    ratio comes from comparing two small-perturbation approximations in
    which eps cancels, not from the realizable experiment. Analysis in the
    decisions notes."""
    sig = gaussian_signal(1.0)
    checks = []
    details = []
    for delta in (0.05, 0.1, 0.2):
        perturbed, eps = band_remove(sig, (1.0, 0.0), delta)
        bound = band_bound(sig, (1.0, 0.0), delta, eps)
        sup = float(np.max(np.abs(sig.samples - perturbed.samples)))
        ratio = sup / bound if bound > 0 else math.inf
        target = math.sqrt(math.pi) * delta
        checks.append(sup <= bound and abs(ratio - target) <= 0.25 * target)
        details.append(f"delta={delta}: ratio {ratio:.3g} vs {target:.3g}")
    ok = all(checks)
    assert report(7, "band perturbation ratio", ok, " (" + "; ".join(details) + ")")


def test_criterion_8_power_iteration():
    rng = np.random.default_rng(8)
    worst_slope_dev = 0.0
    worst_final = 0.0
    for trial in range(50):
        ratio = float(rng.uniform(0.4, 0.8))
        sigmas = [1.0, ratio] + list(ratio * np.exp(-np.linspace(0.4, 3.0, 30)))
        mat = DenseMatrix(random_matrix_with_spectrum(rng, 32, 32, sigmas))
        top = float(np.linalg.svd(mat.array, compute_uv=False)[0])
        final = power_iteration(mat, iters=200, seed=trial)
        worst_final = max(worst_final, abs(final.sigma_est - top))
        # iterate-error regression: the residual ||A v - est u|| contracts
        # once per iteration at the sigma_2/sigma_1 rate (the estimate's
        # value error contracts at twice that exponent, being quadratic in
        # the angle for any u^T A v-type estimate)
        ts, residuals = [], []
        for iters in range(4, 41, 2):
            res = power_iteration(mat, iters=iters, seed=trial)
            r = float(np.linalg.norm(mat.array @ res.v - res.sigma_est * res.u))
            if r > 1e-11:
                ts.append(iters)
                residuals.append(r)
        slope = np.polyfit(ts, np.log(residuals), 1)[0]
        worst_slope_dev = max(worst_slope_dev, abs(slope / math.log(ratio) - 1.0))
    ok = worst_slope_dev <= 0.2 and worst_final <= 1e-8
    assert report(
        8, "power iteration", ok,
        f" (worst slope dev {worst_slope_dev:.3f}, worst final err {worst_final:.2e})",
    )


def test_criterion_9_dag_bounds():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(100):
        g, lips = random_dag(rng)
        dp = dag_bound(g).bound
        brute = enumerate_path_sum(list(g.nodes), list(g.digraph.edges), lips, "s", "t")
        ok &= dp == brute
    ok &= dag_bound(figure_graph()).bound == 4.0
    # chain fixtures: spectral-norm products
    from lipkit.activations import make_activation
    from lipkit.netbounds import NetworkGraph, Node

    for seed in (1, 2, 3):
        mats = {
            f"w{i}": DenseMatrix(np.random.default_rng(seed + 10 * i).standard_normal((5, 5)))
            for i in range(3)
        }
        nodes = [Node("s", "input")]
        edges = []
        prev = "s"
        for i in range(3):
            nodes.append(Node(f"l{i}", "linear", weight_ref=f"w{i}"))
            edges.append((prev, f"l{i}"))
            prev = f"l{i}"
            if i < 2:
                nodes.append(Node(f"a{i}", "activation", activation=make_activation("relu")))
                edges.append((prev, f"a{i}"))
                prev = f"a{i}"
        g = NetworkGraph(nodes, edges, matrices=mats)
        got = dag_bound(g).bound
        expect = float(
            np.prod([np.linalg.svd(m.array, compute_uv=False)[0] for m in mats.values()])
        )
        ok &= abs(got - expect) <= 1e-12 * expect
    assert report(9, "DAG bounds", ok)


def test_criterion_10_dynamics_decomposition():
    start = time.monotonic()
    rng = np.random.default_rng(10)
    theta = DenseMatrix(random_matrix_with_spectrum(rng, 4, 5, [2.0, 1.2, 0.7, 0.3]))
    d = 20
    eta = 1e-3  # eta * ||Sigma|| = 1e-3 with Sigma = I
    state = LayerDynamicsState.create(theta, np.zeros(d), DenseMatrix(np.eye(d)), eta)
    forces = driving_forces(state)
    dt, steps, paths = 0.01, 100, 10_000
    horizon = dt * steps
    finals = simulate_ensemble(state, dt, steps, paths, seed=11)
    top = np.linalg.svd(finals, compute_uv=False)[:, 0]
    dlog = np.log(top) - math.log(state.sigma1)
    se = float(dlog.std(ddof=1) / math.sqrt(paths))
    mean_ok = abs(float(dlog.mean()) - forces.kappa * horizon) <= 3 * se
    lam_sq = float(forces.lam @ forces.lam)
    var_ok = abs(float(dlog.var(ddof=1)) / horizon - lam_sq) <= 0.10 * lam_sq
    kappa_ok = True
    for _ in range(1000):
        b = rng.standard_normal((d, d))
        cov = DenseMatrix((b @ b.T) / d)
        s = LayerDynamicsState.create(theta, np.zeros(d), cov, eta)
        kappa_ok &= driving_forces(s).kappa >= 0.0
    elapsed = time.monotonic() - start
    ok = mean_ok and var_ok and kappa_ok and elapsed < 60.0
    assert report(
        10, "dynamics decomposition", ok,
        f" (mean dev {abs(float(dlog.mean()) - forces.kappa * horizon):.2e} vs 3SE {3 * se:.2e}, "
        f"var rel {abs(float(dlog.var(ddof=1)) / horizon - lam_sq) / lam_sq:.3f}, {elapsed:.1f}s)",
    )


def test_criterion_11_shapley():
    rng = np.random.default_rng(11)
    ok = True
    # axioms on 100 random games, M <= 8
    for _ in range(100):
        m = int(rng.integers(2, 9))
        u = rng.standard_normal(1 << m)
        v = rng.standard_normal(1 << m)
        psi_u = shapley_exact(CoalitionGame(m, u))
        psi_v = shapley_exact(CoalitionGame(m, v))
        # efficiency
        ok &= abs(psi_u.sum() - (u[-1] - u[0])) <= 1e-10
        # linearity
        psi_sum = shapley_exact(CoalitionGame(m, u + v))
        ok &= np.abs(psi_sum - (psi_u + psi_v)).max() <= 1e-10
        # dummy: lift the game by one player that never changes the value
        lifted = np.concatenate([u, u])
        ok &= abs(shapley_exact(CoalitionGame(m + 1, lifted))[m]) <= 1e-12
        # symmetry: duplicate a player's role via mask relabeling of 0 <-> 1
        def swap01(mask):
            return (mask & ~3) | ((mask & 1) << 1) | ((mask >> 1) & 1)

        swapped = np.array([u[swap01(mask)] for mask in range(1 << m)])
        psi_swapped = shapley_exact(CoalitionGame(m, swapped))
        ok &= abs(psi_swapped[0] - psi_u[1]) <= 1e-12
        ok &= abs(psi_swapped[1] - psi_u[0]) <= 1e-12
    # exact values match permutation brute force for M <= 5
    for m in (2, 3, 4, 5):
        values = rng.standard_normal(1 << m)
        psi = shapley_exact(CoalitionGame(m, values))
        brute = permutation_brute_force(values, m)
        ok &= max(abs(p - float(b)) for p, b in zip(psi, brute)) <= 1e-12
    # MC within the cited error bound on M = 6 games
    for _ in range(3):
        values = rng.standard_normal(1 << 6)
        exact = shapley_exact(CoalitionGame(6, values))
        psi_mc, err = shapley_mc(lambda mask: values[mask], 6, n_perms=4000, seed=6)
        ok &= np.abs(psi_mc - exact).max() <= err
    # uniform importance scores zero
    for m in (2, 4, 8):
        ok &= importance_score(np.ones(m) / m) <= 1e-12
    assert report(11, "Shapley axioms and MC", ok)


def test_criterion_12_orthogonalization():
    ok = True
    for seed in (4, 5, 6):
        rng = np.random.default_rng(seed)
        res = bjorck_orthogonalize(DenseMatrix(rng.standard_normal((8, 4))), 1, 50)
        d = np.array(res.defects)
        ok &= bool(np.all(np.diff(d) <= 1e-13))
        ok &= res.defects[-1] <= 1e-8
    rng = np.random.default_rng(12)
    skew = rng.standard_normal((6, 6))
    q_cayley = cayley_orthogonal(DenseMatrix(skew - skew.T)).array
    ok &= np.linalg.norm(q_cayley.T @ q_cayley - np.eye(6)) <= 1e-10
    q_exp = expmap_orthogonal(DenseMatrix(rng.standard_normal((5, 5)))).array
    ok &= np.linalg.norm(q_exp.T @ q_exp - np.eye(5)) <= 1e-10
    # semi-orthogonal inputs certify Lip = 1
    tall, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    cert = semi_orthogonality_defect(DenseMatrix(tall))
    ok &= cert.defect <= 1e-12 and cert.is_isometry_side
    ok &= np.linalg.norm(tall, 2) == pytest.approx(1.0, abs=1e-12)
    assert report(12, "orthogonalization", ok)
