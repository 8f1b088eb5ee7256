"""Stochastic dynamics of the spectral-norm Lipschitz bound.

Per-layer driving forces extracted from the gradient and the noise
covariance (drift from gradient/principal-direction alignment, nonnegative
noise-curvature growth, and diffusion intensity), their network-level
aggregation, and an Euler-Maruyama simulator used to validate the
decomposition on synthetic matrix ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import CallbackFailure, NotPSD
from .matcore import DenseMatrix, SvdTriple, full_svd, vec
from .svdcalc import _require_simple, sv_hessian_apply, sv_hessian_contract, sv_jacobian


_PSD_FLOOR = -1e-10


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues in [_PSD_FLOOR, 0) are clipped."""
    sym_defect = float(np.max(np.abs(cov - cov.T)))
    if sym_defect > 1e-10:
        raise NotPSD(f"covariance not symmetric (max asymmetry {sym_defect:.3e})")
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    if vals.min() < _PSD_FLOOR:
        raise NotPSD(f"covariance has eigenvalue {vals.min():.3e} below {_PSD_FLOOR}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _top_simple_svd(theta: DenseMatrix) -> SvdTriple:
    """SVD of theta, checked for a simple, nonzero sigma_1."""
    svd = full_svd(theta)
    _require_simple(svd.singulars, 1, svd.rank)
    return svd


@dataclass(frozen=True)
class LayerDynamicsState:
    """One layer's matrix, loss gradient, gradient-noise covariance and
    learning rate, with the SVD and covariance square root precomputed.
    ``grad`` is vec(G), the column-major vector of the gradient matrix G."""

    theta: DenseMatrix
    grad: np.ndarray
    noise_cov: DenseMatrix
    eta: float
    svd: SvdTriple
    sqrt_cov: np.ndarray

    @classmethod
    def create(cls, theta: DenseMatrix, grad, noise_cov: DenseMatrix, eta: float):
        if not 0 < eta < math.inf:
            raise ValueError(f"learning rate eta must be positive and finite, got {eta}")
        d = theta.rows * theta.cols
        grad = np.array(grad, dtype=np.float64)
        if grad.shape != (d,):  # a matrix G is refused, not flattened row-major
            raise ValueError(f"grad must be vec(G), of length {d}, got shape {grad.shape}")
        if noise_cov.shape != (d, d):
            raise ValueError(f"noise_cov must be {d}x{d}, got {noise_cov.shape}")
        sqrt_cov = _psd_sqrt(noise_cov.array)
        svd = _top_simple_svd(theta)
        grad.flags.writeable = False
        return cls(
            theta=theta, grad=grad, noise_cov=noise_cov, eta=eta, svd=svd, sqrt_cov=sqrt_cov
        )

    def with_theta(self, theta: DenseMatrix) -> "LayerDynamicsState":
        """The same gradient, covariance and learning rate at another matrix
        of the same shape. Reuses the covariance square root; the new SVD
        gets the same checks as in :meth:`create`."""
        if theta.shape != self.theta.shape:
            raise ValueError(f"theta shape {theta.shape} != {self.theta.shape}")
        return replace(self, theta=theta, svd=_top_simple_svd(theta))

    @property
    def sigma1(self) -> float:
        return self.svd.sigma(1)


@dataclass(frozen=True)
class NetworkDynamics:
    """Stack of layer states; Z is the summed log spectral norm, K = e^Z."""

    layers: tuple

    def __init__(self, layers):
        object.__setattr__(self, "layers", tuple(layers))
        if not self.layers:
            raise ValueError("need at least one layer")

    @property
    def log_bound(self) -> float:
        return float(sum(math.log(layer.sigma1) for layer in self.layers))

    @property
    def bound(self) -> float:
        return math.exp(self.log_bound)


def opnorm_jacobian(state: LayerDynamicsState) -> np.ndarray:
    """vec of the spectral-norm Jacobian u_1 v_1^T; unit l2 norm."""
    return vec(sv_jacobian(state.svd, 1))


@dataclass(frozen=True)
class DrivingForces:
    mu: float
    kappa: float
    lam: np.ndarray

    def __iter__(self):
        return iter((self.mu, self.kappa, self.lam))


def driving_forces(state: LayerDynamicsState) -> DrivingForces:
    """Decomposition of d sigma_1 / sigma_1:

      mu    = <J, -vec(grad)> / sigma_1          (gradient-alignment drift)
      kappa = eta/(2 sigma_1) * <H, Sigma>       (nonnegative noise-curvature term)
      lam   = sqrt(eta)/sigma_1 * Sigma^(1/2)^T J  (diffusion intensity)
    """
    j = opnorm_jacobian(state)
    s1 = state.sigma1
    mu = float(j @ (-state.grad)) / s1
    kappa = state.eta / (2.0 * s1) * sv_hessian_contract(state.svd, 1, state.noise_cov.array)
    lam = (math.sqrt(state.eta) / s1) * (state.sqrt_cov.T @ j)
    return DrivingForces(mu=mu, kappa=kappa, lam=lam)


def aggregate(net: NetworkDynamics):
    """Network totals: sums for the drift terms, root-sum-square for the
    diffusion intensities."""
    forces = [driving_forces(layer) for layer in net.layers]
    mu_z = float(sum(f.mu for f in forces))
    kappa_z = float(sum(f.kappa for f in forces))
    lambda_z = math.sqrt(sum(float(f.lam @ f.lam) for f in forces))
    return mu_z, kappa_z, lambda_z


def _stream(seed):
    # counter-based generator: reproducible and cheap to advance
    return np.random.Generator(np.random.Philox(key=seed))


def stored_steps(steps: int, store_every: int = 1):
    """Step numbers kept by euler_maruyama: 0, every store_every-th, final."""
    return sorted(set(range(0, steps + 1, store_every)) | {steps})


def check_simulation(dt: float, steps: int, seed: int = 0, store_every: int = 1):
    """Refuse settings :func:`euler_maruyama` cannot run, with a ValueError
    that names the setting."""
    if not 0 < dt < math.inf:
        raise ValueError(f"time step dt must be positive and finite, got {dt}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    _stream(seed)  # Philox refuses a key outside [0, 2**128)


def euler_maruyama(
    state: LayerDynamicsState,
    dt: float,
    steps: int,
    seed: int = 0,
    drift_fn=None,
    store_every: int = 1,
):
    """Simulate d vec(theta) = -vec(grad) dt + sqrt(eta) Sigma^(1/2) dB.

    Returns the trajectory as a list of DenseMatrix: the start, every
    store_every-th step, and the final step. ``drift_fn`` maps the current
    DenseMatrix to a gradient vector of length m*n; when absent the state's
    constant gradient is used. ``_kernels.em_path`` draws the noise step by
    step and keeps only the stored states: memory is stored states x m*n.
    """
    check_simulation(dt, steps, seed, store_every)
    m, n = state.theta.shape
    d = m * n
    rng = _stream(seed)
    scale = math.sqrt(state.eta * dt)

    def drift(x):
        if drift_fn is None:
            return state.grad
        theta = DenseMatrix.from_flat(m, n, x)
        try:
            g = drift_fn(theta)
        except Exception as exc:
            raise CallbackFailure("drift_fn failed") from exc
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (d,):
            raise ValueError(f"drift_fn must return a vector of length {d}, got shape {g.shape}")
        return g

    kept = _kernels.em_path(
        vec(state.theta), drift, state.sqrt_cov, dt, scale,
        (rng.standard_normal(d) for _ in range(steps)), stored_steps(steps, store_every),
    )
    return [DenseMatrix.from_flat(m, n, x) for x in kept]


def simulate_ensemble(
    state: LayerDynamicsState, dt: float, steps: int, n_paths: int, seed: int = 0
) -> np.ndarray:
    """Final theta of ``n_paths`` independent constant-drift paths, stacked
    as (n_paths, m, n), stepped by ``_kernels.em_path`` with one counter-based
    generator: reproducible for a given seed, and one path ends where
    :func:`euler_maruyama` does."""
    if not 0 < dt < math.inf:
        raise ValueError(f"time step dt must be positive and finite, got {dt}")
    if steps < 1 or n_paths < 1:
        raise ValueError("need steps >= 1, n_paths >= 1")
    m, n = state.theta.shape
    d = m * n
    rng = _stream(seed)
    scale = math.sqrt(state.eta * dt)
    thetas = np.tile(vec(state.theta), (n_paths, 1))
    (final,) = _kernels.em_path(
        thetas, lambda x: state.grad, state.sqrt_cov, dt, scale,
        (rng.standard_normal((n_paths, d)) for _ in range(steps)), [steps],
    )
    return final.reshape(n_paths, n, m).swapaxes(1, 2)


def log_lip_increment(state: LayerDynamicsState, d_theta: DenseMatrix) -> float:
    """Second-order proxy for log sigma_1(theta + d_theta) - log sigma_1:
    (<J, vec(d_theta)> + 1/2 vec^T H vec) / sigma_1."""
    if d_theta.shape != state.theta.shape:
        raise ValueError("d_theta shape mismatch")
    dv = vec(d_theta)
    j = opnorm_jacobian(state)
    hv = vec(sv_hessian_apply(state.svd, 1, d_theta))
    return (float(j @ dv) + 0.5 * float(dv @ hv)) / state.sigma1


def trajectory_stats(traj, steps: int, state: LayerDynamicsState, store_every: int = 1):
    """Per-stored-step rows (step, sigma1, Z, mu, kappa, ||lambda||) for a
    trajectory produced by :func:`euler_maruyama` from ``state`` with the
    same steps and store_every arguments.

    Every row uses the state's gradient, covariance (and its square root)
    and learning rate; only the SVD is recomputed, with the same checks as
    :meth:`LayerDynamicsState.create`, for rows that differ from state.theta.
    """
    labels = stored_steps(steps, store_every)
    if len(labels) != len(traj):
        raise ValueError(
            f"trajectory length {len(traj)} does not match steps={steps}, "
            f"store_every={store_every}"
        )
    rows = []
    for step, theta in zip(labels, traj):
        st = state if theta == state.theta else state.with_theta(theta)
        f = driving_forces(st)
        rows.append(
            (
                step,
                st.sigma1,
                math.log(st.sigma1),
                f.mu,
                f.kappa,
                float(np.linalg.norm(f.lam)),
            )
        )
    return rows
