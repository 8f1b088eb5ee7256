"""Spectral-norm estimation and matrix orthogonalization.

Power iteration (the alternating normalized update), sampled lower
estimates of local Lipschitz constants, and three orthogonalization
procedures: the truncated inverse-square-root iteration, the rational skew
map, and the matrix exponential of the antisymmetric part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.stats

from . import _kernels
from .errors import CallbackFailure, NonConvergence, NotSkew
from .matcore import DenseMatrix


@dataclass(frozen=True)
class PowerIterationResult:
    sigma_est: float
    u: np.ndarray
    v: np.ndarray
    ratio_est: float
    history: np.ndarray  # estimate after each iteration


def power_iteration(a: DenseMatrix, iters: int, seed: int = 0) -> PowerIterationResult:
    """Estimate sigma_1 by alternating normalized updates.

    Each iteration maps the pair (u, v) to (normalize(A v), normalize(A^T u))
    and records u^T A v. The start couples v_0 to u_0 so the estimate
    converges to +sigma_1. A zero matrix returns a 0 estimate with zero
    vectors (Lip = 0 by convention).

    ``ratio_est`` is the square root of the observed contraction of
    successive estimate deltas, a diagnostic proxy for sigma_2/sigma_1.

    The iteration runs on A / 2^e, 2^(e-1) <= max|a_ij| < 2^e, so that no
    squared norm leaves the float range; the estimates are multiplied back
    by 2^e. Power-of-two scaling is exact, so nothing else changes, except
    that ``ratio_est``'s noise floor (deltas below 1e-15) is relative to 2^e.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    top = float(np.max(np.abs(a.array)))
    if top == 0.0:
        m, n = a.shape
        return PowerIterationResult(0.0, np.zeros(m), np.zeros(n), 0.0, np.zeros(iters))
    exponent = math.frexp(top)[1]
    arr = np.ldexp(a.array, -exponent, order="C")
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(a.rows)
    u, v, history = _kernels.power_iterate(arr, np.ascontiguousarray(arr.T), u0, iters)
    deltas = np.abs(np.diff(history))
    valid = (deltas[:-1] > 1e-15) & (deltas[1:] > 1e-15)
    if np.any(valid):
        contraction = float(np.median(deltas[1:][valid] / deltas[:-1][valid]))
        ratio_est = math.sqrt(min(max(contraction, 0.0), 1.0))
    else:
        ratio_est = 0.0
    history = np.ldexp(history, exponent)
    return PowerIterationResult(float(history[-1]), u, v, ratio_est, history)


def _sample_ball(rng, center, radius, p, n_samples):
    """Uniform samples in the l_p ball of the given radius around center."""
    d = center.shape[0]
    if np.isinf(p):
        offsets = rng.uniform(-radius, radius, size=(n_samples, d))
    else:
        if p == 2.0:
            g = rng.standard_normal((n_samples, d))
        else:
            g = scipy.stats.gennorm.rvs(p, size=(n_samples, d), random_state=rng)
        norms = np.linalg.norm(g, ord=p, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        shell = rng.uniform(0.0, 1.0, size=(n_samples, 1)) ** (1.0 / d)
        offsets = radius * shell * g / norms
    return center[None, :] + offsets


def local_lipschitz_sample(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    center,
    radius: float,
    p: float = 2.0,
    q: float = 2.0,
    n_samples: int = 1024,
    seed: int = 0,
) -> float:
    """Max of ||grad_fn(x)||_q over uniform samples of B_p(center, radius).

    A lower estimate of the local q-norm Lipschitz constant on the ball.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if p < 1 or q < 1:
        raise ValueError("norm exponents must satisfy p, q >= 1")
    center = np.asarray(center, dtype=np.float64)
    rng = np.random.default_rng(seed)
    xs = _sample_ball(rng, center, radius, p, n_samples)
    best = 0.0
    for x in xs:
        try:
            g = np.asarray(grad_fn(x), dtype=np.float64)
        except Exception as exc:
            raise CallbackFailure(f"grad_fn failed at sample {x!r}") from exc
        val = float(np.max(np.abs(g))) if np.isinf(q) else float(
            np.sum(np.abs(g) ** q) ** (1.0 / q)
        )
        best = max(best, val)
    return best


@dataclass(frozen=True)
class BjorckResult:
    matrix: DenseMatrix
    defects: tuple  # ||W_k^T W_k - I||_F per iterate, element 0 = start


def _series_coefficients(p_order):
    # (-1)^q * binom(-1/2, q): 1, 1/2, 3/8, 5/16, ...
    coefs = [1.0]
    for q in range(1, p_order + 1):
        coefs.append(coefs[-1] * (2 * q - 1) / (2 * q))
    return coefs


def bjorck_orthogonalize(w: DenseMatrix, p_order: int = 1, iters: int = 50) -> BjorckResult:
    """Iterate W <- W (I + 1/2 Q + ...), Q = I - W^T W, toward W^T W = I.

    Requires full column rank. Inputs with spectral norm above the
    truncated series' contraction basin (sigma >= sqrt(3) at order 1) are
    pre-scaled by 1/sigma_1, which leaves the orthogonal limit unchanged.
    Raises NonConvergence when the orthogonality defect fails to decrease
    for 3 consecutive iterations.
    """
    if p_order < 1:
        raise ValueError("p_order must be >= 1")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    x = np.array(w.array)
    top = np.linalg.norm(x, 2) if np.any(x) else 0.0
    if top > 0.99 * math.sqrt(2.0):
        x /= top
    coefs = _series_coefficients(p_order)
    n = w.cols
    eye = np.eye(n)
    defects = [float(np.linalg.norm(x.T @ x - eye))]
    stalls = 0
    for _ in range(iters):
        q = eye - x.T @ x
        poly = coefs[p_order] * eye
        for c in reversed(coefs[:-1]):
            poly = c * eye + q @ poly
        x = x @ poly
        defect = float(np.linalg.norm(x.T @ x - eye))
        if defect >= defects[-1] and defect > 1e-13:
            stalls += 1
            if stalls >= 3:
                raise NonConvergence(
                    f"orthogonality defect stalled at {defect:.3e} "
                    f"(rank-deficient or ill-conditioned input?)"
                )
        else:
            stalls = 0
        defects.append(defect)
        if defect <= 1e-15:
            break
    return BjorckResult(DenseMatrix(x), tuple(defects))


_SKEW_TOL = 1e-10  # largest ||B + B^T||_F of cayley_orthogonal, relative to max(1, ||B||_F)


def cayley_orthogonal(b: DenseMatrix) -> DenseMatrix:
    """(I + B/2)(I - B/2)^-1 for skew-symmetric B; always orthogonal."""
    if b.rows != b.cols:
        raise NotSkew(f"expected square input, got {b.rows}x{b.cols}")
    arr = b.array
    skew_defect = np.linalg.norm(arr + arr.T)
    if skew_defect > _SKEW_TOL * max(1.0, np.linalg.norm(arr)):
        raise NotSkew(f"skew defect {skew_defect:.3e} exceeds tolerance {_SKEW_TOL:.1e}")
    n = b.rows
    half = 0.5 * arr
    lhs = np.eye(n) - half
    rhs = np.eye(n) + half
    # X = rhs @ inv(lhs): solve lhs^T X^T = rhs^T
    x = np.linalg.solve(lhs.T, rhs.T).T
    return DenseMatrix(x)


def expmap_orthogonal(w: DenseMatrix) -> DenseMatrix:
    """exp(W - W^T) (scipy's Pade scaling-and-squaring ``expm``).

    The antisymmetric part generates a rotation, so the result is orthogonal
    with determinant +1.
    """
    if w.rows != w.cols:
        raise ValueError(f"expected square input, got {w.rows}x{w.cols}")
    return DenseMatrix(scipy.linalg.expm(w.array - w.array.T))


class SemiOrthogonality(NamedTuple):
    defect: float
    is_isometry_side: bool  # True when ||W^T W - I|| attains the min


def semi_orthogonality_defect(w: DenseMatrix) -> SemiOrthogonality:
    """min(||W^T W - I||_F, ||W W^T - I||_F) and which side attains it.

    A defect at 0 certifies Lip[W] = 1 (semi-orthogonal matrix).
    """
    col_defect = float(np.linalg.norm(w.array.T @ w.array - np.eye(w.cols)))
    row_defect = float(np.linalg.norm(w.array @ w.array.T - np.eye(w.rows)))
    if col_defect <= row_defect:
        return SemiOrthogonality(col_defect, True)
    return SemiOrthogonality(row_defect, False)
