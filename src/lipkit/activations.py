"""Lipschitz constants of standard activation functions.

Closed forms reproduce the exact suprema of |f'| (the spectral norm of the
Jacobian for the vector-valued case), and numerical maximizers provide an
independent check of each value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erf, expit, softmax

from .errors import NotSimplex, UnknownActivation
from .matcore import DenseMatrix

# softmax's sup 1/2 lies at diverging logits: sign steps of 1 carry the search
# on to this box's faces, where the two leading logits become equal
_LOGIT_BOX = 20.0
_BLOCK_BYTES = 2**20  # softmax starts advance in blocks of Jacobians this large


@dataclass(frozen=True)
class ActivationSpec:
    """A named activation and its parameters (PARAMS says which each name
    reads; a parameter it does not read must keep its default)."""

    name: str
    alpha: float = 1.0
    dim: int = 0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be a finite number, got {self.alpha!r}")
        # NAMES is a tuple, so a name that cannot be hashed is simply not in it
        if self.name not in NAMES:
            raise UnknownActivation(f"unknown activation {self.name!r}")
        read = PARAMS.get(self.name, ())
        for field in fields(self)[1:]:
            if field.name not in read and getattr(self, field.name) != field.default:
                raise ValueError(f"activation {self.name!r} does not read {field.name!r}")
        if self.name == "softmax" and self.dim < 2:
            raise ValueError("softmax needs dim >= 2")


def _phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def _norm_cdf(x):
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


# sup of d/dx [x*sigmoid(x)] = 1/2 + x/4 where x * tanh(x/2) = 2: the smallest
# double not below the exact 1.09983932012886691696...
_SWISH_CONSTANT = 1.099839320128867


def _elementwise(alpha):
    """name -> (f, f', exact sup |f'|) of each elementwise activation; f is
    the reference that the table's test checks f' against."""
    return {
        "relu": (lambda x: np.maximum(0.0, x), lambda x: np.where(x > 0, 1.0, 0.0), 1.0),
        "leaky_relu": (
            lambda x: np.maximum(alpha * x, x),  # f' compares by sign: alpha * x can overflow
            lambda x: np.where(np.sign(alpha - 1.0) * x > 0, alpha, 1.0),
            max(1.0, abs(alpha)),
        ),
        "sigmoid": (expit, lambda x: expit(x) * (1.0 - expit(x)), 0.25),
        "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2, 1.0),
        "softplus": (lambda x: np.logaddexp(0.0, x), expit, 1.0),
        "elu": (
            lambda x: np.where(x > 0, x, alpha * np.expm1(np.minimum(x, 0.0))),
            lambda x: np.where(x > 0, 1.0, alpha * np.exp(np.minimum(x, 0.0))),
            max(1.0, abs(alpha)),
        ),
        "swish": (
            lambda x: x * expit(x), lambda x: expit(x) + x * expit(x) * (1.0 - expit(x)),
            _SWISH_CONSTANT,
        ),
        # gelu's constant is Phi + x*phi at its critical point x = sqrt(2)
        "gelu": (
            lambda x: x * _norm_cdf(x), lambda x: _norm_cdf(x) + x * _phi(x),
            0.5 * (1.0 + math.erf(1.0)) + math.exp(-1.0) / math.sqrt(math.pi),
        ),
    }


ELEMENTWISE = tuple(_elementwise(1.0))
NAMES = ELEMENTWISE + ("softmax",)
# the parameters each activation reads; the others read none
PARAMS = {"leaky_relu": ("alpha",), "elu": ("alpha",), "softmax": ("dim",)}


def make_activation(name: str, alpha: float = 1.0, dim: int = 0) -> ActivationSpec:
    """The spec of a named activation."""
    return ActivationSpec(name, alpha, dim)


def closed_form_lipschitz(a: ActivationSpec) -> float:
    """Exact Lipschitz constant of the activation."""
    return 0.5 if a.name == "softmax" else _elementwise(a.alpha)[a.name][2]


@dataclass(frozen=True)
class NumericLipschitz:
    value: float
    attained: bool  # False when the grid max sits on the domain boundary
    argmax: float


def numeric_scalar_lipschitz(
    a: ActivationSpec, domain=(-20.0, 20.0), grid: int = 2048
) -> NumericLipschitz:
    """sup |f'| over a dense grid, refined by 4 passes of 2049 points over
    the cells around the best point so far. Suprema approached only at the
    boundary (softplus) are reported with attained=False rather than clamped."""
    if a.name == "softmax":
        raise UnknownActivation("softmax is not elementwise; use numeric_softmax_lipschitz")
    if grid < 64:
        raise ValueError("grid must be >= 64")
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"domain must be finite with lo < hi, got ({lo!r}, {hi!r})")
    derivative = _elementwise(a.alpha)[a.name][1]
    xs = np.linspace(lo, hi, grid)
    vals = np.abs(derivative(xs))
    idx = int(np.argmax(vals))
    best_x, best = float(xs[idx]), float(vals[idx])
    attained = not (idx == 0 or idx == grid - 1)
    for _ in range(4):
        xs = np.linspace(xs[max(0, idx - 1)], xs[min(len(xs) - 1, idx + 1)], 2049)
        vals = np.abs(derivative(xs))
        idx = int(np.argmax(vals))
        if vals[idx] > best:
            best, best_x = float(vals[idx]), float(xs[idx])
    return NumericLipschitz(value=best, attained=attained, argmax=best_x)


def softmax_jacobian(p) -> DenseMatrix:
    """diag(p) - p p^T for a probability vector p; symmetric PSD, rows sum to 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise NotSimplex("expected a 1-D probability vector")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-10:
        raise NotSimplex(
            f"entries must be >= 0 and sum to 1 (sum = {p.sum():.12g})"
        )
    return DenseMatrix(np.diag(p) - np.outer(p, p))


def _top_eigenvalues(z):
    """lam_max of diag(p) - p p^T at p = softmax(z), and its gradient, per row of z."""
    # dlam = v^T dJ v = dp^T g with g = v*v - 2 (v^T p) v; dp = J dz
    p = softmax(z, axis=1)
    jac = -p[:, :, None] * p[:, None, :]
    jac.reshape(len(p), -1)[:, :: p.shape[1] + 1] += p
    lam, v = (top[..., -1] for top in np.linalg.eigh(jac))
    g = v * v - 2.0 * np.sum(v * p, axis=1, keepdims=True) * v
    return lam, p * g - p * np.sum(p * g, axis=1, keepdims=True)


def numeric_softmax_lipschitz(dim: int, restarts: int = 10, seed: int = 0) -> float:
    """Maximize ||diag(p) - p p^T||_2 over logits in +-_LOGIT_BOX. The seeded
    starts advance together by projected sign-gradient steps of 1; each stops
    once its value has not risen for 3 steps, or after 4 * _LOGIT_BOX. The
    supremum 1/2 is approached as the mass concentrates on two coordinates."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_BYTES // (8 * dim * dim))
    best = 0.0
    for first in range(0, restarts, block):
        z = np.zeros((min(block, restarts - first), dim))
        for row, trial in enumerate(range(first, first + len(z))):
            if trial % 2 == 1:
                z[row] = rng.standard_normal(dim) * 3.0
            elif trial > 0:
                # two-coordinate head start: most of the mass on a random pair
                z[row] = -4.0
                z[row, rng.choice(dim, size=2, replace=False)] = 4.0
        top, stalled = np.full(len(z), -np.inf), np.zeros(len(z))
        for _ in range(int(4 * _LOGIT_BOX)):
            lam, grad = _top_eigenvalues(z)
            best = max(best, float(lam.max()))
            stalled = np.where(lam > top, 0, stalled + 1)
            top = np.maximum(top, lam)
            live = stalled < 3
            if not live.any():
                break
            z = np.clip(z[live] + np.sign(grad[live]), -_LOGIT_BOX, _LOGIT_BOX)
            top, stalled = top[live], stalled[live]
    return best
