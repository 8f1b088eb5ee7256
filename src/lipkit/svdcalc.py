"""Singular-value perturbation calculus.

Closed-form first and second derivatives of singular values, the symmetric
embedding that turns singular-value problems into eigenvalue problems, the
reduced resolvent built from its eigenspaces, arbitrary-order expansion
coefficients, and a finite-difference oracle used to validate all of it.

All singular-value indices k are 1-based: sigma(1) is the largest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSpectrum, NonConvergence, OrderOverflow, ZeroSingular,
                     overflow_raises)
from .matcore import DenseMatrix, SvdTriple, _numerical_rank, full_svd

GAP_TOL_REL = 1e-8
MAX_EXPANSION_ORDER = 6
# largest dense Hessian `svd-deriv --order 2` will build (256 MiB: mn <= 5792)
MAX_HESSIAN_BYTES = 1 << 28


def _require_simple(s: np.ndarray, k: int, rank: int):
    """sigma_k must be nonzero (k in 1..rank) and sit more than
    GAP_TOL_REL * sigma_1 from every other singular value in ``s``."""
    if not 1 <= k <= rank:
        raise ZeroSingular(
            f"k={k} outside 1..rank={rank}; derivative has 1/sigma_k terms"
        )
    tol = GAP_TOL_REL * s[0]
    others = np.delete(s, k - 1)
    if others.size:
        gap = float(np.min(np.abs(others - s[k - 1])))
        if gap <= tol:
            raise DegenerateSpectrum(
                f"sigma_{k} within {gap:.3e} of a neighbor (tol {tol:.3e})", gap=gap
            )


def sv_jacobian(svd: SvdTriple, k: int) -> DenseMatrix:
    """d sigma_k / dA = u_k v_k^T, valid for simple sigma_k > 0."""
    _require_simple(svd.singulars, k, svd.rank)
    return DenseMatrix(np.outer(svd.u(k), svd.v(k)))


def check_hessian_budget(rows: int, cols: int):
    """Refuse a dense (rows*cols)^2 Hessian larger than MAX_HESSIAN_BYTES,
    before anything of that size is allocated.

    The limit covers H alone. Building H holds about twice its size (the
    columns C next to their half-sum H), and a finite-difference check adds
    the oracle's result and the difference, so the real peak is 2-3x the
    limit. :func:`sv_hessian` itself does not call this.
    """
    nbytes = 8 * (rows * cols) ** 2
    if nbytes > MAX_HESSIAN_BYTES:
        raise ValueError(
            f"dense Hessian of a {rows}x{cols} matrix needs {nbytes} bytes, "
            f"over the {MAX_HESSIAN_BYTES}-byte limit"
        )


@overflow_raises("Hessian", result=np.concatenate)
def _hessian_weights(svd: SvdTriple, k: int):
    """Weights of the three-part Kronecker form of the Hessian of sigma_k.

    With x_i = vec(u_i v_k^T) and y_j = vec(u_k v_j^T),

        H = sum_i a_i x_i x_i^T + sum_j b_j y_j y_j^T
            + sum_l c_l (x_l y_l^T + y_l x_l^T),

    a_i = sigma_k / (sigma_k^2 - sigma_i^2) over i <= m, b_j likewise over
    j <= n (singular values beyond the rank count as zero, which gives the
    1/sigma_k null-space terms), and c_l = sigma_l / (sigma_k^2 - sigma_l^2)
    over the nonzero spectrum l <= rank. The i = j = l = k weights are 0.
    """
    _require_simple(svd.singulars, k, svd.rank)
    m, n, r = svd.rows, svd.cols, svd.rank
    sk = svd.sigma(k)
    # the denominators run over the whole spectrum, so every pair of
    # nonzero singular values must be separated
    tol = GAP_TOL_REL * svd.singulars[0]
    if svd.min_gap <= tol:
        raise DegenerateSpectrum(
            f"nonzero singular values within {svd.min_gap:.3e} (tol {tol:.3e})",
            gap=svd.min_gap,
        )
    s = np.zeros(max(m, n))
    s[:r] = svd.singulars[:r]
    den = sk**2 - s**2
    den[k - 1] = 1.0
    a = sk / den
    a[k - 1] = 0.0
    c = s[:r] / den[:r]
    c[k - 1] = 0.0
    return a[:m], a[:n], c


def _hessian_step(svd: SvdTriple, k: int):
    """Check sigma_k's spectrum; return the map (E v_k, E^T u_k) -> (f, g)
    with H vec(E) = vec(f v_k^T + u_k g^T), for a stack of m x n matrices E
    on the leading axes. With alpha = U^T E v_k and beta = V^T E^T u_k (the
    x_i and y_j components of vec(E) in :func:`_hessian_weights`),
    f = U (a*alpha + c*beta) and g = V (b*beta + c*alpha).
    """
    a, b, c = _hessian_weights(svd, k)
    r = c.size
    u, v = svd.left.array, svd.right.array

    def step(ev, etu):
        alpha, beta = ev @ u, etu @ v
        p = a * alpha
        p[..., :r] += c * beta[..., :r]
        q = b * beta
        q[..., :r] += c * alpha[..., :r]
        return p @ u.T, q @ v.T
    return step


def sv_hessian(svd: SvdTriple, k: int) -> DenseMatrix:
    """Hessian of sigma_k in the column-major vec layout (mn x mn).

    The Hessian step of each basis matrix E_c = e_i e_j^T (c = i + j*m) gives
    the column C_c = H vec(E_c); H = (C + C^T)/2 is exactly symmetric. H costs
    8 (mn)^2 bytes and the assembly peaks near twice that; for <H, Sigma> or
    H vec(E) use :func:`sv_hessian_contract` or :func:`sv_hessian_apply`.
    """
    step = _hessian_step(svd, k)
    m, n, d = svd.rows, svd.cols, svd.rows * svd.cols
    uk, vk = svd.u(k), svd.v(k)
    # E_c v_k = v_k[j] e_i and E_c^T u_k = u_k[i] e_j
    f, g = step(np.kron(vk[:, None], np.eye(m)), np.kron(np.eye(n), uk[:, None]))
    h = f[:, None, :] * vk[:, None]  # h[c, j, i] = f_c[i] v_k[j] + u_k[i] g_c[j] = C[i + j*m, c]
    for i in range(m):  # a slice at a time: no temporary of H's size
        h[:, :, i] += g * uk[i]
    # rebinding h frees C before DenseMatrix checks H, which it keeps (F order) without a copy
    h = np.add(h.reshape(d, d), h.reshape(d, d).T, out=np.empty((d, d), order="F"))
    h *= 0.5
    return DenseMatrix(h)


def sv_hessian_contract(svd: SvdTriple, k: int, sigma: np.ndarray) -> float:
    """<H, Sigma> for the Hessian H of sigma_k and an mn x mn matrix Sigma,
    without forming H.

    Row c of Sigma, read as an m x n matrix S_c, adds (H vec(S_c))[c] =
    f_c[i] v_k[j] + u_k[i] g_c[j] (c = i + j*m) from its Hessian step. Besides
    Sigma (not copied when contiguous) this needs O(mn(m + n)) memory.
    """
    step = _hessian_step(svd, k)
    m, n = svd.rows, svd.cols
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (m * n, m * n):
        raise ValueError(f"Sigma must be {m * n}x{m * n}, got {sigma.shape}")
    if sigma.flags.f_contiguous:
        sigma = sigma.T  # <H, Sigma> = <H, Sigma^T> as H is symmetric
    s3 = sigma.reshape(m * n, n, m)  # s3[c, j, i] = S_c[i, j]
    uk, vk = svd.u(k), svd.v(k)
    f, g = step(vk @ s3, s3 @ uk)
    return float(np.einsum("jii,j->", f.reshape(n, m, m), vk)
                 + np.einsum("jij,i->", g.reshape(n, m, n), uk))


def sv_hessian_apply(svd: SvdTriple, k: int, e: DenseMatrix) -> DenseMatrix:
    """The Hessian-vector product H vec(E), returned as an m x n matrix,
    without forming H: one Hessian step, O(mn + m^2 + n^2)."""
    step = _hessian_step(svd, k)
    if e.shape != (svd.rows, svd.cols):
        raise ValueError(f"E must be {svd.rows}x{svd.cols}, got {e.shape}")
    uk, vk = svd.u(k), svd.v(k)
    f, g = step(e.array @ vk, e.array.T @ uk)
    return DenseMatrix(np.outer(f, vk) + np.outer(uk, g))


@dataclass(frozen=True)
class JordanWielandt:
    """Symmetric embedding [[0, A], [A^T, 0]] with its eigenvector groups.

    Columns of ``pos_eigvecs``/``neg_eigvecs`` are (u_k; +-v_k)/sqrt(2) for
    the nonzero singular values; ``left_null``/``right_null`` hold (u_j; 0)
    and (0; v_j) spanning the kernel.
    """

    embedding: DenseMatrix
    pos_eigvecs: np.ndarray
    neg_eigvecs: np.ndarray
    left_null: np.ndarray
    right_null: np.ndarray
    sigmas: np.ndarray
    rows: int
    cols: int


def embed(a: DenseMatrix) -> DenseMatrix:
    """[[0, A], [A^T, 0]], the symmetric dilation of A."""
    m, n = a.rows, a.cols
    t = np.zeros((m + n, m + n))
    t[:m, m:] = a.array
    t[m:, :m] = a.array.T
    return DenseMatrix(t)


def jordan_wielandt(svd: SvdTriple) -> JordanWielandt:
    m, n, r = svd.rows, svd.cols, svd.rank
    u = svd.left.array
    v = svd.right.array
    pos = np.vstack([u[:, :r], v[:, :r]]) / np.sqrt(2.0)
    neg = np.vstack([u[:, :r], -v[:, :r]]) / np.sqrt(2.0)
    left_null = np.vstack([u[:, r:], np.zeros((n, m - r))])
    right_null = np.vstack([np.zeros((m, n - r)), v[:, r:]])
    return JordanWielandt(
        embedding=embed(svd.reconstruct()),
        pos_eigvecs=pos,
        neg_eigvecs=neg,
        left_null=left_null,
        right_null=right_null,
        sigmas=np.array(svd.singulars[:r]),
        rows=m,
        cols=n,
    )


@dataclass(frozen=True)
class ReducedResolvent:
    """Dense realization of the reduced resolvent at +sigma_k."""

    k: int
    matrix: DenseMatrix


def reduced_resolvent(jw: JordanWielandt, k: int) -> ReducedResolvent:
    """Spectral sum over every eigenvector of the embedding except
    (u_k; v_k)/sqrt(2): the remaining positive branch, the full negative
    branch (whose i = k term carries weight -1/(2 sigma_k)), and the two
    null groups with weight -1/sigma_k.
    """
    _require_simple(jw.sigmas, k, jw.sigmas.size)
    sk = jw.sigmas[k - 1]
    others = np.arange(jw.sigmas.size) != k - 1
    n_null = jw.left_null.shape[1] + jw.right_null.shape[1]
    w_mat = np.hstack(
        [jw.pos_eigvecs[:, others], jw.neg_eigvecs, jw.left_null, jw.right_null]
    )
    weights = np.concatenate(
        [1.0 / (jw.sigmas[others] - sk), 1.0 / (-jw.sigmas - sk), np.full(n_null, -1.0 / sk)]
    )
    s_mat = (w_mat * weights) @ w_mat.T
    return ReducedResolvent(k=k, matrix=DenseMatrix(s_mat))


@dataclass(frozen=True)
class PerturbationSeries:
    """A(x) = base + sum_j x^j terms[j-1]; terms share the base's shape."""

    base: DenseMatrix
    terms: tuple

    def __init__(self, base, terms):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "terms", tuple(terms))
        for t in self.terms:
            if t.shape != base.shape:
                raise ValueError(
                    f"perturbation term shape {t.shape} != base shape {base.shape}"
                )

    def evaluate(self, x: float) -> DenseMatrix:
        acc = np.array(self.base.array)
        for j, t in enumerate(self.terms, start=1):
            acc += (x**j) * t.array
        return DenseMatrix(acc)


def _compositions(n, p):
    """Ordered tuples of p nonnegative integers summing to n."""
    if p == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, p - 1):
            yield (first,) + rest


def sv_expansion_coeff(series: PerturbationSeries, k: int, n: int) -> float:
    """Coefficient of x^n in the expansion of sigma_k along the series.

    Evaluates the trace form of the analytic expansion on the symmetric
    embedding: over p = 1..n, perturbation orders (nu_1, ..., nu_p) summing
    to n and resolvent exponents (k_1, ..., k_p) summing to p - 1,

        sum (-1)^p / p * tr(T_(nu_1) S^(k_1) ... T_(nu_p) S^(k_p)),

    where S^0 stands for minus the eigenprojection onto (u_k; v_k)/sqrt(2)
    and S^q is the q-th power of the reduced resolvent. The projector
    insertions carry the renormalization by lower-order coefficients; with
    them the values match the Taylor expansion of sigma_k(A(x)) at every
    order (n = 1 reduces to the Jacobian pairing, n = 2 to the Hessian
    quadratic form).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > MAX_EXPANSION_ORDER:
        raise OrderOverflow(f"order {n} exceeds configured maximum {MAX_EXPANSION_ORDER}")
    jw = jordan_wielandt(full_svd(series.base))
    s_mat = reduced_resolvent(jw, k).matrix.array
    w = jw.pos_eigvecs[:, k - 1]
    dim = s_mat.shape[0]
    s_pow = {0: -np.outer(w, w)}
    if n >= 2:
        s_pow[1] = s_mat
    for q in range(2, n):
        s_pow[q] = s_pow[q - 1] @ s_mat
    embedded = {j: embed(t).array for j, t in enumerate(series.terms, start=1)}
    total = 0.0
    for p in range(1, n + 1):
        for parts in _compositions(n - p, p):
            orders = [part + 1 for part in parts]  # p positive orders summing to n
            if any(idx not in embedded for idx in orders):
                continue  # missing term means T^(j) = 0: the trace vanishes
            for exps in _compositions(p - 1, p):
                chain = np.eye(dim)
                for order, exp in zip(orders, exps):
                    chain = chain @ embedded[order] @ s_pow[exp]
                total += ((-1.0) ** p / p) * float(np.trace(chain))
    return total


def _column_bumps(a: DenseMatrix, step: float, compute_uv: bool):
    """Yield (j, svd_up, svd_down) for each column j of A: the stacked
    ``np.linalg.svd`` results of the m matrices A + step e_i e_j^T and of
    the m matrices A - step e_i e_j^T, i = 0..m-1.

    Every bumped matrix gets its own SVD; a column at a time bounds the
    working memory to O(m (mn + m^2 + n^2)).
    """
    if not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    m, n = a.shape
    rows = np.arange(m)
    for j in range(n):
        up = np.repeat(a.array[None], m, axis=0)
        up[rows, rows, j] += step
        down = up.copy()
        down[rows, rows, j] -= 2 * step
        try:
            svd_up = np.linalg.svd(up, compute_uv=compute_uv)
            svd_down = np.linalg.svd(down, compute_uv=compute_uv)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"SVD failed to converge on a bumped {m}x{n} input") from exc
        yield j, svd_up, svd_down


def fd_gradient_oracle(a: DenseMatrix, k: int, step: float = 1e-6) -> DenseMatrix:
    """Entrywise central-difference estimate of d sigma_k / dA.

    Independent of the closed forms above; values are untrustworthy near
    singular-value crossings (the caller is expected to gate on the gap).
    """
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} outside 1..min(m,n)={min(m, n)}")
    out = np.empty((m, n))
    for j, s_up, s_dn in _column_bumps(a, step, compute_uv=False):
        out[:, j] = (s_up[:, k - 1] - s_dn[:, k - 1]) / (2 * step)
    return DenseMatrix(out)


def fd_hessian_oracle(a: DenseMatrix, k: int, step: float = 1e-5) -> DenseMatrix:
    """Central differences of the Jacobian u_k v_k^T, column by column in
    the column-major vec layout (mn x mn).

    Independent of the closed-form Hessian: every one of the 2mn bumped
    matrices gets its own SVD (see :func:`_column_bumps`). Each bumped
    spectrum must pass the Jacobian's own checks: ZeroSingular when k
    exceeds its rank, DegenerateSpectrum when sigma_k is within
    GAP_TOL_REL * sigma_1 of another singular value.
    """
    m, n = a.shape
    out = np.empty((m * n, m * n), order="F")
    for j, (u_up, s_up, vt_up), (u_dn, s_dn, vt_dn) in _column_bumps(a, step, compute_uv=True):
        for pair in zip(s_up, s_dn):
            for s in pair:
                _require_simple(s, k, _numerical_rank(s))
        j_up = u_up[:, :, k - 1, None] * vt_up[:, None, k - 1, :]
        j_dn = u_dn[:, :, k - 1, None] * vt_dn[:, None, k - 1, :]
        diff = (j_up - j_dn) / (2 * step)
        # bump i of this column is vec column i + j*m; vec(J) reads J column-major
        out[:, j * m : (j + 1) * m] = diff.transpose(2, 1, 0).reshape(m * n, m)
    return DenseMatrix(out)
