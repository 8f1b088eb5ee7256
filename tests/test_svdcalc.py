import itertools
import tracemalloc

import numpy as np
import pytest

from lipkit import svdcalc
from lipkit.errors import DegenerateSpectrum, OrderOverflow, ZeroSingular
from lipkit.matcore import DenseMatrix, full_svd, vec
from lipkit.svdcalc import (
    MAX_HESSIAN_BYTES,
    PerturbationSeries,
    check_hessian_budget,
    fd_gradient_oracle,
    fd_hessian_oracle,
    jordan_wielandt,
    reduced_resolvent,
    sv_expansion_coeff,
    sv_hessian,
    sv_hessian_apply,
    sv_hessian_contract,
    sv_jacobian,
)

from conftest import random_matrix_with_spectrum


def fd_gradient_loop(a: DenseMatrix, k: int, step: float = 1e-6) -> np.ndarray:
    """Entrywise central differences of sigma_k, one np.linalg.svd per
    bumped matrix. The reference for the column-batched fd_gradient_oracle."""
    m, n = a.shape
    base = np.array(a.array)
    out = np.empty((m, n))
    for i, j in itertools.product(range(m), range(n)):
        bumped = base.copy()
        bumped[i, j] += step
        up = np.linalg.svd(bumped, compute_uv=False)[k - 1]
        bumped[i, j] -= 2 * step
        down = np.linalg.svd(bumped, compute_uv=False)[k - 1]
        out[i, j] = (up - down) / (2 * step)
    return out


def fd_hessian_loop(a: DenseMatrix, k: int, step: float = 1e-5) -> np.ndarray:
    """Central differences of the closed-form Jacobian, column by column in
    the column-major vec layout, one full_svd per bumped matrix. Independent
    of sv_hessian; the reference for the batched fd_hessian_oracle."""
    m, n = a.shape
    base = np.array(a.array)
    out = np.empty((m * n, m * n))
    for col in range(m * n):
        i, j = col % m, col // m
        bumped = base.copy()
        bumped[i, j] += step
        up = sv_jacobian(full_svd(DenseMatrix(bumped)), k).array
        bumped[i, j] -= 2 * step
        down = sv_jacobian(full_svd(DenseMatrix(bumped)), k).array
        out[:, col] = ((up - down) / (2 * step)).ravel(order="F")
    return out


class TestJacobian:
    def test_diag_axis_aligned(self):
        j = sv_jacobian(full_svd(DenseMatrix(np.diag([3.0, 1.0]))), 1)
        np.testing.assert_allclose(j.array, [[1.0, 0.0], [0.0, 0.0]])

    def test_matches_fd_random(self, rng):
        a = DenseMatrix(rng.standard_normal((6, 10)))
        svd = full_svd(a)
        for k in range(1, svd.rank + 1):
            j = sv_jacobian(svd, k)
            fd = fd_gradient_oracle(a, k, 1e-6)
            assert np.linalg.norm(j.array - fd.array) <= 1e-8

    def test_inner_product_gives_sigma(self, rng):
        a = DenseMatrix(rng.uniform(-2, 2, size=(5, 7)))
        svd = full_svd(a)
        for k in range(1, svd.rank + 1):
            j = sv_jacobian(svd, k)
            assert float(vec(j) @ vec(a)) == pytest.approx(svd.sigma(k), abs=1e-12)

    def test_rank_one_unit_frobenius(self, rng):
        svd = full_svd(DenseMatrix(rng.standard_normal((4, 6))))
        for k in range(1, svd.rank + 1):
            j = sv_jacobian(svd, k).array
            assert np.linalg.matrix_rank(j) == 1
            assert np.linalg.norm(j) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrum):
            sv_jacobian(full_svd(DenseMatrix(np.eye(3))), 1)

    def test_index_out_of_range(self):
        svd = full_svd(DenseMatrix(np.diag([2.0, 1.0])))
        with pytest.raises(ZeroSingular):
            sv_jacobian(svd, 3)


class TestHessian:
    def test_diag_frozen_entries(self):
        # frozen expected values from the FD oracle (step 1e-5)
        h = sv_hessian(full_svd(DenseMatrix(np.diag([3.0, 1.0]))), 1).array
        expect = np.zeros((4, 4))
        expect[1, 1] = expect[2, 2] = 3.0 / 8.0
        expect[1, 2] = expect[2, 1] = 1.0 / 8.0
        np.testing.assert_allclose(h, expect, atol=1e-14)

    def test_matches_fd_random(self, rng):
        a = DenseMatrix(rng.standard_normal((6, 10)))
        svd = full_svd(a)
        for k in range(1, svd.rank + 1):
            h = sv_hessian(svd, k).array
            fd = fd_hessian_loop(a, k)
            assert np.abs(h - fd).max() <= 1e-6

    def test_exactly_symmetric(self, rng):
        h = sv_hessian(full_svd(DenseMatrix(rng.standard_normal((3, 4)))), 2).array
        assert np.array_equal(h, h.T)

    def test_psd_for_top_singular(self, rng):
        for _ in range(5):
            h = sv_hessian(full_svd(DenseMatrix(rng.standard_normal((4, 5)))), 1).array
            assert np.linalg.eigvalsh(h).min() >= -1e-10

    def test_square_overflow_names_the_hessian(self):
        # sigma_2 = 1e150 squares fine; sigma_1 enters the weights squared too
        svd = full_svd(DenseMatrix(np.diag([1e155, 1e150])))
        with pytest.raises(FloatingPointError, match="^Hessian: overflow in its float64 arithmetic$"):
            sv_hessian(svd, 2)

    def test_zero_singular_raises(self, rng):
        a = random_matrix_with_spectrum(rng, 3, 3, [2.0, 1.0, 0.0])
        with pytest.raises(ZeroSingular):
            sv_hessian(full_svd(DenseMatrix(a)), 3)

    def test_near_multiple_raises(self, rng):
        a = random_matrix_with_spectrum(rng, 3, 3, [2.0, 2.0 + 1e-12, 1.0])
        with pytest.raises(DegenerateSpectrum):
            sv_hessian(full_svd(DenseMatrix(a)), 3)


def hessian_outer_sum(svd, k: int) -> np.ndarray:
    """The three-part Hessian summed term by term from np.outer/np.kron;
    the reference for the BLAS-3 assembly and the matrix-free forms."""
    m, n, r = svd.rows, svd.cols, svd.rank
    s = svd.singulars
    sk = svd.sigma(k)
    uk, vk = svd.u(k), svd.v(k)
    h = np.zeros((m * n, m * n))
    for i in range(1, m + 1):
        if i != k:
            si = s[i - 1] if i <= r else 0.0
            x = np.kron(vk, svd.u(i))
            h += (sk / (sk**2 - si**2)) * np.outer(x, x)
    for j in range(1, n + 1):
        if j != k:
            sj = s[j - 1] if j <= r else 0.0
            y = np.kron(svd.v(j), uk)
            h += (sk / (sk**2 - sj**2)) * np.outer(y, y)
    for l in range(1, r + 1):
        if l != k:
            sl = s[l - 1]
            x = np.kron(vk, svd.u(l))
            y = np.kron(svd.v(l), uk)
            h += (sl / (sk**2 - sl**2)) * (np.outer(x, y) + np.outer(y, x))
    return h


# (shape, spectrum): m < n, m > n, and rank-deficient inputs with zero
# singular values, square and rectangular
CONTRACTION_CASES = [
    ((3, 5), [2.5, 1.4, 0.6]),
    ((5, 3), [2.5, 1.4, 0.6]),
    ((4, 4), [3.0, 2.0, 1.0, 0.0]),
    ((3, 5), [2.0, 0.9, 0.0]),
    ((5, 4), [3.0, 1.5, 0.0, 0.0]),
]


@pytest.fixture(params=CONTRACTION_CASES, ids=lambda c: f"{c[0][0]}x{c[0][1]}-{c[1]}")
def contraction_case(request, rng):
    (m, n), sigmas = request.param
    return full_svd(DenseMatrix(random_matrix_with_spectrum(rng, m, n, sigmas)))


class TestMatrixFreeHessian:
    def test_rank_deficient_cases_are_rank_deficient(self, contraction_case):
        svd = contraction_case
        assert svd.rank == int(np.count_nonzero(np.asarray(svd.singulars) > 1e-8))

    @pytest.mark.parametrize("k", [1, 2])
    def test_dense_matches_outer_sum_and_is_symmetric(self, contraction_case, k):
        h = sv_hessian(contraction_case, k).array
        ref = hessian_outer_sum(contraction_case, k)
        assert np.array_equal(h, h.T)
        assert h.flags.f_contiguous
        assert np.abs(h - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("k", [1, 2])
    def test_contract_equals_dense_inner_product(self, contraction_case, rng, k):
        svd = contraction_case
        d = svd.rows * svd.cols
        b = rng.standard_normal((d, d))
        ref = hessian_outer_sum(svd, k)
        # PSD, not even symmetric, and Fortran-ordered as DenseMatrix keeps it
        for sigma in (b @ b.T / d, b, np.asfortranarray(b)):
            expect = float(np.sum(sv_hessian(svd, k).array * sigma))
            got = sv_hessian_contract(svd, k, sigma)
            assert got == pytest.approx(expect, rel=1e-12)
            # the dense form shares the contraction's step; the outer sum does not
            assert got == pytest.approx(float(np.sum(ref * sigma)), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_apply_equals_dense_product(self, contraction_case, rng, k):
        svd = contraction_case
        h = sv_hessian(svd, k).array
        ref = hessian_outer_sum(svd, k)
        for _ in range(3):
            e = rng.standard_normal((svd.rows, svd.cols))
            got = sv_hessian_apply(svd, k, DenseMatrix(e))
            assert got.shape == e.shape
            for dense in (h, ref):
                expect = dense @ e.ravel(order="F")
                np.testing.assert_allclose(vec(got), expect, rtol=0,
                                           atol=1e-13 * np.abs(expect).max())

    def test_zero_sigma_contracts_to_zero(self, contraction_case):
        d = contraction_case.rows * contraction_case.cols
        assert sv_hessian_contract(contraction_case, 1, np.zeros((d, d))) == 0.0

    def test_shape_checks(self, contraction_case):
        svd = contraction_case
        d = svd.rows * svd.cols
        with pytest.raises(ValueError):
            sv_hessian_contract(svd, 1, np.eye(d + 1))
        with pytest.raises(ValueError):
            sv_hessian_apply(svd, 1, DenseMatrix(np.zeros((svd.cols + 1, svd.rows))))

    def test_same_spectrum_checks_as_dense(self, rng):
        a = random_matrix_with_spectrum(rng, 3, 3, [2.0, 1.0, 1.0 + 1e-12])
        svd = full_svd(DenseMatrix(a))
        for fn in (lambda: sv_hessian_contract(svd, 1, np.eye(9)),
                   lambda: sv_hessian_apply(svd, 1, DenseMatrix(np.eye(3)))):
            with pytest.raises(DegenerateSpectrum):
                fn()
        with pytest.raises(ZeroSingular):
            sv_hessian_apply(full_svd(DenseMatrix(np.diag([2.0, 0.0]))), 2, DenseMatrix(np.eye(2)))


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHessianMemory:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_contract_allocates_less_than_sigma(self, rng, order):
        # a 40x40 layer: Sigma is 1600x1600, 19.5 MiB
        svd = full_svd(DenseMatrix(rng.standard_normal((40, 40))))
        sigma = np.asarray(rng.standard_normal((1600, 1600)), order=order)
        peak = traced_peak(sv_hessian_contract, svd, 1, sigma)
        assert peak < sigma.nbytes, f"tracemalloc peak {peak / 2**20:.1f} MiB"

    def test_dense_peak_is_about_twice_h(self, rng):
        svd = full_svd(DenseMatrix(rng.standard_normal((24, 24))))
        h_bytes = 8 * (24 * 24) ** 2
        peak = traced_peak(sv_hessian, svd, 1)
        assert peak <= 2.3 * h_bytes, f"tracemalloc peak {peak / h_bytes:.2f} times H"


class TestHessianBudget:
    def test_limit(self):
        side = int(np.sqrt(np.sqrt(MAX_HESSIAN_BYTES / 8)))
        check_hessian_budget(side, side)
        with pytest.raises(ValueError, match="byte limit"):
            check_hessian_budget(side + 1, side + 1)
        with pytest.raises(ValueError):
            check_hessian_budget(1, 6000)

    def test_library_hessian_not_capped(self, rng, monkeypatch):
        # only the CLI applies the limit; sv_hessian builds any size asked for
        monkeypatch.setattr(svdcalc, "MAX_HESSIAN_BYTES", 0)
        h = sv_hessian(full_svd(DenseMatrix(rng.standard_normal((3, 4)))), 1).array
        assert h.shape == (12, 12)


class TestFdHessianOracle:
    @pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
    def test_equals_per_column_loop(self, rng, shape):
        a = DenseMatrix(rng.standard_normal(shape))
        for k in (1, 2, 3):
            fd = fd_hessian_oracle(a, k)
            assert fd.shape == (12, 12)
            np.testing.assert_array_equal(fd.array, fd_hessian_loop(a, k))

    def test_bumped_crossing_raises(self):
        # sigma = 1 + 1e-5 and 1 are well apart, but bumping either diagonal
        # entry by the step makes them cross
        step = 1e-5
        a = DenseMatrix(np.diag([1.0 + step, 1.0]))
        sv_hessian(full_svd(a), 1)
        with pytest.raises(DegenerateSpectrum):
            fd_hessian_loop(a, 1, step)
        with pytest.raises(DegenerateSpectrum):
            fd_hessian_oracle(a, 1, step)

    def test_bumped_rank_below_k_raises(self):
        a = DenseMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ZeroSingular):
            fd_hessian_loop(a, 2)
        with pytest.raises(ZeroSingular):
            fd_hessian_oracle(a, 2)

    def test_step_positive(self):
        with pytest.raises(ValueError):
            fd_hessian_oracle(DenseMatrix(np.diag([2.0, 1.0])), 1, 0.0)


class TestFirstAndSecondOrderConsistency:
    def test_first_order_slope(self, rng):
        a = DenseMatrix(rng.standard_normal((6, 10)))
        svd = full_svd(a)
        delta = rng.standard_normal((6, 10))
        j = sv_jacobian(svd, 1)
        pred = float(vec(j) @ delta.ravel(order="F"))
        remainders = []
        for eps in (1e-3, 1e-4, 1e-5):
            s_eps = np.linalg.svd(a.array + eps * delta, compute_uv=False)[0]
            remainders.append(abs(s_eps - svd.sigma(1) - eps * pred))
        # Richardson: remainder is O(eps^2), so each decade shrinks ~100x
        assert remainders[0] / remainders[1] == pytest.approx(100, rel=0.5)
        assert remainders[1] / remainders[2] == pytest.approx(100, rel=0.5)

    def test_second_order_remainder(self, rng):
        a = DenseMatrix(rng.standard_normal((6, 10)))
        svd = full_svd(a)
        delta = rng.standard_normal((6, 10))
        dv = delta.ravel(order="F")
        j = sv_jacobian(svd, 1)
        h = sv_hessian(svd, 1).array
        eps = 1e-3
        s_eps = np.linalg.svd(a.array + eps * delta, compute_uv=False)[0]
        quad = 0.5 * eps**2 * float(dv @ h @ dv)
        remainder = s_eps - svd.sigma(1) - eps * float(vec(j) @ dv)
        assert abs(remainder - quad) <= 1e-3 * abs(quad)


class TestJordanWielandt:
    def test_scalar_case(self):
        jw = jordan_wielandt(full_svd(DenseMatrix(np.array([[2.0]]))))
        np.testing.assert_allclose(jw.embedding.array, [[0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_allclose(jw.pos_eigvecs[:, 0], [1, 1] / np.sqrt(2))
        np.testing.assert_allclose(jw.neg_eigvecs[:, 0], [1, -1] / np.sqrt(2))

    def test_zero_matrix_null_dimension(self):
        jw = jordan_wielandt(full_svd(DenseMatrix(np.zeros((2, 2)))))
        assert not np.any(jw.embedding.array)
        assert jw.left_null.shape[1] + jw.right_null.shape[1] == 4

    def test_eigenvalues_match_eigensolver(self, rng):
        a = DenseMatrix(rng.standard_normal((4, 3)))
        svd = full_svd(a)
        jw = jordan_wielandt(svd)
        eigs = np.sort(np.linalg.eigvalsh(jw.embedding.array))
        expect = np.sort(
            np.concatenate([svd.singulars, -svd.singulars, np.zeros(1)])
        )
        np.testing.assert_allclose(eigs, expect, atol=1e-10)

    def test_eigenvector_equations_and_orthonormality(self, rng):
        svd = full_svd(DenseMatrix(rng.standard_normal((3, 5))))
        jw = jordan_wielandt(svd)
        t = jw.embedding.array
        for i in range(jw.sigmas.size):
            np.testing.assert_allclose(
                t @ jw.pos_eigvecs[:, i], jw.sigmas[i] * jw.pos_eigvecs[:, i], atol=1e-10
            )
            np.testing.assert_allclose(
                t @ jw.neg_eigvecs[:, i], -jw.sigmas[i] * jw.neg_eigvecs[:, i], atol=1e-10
            )
        basis = np.hstack([jw.pos_eigvecs, jw.neg_eigvecs, jw.left_null, jw.right_null])
        np.testing.assert_allclose(basis.T @ basis, np.eye(8), atol=1e-10)


class TestReducedResolvent:
    def test_defining_identity_diag(self):
        svd = full_svd(DenseMatrix(np.diag([3.0, 1.0])))
        jw = jordan_wielandt(svd)
        s = reduced_resolvent(jw, 1).matrix.array
        t = jw.embedding.array
        w = jw.pos_eigvecs[:, 0]
        lhs = (t - 3.0 * np.eye(4)) @ s
        np.testing.assert_allclose(lhs, np.eye(4) - np.outer(w, w), atol=1e-9)

    def test_annihilates_target(self, rng):
        jw = jordan_wielandt(full_svd(DenseMatrix(rng.standard_normal((4, 3)))))
        for k in range(1, jw.sigmas.size + 1):
            s = reduced_resolvent(jw, k).matrix.array
            assert np.abs(s @ jw.pos_eigvecs[:, k - 1]).max() <= 1e-12

    def test_scalar_single_negative_branch(self):
        jw = jordan_wielandt(full_svd(DenseMatrix(np.array([[2.0]]))))
        s = reduced_resolvent(jw, 1).matrix.array
        wneg = jw.neg_eigvecs[:, 0]
        np.testing.assert_allclose(s, -np.outer(wneg, wneg) / 4.0, atol=1e-14)
        t = jw.embedding.array
        w = jw.pos_eigvecs[:, 0]
        np.testing.assert_allclose(
            (t - 2.0 * np.eye(2)) @ s, np.eye(2) - np.outer(w, w), atol=1e-12
        )


def _mpmath_taylor_coeffs(series, k, orders, x_scale=1e-2, dps=40):
    """High-precision polynomial-fit oracle for the expansion coefficients."""
    import mpmath

    mpmath.mp.dps = dps
    degree = max(orders) + 4
    xs = [x_scale * s for s in range(-degree // 2 - 1, degree // 2 + 2) if s != 0]
    rows, ys = [], []
    for x in xs:
        a_x = mpmath.matrix(series.evaluate(x).array.tolist())
        svals = mpmath.svd_r(a_x, compute_uv=False)
        svals = sorted((svals[i] for i in range(svals.rows)), reverse=True)
        ys.append(svals[k - 1])
        rows.append([mpmath.mpf(x) ** p for p in range(degree + 1)])
    sol = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(ys))
    return {n: float(sol[n]) for n in orders}


class TestExpansionCoefficients:
    def _series(self, rng):
        base = DenseMatrix(random_matrix_with_spectrum(rng, 4, 4, [3.0, 2.1, 1.3, 0.6]))
        return PerturbationSeries(base, [DenseMatrix(rng.standard_normal((4, 4)))])

    def test_order_one_is_jacobian_pairing(self, rng):
        series = self._series(rng)
        svd = full_svd(series.base)
        for k in (1, 2, 3):
            j = sv_jacobian(svd, k)
            pairing = float(vec(j) @ vec(series.terms[0]))
            assert sv_expansion_coeff(series, k, 1) == pytest.approx(pairing, abs=1e-12)

    def test_order_two_is_half_hessian_quadratic(self, rng):
        series = self._series(rng)
        svd = full_svd(series.base)
        dv = vec(series.terms[0])
        for k in (1, 2, 3):
            h = sv_hessian(svd, k).array
            expect = 0.5 * float(dv @ h @ dv)
            assert sv_expansion_coeff(series, k, 2) == pytest.approx(expect, abs=1e-9)

    def test_closed_form_cross_coupling(self):
        # A = diag(3, 1), A1 = antidiagonal: sigma_1(x) = 2 + sqrt(1 + x^2),
        # so the coefficients are 0, 1/2, 0, -1/8
        series = PerturbationSeries(
            DenseMatrix(np.diag([3.0, 1.0])),
            [DenseMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))],
        )
        got = [sv_expansion_coeff(series, 1, n) for n in (1, 2, 3, 4)]
        np.testing.assert_allclose(got, [0.0, 0.5, 0.0, -0.125], atol=1e-12)

    def test_matches_polynomial_fit(self):
        rng = np.random.default_rng(2)
        base = DenseMatrix(random_matrix_with_spectrum(rng, 4, 4, [3.0, 2.1, 1.3, 0.6]))
        series = PerturbationSeries(base, [DenseMatrix(rng.standard_normal((4, 4)))])
        for k in (1, 2, 3):
            fit = _mpmath_taylor_coeffs(series, k, (1, 2, 3, 4))
            for n in (1, 2, 3, 4):
                got = sv_expansion_coeff(series, k, n)
                assert got == pytest.approx(fit[n], rel=1e-4, abs=1e-10)

    def test_second_order_series_term(self):
        rng = np.random.default_rng(3)
        base = DenseMatrix(random_matrix_with_spectrum(rng, 3, 3, [2.5, 1.4, 0.7]))
        a1 = DenseMatrix(rng.standard_normal((3, 3)))
        a2 = DenseMatrix(rng.standard_normal((3, 3)))
        series = PerturbationSeries(base, [a1, a2])
        fit = _mpmath_taylor_coeffs(series, 1, (1, 2, 3))
        for n in (1, 2, 3):
            assert sv_expansion_coeff(series, 1, n) == pytest.approx(fit[n], rel=1e-4)

    def test_order_overflow(self, rng):
        series = self._series(rng)
        with pytest.raises(OrderOverflow):
            sv_expansion_coeff(series, 1, 7)

    def test_derivative_bridge(self, rng):
        # D^n sigma_k [dA, ..] = n! * coefficient for the linear-term series
        series = self._series(rng)
        svd = full_svd(series.base)
        j = sv_jacobian(svd, 1)
        d1 = float(vec(j) @ vec(series.terms[0]))
        assert 1 * sv_expansion_coeff(series, 1, 1) == pytest.approx(d1, abs=1e-12)
        dv = vec(series.terms[0])
        d2 = float(dv @ sv_hessian(svd, 1).array @ dv)
        assert 2 * sv_expansion_coeff(series, 1, 2) == pytest.approx(d2, abs=1e-9)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            PerturbationSeries(
                DenseMatrix(np.eye(2)), [DenseMatrix(np.eye(3))]
            )


class TestFdGradientOracle:
    def test_known_jacobian(self):
        fd = fd_gradient_oracle(DenseMatrix(np.diag([3.0, 1.0])), 1, 1e-6)
        np.testing.assert_allclose(fd.array, [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)

    def test_runs_on_degenerate_input(self):
        # equal singular values: values are returned but untrusted there
        fd = fd_gradient_oracle(DenseMatrix(np.eye(3)), 1, 1e-6)
        assert fd.shape == (3, 3)
        assert np.all(np.isfinite(fd.array))

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(3)
        a = DenseMatrix(rng.standard_normal((5, 7)))
        svd = full_svd(a)
        for k in (1, 3, 5):
            j = sv_jacobian(svd, k)
            fd = fd_gradient_oracle(a, k)
            assert np.abs(j.array - fd.array).max() <= 1e-8

    def test_step_validation(self):
        with pytest.raises(ValueError):
            fd_gradient_oracle(DenseMatrix(np.eye(2)), 1, 0.0)

    @pytest.mark.parametrize(
        "shape, sigmas",
        [((3, 5), (3.0, 2.0, 1.0)), ((5, 3), (3.0, 2.0, 1.0)), ((4, 4), (3.0, 1.0, 0.0, 0.0))],
        ids=["m<n", "m>n", "rank-deficient"],
    )
    def test_equals_per_entry_loop(self, rng, shape, sigmas):
        a = DenseMatrix(random_matrix_with_spectrum(rng, *shape, sigmas))
        for k in range(1, min(shape) + 1):
            np.testing.assert_array_equal(fd_gradient_oracle(a, k).array, fd_gradient_loop(a, k))
