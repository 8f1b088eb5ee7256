import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lipkit.matcore import (
    DenseMatrix,
    full_svd,
    kron,
    load_matrix_csv,
    save_matrix_csv,
    unvec,
    vec,
)


class TestDenseMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.array([[np.inf], [1.0]]))

    def test_rejects_wrong_flat_length(self):
        with pytest.raises(ValueError):
            DenseMatrix.from_flat(2, 2, [1.0, 2.0, 3.0])

    def test_immutable(self):
        m = DenseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestVec:
    def test_column_major_example(self):
        m = DenseMatrix(np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert vec(m).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_scalar(self):
        assert vec(DenseMatrix(np.array([[7.0]]))).tolist() == [7.0]

    def test_round_trip_3x2(self, rng):
        m = DenseMatrix(rng.standard_normal((3, 2)))
        assert unvec(vec(m), 3, 2) == m

    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip_property(self, rows, cols, seed):
        m = DenseMatrix(np.random.default_rng(seed).standard_normal((rows, cols)))
        assert unvec(vec(m), rows, cols) == m


class TestKron:
    def test_identity(self):
        assert kron(DenseMatrix(np.eye(2)), DenseMatrix(np.eye(2))) == DenseMatrix(np.eye(4))

    def test_vec_identity(self, rng):
        # vec(B V A^T) = (A kron B) vec(V)
        a = DenseMatrix(rng.standard_normal((3, 4)))
        b = DenseMatrix(rng.standard_normal((2, 5)))
        v = DenseMatrix(rng.standard_normal((5, 4)))
        lhs = vec(DenseMatrix(b.array @ v.array @ a.array.T))
        rhs = kron(a, b).array @ vec(v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rank_one(self, rng):
        a = rng.standard_normal(3)
        b = rng.standard_normal(4)
        got = kron(DenseMatrix(a[:, None]), DenseMatrix(b[:, None]))
        expect = vec(DenseMatrix(np.outer(b, a)))
        np.testing.assert_allclose(got.array.ravel(), expect)

    def test_mixed_product(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 3))
        c, d = rng.standard_normal((4, 2)), rng.standard_normal((3, 5))
        lhs = np.kron(a, b) @ np.kron(c, d)
        rhs = np.kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_associativity(self, rng):
        a, b, c = (DenseMatrix(rng.standard_normal((2, 3))) for _ in range(3))
        lhs = kron(kron(a, b), c).array
        rhs = kron(a, kron(b, c)).array
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


class TestFullSvd:
    def test_diag_axis_aligned(self):
        svd = full_svd(DenseMatrix(np.diag([3.0, 1.0])))
        np.testing.assert_allclose(svd.singulars, [3.0, 1.0])
        np.testing.assert_allclose(svd.left.array, np.eye(2))
        np.testing.assert_allclose(svd.right.array, np.eye(2))
        assert svd.rank == 2
        assert svd.min_gap == pytest.approx(2.0)

    def test_min_gap_over_retained_values(self):
        # the zeros fall below the rank tolerance, so 3 - 1 is the only pair
        assert full_svd(DenseMatrix(np.diag([3.0, 1.0, 0.0, 0.0]))).min_gap == 2.0
        assert full_svd(DenseMatrix(np.diag([3.0, 0.0]))).min_gap == np.inf

    def test_zero_matrix(self):
        svd = full_svd(DenseMatrix(np.zeros((2, 3))))
        np.testing.assert_allclose(svd.singulars, [0.0, 0.0])
        assert svd.rank == 0

    def test_reconstruction_random(self, rng):
        a = DenseMatrix(rng.standard_normal((6, 10)))
        svd = full_svd(a)
        err = np.linalg.norm(svd.reconstruct().array - a.array)
        assert err <= 1e-12 * np.linalg.norm(a.array)

    def test_orthogonality_defect(self, rng):
        a = DenseMatrix(rng.uniform(-10, 10, size=(41, 64)))
        svd = full_svd(a)
        for q in (svd.left.array, svd.right.array):
            assert np.linalg.norm(q.T @ q - np.eye(q.shape[0])) <= 1e-10

    def test_sign_convention_deterministic(self, rng):
        a = DenseMatrix(rng.standard_normal((5, 4)))
        s1, s2 = full_svd(a), full_svd(a)
        assert s1.left == s2.left and s1.right == s2.right
        # first sizable entry of each left vector is nonnegative
        for k in range(5):
            col = s1.left.col(k)
            lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
            assert lead >= 0

    def test_rank_tolerance(self, rng):
        a = rng.standard_normal((4, 4))
        u, s, vt = np.linalg.svd(a)
        s[-1] = 1e-14 * s[0]
        svd = full_svd(DenseMatrix(u @ np.diag(s) @ vt))
        assert svd.rank == 3


class TestMatrixCsv:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        m = DenseMatrix(rng.standard_normal((3, 5)) * np.pi)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, m)
        assert load_matrix_csv(path) == m

    @pytest.mark.parametrize(
        "text, line",
        [("1,2\n3\n", "row 2"), ("1,2\n\n3\n", "row 3")],
        ids=["adjacent", "after-blank-line"],
    )
    def test_ragged_rows_rejected(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=line):
            load_matrix_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)
