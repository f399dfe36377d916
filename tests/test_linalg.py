import numpy as np
import pytest

from hingenet import linalg
from hingenet.linalg import (COLUMNS, ROWS, DimensionError, GroupScheme, group_norms,
                             matmul, scale_groups, svd)


def naive_matmul(a, b):
    """Triple-loop reference product."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0.0
            for k in range(a.shape[1]):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(matmul(np.eye(3), m), m)

    def test_hand_case(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0], [1.0]]))
        assert np.array_equal(out, np.array([[2.0], [4.0]]))

    def test_against_naive_oracle(self, rng):
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=(5, 3))
        assert np.abs(matmul(a, b) - naive_matmul(a, b)).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_transposed_operands_match_naive(self, rng):
        # strided views go to BLAS uncopied; the product must not change
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(3, 5))
        assert not a.T.flags.c_contiguous
        assert np.abs(matmul(a.T, b.T) - naive_matmul(a.T, b.T)).max() <= 1e-12
        assert np.abs(matmul(a.T[::2], b.T) - naive_matmul(a.T[::2], b.T)).max() <= 1e-12

    def test_out_buffer_gets_the_same_bits_and_shape_checks_hold(self, rng):
        a = rng.normal(size=(40, 12))
        b = rng.normal(size=(9, 12)).T
        out = np.full((40, 9), np.nan)
        assert matmul(a, b, out=out) is out
        assert np.array_equal(out, a @ b)
        with pytest.raises(DimensionError):
            matmul(a, b.T, out=out)
        with pytest.raises(DimensionError):
            matmul(a[0], b, out=out)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 3)])
    def test_non_matrix_operand_rejected(self, shape):
        with pytest.raises(DimensionError):
            matmul(np.zeros(shape), np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            matmul(np.zeros((2, 3)), np.zeros(shape))

    def test_associativity(self, rng):
        for _ in range(10):
            dims = rng.integers(2, 65, size=4)
            a = rng.normal(size=(dims[0], dims[1]))
            b = rng.normal(size=(dims[1], dims[2]))
            c = rng.normal(size=(dims[2], dims[3]))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            rel = np.linalg.norm(left - right) / np.linalg.norm(left)
            assert rel <= 1e-10


def jacobi_singular_values(m, sweeps=200):
    """Two-sided Jacobi eigenvalue iteration on M^T M; independent oracle
    for singular values."""
    g = m.T @ m
    n = g.shape[0]
    for _ in range(sweeps):
        done = True
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(g[p, q]) <= 1e-14 * np.sqrt(abs(g[p, p] * g[q, q]) + 1e-300):
                    continue
                done = False
                theta = 0.5 * np.arctan2(2.0 * g[p, q], g[q, q] - g[p, p])
                c, s = np.cos(theta), np.sin(theta)
                j = np.eye(n)
                j[p, p] = c
                j[q, q] = c
                j[p, q] = s
                j[q, p] = -s
                g = j.T @ g @ j
        if done:
            break
    return np.sort(np.sqrt(np.maximum(np.diag(g), 0.0)))[::-1]


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        assert np.allclose(res.singular_values, [1, 1, 1])
        assert np.abs((res.u * res.singular_values) @ res.vt - np.eye(3)).max() <= 1e-12

    def test_diagonal(self):
        res = svd(np.diag([3.0, 2.0]))
        assert np.allclose(res.singular_values, [3.0, 2.0], atol=1e-12)

    def test_against_jacobi_oracle(self, rng):
        m = rng.normal(size=(6, 4))
        res = svd(m)
        want = jacobi_singular_values(m)
        assert np.abs(res.singular_values - want).max() <= 1e-10
        rel = np.linalg.norm((res.u * res.singular_values) @ res.vt - m) / np.linalg.norm(m)
        assert rel <= 1e-10

    @pytest.mark.parametrize("shape", [(8, 8), (64, 64), (32, 5), (5, 32), (64, 17)])
    def test_reconstruction_and_orthonormality(self, rng, shape):
        m = rng.normal(size=shape)
        res = svd(m)
        rel = np.linalg.norm((res.u * res.singular_values) @ res.vt - m) / np.linalg.norm(m)
        assert rel <= 1e-10
        k = res.u.shape[1]
        assert np.abs(res.u.T @ res.u - np.eye(k)).max() <= 1e-10
        assert np.abs(res.vt @ res.vt.T - np.eye(res.vt.shape[0])).max() <= 1e-10
        assert np.all(np.diff(res.singular_values) <= 1e-12)

    def test_rank_deficient(self, rng):
        m = np.outer(rng.normal(size=7), rng.normal(size=4))
        res = svd(m)
        assert np.abs((res.u * res.singular_values) @ res.vt - m).max() <= 1e-10
        assert np.abs(res.u.T @ res.u - np.eye(4)).max() <= 1e-10
        assert res.singular_values[1] <= 1e-10  # rank one

    def test_zero_matrix(self):
        res = svd(np.zeros((5, 3)))
        assert np.all(res.singular_values == 0)
        assert np.abs(res.u.T @ res.u - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (16, 16)])
    def test_sign_rule(self, rng, shape):
        # the largest-magnitude entry of each u column is positive, so a
        # sign flip of the input flips vt only
        m = rng.normal(size=shape)
        res = svd(m)
        cols = np.arange(res.u.shape[1])
        assert np.all(res.u[np.argmax(np.abs(res.u), axis=0), cols] > 0)
        neg = svd(-m)
        assert np.abs(neg.u - res.u).max() <= 1e-12
        assert np.abs(neg.vt + res.vt).max() <= 1e-12

    def test_sign_tie_goes_to_lowest_index(self, monkeypatch):
        # LAPACK's own output rarely ties exactly, so hand it a factorization
        # whose u column has two entries of equal magnitude
        r = np.sqrt(0.5)
        factors = (np.array([[-r], [r]]), np.array([np.sqrt(2.0)]), np.array([[1.0]]))
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: factors)
        res = svd(np.array([[-1.0], [1.0]]))
        assert res.u[:, 0].tolist() == [r, -r]
        assert res.vt.tolist() == [[-1.0]]

    def test_non_finite_input_rejected(self):
        with pytest.raises(linalg.NumericError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_lapack_failure_is_numeric_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(linalg.NumericError):
            svd(np.eye(3))


class TestGroups:
    def test_column_norms(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        assert np.allclose(group_norms(a, GroupScheme(COLUMNS, (2, 2))), [5.0, 0.0])

    def test_row_norms(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        assert np.allclose(group_norms(a, GroupScheme(ROWS, (2, 2))), [3.0, 4.0])

    def test_zero_matrix(self):
        for scheme in (GroupScheme(COLUMNS, (3, 4)), GroupScheme(ROWS, (3, 4))):
            assert np.all(group_norms(np.zeros((3, 4)), scheme) == 0)

    def test_frobenius_identity(self, rng):
        a = rng.normal(size=(9, 7))
        norms = group_norms(a, GroupScheme(COLUMNS, (9, 7)))
        rel = abs(np.sum(norms ** 2) - np.linalg.norm(a) ** 2) / np.linalg.norm(a) ** 2
        assert rel <= 1e-12

    @pytest.mark.parametrize("scheme", [GroupScheme(COLUMNS, (5, 7)), GroupScheme(ROWS, (5, 7))])
    def test_groups_disjoint_and_cover(self, scheme):
        # one-hot factors pick out each group; summed, every entry of an
        # all-ones matrix must be counted exactly once
        ones = np.ones(scheme.shape)
        picks = np.eye(scheme.group_count)
        covered = sum(scale_groups(ones, scheme, picks[g]) for g in range(scheme.group_count))
        assert np.array_equal(covered, ones)

    def test_scale_groups(self, rng):
        a = rng.normal(size=(4, 4))
        scheme = GroupScheme(COLUMNS, (4, 4))
        out = scale_groups(a, scheme, np.array([1.0, 0.0, 2.0, 1.0]))
        assert np.array_equal(out[:, 1], np.zeros(4))
        assert np.array_equal(out[:, 2], 2 * a[:, 2])
        assert np.array_equal(out[:, 0], a[:, 0])

    @pytest.mark.parametrize("kind", [COLUMNS, ROWS])
    def test_helpers_give_the_bits_of_the_numpy_formulas(self, rng, kind):
        # entries from subnormal to overflowing, zero groups and non-finite ones
        a = rng.normal(size=(6, 8)) * 10.0 ** rng.integers(-160, 160, size=(6, 8))
        a[:, 0] = 0.0
        a[1, :] = 0.0
        a[2, 3], a[3, 4], a[4, 5] = np.inf, -np.inf, np.nan
        a[5, 6] = 5e-324
        scheme = GroupScheme(kind, a.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(group_norms(a, scheme), np.linalg.norm(a, axis=scheme.axis),
                                  equal_nan=True)
            factors = np.concatenate([[0.0, np.inf, np.nan, -2.0], rng.normal(size=4)])
            factors = factors[:scheme.group_count]
            assert np.array_equal(scale_groups(a, scheme, factors),
                                  a * np.expand_dims(factors, scheme.axis), equal_nan=True)

    def test_scheme_shape_check(self):
        with pytest.raises(DimensionError):
            group_norms(np.zeros((3, 3)), GroupScheme(COLUMNS, (2, 2)))

    def test_unknown_kind_rejected(self):
        # attach_hinges passes a requested kind straight to GroupScheme
        with pytest.raises(ValueError, match="group kind"):
            GroupScheme("diagonal", (2, 2))
