"""Smoothed maximum eigenvalue: sandwich bound, gradient structure,
finite-difference consistency and the non-strict-convexity witness."""

import numpy as np
import pytest

from conftest import smoothed_max_eig
from pdflow.spectral import (
    _raw_eigh,
    smoothed_max_eig_grad,
    symmetrize,
)


def random_symmetric(rng, n, scale=5.0):
    X = rng.uniform(-scale, scale, size=(n, n))
    return (X + X.T) / 2.0


class TestSymmetrize:
    def test_averages_with_transpose(self):
        X = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(symmetrize(X), np.array([[1.0, 1.0], [1.0, 3.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetrize(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            symmetrize(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestEigendecomposition:
    """The ascending eigh under the smoothing: its last eigenvalue is the
    shift of every log-sum-exp, for one matrix and for a stack."""

    def test_identity(self):
        lam, _ = _raw_eigh(np.eye(3))
        assert np.allclose(lam, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal_sorted_with_coordinate_vectors(self):
        lam, U = _raw_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(lam, [1.0, 2.0, 3.0], atol=1e-14)
        # eigenvectors are the coordinate axes, up to sign
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        assert np.allclose(np.abs(U), expected, atol=1e-14)

    def test_path_graph_laplacian_spectrum(self):
        # eigenvalues 0, 1, 3 from the characteristic polynomial
        L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        lam, _ = _raw_eigh(np.stack([L, 2.0 * L]))
        assert np.allclose(lam, [[0.0, 1.0, 3.0], [0.0, 2.0, 6.0]], atol=1e-12)

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = rng.integers(2, 9)
            X = np.stack([random_symmetric(rng, n) for _ in range(3)])
            lam, U = _raw_eigh(X)
            assert np.all(np.diff(lam, axis=-1) >= 0)
            for k in range(3):
                norm = 1.0 + np.linalg.norm(X[k])
                for i in range(n):
                    residual = X[k] @ U[k, :, i] - lam[k, i] * U[k, :, i]
                    assert np.linalg.norm(residual) <= 1e-8 * norm
                assert np.abs(U[k].T @ U[k] - np.eye(n)).max() <= 1e-10


class TestSmoothedMaxEig:
    def test_identity_value(self):
        # all eigenvalues 1: value is 1 + eps*log(N)
        for n in (2, 5, 9):
            for eps in (1.0, 0.1, 1e-3):
                got = smoothed_max_eig(np.eye(n), eps)
                assert abs(got - (1.0 + eps * np.log(n))) <= 1e-12

    def test_zero_matrix(self):
        got = smoothed_max_eig(np.zeros((4, 4)), 0.5)
        assert abs(got - 0.5 * np.log(4)) <= 1e-12

    def test_dominant_eigenvalue(self):
        # spread >> eps log N: value pinned just above the top eigenvalue
        X = np.diag([0.0, 0.0, 0.0, 50.0])
        got = smoothed_max_eig(X, 1e-3)
        assert 50.0 <= got <= 50.0 + 1e-3 * np.log(4)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            smoothed_max_eig(np.eye(2), 0.0)

    def test_sandwich_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            n = rng.integers(2, 11)
            X = random_symmetric(rng, n)
            lam_max = np.linalg.eigvalsh(X)[-1]
            for eps in (1.0, 1e-1, 1e-2):
                f = smoothed_max_eig(X, eps)
                assert lam_max - 1e-10 <= f <= lam_max + eps * np.log(n) + 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            X = random_symmetric(rng, 6)
            c = float(rng.uniform(-10, 10))
            eps = 0.1
            assert abs(smoothed_max_eig(X + c * np.eye(6), eps) - smoothed_max_eig(X, eps) - c) <= 1e-10
            dG = smoothed_max_eig_grad(X + c * np.eye(6), eps)[1] - smoothed_max_eig_grad(X, eps)[1]
            assert np.abs(dG).max() <= 1e-9

    def test_convexity_spot_check(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            X = random_symmetric(rng, 5)
            Y = random_symmetric(rng, 5)
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                lhs = smoothed_max_eig(alpha * X + (1 - alpha) * Y, 0.2)
                rhs = alpha * smoothed_max_eig(X, 0.2) + (1 - alpha) * smoothed_max_eig(Y, 0.2)
                assert lhs <= rhs + 1e-10

    def test_non_strict_convexity_witness(self):
        # equality on the I / 2I segment: both sides are eps*log(N) + 2 - alpha
        n, eps = 4, 0.3
        I = np.eye(n)
        for alpha in np.linspace(0.0, 1.0, 11):
            left = alpha * smoothed_max_eig(I, eps) + (1 - alpha) * smoothed_max_eig(2 * I, eps)
            right = smoothed_max_eig((2 - alpha) * I, eps)
            assert abs(left - right) <= 1e-10
            assert abs(left - (eps * np.log(n) + 2 - alpha)) <= 1e-10


class TestSmoothedMaxEigGrad:
    def test_zero_matrix_uniform(self):
        _, got = smoothed_max_eig_grad(np.zeros((5, 5)), 0.7)
        assert np.abs(got - np.eye(5) / 5.0).max() <= 1e-12

    def test_underflow_flushes_cleanly(self):
        _, got = smoothed_max_eig_grad(np.diag([10.0, 0.0]), 1e-3)
        assert np.abs(got - np.diag([1.0, 0.0])).max() <= 1e-12

    def test_structure_on_random_matrices(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            n = rng.integers(2, 9)
            X = random_symmetric(rng, n)
            eps = float(rng.choice([1.0, 0.1, 0.01]))
            _, G = smoothed_max_eig_grad(X, eps)
            assert np.array_equal(G, G.T)
            assert abs(np.trace(G) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(G)[0] >= -1e-10

    def test_directional_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(27)
        h = 1e-5
        for _ in range(100):
            n = rng.integers(2, 7)
            X = random_symmetric(rng, n)
            D = random_symmetric(rng, n, scale=1.0)
            eps = float(rng.uniform(0.2, 1.0))
            _, G = smoothed_max_eig_grad(X, eps)
            analytic = float(np.trace(G @ D))
            fd = (smoothed_max_eig(X + h * D, eps) - smoothed_max_eig(X - h * D, eps)) / (2 * h)
            assert abs(analytic - fd) <= 1e-5 * (1.0 + abs(analytic))

    def test_sign_convention_irrelevant(self):
        # the gradient only uses outer products, so flipping eigenvector signs
        # must not matter; compare against an explicit projector sum
        rng = np.random.default_rng(28)
        X = random_symmetric(rng, 5)
        eps = 0.5
        lam, U = np.linalg.eigh(X)
        w = np.exp((lam - lam[-1]) / eps)
        w = w / w.sum()
        expected = sum(w[i] * np.outer(U[:, i], U[:, i]) for i in range(5))
        flipped = sum(w[i] * np.outer(-U[:, i], -U[:, i]) for i in range(5))
        _, G = smoothed_max_eig_grad(X, eps)
        assert np.abs(G - expected).max() <= 1e-12
        assert np.abs(G - flipped).max() <= 1e-12

    def test_degenerate_top_eigenspace(self):
        # top eigenvalue with multiplicity 2 and a big spectral gap: the
        # gradient is (1/2) * projector onto the top eigenspace
        rng = np.random.default_rng(29)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        X = Q @ np.diag([5.0, 5.0, -20.0, -21.0, -22.0]) @ Q.T
        _, G = smoothed_max_eig_grad(X, 0.05)
        P_top = Q[:, :2] @ Q[:, :2].T
        assert np.abs(G - P_top / 2.0).max() <= 1e-8


class TestStacks:
    def test_stack_matches_single_matrices(self):
        # a stack is one batched eigh; each slice equals the single-matrix call
        rng = np.random.default_rng(30)
        X = np.stack([random_symmetric(rng, 4) for _ in range(5)])
        values, G = smoothed_max_eig_grad(X, 0.3)
        assert G.shape == (5, 4, 4) and values.shape == (5,)
        assert np.array_equal(smoothed_max_eig(X, 0.3), values)
        for i in range(5):
            assert np.array_equal(G[i], smoothed_max_eig_grad(X[i], 0.3)[1])
            assert values[i] == smoothed_max_eig(X[i], 0.3)

    def test_symmetrize_stack(self):
        X = np.array([[[1.0, 2.0], [0.0, 3.0]], [[0.0, 4.0], [2.0, 0.0]]])
        assert np.array_equal(symmetrize(X)[1], np.array([[0.0, 3.0], [3.0, 0.0]]))
