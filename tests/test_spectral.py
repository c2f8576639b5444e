"""Smoothed maximum eigenvalue: sandwich bound, gradient structure,
finite-difference consistency, the non-strict-convexity witness, and the
scaled-and-squared gradient against the eigendecomposition and scipy's
matrix exponential."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import _raw_eigh, eigh_smoothed_grad, smoothed_max_eig
from pdflow.spectral import THETA, smoothed_max_eig_grad, symmetrize


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
    """The ascending eigh under the gradient oracle (conftest), for one
    matrix and for a stack."""

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

    @pytest.mark.parametrize(
        "X, eps, expected",
        [
            (np.diag([1.0, 0.0]), 1e-310, 1.0),  # spread / eps overflows to -inf
            # lambda_max = 1.97e308 is past the largest double
            (
                np.array([[1.7e308, 1e308, 0.0], [1e308, -1.7e308, 0.0], [0.0, 0.0, -1.7e308]]),
                1e-3,
                np.inf,
            ),
            (np.diag([0.0, 0.0, -1e308]), 1e-300, 1e-300 * np.log(2.0)),
            # eps * log(4) overflows, but the value is below the largest double
            (np.diag([-1.7e308] * 4), 1.7e308, 1.7e308 * (np.log(4.0) - 1.0)),
        ],
        ids=["tiny-eps", "lambda-max-overflows", "eps-below-scale", "huge-eps"],
    )
    def test_extreme_inputs_are_silent_and_never_nan(self, X, eps, expected):
        # finite wherever the value is representable, +inf where it is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = smoothed_max_eig(X, eps)
        assert got == expected or abs(got - expected) <= 1e-15 * abs(expected)

    def test_scaled_stack_matches_single_matrices(self):
        # matrices scaled down by a power of two sit next to unscaled ones
        rng = np.random.default_rng(35)
        X = np.stack([1e300 * random_symmetric(rng, 4, 1.0), random_symmetric(rng, 4)])
        values = smoothed_max_eig(X, 1e-2)
        for i in range(len(X)):
            assert values[i] == smoothed_max_eig(X[i], 1e-2)
        lam_max = np.linalg.eigvalsh(X[0])[-1]
        assert lam_max * (1.0 - 1e-15) <= values[0] <= lam_max * (1.0 + 1e-15)

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
            dG = smoothed_max_eig_grad(X + c * np.eye(6), eps) - smoothed_max_eig_grad(X, eps)
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
        got = smoothed_max_eig_grad(np.zeros((5, 5)), 0.7)
        assert np.abs(got - np.eye(5) / 5.0).max() <= 1e-12

    def test_underflow_flushes_cleanly(self):
        got = smoothed_max_eig_grad(np.diag([10.0, 0.0]), 1e-3)
        assert np.abs(got - np.diag([1.0, 0.0])).max() <= 1e-12

    def test_structure_on_random_matrices(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            n = rng.integers(2, 9)
            X = random_symmetric(rng, n)
            eps = float(rng.choice([1.0, 0.1, 0.01]))
            G = smoothed_max_eig_grad(X, eps)
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
            G = smoothed_max_eig_grad(X, eps)
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
        G = smoothed_max_eig_grad(X, eps)
        assert np.abs(G - expected).max() <= 1e-12
        assert np.abs(G - flipped).max() <= 1e-12

    def test_degenerate_top_eigenspace(self):
        # top eigenvalue with multiplicity 2 and a big spectral gap: the
        # gradient is (1/2) * projector onto the top eigenspace
        rng = np.random.default_rng(29)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        X = Q @ np.diag([5.0, 5.0, -20.0, -21.0, -22.0]) @ Q.T
        G = smoothed_max_eig_grad(X, 0.05)
        P_top = Q[:, :2] @ Q[:, :2].T
        assert np.abs(G - P_top / 2.0).max() <= 1e-8


class TestStacks:
    def test_stack_matches_single_matrices(self):
        # each slice of a stack equals the single-matrix call
        rng = np.random.default_rng(30)
        X = np.stack([random_symmetric(rng, 4) for _ in range(5)])
        G, values = smoothed_max_eig_grad(X, 0.3), smoothed_max_eig(X, 0.3)
        assert G.shape == (5, 4, 4) and values.shape == (5,)
        assert np.array_equal(smoothed_max_eig(X, 0.3), values)
        for i in range(5):
            assert np.array_equal(G[i], smoothed_max_eig_grad(X[i], 0.3))
            assert values[i] == smoothed_max_eig(X[i], 0.3)

    def test_mixed_scales_match_single_matrices(self):
        # each matrix picks its own scaling and squaring count; the stack's
        # rescales are by powers of two, so they leave no trace
        rng = np.random.default_rng(31)
        X = np.stack(
            [
                random_symmetric(rng, 6),
                np.zeros((6, 6)),
                1e300 * random_symmetric(rng, 6, scale=1.0),
                random_symmetric(rng, 6, scale=100.0),  # rescaled at eps 0.01
            ]
        )
        G = smoothed_max_eig_grad(X, 0.01)
        for i in range(len(X)):
            assert np.array_equal(G[i], smoothed_max_eig_grad(X[i], 0.01))

    @pytest.mark.parametrize(
        "X, eps",
        [
            (random_symmetric(np.random.default_rng(36), 6), 0.1),
            # squaring counts differ: none for the zero matrix, several for the first
            (
                np.stack(
                    [
                        random_symmetric(np.random.default_rng(37), 5),
                        np.zeros((5, 5)),
                        random_symmetric(np.random.default_rng(38), 5, scale=0.01),
                    ]
                ),
                0.01,
            ),
            # more than SAFE_SQUARINGS squarings: rescaled between squarings
            (np.stack([random_symmetric(np.random.default_rng(39), 6, scale=100.0)] * 2), 0.01),
        ],
        ids=["single", "mixed-squarings", "renormalized"],
    )
    def test_scratch_gives_the_allocated_gradient(self, X, eps):
        # whatever the stacks held before, the gradient comes back in the first
        expected = smoothed_max_eig_grad(X, eps)
        scratch = np.full((4,) + X.shape, np.nan)
        for _ in range(2):
            G = smoothed_max_eig_grad(X, eps, scratch)
            assert np.shares_memory(G, scratch[0])
            assert np.array_equal(G, expected)
            scratch[1:] = np.inf

    def test_mixed_squarings_allocate_no_stack(self):
        # as on Example 4's graph, some matrices take 8 squarings and some 9;
        # the partial last squaring works in the scratch.  What is left are
        # N x N temporaries on the diagonals, far below a quarter of the
        # stack, which a gather of the active matrices alone would exceed
        n, eps = 32, 0.05
        rng = np.random.default_rng(41)
        X = np.stack([random_symmetric(rng, n) for _ in range(n)])
        centered = X - (np.trace(X, axis1=-2, axis2=-1) / n)[:, None, None] * np.eye(n)
        # ||centered||_F / eps = 2^(s - 1/2) THETA gives s squarings
        squarings = np.where(np.arange(n) % 3 == 0, 9, 8)
        X *= (eps * THETA * 2.0 ** (squarings - 0.5) / np.linalg.norm(centered, axis=(-2, -1)))[:, None, None]
        scratch = np.empty((4,) + X.shape)
        expected = smoothed_max_eig_grad(X, eps)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            G = smoothed_max_eig_grad(X, eps, scratch)
            transient = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert np.array_equal(G, expected)
        assert transient < X.nbytes / 4

    def test_symmetrize_stack(self):
        X = np.array([[[1.0, 2.0], [0.0, 3.0]], [[0.0, 4.0], [2.0, 0.0]]])
        assert np.array_equal(symmetrize(X)[1], np.array([[0.0, 3.0], [3.0, 0.0]]))


def assert_gradient_structure(G):
    """Finite, exactly symmetric, unit trace."""
    assert np.isfinite(G).all()
    assert np.array_equal(G, np.swapaxes(G, -1, -2))
    assert np.abs(np.trace(G, axis1=-2, axis2=-1) - 1.0).max() <= 1e-13


class TestScaledAndSquaredGradient:
    """The gradient exp(X/eps) / tr exp(X/eps) is evaluated by scaling and
    squaring; the eigendecomposition and scipy's expm are its oracles."""

    # at eps 1e-6, n = 40 takes 28 squarings, rescaled after 13, 20 and 27;
    # at eps 1e-8, n = 2 takes 31, rescaled every 8 after 13
    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.01, 1e-3, 1e-6, 1e-8])
    def test_matches_oracles(self, n, eps):
        rng = np.random.default_rng(n)
        X = np.stack([random_symmetric(rng, n, scale=1.0) for _ in range(5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = smoothed_max_eig_grad(X, eps)
        for Xi, Gi in zip(X, G):
            assert np.array_equal(Gi, smoothed_max_eig_grad(Xi, eps))
            assert_gradient_structure(Gi)
            assert np.abs(Gi - eigh_smoothed_grad(Xi, eps)).max() <= 1e-12
            if np.abs(Xi).sum(axis=0).max() / eps < 700.0:  # exp(X/eps) is representable
                E = expm(Xi / eps)
                assert np.abs(Gi - E / np.trace(E)).max() <= 1e-12

    def test_polynomial_is_the_taylor_polynomial(self):
        # at eps = 1, X = diag(a, -a, b, -b) is its own scaled argument B, and
        # with ||B||_F < THETA it takes no squaring: G is diag(p(B)) / tr p(B)
        # with p(x) = sum_j x^j / j!, j <= 8, here in exact arithmetic
        worst = 0.0
        for radius in np.linspace(0.0, 0.999 * THETA, 21) / math.sqrt(2.0):
            for angle in np.linspace(0.0, math.pi / 2.0, 7):
                entries = radius * np.array([math.cos(angle), -math.cos(angle), math.sin(angle), -math.sin(angle)])
                G = smoothed_max_eig_grad(np.diag(entries), 1.0)
                p = [sum(Fraction(x) ** j / math.factorial(j) for j in range(9)) for x in entries]
                expected = np.array([float(pi / sum(p)) for pi in p])
                assert np.array_equal(G, np.diag(np.diag(G)))
                worst = max(worst, (np.abs(np.diag(G) - expected) / np.spacing(expected)).max())
        assert worst <= 4.0

    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_clustered_top_eigenvalue(self, n):
        # n - 1 equal top eigenvalues: right after a rescale the top one may
        # be 1/(2(n - 1)), near the 1/(2n) the rescale interval rests on.  At
        # eps 1e-6 it takes 24 squarings and two rescales, which the small
        # and the zero matrix of the stack undergo too, but not on their own
        rng = np.random.default_rng(40 + n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        C = symmetrize(Q @ np.diag([-1.0] + [0.0] * (n - 1)) @ Q.T)
        X = np.stack([C, random_symmetric(rng, n, scale=1e-5), np.zeros((n, n))])
        eps = 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = smoothed_max_eig_grad(X, eps)
        for Xi, Gi in zip(X, G):
            assert np.array_equal(Gi, smoothed_max_eig_grad(Xi, eps))
            assert_gradient_structure(Gi)
        # the top eigenspace is as ill-conditioned as it gets: each method's
        # backward error, about n u ||X||, moves the 1/eps-Lipschitz G by up
        # to n u ||X|| / eps
        tol = 2.0 * n * 2.0**-53 * np.linalg.norm(C) / eps
        assert np.abs(G[0] - eigh_smoothed_grad(C, eps)).max() <= tol
        for Xi, Gi in zip(X[1:], G[1:]):
            assert np.abs(Gi - eigh_smoothed_grad(Xi, eps)).max() <= 1e-12

    def test_entries_near_float_limit(self):
        rng = np.random.default_rng(33)
        for scale in (1e300, 1.7e308):
            X = scale * random_symmetric(rng, 5, scale=1.0)
            for eps in (1.0, 1e-3):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    G = smoothed_max_eig_grad(X, eps)
                assert_gradient_structure(G)
                if scale == 1e300:  # the oracle's eigh overflows at the float limit
                    assert np.abs(G - eigh_smoothed_grad(X, eps)).max() <= 1e-12

    @pytest.mark.parametrize(
        "X, eps",
        [
            (np.zeros((3, 3)), 5e-324),
            (np.full((3, 3), 1e-310), 1e-300),
            (np.array([[1e308, 1e-10], [1e-10, 1e308]]), 1e-300),
            (np.array([[0.0, 1e308], [-1e308, 0.0]]), 1e-3),  # symmetric part zero
            (np.eye(4), 1e308),
            (np.ones((1, 1)), 0.1),
        ],
    )
    def test_extreme_inputs_stay_finite(self, X, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = smoothed_max_eig_grad(X, eps)
        assert_gradient_structure(G)

    def test_empty_stack(self):
        assert smoothed_max_eig_grad(np.zeros((0, 3, 3)), 0.1).shape == (0, 3, 3)

    def test_calls_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition called")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        rng = np.random.default_rng(34)
        X = np.stack([random_symmetric(rng, 10) for _ in range(3)])
        assert_gradient_structure(smoothed_max_eig_grad(X, 0.05))

    def test_rejects_non_finite_and_nonpositive_eps(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                smoothed_max_eig_grad(np.array([[0.0, bad], [bad, 1.0]]), 0.1)
        for eps in (0.0, -1.0, np.nan, np.inf, True, "0.1"):
            with pytest.raises(ValueError, match="eps must be positive"):
                smoothed_max_eig_grad(np.eye(2), eps)
