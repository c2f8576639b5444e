"""Smooth surrogate for the largest eigenvalue of a symmetric matrix.

The surrogate is the log-sum-exp of the spectrum at temperature ``eps``,

    eps * log(sum_i exp(lambda_i / eps)),

a convex upper bound on lambda_max that is tight up to ``eps * log(N)``.
Its gradient is the softmax-weighted sum of the spectral projectors, a
symmetric PSD matrix of unit trace.  Everything is evaluated in max-shifted
form so small ``eps`` never overflows the exponentials.

Every function also accepts a stack of matrices of shape ``(..., n, n)``
and then works on each matrix of the stack, with one batched ``eigh``.
"""

from __future__ import annotations

import numpy as np


def symmetrize(matrix) -> np.ndarray:
    """Return (X + X^T)/2 as a fresh float array, for a matrix or a stack.

    Raises if the input is not square or contains non-finite entries.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite entries")
    # halve before adding: finite inputs can never overflow the average
    return X / 2.0 + np.swapaxes(X, -1, -2) / 2.0


def _raw_eigh(matrix):
    """Ascending eigh of the symmetrized input, signs as returned by LAPACK."""
    return np.linalg.eigh(symmetrize(matrix))


def _log_sum_exp(eigenvalues: np.ndarray, eps: float):
    """The surrogate's value and the softmax weights, from one ``exp``."""
    top = eigenvalues[..., -1:]
    weights = np.exp((eigenvalues - top) / eps)
    total = weights.sum(axis=-1, keepdims=True)
    value = (top + eps * np.log(total))[..., 0]
    weights /= total
    return (float(value) if value.ndim == 0 else value), weights


def smoothed_max_eig(matrix, eps: float):
    """Log-sum-exp of the spectrum: a smooth upper bound on lambda_max.

    Parameters
    ----------
    matrix : array_like
        Symmetric matrix (symmetrized defensively), or a stack of them.
    eps : float
        Positive smoothing temperature.  The result lies in
        ``[lambda_max, lambda_max + eps*log(N)]``.

    Returns a float for one matrix and an array of shape ``(...)`` for a
    stack.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    lam, _ = _raw_eigh(matrix)
    return _log_sum_exp(lam, eps)[0]


def smoothed_max_eig_grad(matrix, eps: float):
    """:func:`smoothed_max_eig` and its gradient with respect to the matrix,
    both from one eigendecomposition.

    Returns ``(value, gradient)``.  The gradient is the softmax-weighted sum
    of eigenvector outer products: a symmetric PSD matrix with unit trace
    (one per matrix of a stack).  Invariant to eigenvector sign choices by
    construction.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    lam, U = _raw_eigh(matrix)
    value, weights = _log_sum_exp(lam, eps)
    grad = (U * weights[..., None, :]) @ np.swapaxes(U, -1, -2)
    grad = (grad + np.swapaxes(grad, -1, -2)) / 2.0
    return value, grad
