"""Smooth surrogate for the largest eigenvalue of a symmetric matrix.

The surrogate is the log-sum-exp of the spectrum at temperature ``eps``,

    eps * log(tr exp(X / eps)) = eps * log(sum_i exp(lambda_i / eps)),

a convex upper bound on lambda_max that is tight up to ``eps * log(N)``.
Its value comes from the eigenvalues, in max-shifted form, so it is never
below the computed lambda_max.  Its gradient is the matrix softmax

    G = exp(X / eps) / tr exp(X / eps),

a symmetric PSD matrix of unit trace (Nesterov, "Smoothing technique and
its applications in semidefinite optimization", Math. Program. 2007).  The
gradient needs no eigendecomposition: the exponential is a Taylor
polynomial of a scaled-down argument, squared back up (Higham, "The
scaling and squaring method for the matrix exponential revisited", SIAM J.
Matrix Anal. Appl. 2005), a dozen or two matrix products.

Every function also accepts a stack of matrices of shape ``(..., n, n)``
and then works on each matrix of the stack.  Each matrix's scaling,
squaring count and renormalization depend on that matrix alone, so a
matrix of a stack gets bit for bit the gradient it gets on its own.
"""

from __future__ import annotations

import math

import numpy as np

# Degree of the Taylor polynomial, and the largest norm of its argument:
# the first omitted term, THETA^(m+1) / (m+1)!, is at most 2^-53.
TAYLOR_DEGREE = 8
THETA = (2.0**-53 * math.factorial(TAYLOR_DEGREE + 1)) ** (1.0 / (TAYLOR_DEGREE + 1))
# Past this norm of X / eps, exp(X / eps) may overflow (exp(709) is near the
# largest double), so its squarings are renormalized to unit trace.
RENORM_NORM = 512.0
# A matrix with an entry of 2^SAFE_EXPONENT or more is first scaled below it
# by a power of two, so that its sum of squared entries cannot overflow.
SAFE_EXPONENT = 400
_TINY = np.finfo(float).tiny


def _square(matrix) -> np.ndarray:
    """The input as a float array of square matrices, or raise."""
    X = np.asarray(matrix, dtype=float)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    return X


def symmetrize(matrix) -> np.ndarray:
    """Return (X + X^T)/2 as a fresh float array, for a matrix or a stack.

    Raises if the input is not square or contains non-finite entries.
    """
    X = _square(matrix)
    if not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite entries")
    # halve before adding: finite inputs can never overflow the average
    return X / 2.0 + np.swapaxes(X, -1, -2) / 2.0


def _diagonal(X: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of each matrix of ``X`` (C-contiguous)."""
    n = X.shape[-1]
    return X.reshape(X.shape[:-2] + (n * n,))[..., :: n + 1]


def smoothed_max_eig(matrix, eps: float):
    """Log-sum-exp of the spectrum of a symmetric matrix (symmetrized
    defensively) at the positive temperature ``eps``.

    The value lies in ``[lambda_max, lambda_max + eps*log(N)]``: a float for
    one matrix, an array of shape ``(...)`` for a stack.  It is +inf where
    it exceeds the largest double, and finite everywhere else.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    X = symmetrize(matrix)
    # the spectrum of X / 2^e and eps / 2^e, both below 2^SAFE_EXPONENT, has
    # a finite spread and value; scaling by 2^0 changes nothing, so skip it
    size = np.maximum(np.abs(X).max(axis=(-2, -1)), eps)
    e = np.maximum(np.frexp(size)[1] - SAFE_EXPONENT, 0)
    lam = np.linalg.eigvalsh(X * np.exp2(-e)[..., None, None] if e.any() else X)
    top = lam[..., -1]
    # an exponent that overflows to -inf weighs exp(-inf) = 0, and a value
    # past the largest double is +inf
    with np.errstate(over="ignore"):
        ratio = np.ldexp(lam - top[..., None], e[..., None]) / eps
        smoothing = np.log(np.exp(ratio).sum(axis=-1))
        value = np.ldexp(top, e) + eps * smoothing
        # eps * smoothing alone may overflow: then add it at the lower scale
        value = np.where(value < np.inf, value, np.ldexp(top + np.ldexp(eps, -e) * smoothing, e))
    return float(value) if value.ndim == 0 else value


def smoothed_max_eig_grad(matrix, eps: float, scratch=None) -> np.ndarray:
    """Gradient of :func:`smoothed_max_eig` with respect to the matrix,
    ``exp(X/eps) / tr exp(X/eps)``, without an eigendecomposition.

    ``matrix`` is symmetric (symmetrized defensively) or a stack of them;
    ``eps`` is the positive smoothing temperature.  Returns a symmetric PSD
    matrix of unit trace, one per matrix of a stack.  Every finite input
    gives a finite gradient; a non-finite one raises ``ValueError``.

    ``scratch``, if given, is three C-contiguous float arrays of the
    input's shape (an array of shape ``(3,) + shape`` will do) that the
    evaluation works in; the gradient is then returned in the first, and
    the other two are left as garbage.  Without it they are allocated.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    X = _square(matrix)
    if X.size == 0:  # an empty stack, or 0 x 0 matrices
        return np.zeros(X.shape)
    S, P, T = np.empty((3,) + X.shape) if scratch is None else scratch
    top = np.abs(X, out=S).max(axis=(-2, -1))
    if not np.isfinite(top).all():
        raise ValueError("matrix contains non-finite entries")
    e = np.maximum(np.frexp(top)[1] - SAFE_EXPONENT, 0)
    if e.any():  # scaling by 2^0 = 1 changes nothing, so skip it then
        X = X * np.exp2(-e)[..., None, None]
    # S = 2 (sym(X) - cI) / 2^e with c the mean eigenvalue, so the argument
    # A = 2^(e-1) S / eps of the exponential has lambda_max(A) >= 0 and
    # tr exp(A) >= 1.  Its size is measured in the Frobenius norm, which is
    # submultiplicative and, on these matrices, often a bit below the 1-norm.
    np.add(X, np.swapaxes(X, -1, -2), out=S)
    diag = _diagonal(S)
    diag -= (diag / S.shape[-1]).sum(axis=-1, keepdims=True)
    squares = np.maximum(np.einsum("...ij,...ij->...", S, S), _TINY)
    log2_norm = 0.5 * np.log2(squares) + (e - 1) - math.log2(eps)  # log2 ||A||_F
    # exp(A) = exp(B)^(2^s) with B = A / 2^s = f S of norm at most THETA
    s = np.maximum(0.0, np.ceil(log2_norm - math.log2(THETA))).astype(int)
    mantissa, exponent = math.frexp(eps)
    S *= np.ldexp(1.0 / mantissa, e - 1 - s - exponent)[..., None, None]

    # Taylor polynomial sum_j B^j / j! by Horner's rule, highest term first
    np.multiply(S, 1.0 / math.factorial(TAYLOR_DEGREE), out=P)
    P_diagonal, T_diagonal = _diagonal(P), _diagonal(T)
    P_diagonal += 1.0 / math.factorial(TAYLOR_DEGREE - 1)
    for j in range(TAYLOR_DEGREE - 2, -1, -1):
        np.matmul(S, P, out=T)
        T_diagonal += 1.0 / math.factorial(j)
        P, T, P_diagonal, T_diagonal = T, P, T_diagonal, P_diagonal

    # square matrix i s_i times, renormalizing those that could overflow
    renorm = log2_norm > math.log2(RENORM_NORM)
    any_renorm, all_active = bool(renorm.any()), int(s.min())
    for k in range(int(s.max())):
        if k < all_active:
            np.matmul(P, P, out=T)
            P, T = T, P
        else:
            active = s > k
            Q = P[active]
            P[active] = Q @ Q
        if any_renorm:
            scaled = renorm & (s > k)
            Q = P[scaled]
            Q /= _diagonal(Q).sum(axis=-1)[..., None, None]
            P[scaled] = Q
    G = np.add(P, np.swapaxes(P, -1, -2), out=S)
    G *= (0.5 / _diagonal(P).sum(axis=-1))[..., None, None]
    return G
