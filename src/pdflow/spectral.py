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
Matrix Anal. Appl. 2005).  The polynomial takes three matrix products in
Sastre's form ("Efficient evaluation of matrix polynomials", Linear Algebra
Appl. 2018), and each halving of the argument one squaring.

Every function also accepts a stack of matrices of shape ``(..., n, n)``
and then works on each matrix of the stack.  Each matrix's scaling and
squaring count depend on that matrix alone, and renormalization is exact
(a power of two), so it leaves no trace in any result: a matrix of a
stack gets bit for bit the gradient it gets on its own.
"""

from __future__ import annotations

import math

import numpy as np

from .sets import _positive

# Degree of the Taylor polynomial, and the largest norm of its argument:
# the first omitted term, THETA^(m+1) / (m+1)!, is at most 2^-53.
TAYLOR_DEGREE = 8
THETA = (2.0**-53 * math.factorial(TAYLOR_DEGREE + 1)) ** (1.0 / (TAYLOR_DEGREE + 1))
# exp(B) with ||B|| <= THETA has its eigenvalues within e^(+-THETA), so this
# many squarings of it cannot overflow (exp(709) is near the largest double).
SAFE_SQUARINGS = int(math.log2(math.log(np.finfo(float).max) / THETA))
# A matrix with an entry of 2^SAFE_EXPONENT or more is first scaled below it
# by a power of two, so that its sum of squared entries cannot overflow.
SAFE_EXPONENT = 400
_TINY = np.finfo(float).tiny
# Sastre's coefficients for the degree-8 Taylor polynomial: with B^2 = B B
# and y = B^2 (C1 B^2 + C2 B),
#     T8(B) = (y + C3 B^2 + C4 B)(y + C5 B^2) + C6 y + B^2/2 + B + I,
# where C2 = 1 / (2 7! C1) = 4 C1.  Adding C6 I to the first factor gives
# C6 y + C6 C5 B^2, so the remainder is C7 B^2 + B + I with C7 = 1/2 - C5 C6.
_C1 = 1.0 / math.sqrt(math.factorial(8))
_C3, _C4 = 7.665265321119147e-02, 8.765009801785554e-01
_C5, _C6 = 1.225521150112075e-01, 2.974307204847627
_C7 = 0.5 - _C5 * _C6


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


def _psd_average(matrix: np.ndarray, name: str) -> tuple:
    """``(average, eigenvalues)``: the :func:`symmetrize` average of a square
    ``matrix`` and its ascending eigenvalues.  Raises naming ``name`` unless
    the matrix is finite, symmetric within 1e-9 (1 + max |X|) and positive
    semidefinite within 1e-9 (1 + |lambda_max|).
    """
    if not np.isfinite(matrix).all():  # before any arithmetic can warn
        raise ValueError(f"{name} contains non-finite entries")
    # on the halves, which cannot overflow, and before the average is built
    if np.abs(matrix / 2.0 - matrix.T / 2.0).max() > 0.5e-9 * (1.0 + np.abs(matrix).max()):
        raise ValueError(f"{name} is not symmetric")
    average = symmetrize(matrix)
    eigs = np.linalg.eigvalsh(average)
    if eigs[0] < -1e-9 * (1.0 + abs(float(eigs[-1]))):
        raise ValueError(f"{name} is not positive semidefinite")
    return average, eigs


def _plus_transpose(X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = X + X^T`` for each matrix of ``X``; a transposed operand would
    make numpy allocate an iteration buffer, a copy into ``out`` does not."""
    np.copyto(out, np.swapaxes(X, -1, -2))
    out += X
    return out


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
    _positive(eps, "eps")
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

    ``scratch``, if given, is a C-contiguous float array of shape
    ``(4,) + shape`` that the evaluation works in; the gradient is then
    returned in its first matrix or stack, and the other three are left as
    garbage.  Without it one is allocated.
    """
    _positive(eps, "eps")
    X = _square(matrix)
    if X.size == 0:  # an empty stack, or 0 x 0 matrices
        return np.zeros(X.shape)
    if scratch is None:
        scratch = np.empty((4,) + X.shape)
    P, A, T, U = scratch
    _, A_diagonal, T_diagonal, U_diagonal = _diagonal(scratch)
    # one test for the whole stack: a finite sum of squares below
    # 2^(2 SAFE_EXPONENT) puts every entry below 2^SAFE_EXPONENT, so e = 0
    e = 0
    if not np.vdot(X, X) < 2.0 ** (2 * SAFE_EXPONENT):
        top = np.abs(X, out=A).max(axis=(-2, -1))
        if not np.isfinite(top).all():
            raise ValueError("matrix contains non-finite entries")
        e = np.maximum(np.frexp(top)[1] - SAFE_EXPONENT, 0)
        X = X * np.exp2(-e)[..., None, None]
    # A = 2 (sym(X) - cI) / 2^e with c the mean eigenvalue, so the argument
    # 2^(e-1) A / eps of the exponential has lambda_max >= 0 and the trace of
    # its exponential is >= 1.  Its size is measured in the Frobenius norm,
    # which is submultiplicative and, here, often a bit below the 1-norm.
    _plus_transpose(X, A)
    A_diagonal -= (A_diagonal / A.shape[-1]).sum(axis=-1, keepdims=True)
    squares = np.maximum(np.einsum("...ij,...ij->...", A, A), _TINY)
    log2_norm = 0.5 * np.log2(squares) + (e - 1) - math.log2(eps)
    # the argument is exp(B)^(2^s) with B = A 2^(e-1-s) / eps of norm <= THETA
    s = np.maximum(0.0, np.ceil(log2_norm - math.log2(THETA))).astype(int)
    mantissa, exponent = math.frexp(eps)
    # per-matrix factors are spread over a free stack before they multiply:
    # a broadcast operand would make numpy allocate an iteration buffer
    np.copyto(T, np.ldexp(1.0 / mantissa, (e - 1 - exponent) - s)[..., None, None])
    A *= T

    # the Taylor polynomial sum_j B^j / j! in Sastre's three products, with
    # P holding B^2 at the scale that each step needs
    np.matmul(A, A, out=P)
    np.multiply(A, 4.0, out=T)
    T += P
    P *= _C1
    np.matmul(P, T, out=U)  # y
    np.multiply(P, _C5 / _C1, out=T)
    T += U  # y + C5 B^2
    P *= _C3 / _C1
    U += P
    P *= _C7 / _C3
    P += A  # C7 B^2 + B
    A *= _C4
    U += A
    U_diagonal += _C6  # y + C3 B^2 + C4 B + C6 I
    np.matmul(U, T, out=A)
    A += P
    A_diagonal += 1.0

    # square matrix i s_i times; from squaring SAFE_SQUARINGS on, rescale the
    # stack every `every` squarings by powers of two to traces in [1/2, 1), so
    # no eigenvalue exceeds 1 and the top one, >= 1/(2n), stays normal.  The
    # whole stack is squared every time, and a matrix past its s_i is then
    # copied back: its extra square is bounded like any other, and discarded
    every = int(math.log2(1022 / math.log2(2 * A.shape[-1])))
    all_active = int(s.min())
    for k in range(int(s.max())):
        if k >= SAFE_SQUARINGS and (k - SAFE_SQUARINGS) % every == 0:
            np.copyto(P, np.ldexp(1.0, -np.frexp(A_diagonal.sum(axis=-1))[1])[..., None, None])
            A *= P
        np.matmul(A, A, out=T)
        if k >= all_active:
            np.copyto(T, A, where=(s <= k)[..., None, None])
        A, T, A_diagonal, T_diagonal = T, A, T_diagonal, A_diagonal
    np.copyto(T, (0.5 / A_diagonal.sum(axis=-1))[..., None, None])
    _plus_transpose(A, P)
    P *= T
    return P
