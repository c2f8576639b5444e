"""Projected primal-dual gradient flow of the augmented Lagrangian.

For the problem

    minimize f(x)  subject to  A x = b,  x in K,

with K a simple convex set, the flow moves the primal variable along the
negative augmented-Lagrangian gradient projected onto the tangent cone of K
while the dual variable ascends on the constraint violation:

    dx/dt = Pi_K(x, -grad f(x) - A^T v - rho * A^T (A x - b))
    dv/dt = A x - b

:func:`solve` integrates it with a fixed step: the forward-Euler scheme
applies the nearest-point projection to the full Euler step (a proximal
update that keeps iterates exactly feasible), and Heun/RK4 integrate the
projected vector field with every stage point re-projected onto K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .sets import SimpleSet, _check_finite, _frozen, _integer, _positive
from .spectral import _psd_average


class DivergenceError(RuntimeError):
    """The iteration produced non-finite values, typically because dt is too large."""


def _as_c(c) -> np.ndarray:
    c = _frozen(c)
    if c.ndim != 1:
        raise ValueError(f"c must be a vector, got shape {c.shape}")
    _check_finite("c", c)
    return c


@dataclass(frozen=True, eq=False)
class Objective:
    """Objective function given by a value callable and a gradient callable.

    ``linear`` and ``quadratic`` also keep ``(Q, c)`` of the gradient
    ``Q x + c`` (``Q`` None if linear) for the solver's kernel; without ``c``
    the gradient callable is evaluated on every step.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    Q: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None

    @staticmethod
    def linear(c) -> "Objective":
        """f(x) = c^T x."""
        c = _as_c(c)
        return Objective(
            evaluate=lambda x: float(c @ x),
            gradient=lambda x: c,  # constant, shared read-only array
            c=c,
        )

    @staticmethod
    def quadratic(Q, c) -> "Objective":
        """f(x) = x^T Q x / 2 + c^T x with Q symmetric positive semidefinite."""
        Q = np.asarray(Q, dtype=float)
        c = _as_c(c)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] != c.size:
            raise ValueError("Q must be square and match the dimension of c")
        _check_finite("Q", Q)
        Q, _ = _psd_average(Q, "Q")
        Q.setflags(write=False)  # frozen in place: a copy would add one n x n at peak
        return Objective(
            evaluate=lambda x: float(0.5 * x @ (Q @ x) + c @ x),
            gradient=lambda x: Q @ x + c,
            Q=Q,
            c=c,
        )


@dataclass(frozen=True)
class ProblemSpec:
    """Equality-constrained convex problem over a simple set.

    Fields: ``objective`` (value + gradient), equality constraints
    ``A x = b`` (``A`` may have zero rows), the simple set ``set`` and the
    damping parameter ``rho`` of the quadratic penalty.
    """

    objective: Objective
    A: np.ndarray
    b: np.ndarray
    set: SimpleSet
    rho: float = 1.0

    def __post_init__(self):
        A, b = _frozen(self.A), _frozen(self.b)
        if A.ndim != 2:
            raise ValueError("A must be a matrix")
        if A.shape[1] != self.set.dim:
            raise ValueError(
                f"A has {A.shape[1]} columns but the set has dimension {self.set.dim}"
            )
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have {A.shape[0]} entries, got shape {b.shape}")
        c = self.objective.c
        if c is not None and np.shape(c) != (self.set.dim,):
            raise ValueError(f"c must have {self.set.dim} entries, got shape {np.shape(c)}")
        _check_finite("A", A)
        _check_finite("b", b)
        _positive(self.rho, "rho")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _kernel(self):
        """``(K, g0)``: the unprojected field at ``s = [x; v]`` is ``K s + g0``
        with ``K = [[-Q - rho A^T A, -A^T], [A, 0]]`` and
        ``g0 = [rho A^T b - c; -b]``.  Without ``(Q, c)`` the objective's
        ``-grad f(x)`` belongs to the x-slice as well.
        """
        A, n, m, rho, objective = self.A, self.dim, self.num_constraints, self.rho, self.objective
        K = np.zeros((n + m, n + m))
        xx = K[:n, :n]
        np.matmul(A.T, A, out=xx)
        xx *= -rho
        g0 = np.concatenate([rho * A.T.dot(self.b), -self.b])
        if objective.c is not None:  # folded: Q x + c is the whole gradient
            g0[:n] -= objective.c
            if objective.Q is not None:
                xx -= objective.Q
        np.negative(A.T, out=K[:n, n:])
        K[n:, :n] = A
        return K, g0


@dataclass(frozen=True)
class FlowState:
    """Primal point ``x``, dual point ``v`` and the current time ``t``."""

    x: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(self.x))
        object.__setattr__(self, "v", _frozen(self.v))


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    max_steps: int = 100_000
    tol: float = 1e-6
    integrator: str = "euler"
    record_stride: int = 100

    def __post_init__(self):
        _positive(self.dt, "dt")
        _positive(self.tol, "tol")
        if _integer(self.max_steps, "max_steps") < 1:
            raise ValueError("max_steps must be at least 1")
        if _integer(self.record_stride, "record_stride") < 1:
            raise ValueError("record_stride must be at least 1")
        if self.integrator not in ("euler", "heun", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


class TrajectoryPoint(NamedTuple):
    t: float
    x: np.ndarray
    v: np.ndarray
    objective: float
    residual: float


@dataclass(frozen=True)
class SolveResult:
    final: FlowState
    converged: bool
    residual: float
    steps_taken: int
    trajectory: list = field(default_factory=list)


# Above this size, K s is two row blocks read in alternating order (see
# _product).  Time of the split product over K.dot's, one BLAS thread, 2 MiB
# of L2 per core; median of 15 interleaved runs of four products into the
# four stage buffers:
#   0.5 MiB 1.12   1.0 MiB 1.05   1.35 MiB 1.03   2.0 MiB 0.91
#   2.75 MiB 0.85  3.7 MiB 0.90   4.9 MiB 0.95    7.6 MiB 1.00   11-20 MiB 1.01
# and of whole RK4 steps: 0.9 MiB 1.03-1.13, 1.35 MiB 0.93-1.01,
# 1.6 MiB 0.96, 1.8 MiB 0.90, 2.7 MiB 0.85.
SPLIT_BYTES = 3 << 19


def _product(K: np.ndarray):
    """``product(s, out)``: ``out = K s``, each row bitwise ``K.dot``'s under
    one BLAS thread.

    A ``K`` above :data:`SPLIT_BYTES` is read as two row blocks, cut at a
    multiple of 64 rows, in an order that flips on every call: the block a
    product reads last, the next one reads first, while it is still in L2.
    """
    if K.nbytes <= SPLIT_BYTES:
        return K.dot
    cut = 64 * round(len(K) / 128)
    blocks = [(K[:cut], slice(0, cut)), (K[cut:], slice(cut, len(K)))]

    def product(s, out):
        blocks.reverse()
        for block, rows in blocks:
            block.dot(s, out=out[rows])

    return product


def _integrator(problem: ProblemSpec, integrator: str, dt: float, x0, v0):
    """``(s, dual, first, advance)``: a step is ``first()``, which fills
    ``dual`` with ``A x - b`` at the state ``s = [x0; v0]``, then
    ``advance()``, which moves ``s`` in place.  Both read ``(K, g0)`` from
    :attr:`ProblemSpec._kernel` and subtract ``grad f`` where the objective
    is not folded into ``K``.

    Euler is proximal, ``x+ = P_K(x - dt y)``: ``first()`` is one matvec
    ``u = E [x; v; 1]`` with the augmented map
    ``E = [[I + dt K, dt g0], [A, 0, -b]]``, built once per call, whose top
    rows are the unprojected step and whose bottom rows are ``dual``;
    ``advance()`` projects the x-slice of ``u`` onto the set and copies it
    into ``s``.  ``(I + dt K) s + dt g0`` rounds differently from
    ``s + dt (K s + g0)``, so Euler iterates differ from the unfused form in
    the last bits only; on the presets the stop steps are the same.

    Heun and RK4 project each stage field ``K s + g0``'s x-slice onto the
    tangent cone at its stage point, in place, and each stage point onto the
    set; ``dual`` is the first stage's ``k1[n:]``.  Their stages, moves and
    weighted sums work in buffers allocated once per call.
    """
    n, m, project = problem.dim, problem.num_constraints, problem.set._project_in_place
    (K, g0), k = problem._kernel, n + m
    folded, grad = problem.objective.c is not None, problem.objective.gradient
    if integrator == "euler":
        E = np.empty((k + m, k + 1))
        np.multiply(K, dt, out=E[:k, :k])
        diagonal = np.arange(k)
        E[diagonal, diagonal] += 1.0
        np.multiply(g0, dt, out=E[:k, k])
        E[k:, :k] = K[n:]
        E[k:, k] = g0[n:]
        augmented, u = np.empty(k + 1), np.empty(k + m)
        s, x, ux, step = augmented[:k], augmented[:n], u[:n], u[:k]
        s[:n], s[n:], augmented[k] = x0, v0, 1.0
        first = partial(E.dot, augmented, u)  # out=u, which partial passes slower
        if not folded:
            unfolded = first

            def first():
                unfolded()
                np.subtract(ux, dt * grad(x), out=ux)

        def advance():
            project(ux)
            s[:] = step

        return s, u[k:], first, advance

    tangent, product = problem.set._tangent, _product(K)
    s = np.concatenate([x0, v0])
    u, hk, k1, k2, k3, k4 = np.empty((6, k))

    def stage(point, out):  # the projected field at a stage point
        product(point, out)
        out += g0
        if not folded:
            out[:n] -= grad(point[:n])
        tangent(point[:n], out[:n])
        return out

    def move(k, h, out):  # out = s + h k, x-slice projected onto the set
        np.multiply(k, h, out=hk)
        np.add(s, hk, out=out)
        project(out[:n])
        return out

    def heun():
        stage(move(k1, dt, u), k2)
        move(np.add(k2, k1, out=k2), dt / 2.0, s)

    def rk4():
        stage(move(k1, dt / 2.0, u), k2)
        stage(move(k2, dt / 2.0, u), k3)
        stage(move(k3, dt, u), k4)
        # ((k1 + 2 k2) + 2 k3) + k4 in k2; doubling is exact
        np.add(np.multiply(k2, 2.0, out=k2), k1, out=k2)
        np.add(k2, np.multiply(k3, 2.0, out=k3), out=k2)
        move(np.add(k2, k4, out=k2), dt / 6.0, s)

    return s, k1[n:], partial(stage, s, k1), {"heun": heun, "rk4": rk4}[integrator]


def _residual(problem: ProblemSpec, x, v, tangent) -> float:
    """``||tangent(x, -grad f(x) - A^T v)|| + ||A x - b||``: the one formula
    behind :func:`kkt_residual` and :func:`solve`'s stop test, which differ
    only in the tangent-cone projection they pass."""
    stationarity = tangent(x, -problem.objective.gradient(x) - problem.A.T.dot(v))
    feasibility = problem.A.dot(x) - problem.b
    return math.sqrt(stationarity.dot(stationarity)) + math.sqrt(feasibility.dot(feasibility))


def kkt_residual(problem: ProblemSpec, state: FlowState) -> float:
    """Stationarity plus feasibility residual; zero exactly at saddle points.

    Returns ||Pi_K(x, -grad f(x) - A^T v)|| + ||A x - b||.  The first term
    vanishes iff the negative Lagrangian gradient lies in the normal cone of
    the set at x.
    """
    return _residual(problem, state.x, state.v, problem.set.project_tangent)


def _feasibility_gate(problem: ProblemSpec, tol: float):
    """``(gate0, gate1)``: the step's ``||dual||`` (see :func:`_integrator`)
    is at most ``gate0 + gate1 ||s||`` wherever ``||A.dot(x) - b||``
    (:func:`_residual`'s arithmetic) is within ``tol``.

    ``dual`` is ``[A, 0] s - b`` for Heun and RK4 (the field's v-slice) and
    the row ``[A, 0, -b] [x; v; 1]`` of Euler's augmented map: both are sums
    of k = n + m + 1 terms.  They sum in another order than ``A.dot(x) - b``;
    each lies within gamma_k (|A| |x| + |b|) of ``A x - b`` (gamma_k =
    k u / (1 - k u)), so their norms differ by at most
    2 gamma_k (||A||_F ||s|| + ||b||).  ``rel`` covers the rounding of the
    norms themselves.
    """
    A, b, n, m = problem.A, problem.b, problem.dim, problem.num_constraints
    ku, lu = (n + m + 1) * 2.0**-53, (n + 2) * (m + 2) * 2.0**-53
    slack, rel = 2.0 * ku / (1.0 - ku), 1.0 + 4.0 * lu / (1.0 - lu)
    return (tol + slack * math.sqrt(b.dot(b))) * rel, slack * float(np.linalg.norm(A)) * rel


def solve(problem: ProblemSpec, config: SolverConfig, init: FlowState) -> SolveResult:
    """Run the configured integrator until the KKT residual drops below tol.

    The initial primal point is projected onto the set first, so any ``init``
    is acceptable.  The trajectory records (t, x, v, objective, residual)
    every ``record_stride`` steps plus the final state.  Raises
    :class:`DivergenceError` if an iterate stops being finite.

    It stops at exactly the step where taking the same steps one at a time
    and testing :func:`kkt_residual` after each would.  One matrix-vector
    product per step feeds both the step and the stop test: the residual is
    evaluated in full, by :func:`kkt_residual`'s own formula, only on
    recorded steps or once the step's own ``A x - b`` admits feasibility
    within ``tol`` (before, the sum exceeds it).  The :class:`DivergenceError`
    names the step, the first infinite coordinate (else the first NaN) and
    the last finite residual, if any, with its step.
    """
    n, m = problem.dim, problem.num_constraints
    v0 = np.asarray(init.v, dtype=float)
    if v0.shape != (m,):
        raise ValueError(f"dual init must have {m} entries, got shape {v0.shape}")
    x0 = problem.set.project(init.x)
    s, dual, first, advance = _integrator(problem, config.integrator, config.dt, x0, v0)
    x, v, tangent = s[:n], s[n:], problem.set._tangent
    dt, tol, stride, max_steps = config.dt, config.tol, config.record_stride, config.max_steps
    gate0, gate1 = _feasibility_gate(problem, tol)
    gate = gate0 + gate1 * math.sqrt(s.dot(s))

    trajectory: list[TrajectoryPoint] = []
    record = _make_recorder(problem, trajectory)
    t, steps, finite = float(init.t), 0, None
    # divergence is detected by the explicit finiteness check; silence the
    # transient overflow warnings that precede it
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            first()
            due = steps % stride == 0
            # `not >` lets a NaN through to the exact test
            if due or not math.sqrt(dual.dot(dual)) > gate or steps >= max_steps:
                residual = _residual(problem, x, v, tangent)
                if math.isfinite(residual):
                    finite = residual, steps
                done = residual <= tol or steps >= max_steps
                if due or done:
                    record(t, x, v, residual)
                if done:
                    break
            advance()
            t += dt
            steps += 1
            ss = s.dot(s)  # may overflow while s stays finite
            if not math.isfinite(ss) and not np.isfinite(s).all():
                # an infinite coordinate diverged; a NaN may be its bystander
                inf = np.isinf(s)
                i = int(np.argmax(inf)) if inf.any() else int(np.argmax(np.isnan(s)))
                at = f"x[{i}]" if i < n else f"v[{i - n}]"
                last = "no finite residual" if finite is None else (
                    f"last finite residual {finite[0]:.1e} at step {finite[1]}"
                )
                raise DivergenceError(
                    f"non-finite iterate at step {steps}; {at} = {s[i]}; {last}; "
                    f"try a smaller dt than {dt:g}"
                )
            gate = gate0 + gate1 * math.sqrt(ss)
    return SolveResult(
        final=FlowState(x=x, v=v, t=t),
        converged=residual <= tol,
        residual=residual,
        steps_taken=steps,
        trajectory=trajectory,
    )


def _make_recorder(problem: ProblemSpec, trajectory: list):
    def record(t: float, x: np.ndarray, v: np.ndarray, res: float) -> None:
        objective = float(problem.objective.evaluate(x))
        trajectory.append(TrajectoryPoint(t, x.copy(), v.copy(), objective, res))

    return record
