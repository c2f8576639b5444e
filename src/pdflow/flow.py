"""Projected primal-dual gradient flow of the augmented Lagrangian.

For the problem

    minimize f(x)  subject to  A x = b,  x in K,

with K a simple convex set, the flow moves the primal variable along the
negative augmented-Lagrangian gradient projected onto the tangent cone of K
while the dual variable ascends on the constraint violation:

    dx/dt = Pi_K(x, -grad f(x) - A^T v - rho * A^T (A x - b))
    dv/dt = A x - b

Fixed-step discretizations are provided: the forward-Euler scheme applies
the nearest-point projection to the full Euler step (a proximal update that
keeps iterates exactly feasible), and Heun/RK4 integrate the projected
vector field with every stage point re-projected onto K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .sets import SimpleSet


class DivergenceError(RuntimeError):
    """The iteration produced non-finite values, typically because dt is too large."""


@dataclass(frozen=True)
class Objective:
    """Objective function given by a value callable and a gradient callable."""

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def linear(c) -> "Objective":
        """f(x) = c^T x."""
        c = np.asarray(c, dtype=float).copy()
        c.setflags(write=False)
        return Objective(
            evaluate=lambda x: float(c @ x),
            gradient=lambda x: c,  # constant, shared read-only array
        )

    @staticmethod
    def quadratic(Q, c) -> "Objective":
        """f(x) = x^T Q x / 2 + c^T x with Q symmetric positive semidefinite."""
        Q = np.asarray(Q, dtype=float)
        c = np.asarray(c, dtype=float).copy()
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] != c.size:
            raise ValueError("Q must be square and match the dimension of c")
        if np.abs(Q - Q.T).max() > 1e-9 * (1.0 + np.abs(Q).max()):
            raise ValueError("Q must be symmetric")
        Q = (Q + Q.T) / 2.0
        eigs = np.linalg.eigvalsh(Q)
        if eigs[0] < -1e-9 * (1.0 + abs(float(eigs[-1]))):
            raise ValueError("Q must be positive semidefinite")
        Q.setflags(write=False)
        c.setflags(write=False)
        return Objective(
            evaluate=lambda x: float(0.5 * x @ (Q @ x) + c @ x),
            gradient=lambda x: Q @ x + c,
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
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a matrix")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have {A.shape[0]} entries, got shape {b.shape}")
        if A.shape[1] != self.set.dim:
            raise ValueError(
                f"A has {A.shape[1]} columns but the set has dimension {self.set.dim}"
            )
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        A = A.copy()
        b = b.copy()
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class FlowState:
    """Primal point ``x``, dual point ``v`` and the current time ``t``."""

    x: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        v = np.asarray(self.v, dtype=float).copy()
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    max_steps: int = 100_000
    tol: float = 1e-6
    integrator: str = "euler"
    record_stride: int = 100

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.record_stride < 1:
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


def lagrangian(problem: ProblemSpec, x, v) -> float:
    """f(x) + v^T (A x - b)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != (problem.dim,) or v.shape != (problem.num_constraints,):
        raise ValueError("dimension mismatch in lagrangian")
    return float(problem.objective.evaluate(x) + v @ (problem.A @ x - problem.b))


def augmented_lagrangian(problem: ProblemSpec, x, v) -> float:
    """Lagrangian plus the quadratic penalty rho/2 * ||A x - b||^2."""
    x = np.asarray(x, dtype=float)
    r = problem.A @ x - problem.b
    return lagrangian(problem, x, v) + 0.5 * problem.rho * float(r @ r)


def _descent_direction(problem: ProblemSpec, x, v) -> np.ndarray:
    """-grad f(x) - A^T v - rho * A^T (A x - b), unprojected."""
    r = problem.A @ x - problem.b
    return -problem.objective.gradient(x) - problem.A.T @ v - problem.rho * (problem.A.T @ r)


def primal_field(problem: ProblemSpec, x, v) -> np.ndarray:
    """Primal velocity: the descent direction projected onto the tangent cone at x."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return problem.set.project_tangent(x, _descent_direction(problem, x, v))


def dual_field(problem: ProblemSpec, x) -> np.ndarray:
    """Dual velocity: the constraint violation A x - b."""
    x = np.asarray(x, dtype=float)
    return problem.A @ x - problem.b


def euler_step(problem: ProblemSpec, state: FlowState, dt: float) -> FlowState:
    """Forward-Euler step in proximal form.

    The primal update projects the full Euler point onto the set,
    x+ = P_K(x - dt * y) with y the augmented-Lagrangian gradient, so the new
    iterate is exactly feasible; the dual update is a plain Euler step.
    """
    x, v = state.x, state.v
    x_new = problem.set.project(x + dt * _descent_direction(problem, x, v))
    v_new = v + dt * (problem.A @ x - problem.b)
    return FlowState(x=x_new, v=v_new, t=state.t + dt)


def _stage(problem: ProblemSpec, x, v):
    kx = problem.set.project_tangent(x, _descent_direction(problem, x, v))
    kv = problem.A @ x - problem.b
    return kx, kv


def heun_step(problem: ProblemSpec, state: FlowState, dt: float) -> FlowState:
    """Two-stage Heun step on the projected field; stage and final primal
    points are re-projected onto the set."""
    P = problem.set.project
    x, v = state.x, state.v
    k1x, k1v = _stage(problem, x, v)
    x1 = P(x + dt * k1x)
    k2x, k2v = _stage(problem, x1, v + dt * k1v)
    x_new = P(x + dt / 2.0 * (k1x + k2x))
    v_new = v + dt / 2.0 * (k1v + k2v)
    return FlowState(x=x_new, v=v_new, t=state.t + dt)


def rk4_step(problem: ProblemSpec, state: FlowState, dt: float) -> FlowState:
    """Classical four-stage Runge-Kutta step on the projected field; stage
    and final primal points are re-projected onto the set."""
    P = problem.set.project
    x, v = state.x, state.v
    k1x, k1v = _stage(problem, x, v)
    k2x, k2v = _stage(problem, P(x + dt / 2.0 * k1x), v + dt / 2.0 * k1v)
    k3x, k3v = _stage(problem, P(x + dt / 2.0 * k2x), v + dt / 2.0 * k2v)
    k4x, k4v = _stage(problem, P(x + dt * k3x), v + dt * k3v)
    x_new = P(x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x))
    v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return FlowState(x=x_new, v=v_new, t=state.t + dt)


_STEPPERS = {"euler": euler_step, "heun": heun_step, "rk4": rk4_step}


def kkt_residual(problem: ProblemSpec, state: FlowState) -> float:
    """Stationarity plus feasibility residual; zero exactly at saddle points.

    Returns ||Pi_K(x, -grad f(x) - A^T v)|| + ||A x - b||.  The first term
    vanishes iff the negative Lagrangian gradient lies in the normal cone of
    the set at x.
    """
    x, v = state.x, state.v
    g = -problem.objective.gradient(x) - problem.A.T @ v
    stationarity = problem.set.project_tangent(x, g)
    feasibility = problem.A @ x - problem.b
    return float(np.linalg.norm(stationarity) + np.linalg.norm(feasibility))


def lyapunov_distance(state: FlowState, saddle: FlowState) -> float:
    """Half the squared joint distance to a reference saddle point."""
    if state.x.shape != saddle.x.shape or state.v.shape != saddle.v.shape:
        raise ValueError("dimension mismatch between state and saddle")
    dx = state.x - saddle.x
    dv = state.v - saddle.v
    return 0.5 * (float(dx @ dx) + float(dv @ dv))


def solve(problem: ProblemSpec, config: SolverConfig, init: FlowState) -> SolveResult:
    """Run the configured integrator until the KKT residual drops below tol.

    The initial primal point is projected onto the set first, so any ``init``
    is acceptable.  The trajectory records (t, x, v, objective, residual)
    every ``record_stride`` steps plus the final state.  Raises
    :class:`DivergenceError` if an iterate stops being finite.
    """
    x0 = problem.set.project(np.asarray(init.x, dtype=float))
    v0 = np.asarray(init.v, dtype=float)
    if v0.shape != (problem.num_constraints,):
        raise ValueError(
            f"dual init must have {problem.num_constraints} entries, got shape {v0.shape}"
        )
    if config.integrator == "euler":
        return _solve_euler(problem, config, x0, v0, float(init.t))
    return _solve_generic(problem, config, FlowState(x=x0, v=v0, t=float(init.t)))


def _make_recorder(problem: ProblemSpec, trajectory: list):
    def record(t: float, x: np.ndarray, v: np.ndarray, res: float) -> None:
        trajectory.append(
            TrajectoryPoint(
                t=t,
                x=x.copy(),
                v=v.copy(),
                objective=float(problem.objective.evaluate(x)),
                residual=res,
            )
        )

    return record


def _solve_euler(problem, config, x0, v0, t0) -> SolveResult:
    """Euler loop with the step and residual computations fused.

    Produces bit-for-bit the same iterates and residuals as repeatedly
    calling :func:`euler_step` and :func:`kkt_residual`; the fusion only
    avoids recomputing the gradient and the constraint violation twice per
    step.  The stationarity term of the residual is evaluated only when the
    step is recorded or could be the last one: while the feasibility term
    alone exceeds ``tol``, so does their sum, and the loop cannot stop.
    """
    A, AT, b, rho = problem.A, problem.A.T, problem.b, problem.rho
    grad = problem.objective.gradient
    project = problem.set.project
    tangent = problem.set._tangent
    dt, tol = config.dt, config.tol

    trajectory: list[TrajectoryPoint] = []
    record = _make_recorder(problem, trajectory)

    x, v, t = x0, v0, t0
    # divergence is detected by the explicit finiteness check; silence the
    # transient overflow warnings that precede it
    with np.errstate(over="ignore", invalid="ignore"):
        # ndarray.dot is the BLAS call behind @, with less dispatch overhead
        r = A.dot(x) - b
        q = -grad(x) - AT.dot(v)  # shared by the residual and the update
        steps = 0
        last_recorded = -1
        while True:
            feasibility = math.sqrt(r.dot(r))
            due = steps % config.record_stride == 0
            if due or feasibility <= tol or steps >= config.max_steps:
                stationarity = tangent(x, q)
                residual = math.sqrt(stationarity.dot(stationarity)) + feasibility
                if due:
                    record(t, x, v, residual)
                    last_recorded = steps
                if residual <= tol or steps >= config.max_steps:
                    break
            y = q - rho * AT.dot(r)
            x = project(x + dt * y)
            v = v + dt * r
            t += dt
            steps += 1
            if not (np.isfinite(x).all() and np.isfinite(v).all()):
                raise DivergenceError(
                    f"non-finite iterate at step {steps}; try a smaller dt than {dt:g}"
                )
            r = A.dot(x) - b
            q = -grad(x) - AT.dot(v)
    if last_recorded != steps:
        record(t, x, v, residual)
    return SolveResult(
        final=FlowState(x=x, v=v, t=t),
        converged=residual <= tol,
        residual=residual,
        steps_taken=steps,
        trajectory=trajectory,
    )


def _solve_generic(problem, config, state: FlowState) -> SolveResult:
    stepper = _STEPPERS[config.integrator]
    trajectory: list[TrajectoryPoint] = []
    record = _make_recorder(problem, trajectory)

    residual = kkt_residual(problem, state)
    record(state.t, state.x, state.v, residual)
    steps = 0
    last_recorded = 0
    while residual > config.tol and steps < config.max_steps:
        state = stepper(problem, state, config.dt)
        steps += 1
        if not (np.isfinite(state.x).all() and np.isfinite(state.v).all()):
            raise DivergenceError(
                f"non-finite iterate at step {steps}; try a smaller dt than {config.dt:g}"
            )
        residual = kkt_residual(problem, state)
        if steps % config.record_stride == 0:
            record(state.t, state.x, state.v, residual)
            last_recorded = steps
    if last_recorded != steps:
        record(state.t, state.x, state.v, residual)
    return SolveResult(
        final=state,
        converged=residual <= config.tol,
        residual=residual,
        steps_taken=steps,
        trajectory=trajectory,
    )
