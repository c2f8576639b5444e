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
import os
import queue
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .sets import SimpleSet, _as_vector, _check_finite, _finite, _frozen, _integer, _positive
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
        ``g0 = [rho A^T b - c; -b]``, refused where they overflow.  Without
        ``(Q, c)`` the objective's ``-grad f(x)`` belongs to the x-slice too.
        """
        A, n, m, rho, objective = self.A, self.dim, self.num_constraints, self.rho, self.objective
        K = np.zeros((n + m, n + m))
        xx = K[:n, :n]
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(A.T, A, out=xx)
            xx *= -rho
            g0 = np.concatenate([rho * A.T.dot(self.b), -self.b])
            if objective.c is not None:  # folded: Q x + c is the whole gradient
                g0[:n] -= objective.c
                if objective.Q is not None:
                    xx -= objective.Q
        if not (np.isfinite(xx).all() and np.isfinite(g0).all()):
            raise ValueError("Q + rho A^T A or rho A^T b - c overflows; scale the problem down")
        np.negative(A.T, out=K[:n, n:])
        K[n:, :n] = A
        return K, g0


@dataclass(frozen=True)
class FlowState:
    """Primal point ``x``, dual point ``v`` and the current time ``t``, a finite float."""

    x: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(self.x))
        object.__setattr__(self, "v", _frozen(self.v))
        object.__setattr__(self, "t", _finite(self.t, "t"))


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


# Above this size, K s is two row blocks (see _product).  Time of the
# alternating order over K.dot's, one BLAS thread, 2 MiB of L2 per core;
# median of 15 interleaved runs of four products into the four stage buffers:
#   0.5 MiB 1.12   1.0 MiB 1.05   1.35 MiB 1.03   2.0 MiB 0.91
#   2.75 MiB 0.85  3.7 MiB 0.90   4.9 MiB 0.95    7.6 MiB 1.00   11-20 MiB 1.01
# and of whole RK4 steps: 0.9 MiB 1.03-1.13, 1.35 MiB 0.93-1.01,
# 1.6 MiB 0.96, 1.8 MiB 0.90, 2.7 MiB 0.85.
SPLIT_BYTES = 3 << 19

# Above this size, with two CPUs to run on, the two blocks are computed on
# two cores at once (see _two_core).  Time over K.dot's of that product and
# of the alternating order, one BLAS thread, 2 MiB of L2 per core; median
# of 15 interleaved runs of one block of RK4 stage products (four a step, as
# many steps as BLOCK_BYTES holds, one helper thread started per block):
#                 1.75 MiB  2.0   2.25  2.5   2.75  3.0   3.7
#   two cores     1.11      0.98  0.85  0.58  0.58  0.57  0.64
#   alternating   0.98      0.92  0.85  0.82  0.82  0.77  0.82
# and two cores alone: 0.5 MiB 3.85, 1.0 MiB 2.29, 4.9 MiB 0.68,
# 7.6 MiB 0.65, 11 MiB 0.79, 20 MiB 0.56.  A handoff between the threads
# costs tens of microseconds, which a K that nearly fits one core's L2 does
# not repay.
TWO_CORE_BYTES = 9 << 18


def _cpus() -> int:
    """The number of CPUs this process may run on, or, where the OS cannot
    tell (no ``os.sched_getaffinity``, as on macOS and Windows), the
    machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _product(K: np.ndarray):
    """``block()``, whose ``with`` block yields ``product(s, out)``:
    ``out = K s``, each row bitwise ``K.dot``'s under one BLAS thread.

    A ``K`` above :data:`SPLIT_BYTES` is cut into two row blocks at a
    multiple of 64 rows, the top one the larger: in :func:`_two_core` the
    caller computes it, and the helper starts each product a wake-up late.
    Above :data:`TWO_CORE_BYTES`, in a process that may run on two CPUs,
    each ``with`` block computes them on two cores.  Otherwise the blocks
    are read in an order that flips on every call, across ``with`` blocks:
    the block a product reads last, the next one reads first, while it is
    still in L2.  A ``K`` at most :data:`SPLIT_BYTES` is ``K.dot``.
    """
    if K.nbytes <= SPLIT_BYTES:
        return partial(nullcontext, K.dot)
    cut = 64 * -(-len(K) // 128)
    if K.nbytes > TWO_CORE_BYTES and _cpus() > 1:
        return partial(_two_core, K[:cut], K[cut:])
    blocks = [(K[:cut], slice(0, cut)), (K[cut:], slice(cut, len(K)))]

    def product(s, out):
        blocks.reverse()
        for block, rows in blocks:
            block.dot(s, out=out[rows])

    return partial(nullcontext, product)


@contextmanager
def _two_core(top: np.ndarray, bottom: np.ndarray):
    """``product(s, out)`` of ``K = [top; bottom]``, for use inside the
    ``with`` block: the caller's thread computes ``top``'s rows and one
    helper thread ``bottom``'s, each always into the same rows, so each
    core keeps its half of ``K`` in its own cache.  The caller puts each
    ``(s, out)`` on one queue and always waits for the helper's answer on
    the other: the error its block raised, or None.  The helper runs under
    the caller's numpy error state and ends with the block.
    """
    cut, errstate = len(top), np.geterr()
    tasks, done = queue.SimpleQueue(), queue.SimpleQueue()

    def helper():  # one bottom-block product per task, until a None task
        with np.errstate(**errstate):
            for s, out in iter(tasks.get, None):
                try:
                    bottom.dot(s, out=out[cut:])
                    done.put(None)
                except BaseException as error:  # raised again by the caller
                    done.put(error)

    def product(s, out):
        tasks.put((s, out))
        try:
            top.dot(s, out=out[:cut])
        finally:
            error = done.get()
        if error is not None:
            raise error

    thread = threading.Thread(target=helper, name="pdflow-product", daemon=True)
    thread.start()
    try:
        yield product
    finally:
        tasks.put(None)
        thread.join()


# Bytes of the buffer of steps that :func:`solve` stores and then tests as
# one block (see :func:`_integrator`): 910 steps of Example 2's 9-float
# rows, 11 of the 701-float rows of 600 variables and 100 constraints.
# Testing a block costs about 20 us; at 24 KiB (3 or 4 steps a block) that
# made the 0.6 ms RK4 steps of such a problem 3-8% slower than testing after
# each step, and Example 2 was no faster than here (one BLAS thread).
BLOCK_BYTES = 1 << 16


def _integrator(problem: ProblemSpec, integrator: str, dt: float, x0, v0):
    """``(rows, advance)``: row ``j`` of the buffer ``rows`` is ``[s_j; 1]``,
    ``s_0 = [x0; v0]``, and ``advance(count)``, for ``count < len(rows)``,
    takes ``count`` steps from row 0, step ``j`` writing ``s_{j+1}`` into
    row ``j + 1``; no step writes the constant column.  The buffer holds
    about :data:`BLOCK_BYTES` and at least one step.  Steps read ``(K, g0)``
    from :attr:`ProblemSpec._kernel` and subtract ``grad f`` where the
    objective is not folded into ``K``.

    Euler is proximal, ``x+ = P_K(x - dt y)``: a step is one matvec
    ``s_{j+1} = E row_j`` with ``E = [I + dt K, dt g0]`` (k x (k+1), built
    once per call), then the x-slice's projection onto the set, in place.
    ``(I + dt K) s + dt g0`` rounds differently from ``s + dt (K s + g0)``,
    so Euler iterates differ from the unfused form in the last bits only;
    on the presets the stop steps are the same.

    Heun and RK4 are one stage loop over the scheme's stage offsets ``h``,
    weights ``w`` and divisor ``d``: ``k1`` is the field at ``s``, stage
    ``i > 1`` the field at ``s + h_i k_{i-1}``, and the final move writes
    ``s_{j+1} = s + dt / d (k1 + w_2 k_2 + ...)``, the sum accumulated into
    ``k1`` in stage order.  Each field ``K s + g0`` has its x-slice
    projected onto the tangent cone at its stage point, and each point onto
    the set, in place.  Stages and moves work in four buffers made once per
    call; each ``advance`` takes ``K s`` from one block of :func:`_product`.
    """
    n, m, project = problem.dim, problem.num_constraints, problem.set._project_in_place
    (K, g0), k = problem._kernel, n + m
    folded, grad = problem.objective.c is not None, problem.objective.gradient
    rows = np.zeros((max(1, BLOCK_BYTES // (8 * (k + 1))) + 1, k + 1))
    rows[:, k] = 1.0
    rows[0, :n], rows[0, n:k] = x0, v0
    states = [row[:k] for row in rows]
    if integrator == "euler":
        E = np.empty((k, k + 1))
        np.multiply(K, dt, out=E[:, :k])
        E.reshape(-1)[:: k + 2] += 1.0  # the diagonal of I + dt K
        np.multiply(g0, dt, out=E[:, k])
        dot, whole, xs = E.dot, list(rows), [row[:n] for row in rows]

        def advance(count):
            for row, after, x, x_after in zip(whole[:count], states[1:], xs, xs[1:]):
                dot(row, after)
                if not folded:
                    np.subtract(x_after, dt * grad(x), out=x_after)
                project(x_after)

        return rows, advance

    stages = {"heun": ((dt,), (1.0,), 2.0), "rk4": ((dt / 2.0, dt / 2.0, dt), (2.0, 2.0, 1.0), 6.0)}
    hs, ws, d = stages[integrator]  # stage offsets, weights and divisor
    tangent, block = problem.set._tangent, _product(K)
    u, hk, k1, ki = np.empty((4, k))

    def stage(product, point, out):  # the projected field at a stage point
        product(point, out)
        out += g0
        if not folded:
            out[:n] -= grad(point[:n])
        tangent(point[:n], out[:n])
        return out

    def move(s, k, h, out):  # out = s + h k, x-slice projected onto the set
        np.multiply(k, h, out=hk)
        np.add(s, hk, out=out)
        project(out[:n])
        return out

    def advance(count):
        with block() as product:
            for s, after in zip(states[:count], states[1:]):
                last = stage(product, s, k1)
                for h, w in zip(hs, ws):  # k1 += w k_i in stage order; w k_i is exact
                    last = stage(product, move(s, last, h, u), ki)
                    np.add(k1, np.multiply(last, w, out=hk), out=k1)
                move(s, k1, dt / d, after)

    return rows, advance


def _dual(problem: ProblemSpec, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.num_constraints,):
        raise ValueError(f"dual init must have {problem.num_constraints} entries, got shape {v.shape}")
    _check_finite("dual init", v)
    return v


def _residual(problem: ProblemSpec, x, v) -> float:
    """``||Pi_K(x, -grad f(x) - A^T v)|| + ||A x - b||``, unchecked: the
    one formula behind :func:`kkt_residual` and :func:`solve`'s stop test."""
    stationarity = problem.set._tangent(x, -problem.objective.gradient(x) - problem.A.T.dot(v))
    feasibility = problem.A.dot(x) - problem.b
    return math.sqrt(stationarity.dot(stationarity)) + math.sqrt(feasibility.dot(feasibility))


def kkt_residual(problem: ProblemSpec, state: FlowState) -> float:
    """Stationarity plus feasibility residual; zero exactly at saddle points.

    Returns ||Pi_K(x, -grad f(x) - A^T v)|| + ||A x - b||.  The first term
    vanishes iff the negative Lagrangian gradient lies in the normal cone of
    the set at x.  ``x`` must belong to the set (see
    :meth:`SimpleSet.project_tangent`); a residual too large to represent is
    inf.
    """
    x = _as_vector(state.x, problem.dim)
    problem.set._require_member(x)
    v = _dual(problem, state.v)
    with np.errstate(over="ignore", invalid="ignore"):
        return _residual(problem, x, v)


def _row_norms(block: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, in one pass; it overflows for a large
    finite row."""
    return np.sqrt(np.einsum("ij,ij->i", block, block))


def _residual_gate(problem: ProblemSpec, tol: float):
    """``gate(states)``: per row of a block of states ``s = [x; v]``,
    ``(estimate, limit)`` such that :func:`_residual` can be within ``tol``
    only where ``estimate`` is not above ``limit``.

    ``estimate`` is ``||A x - b||`` plus, for a folded objective and on the
    rows where that alone is within ``limit``, the stationarity
    ``||tangent(x, y)||`` with ``y = -(Q x + c) - A^T v``, each term for all
    its rows at once by matrix products; a callable objective's term is 0.
    A row whose estimate is not finite gets 0: it cannot be bounded.

    ``limit`` is ``rel (tol + tiny + 2 gamma (||b|| + 3 ||c||) + 2 gamma
    (||A||_F + 3 ||[Q, A^T]||_F) ||s||)``.  ``A x - b`` and ``y`` are sums
    of at most k = n + m + 3 terms in another order than :func:`_residual`'s;
    both orders lie within gamma (|A| |x| + |b|), resp. gamma (|Q| |x| +
    |A^T| |v| + |c|), of the exact value (gamma = k u / (1 - k u)), so the
    two differ by at most 2 gamma (||A||_F ||s|| + ||b||), resp.
    2 gamma (||[Q, A^T]||_F ||s|| + ||c||).  Both sides project ``y`` with
    the same code at the same ``x``.  A Box's projection is exact and
    1-Lipschitz.  A Ball's uses the same rounded direction on both sides,
    is 1-Lipschitz in exact arithmetic with it, and its dot product and
    update round each side's result by at most 2 gamma ||y||: 6 gamma in
    all.  ``rel`` covers the norms' own rounding, summed in any order, the
    sum of the two and the ``1 + gamma`` of ``||y||``; ``tiny = k 2^-500``
    the underflow of products and squares.  A norm of the data that
    overflows makes the limit infinite, which admits every row.
    """
    A, b, n, m = problem.A, problem.b, problem.dim, problem.num_constraints
    Q, c, tangent = problem.objective.Q, problem.objective.c, problem.set._tangent
    k, lu = n + m + 3, (n + 2) * (m + 2) * 2.0**-53
    slack, rel = 2.0 * k * 2.0**-53 / (1.0 - k * 2.0**-53), 1.0 + 4.0 * lu / (1.0 - lu)
    with np.errstate(over="ignore"):
        a, q = float(np.linalg.norm(A)), 0.0 if Q is None else float(np.linalg.norm(Q))
        gate0, gate1 = tol + k * 2.0**-500 + slack * math.sqrt(b.dot(b)), slack * a
        if c is not None:
            gate0 += 3.0 * slack * math.sqrt(c.dot(c))
            gate1 += 3.0 * slack * math.hypot(q, a)
    gate0, gate1 = gate0 * rel, gate1 * rel

    def gate(states):
        limit = gate0 + gate1 * _row_norms(states)
        estimate = _row_norms(states[:, :n].dot(A.T) - b)
        rows = np.flatnonzero(~(estimate > limit))
        if c is not None and rows.size:
            y = states[rows, n:].dot(A)
            if Q is not None:
                y += states[rows, :n].dot(Q.T)
            y += c
            estimate[rows] += _row_norms(tangent(states[rows, :n], np.negative(y, out=y)))
        estimate[~np.isfinite(estimate)] = 0.0
        return estimate, limit

    return gate


def solve(problem: ProblemSpec, config: SolverConfig, init: FlowState) -> SolveResult:
    """Run the configured integrator until the KKT residual drops below tol.

    The initial primal point is projected onto the set first; a point that
    is not finite after that projection, or a dual ``v`` that is not finite,
    raises ``ValueError``.  The trajectory records (t, x, v, objective,
    residual) every ``record_stride`` steps plus the final state.  Raises
    :class:`DivergenceError` if an iterate stops being finite.

    It stops at exactly the step where taking the same steps one at a time
    and testing :func:`kkt_residual` after each would.  The steps fill a
    buffer of states (see :func:`_integrator`) a block at a time.  After
    each block, one vectorized pass finds the first state with an entry
    that is not finite, and :func:`_residual_gate` estimates every state's
    residual from its norm and its own products.  The residual is evaluated in
    full, by :func:`kkt_residual`'s own formula and in step order, only on
    recorded steps, at ``max_steps``, or where the gate's estimate is within
    ``tol`` plus its rounding slack (elsewhere the exact residual exceeds
    ``tol``); the state and time of the stop step are the ones the steps
    taken one at a time reach.  The :class:`DivergenceError` names the step,
    the first infinite coordinate (else the first NaN) and the last finite
    residual, if any, with its step.
    """
    n, m = problem.dim, problem.num_constraints
    v0 = _dual(problem, init.v)
    x0 = problem.set.project(init.x)
    _check_finite("primal init projected onto the set", x0)
    rows, advance = _integrator(problem, config.integrator, config.dt, x0, v0)
    states = rows[:, : n + m]
    dt, tol, stride, max_steps = config.dt, config.tol, config.record_stride, config.max_steps
    gate = _residual_gate(problem, tol)
    times = np.full(len(rows), dt)  # from times[0] = t, accumulate adds dt a step at a time

    trajectory: list[TrajectoryPoint] = []
    record = _make_recorder(problem, trajectory)
    t, start, finite = init.t, 0, None
    # divergence is detected by the explicit finiteness check; silence the
    # transient overflow warnings that precede it and the steps past it
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            count = min(len(rows) - 1, max_steps - start)
            advance(count)
            times[0] = t
            clock, block = np.add.accumulate(times[: count + 1]), states[: count + 1]
            # a row is tested where the gate admits it (`not >` lets a NaN
            # through), where it is due and at max_steps ...
            estimate, limit = gate(block[:count])
            tested = np.append(~(estimate > limit), start + count >= max_steps)
            tested[-start % stride : count : stride] = True
            # ... up to the first state that is not finite
            ok = np.isfinite(block).all(axis=1)
            end = count + 1 if ok.all() else int(ok.argmin())
            for r in np.flatnonzero(tested[:end]).tolist():
                x, v, steps = block[r, :n], block[r, n:], start + r
                residual = _residual(problem, x, v)
                if math.isfinite(residual):
                    finite = residual, steps
                done = residual <= tol or steps >= max_steps
                if steps % stride == 0 or done:
                    record(float(clock[r]), x, v, residual)
                if done:
                    return SolveResult(
                        final=FlowState(x=x, v=v, t=float(clock[r])),
                        converged=residual <= tol,
                        residual=residual,
                        steps_taken=steps,
                        trajectory=trajectory,
                    )
            if end <= count:
                # an infinite coordinate diverged; a NaN may be its bystander
                s, steps = block[end], start + end
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
            rows[0] = rows[count]
            t, start = float(clock[count]), start + count


def _make_recorder(problem: ProblemSpec, trajectory: list):
    def record(t: float, x: np.ndarray, v: np.ndarray, res: float) -> None:
        objective = float(problem.objective.evaluate(x))
        trajectory.append(TrajectoryPoint(t, x.copy(), v.copy(), objective, res))

    return record
