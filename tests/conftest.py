"""Shared test helpers: the closed-form set references, random connected
graphs and edge matrices, a per-node reference and the finite-difference
oracle for the distributed node fields, the eigendecomposition oracle for
the smoothed-eigenvalue gradient, the network's objective and augmented
Lagrangian, one simulated round, example 1's saddle point, the flow's
Lagrangians and fields, one-step
and in-place steppers, a plain-numpy Heun/RK4 reference, the tangent-quotient
and Lyapunov-distance oracles, and the matrix-exponential oracle for
integrator orders."""

import dataclasses
from functools import partial

import numpy as np
from scipy.linalg import expm

from pdflow.connectivity import (
    Fields,
    NetworkState,
    _broadcast,
    _fields,
    node_matrices,
    simulate,
)
from pdflow.flow import FlowState, Objective, ProblemSpec, SolverConfig, _integrator
from pdflow.graphs import Graph
from pdflow.spectral import smoothed_max_eig, smoothed_max_eig_grad, symmetrize
from pdflow.sets import ACTIVITY_RTOL, Ball, Box, FreeSpace, NonnegativeOrthant, Product


# ------------------------------------------------- simple-set sampling

def make_set_variants():
    """One representative of every set variant, including a product."""
    return [
        FreeSpace(3),
        NonnegativeOrthant(4),
        Box(lower=[0.0, -1.0, 2.0], upper=[1.0, 1.0, np.inf]),
        Box(lower=[-np.inf, 0.0], upper=[0.0, 0.0]),  # degenerate second coordinate
        Ball(center=[0.0, 0.0], radius=1.0),
        Ball(center=[1.0, -2.0, 0.5], radius=2.5),
        Product([NonnegativeOrthant(2), Ball(center=[0.0, 0.0], radius=1.0), FreeSpace(1)]),
    ]


def sample_in_set(set_, rng, boundary_bias=0.4):
    """A point of the set: either well interior or exactly on a boundary piece.

    Points within the activity twilight band (closer than ~1e-4 to a bound
    without sitting on it) are avoided: there the finite-delta quotient
    oracle is legitimately inconsistent with the closed-form limit.
    """
    x = set_.project(rng.normal(scale=2.0, size=set_.dim))
    if isinstance(set_, FreeSpace):  # a Box, but without bounds to snap to
        pass
    elif isinstance(set_, NonnegativeOrthant):
        snap = rng.random(set_.dim) < boundary_bias
        x = np.where(snap, 0.0, np.maximum(x, 1e-3))
    elif isinstance(set_, Box):
        lo, hi = set_.lower, set_.upper
        for i in range(set_.dim):
            if rng.random() < boundary_bias and np.isfinite(lo[i]):
                x[i] = lo[i]
            elif rng.random() < boundary_bias and np.isfinite(hi[i]):
                x[i] = hi[i]
            else:
                margin_lo = lo[i] + 1e-3 if np.isfinite(lo[i]) else -np.inf
                margin_hi = hi[i] - 1e-3 if np.isfinite(hi[i]) else np.inf
                if margin_lo > margin_hi:  # degenerate coordinate
                    x[i] = lo[i]
                else:
                    x[i] = np.clip(x[i], margin_lo, margin_hi)
    elif isinstance(set_, Ball):
        d = x - set_.center
        r = np.linalg.norm(d)
        if rng.random() < boundary_bias and r > 0:
            x = set_.center + d * (set_.radius / r)
        elif r > 0.9 * set_.radius:
            x = set_.center + d * (0.5 * set_.radius / max(r, 1e-12))
    elif isinstance(set_, Product):
        x = np.concatenate(
            [sample_in_set(c, rng, boundary_bias) for c in set_.components]
        )
    return x


def strictly_interior(set_, x, margin=1e-6) -> bool:
    """Distance from x to the boundary exceeds the activity band."""
    if isinstance(set_, Box):  # free space and the orthant too
        return bool(np.all(x > set_.lower + margin) and np.all(x < set_.upper - margin))
    if isinstance(set_, Ball):
        return bool(np.linalg.norm(x - set_.center) < set_.radius - margin)
    if isinstance(set_, Product):
        return all(
            strictly_interior(c, x[s], margin)
            for c, s in zip(set_.components, set_._slices)
        )
    raise TypeError(set_)


# The closed forms as separate, out-of-place code: the references the
# merged, in-place Box, Ball and Product implementations must match bit for
# bit.

def reference_project(set_, x) -> np.ndarray:
    if isinstance(set_, Product):
        return np.concatenate(
            [reference_project(c, x[s]) for c, s in zip(set_.components, set_._slices)]
        )
    if isinstance(set_, Ball):
        d = x - set_.center
        r = float(np.linalg.norm(d))
        if r > set_.radius * (1.0 + 1e-14):
            return set_.center + d * (set_.radius / r)
        return np.array(x, dtype=float)
    if isinstance(set_, FreeSpace):
        return np.array(x, dtype=float)
    if isinstance(set_, NonnegativeOrthant):
        return np.maximum(x, 0.0)
    return np.clip(x, set_.lower, set_.upper)


def reference_tangent(set_, x, v) -> np.ndarray:
    if isinstance(set_, Product):
        return np.concatenate(
            [reference_tangent(c, x[s], v[s]) for c, s in zip(set_.components, set_._slices)]
        )
    if isinstance(set_, Ball):
        d = x - set_.center
        r = float(np.linalg.norm(d))
        if r == 0.0 or r < set_.radius - ACTIVITY_RTOL * (1.0 + set_.radius):
            return v.copy()
        u = d / r
        outward = float(v @ u)
        return v.copy() if outward <= 0.0 else v - outward * u
    if isinstance(set_, FreeSpace):
        return v.copy()
    if isinstance(set_, NonnegativeOrthant):
        # at the boundary x_i = 0 only outward (negative) motion is removed
        active = np.abs(x) <= ACTIVITY_RTOL
        return np.where(active, np.maximum(v, 0.0), v)
    lo, hi = set_.lower, set_.upper
    with np.errstate(invalid="ignore"):  # x - lo at x = lo = -inf
        at_lower = np.isfinite(lo) & (np.abs(x - lo) <= ACTIVITY_RTOL * (1.0 + np.abs(lo)))
        at_upper = np.isfinite(hi) & (np.abs(hi - x) <= ACTIVITY_RTOL * (1.0 + np.abs(hi)))
    w = np.where(at_lower, np.maximum(v, 0.0), v)
    return np.where(at_upper, np.minimum(w, 0.0), w)


def tangent_quotient(set_, x, v, delta: float) -> np.ndarray:
    """Difference quotient (P(x + delta*v) - x) / delta.

    Converges to ``project_tangent(x, v)`` as ``delta -> 0``: an independent
    oracle for the closed forms.
    """
    x = np.asarray(x, dtype=float)
    return (set_.project(x + delta * np.asarray(v, dtype=float)) - x) / delta


# ------------------------------------------------- graphs and networks

def random_connected_graph(rng, min_nodes=2, max_nodes=4) -> Graph:
    """Spanning path plus random extra edges."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    edges = [(i, i + 1) for i in range(1, n)]
    extra = sorted(
        {(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)} - set(edges)
    )
    for pair in extra:
        if rng.random() < 0.4:
            edges.append(pair)
    return Graph(n, edges)


def edge_matrix(graph: Graph, k: int) -> np.ndarray:
    """Rank-one Laplacian contribution of edge ``k``.

    For edge k = (i, j) the matrix has +1 at (i,i) and (j,j) and -1 at
    (i,j) and (j,i); equivalently (e_i - e_j)(e_i - e_j)^T.
    """
    if not 1 <= k <= graph.num_edges:
        raise ValueError(f"edge label {k} out of range 1..{graph.num_edges}")
    i, j = graph.edges[k - 1]
    E = np.zeros((graph.n, graph.n))
    a, b = i - 1, j - 1
    E[a, a] = E[b, b] = 1.0
    E[a, b] = E[b, a] = -1.0
    return E


def with_node(network: NetworkState, i: int, **rows) -> NetworkState:
    """A copy of ``network`` with node i's row of the named arrays replaced."""
    arrays = {}
    for name, row in rows.items():
        array = np.array(getattr(network, name))
        array[i - 1] = row
        arrays[name] = array
    return dataclasses.replace(network, **arrays)


def neighbors(graph: Graph, i: int) -> tuple:
    """Nodes adjacent to node ``i``, ascending."""
    return tuple((np.flatnonzero(graph.laplacian[i - 1] < 0.0) + 1).tolist())


# ------------------------------------------------- per-node reference

def num_basis(n: int) -> int:
    """Dimension of the space of symmetric n x n matrices."""
    return n * (n + 1) // 2


def symmetric_basis(l: int, n: int) -> np.ndarray:
    """The l-th canonical basis matrix of symmetric n x n matrices.

    Index l (1-based) enumerates upper-triangle positions (p, q), p <= q, in
    row-major order; the matrix has ones at (p, q) and (q, p).
    """
    if not 1 <= l <= num_basis(n):
        raise ValueError(f"basis index {l} out of range 1..{num_basis(n)}")
    rows, cols = np.triu_indices(n)
    B = np.zeros((n, n))
    B[rows[l - 1], cols[l - 1]] = B[cols[l - 1], rows[l - 1]] = 1.0
    return B


def reference_node_matrix(network: NetworkState, i: int) -> np.ndarray:
    """X_i = -mu_i 11^T - sum_{k incident} w_ik E_k + sum_{j ~ i} (Z_i - Z_j),
    term by term."""
    graph, n = network.graph, network.graph.n
    X = -network.mu[i - 1] * np.ones((n, n))
    for k in graph.incident_edges(i):
        X -= network.W[i - 1, k - 1] * edge_matrix(graph, k)
    for j in neighbors(graph, i):
        X += network.Z[i - 1] - network.Z[j - 1]
    return X


def reference_fields(network: NetworkState):
    """Unprojected fields (dmu, dW, dZ, dv), one node at a time.

    Node i uses only its own variables and its neighbors' Z_j and G_j; the
    z field is assembled from its symmetric-basis coefficients
    dz_l = -trace(S_i B_l), with S_i = sum_{j ~ i} (G_i - G_j).
    """
    graph, n = network.graph, network.graph.n
    G = [smoothed_max_eig_grad(reference_node_matrix(network, i), network.eps)
         for i in range(1, n + 1)]
    dmu, dv = np.zeros(n), np.zeros(n)
    dW, dZ = np.zeros((n, graph.num_edges)), np.zeros((n, n, n))
    for i in range(1, n + 1):
        incident = graph.incident_edges(i)
        g = sum(network.W[i - 1, k - 1] for k in incident) - 1.0
        dmu[i - 1] = G[i - 1].sum()
        for k in incident:
            dW[i - 1, k - 1] = (
                np.trace(G[i - 1] @ edge_matrix(graph, k)) - network.v[i - 1] - g
            )
        S = sum(G[i - 1] - G[j - 1] for j in neighbors(graph, i))
        for l in range(1, num_basis(n) + 1):
            B = symmetric_basis(l, n)
            dZ[i - 1] += -np.trace(S @ B) * B
        dv[i - 1] = g
    return dmu, dW, dZ, dv


# ------------------------------------------------- eigendecomposition oracle

def _raw_eigh(matrix):
    """Ascending eigh of the symmetrized input, signs as returned by LAPACK."""
    return np.linalg.eigh(symmetrize(matrix))


def eigh_smoothed_grad(matrix, eps: float) -> np.ndarray:
    """The smoothed-eigenvalue gradient from one eigendecomposition: the
    softmax-weighted sum of the spectral projectors, symmetrized."""
    lam, U = _raw_eigh(matrix)
    weights = np.exp((lam - lam[..., -1:]) / eps)
    weights /= weights.sum(axis=-1, keepdims=True)
    G = (U * weights[..., None, :]) @ np.swapaxes(U, -1, -2)
    return (G + np.swapaxes(G, -1, -2)) / 2.0


# ------------------------------------------------- network oracles

def network_fields(network: NetworkState) -> Fields:
    """Every node's unprojected field values at the current state."""
    return _fields(network, _broadcast(network))


def network_objective(network: NetworkState) -> float:
    """Sum over nodes of the smoothed maximum eigenvalue of X_i."""
    return float(smoothed_max_eig(node_matrices(network), network.eps).sum())


def aggregate_augmented_lagrangian(network: NetworkState) -> float:
    """Network-wide augmented Lagrangian (damping 1); finite-difference
    oracle target for the node fields."""
    g = network.budget_violation()
    values = smoothed_max_eig(node_matrices(network), network.eps)
    return float(np.sum(values + network.v * g + 0.5 * g * g))


def one_round(network: NetworkState, dt: float):
    """``(after, residual)``: :func:`simulate` from ``network`` for at most
    one round, and the network residual before it (history row 0).

    With a tol below any nonzero residual, the round runs unless the
    residual is exactly zero, where simulate stops at round 0.
    """
    config = SolverConfig(dt=dt, max_steps=1, tol=1e-300)
    after, history = simulate(network.graph, network.eps, config, init=network)
    return after, history[0].residual


# ------------------------------------------------- finite-difference oracle

def worst_field_fd_error(network: NetworkState) -> float:
    """Largest relative gap between the analytic node fields and central
    finite differences of the aggregate augmented Lagrangian.

    A z coefficient moves Z_i[p, q] and Z_i[q, p] together, as the
    symmetric basis matrix of position (p, q) does.
    """
    graph, n = network.graph, network.graph.n
    La = aggregate_augmented_lagrangian
    fields = network_fields(network)
    worst = 0.0

    def rel(analytic, fd):
        return abs(-fd - analytic) / max(1.0, abs(analytic))

    def central(i, name, row, direction, h):
        return (
            La(with_node(network, i, **{name: row + h * direction}))
            - La(with_node(network, i, **{name: row - h * direction}))
        ) / (2 * h)

    for i in range(1, n + 1):
        mu, W, Z = network.mu[i - 1], network.W[i - 1], network.Z[i - 1]
        fd = central(i, "mu", mu, 1.0, 1e-6 * (1.0 + abs(mu)))
        worst = max(worst, rel(fields.dmu[i - 1], fd))

        for k in graph.incident_edges(i):
            direction = np.zeros(graph.num_edges)
            direction[k - 1] = 1.0
            fd = central(i, "W", W, direction, 1e-6 * (1.0 + abs(W[k - 1])))
            worst = max(worst, rel(fields.dW[i - 1, k - 1], fd))

        for p, q in zip(*np.triu_indices(n)):
            direction = np.zeros((n, n))
            direction[p, q] = direction[q, p] = 1.0
            fd = central(i, "Z", Z, direction, 1e-6 * (1.0 + abs(Z[p, q])))
            worst = max(worst, rel(fields.dZ[i - 1, p, q], fd))

    # the dual field is +dL/dv and linear in v, so it must match exactly
    assert np.array_equal(fields.dv, network.budget_violation())
    return worst


# ------------------------------------------------- flow oracles

def example1_saddle() -> FlowState:
    """The unique saddle point of ``presets.example1_problem``: x = y = 2, dual 3."""
    return FlowState(x=np.array([2.0, 2.0]), v=np.array([3.0]))


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


def primal_field(problem: ProblemSpec, x, v) -> np.ndarray:
    """Primal velocity: -grad f - A^T v - rho A^T (A x - b), from the problem
    data, projected onto the tangent cone at x."""
    x = np.asarray(x, dtype=float)
    A = problem.A
    g = -problem.objective.gradient(x) - A.T @ v - problem.rho * A.T @ (A @ x - problem.b)
    return problem.set.project_tangent(x, g)


def dual_field(problem: ProblemSpec, x) -> np.ndarray:
    """Dual velocity: the constraint violation A x - b."""
    x = np.asarray(x, dtype=float)
    return problem.A @ x - problem.b


# ------------------------------------------------- steppers

def one_step(problem: ProblemSpec, state: FlowState, dt: float, integrator: str) -> FlowState:
    """One step of ``integrator`` from ``state``, with the step solve takes."""
    rows, advance = _integrator(problem, integrator, dt, state.x, state.v)
    advance(1)
    n, k = problem.dim, problem.dim + problem.num_constraints
    return FlowState(x=rows[1, :n], v=rows[1, n:k], t=state.t + dt)


euler_step = partial(one_step, integrator="euler")
heun_step = partial(one_step, integrator="heun")
rk4_step = partial(one_step, integrator="rk4")
STEPPERS = {"euler": euler_step, "heun": heun_step, "rk4": rk4_step}


def reference_steps(problem: ProblemSpec, integrator: str, dt: float, state: FlowState, steps: int):
    """``[x; v]`` after ``steps`` Heun or RK4 steps from ``state``, in plain
    numpy: ``K.dot``, :func:`reference_tangent` and out-of-place moves, for
    an objective folded into the kernel."""
    (K, g0), n, set_ = problem._kernel, problem.dim, problem.set

    def stage(point):
        out = K.dot(point) + g0
        out[:n] = reference_tangent(set_, point[:n], out[:n])
        return out

    def move(k, h):
        out = s + h * k
        out[:n] = reference_project(set_, out[:n])
        return out

    s = np.concatenate([state.x, state.v])
    for _ in range(steps):
        k1 = stage(s)
        if integrator == "heun":
            s = move(k1 + stage(move(k1, dt)), dt / 2.0)
        else:
            k2 = stage(move(k1, dt / 2.0))
            k3 = stage(move(k2, dt / 2.0))
            k4 = stage(move(k3, dt))
            s = move(k1 + 2.0 * k2 + 2.0 * k3 + k4, dt / 6.0)
    return s


def stepping(problem: ProblemSpec, integrator: str, dt: float, state: FlowState):
    """The states after each step from ``state``: one integrator advanced
    one step at a time, each step's row copied back to the start row, bit
    for bit the iterates of :func:`one_step` repeated."""
    rows, advance = _integrator(problem, integrator, dt, state.x, state.v)
    n, k, t = problem.dim, problem.dim + problem.num_constraints, state.t
    while True:
        advance(1)
        rows[0] = rows[1]
        t += dt
        yield FlowState(x=rows[0, :n], v=rows[0, n:k], t=t)


# ------------------------------------------------- linear saddle oracle

def saddle_test_system(q=1.0, a=1.0, b0=1.0, rho=1.0):
    """Unconstrained 1-primal/1-dual problem whose flow is a 2x2 linear ODE.

    Returns the problem, the system matrix M (d/dt [x; v] = M [x; v] + c)
    and the equilibrium point.
    """
    problem = ProblemSpec(
        objective=Objective.quadratic(np.array([[q]]), np.zeros(1)),
        A=np.array([[a]]),
        b=np.array([b0]),
        set=FreeSpace(1),
        rho=rho,
    )
    M = np.array([[-q - rho * a * a, -a], [a, 0.0]])
    c = np.array([rho * a * b0, -b0])
    z_star = -np.linalg.solve(M, c)
    return problem, M, z_star


def lyapunov_distance(state: FlowState, saddle: FlowState) -> float:
    """Half the squared joint distance to a reference saddle point."""
    if state.x.shape != saddle.x.shape or state.v.shape != saddle.v.shape:
        raise ValueError("dimension mismatch between state and saddle")
    dx = state.x - saddle.x
    dv = state.v - saddle.v
    return 0.5 * (float(dx @ dx) + float(dv @ dv))


def saddle_global_error(integrator, dt, horizon, z0):
    """Distance to the exact (matrix-exponential) flow at the reached time."""
    problem, M, z_star = saddle_test_system()
    state = FlowState(x=z0[:1], v=z0[1:])
    steps = int(round(horizon / dt))
    states = stepping(problem, integrator, dt, state)
    for _ in range(steps):
        state = next(states)
    exact = z_star + expm(M * (steps * dt)) @ (z0 - z_star)
    return float(np.linalg.norm(np.concatenate([state.x, state.v]) - exact))


def integrator_order_slope(integrator, dts=(1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3)):
    """Log-log slope of global error vs dt, ignoring the roundoff floor."""
    z0 = np.array([4.0, -3.0])
    errors = [saddle_global_error(integrator, dt, 2.0, z0) for dt in dts]
    pairs = [(dt, err) for dt, err in zip(dts, errors) if err > 1e-12]
    assert len(pairs) >= 3
    logd = np.log([d for d, _ in pairs])
    loge = np.log([e for _, e in pairs])
    return float(np.polyfit(logd, loge, 1)[0])
