"""Shared test helpers: random connected graphs and edge matrices, a
per-node reference and the finite-difference oracle for the distributed node
fields, the network's objective and augmented Lagrangian, one simulated
round, the flow's Lagrangians and fields, the tangent-quotient and
Lyapunov-distance oracles, and the matrix-exponential oracle for integrator
orders."""

import dataclasses

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
from pdflow.flow import FlowState, Objective, ProblemSpec, SolverConfig
from pdflow.graphs import Graph
from pdflow.spectral import smoothed_max_eig, smoothed_max_eig_grad
from pdflow.sets import Ball, Box, FreeSpace, NonnegativeOrthant, Product


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
    if isinstance(set_, NonnegativeOrthant):
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
    if isinstance(set_, FreeSpace):
        return True
    if isinstance(set_, NonnegativeOrthant):
        return bool(np.all(x > margin))
    if isinstance(set_, Box):
        return bool(np.all(x > set_.lower + margin) and np.all(x < set_.upper - margin))
    if isinstance(set_, Ball):
        return bool(np.linalg.norm(x - set_.center) < set_.radius - margin)
    if isinstance(set_, Product):
        return all(
            strictly_interior(c, x[s], margin)
            for c, s in zip(set_.components, set_._slices)
        )
    raise TypeError(set_)


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
    for j in graph.neighbors(i):
        X += network.Z[i - 1] - network.Z[j - 1]
    return X


def reference_fields(network: NetworkState):
    """Unprojected fields (dmu, dW, dZ, dv), one node at a time.

    Node i uses only its own variables and its neighbors' Z_j and G_j; the
    z field is assembled from its symmetric-basis coefficients
    dz_l = -trace(S_i B_l), with S_i = sum_{j ~ i} (G_i - G_j).
    """
    graph, n = network.graph, network.graph.n
    G = [smoothed_max_eig_grad(reference_node_matrix(network, i), network.eps)[1]
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
        S = sum(G[i - 1] - G[j - 1] for j in graph.neighbors(i))
        for l in range(1, num_basis(n) + 1):
            B = symmetric_basis(l, n)
            dZ[i - 1] += -np.trace(S @ B) * B
        dv[i - 1] = g
    return dmu, dW, dZ, dv


# ------------------------------------------------- network oracles

def network_fields(network: NetworkState) -> Fields:
    """Every node's unprojected field values at the current state."""
    return _fields(network, _broadcast(network)[1])


def objective_value(network: NetworkState) -> float:
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
    """Primal velocity: the descent direction projected onto the tangent cone at x."""
    s = np.concatenate([np.asarray(x, dtype=float), np.asarray(v, dtype=float)])
    g = problem._field(s, np.empty_like(s))
    return problem.set.project_tangent(s[: problem.dim], g[: problem.dim])


def dual_field(problem: ProblemSpec, x) -> np.ndarray:
    """Dual velocity: the constraint violation A x - b."""
    x = np.asarray(x, dtype=float)
    return problem.A @ x - problem.b


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


def saddle_global_error(stepper, dt, horizon, z0):
    """Distance to the exact (matrix-exponential) flow at the reached time."""
    problem, M, z_star = saddle_test_system()
    state = FlowState(x=z0[:1], v=z0[1:])
    steps = int(round(horizon / dt))
    for _ in range(steps):
        state = stepper(problem, state, dt)
    exact = z_star + expm(M * (steps * dt)) @ (z0 - z_star)
    return float(np.linalg.norm(np.concatenate([state.x, state.v]) - exact))


def integrator_order_slope(stepper, dts=(1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3)):
    """Log-log slope of global error vs dt, ignoring the roundoff floor."""
    z0 = np.array([4.0, -3.0])
    errors = [saddle_global_error(stepper, dt, 2.0, z0) for dt in dts]
    pairs = [(dt, err) for dt, err in zip(dts, errors) if err > 1e-12]
    assert len(pairs) >= 3
    logd = np.log([d for d, _ in pairs])
    loge = np.log([e for _, e in pairs])
    return float(np.polyfit(logd, loge, 1)[0])
