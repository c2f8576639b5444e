"""Distributed maximization of a graph's algebraic connectivity.

Each node i owns a scalar shift mu_i, one weight contribution w_ik per
incident edge k, a symmetric auxiliary matrix Z_i and a scalar dual v_i for
its unit weight budget.  With L = B B^T the graph's unweighted Laplacian
(``Graph.laplacian``, B its ``incidence``), the node-local matrix

    X_i = -mu_i * ONES - sum_{k incident} w_ik * E_k + sum_{j ~ i} (Z_i - Z_j)

has -lambda2_i as (approximately) its largest eigenvalue, and the network
minimizes sum_i of the smoothed maximum eigenvalue of X_i subject to each
node's weight budget.  The projected saddle-point dynamics of that problem
decompose edge-locally: a node only ever needs its neighbors' Z and
smoothed-eigenvalue gradients G, which are exchanged once per synchronous
round.  The network is stored as one array per variable (``mu (N,)``,
``W (N, E)`` zero off the incidence, ``Z (N, N, N)``, ``v (N,)``) and a round
evaluates all nodes at once; the last term of X_i is sum_j L_ij Z_j, whose
zero Laplacian entries keep each node's update local.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .flow import DivergenceError, SolverConfig
from .graphs import Graph, algebraic_connectivity, weighted_laplacian
from .sets import NonnegativeOrthant, _frozen
from .spectral import smoothed_max_eig, smoothed_max_eig_grad


@dataclass(frozen=True, eq=False)
class NetworkState:
    """Every node's variables, one read-only array per variable.

    Row i (0-based) of each array belongs to node i + 1; column k of ``W``
    to edge label k + 1.  Contributions are nonnegative and stay so under
    the projected update.  The constructor copies the arrays and rejects
    non-finite entries and negative contributions; :func:`simulate`
    advances such a copy in place and returns it read-only.
    """

    graph: Graph
    mu: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    v: np.ndarray
    eps: float

    def __post_init__(self):
        if self.graph.n < 2:
            raise ValueError("connectivity needs at least 2 nodes")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("eps must be positive and finite")
        n, owned = self.graph.n, self.graph.owned
        for name, shape in (("mu", (n,)), ("W", owned.shape), ("Z", (n, n, n)), ("v", (n,))):
            array = _frozen(getattr(self, name))
            if array.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
            if not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, array)
        if np.any(self.W < 0.0):
            raise ValueError("W must be nonnegative")
        if np.any(self.W[~owned] != 0.0):
            raise ValueError("W must be zero on edges not incident to the node")
        if not np.array_equal(self.Z, np.swapaxes(self.Z, 1, 2)):
            raise ValueError("every Z_i must be symmetric")

    def budget_violation(self) -> np.ndarray:
        """Each node's sum of contributions minus its unit budget."""
        return self.W.sum(axis=1) - 1.0


class Fields(NamedTuple):
    """Every node's field values; ``dW`` before the orthant projection."""

    dmu: np.ndarray
    dW: np.ndarray
    dZ: np.ndarray
    dv: np.ndarray


class HistoryPoint(NamedTuple):
    round: int
    objective: float
    lambda2: float
    residual: float
    contributions: tuple


def _require_finite(*per_node) -> None:
    """Raise naming the first node whose rows hold a non-finite value."""
    finite = np.logical_and.reduce(
        [np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in per_node]
    )
    if not finite.all():
        raise DivergenceError(f"node {int(np.argmin(finite)) + 1} produced non-finite values")


def _tables(graph: Graph) -> SimpleNamespace:
    """The graph-only data a round needs, and its buffers; built once per run."""
    n, B = graph.n, graph.incidence
    node, edge = np.nonzero(graph.owned)
    a, b = graph.heads[edge], graph.tails[edge]
    return SimpleNamespace(
        orthant=NonnegativeOrthant(B.size),  # the flat W's set
        dW=np.empty(B.size),  # the residual's projected copy of the flat dW
        w_at=node * graph.num_edges + edge,  # flat W index of each owned w_ik
        # flat X indices of its entries (i, a_k, b_k) and (i, b_k, a_k)
        off=np.stack([(node * n + a) * n + b, (node * n + b) * n + a]),
        abs_bt=np.abs(B.T),  # row i of W @ |B|^T is the diagonal of sum_k w_ik E_k
        dz_coef=0.5 * np.eye(n) - 1.0,  # dZ = dz_coef * (S + S^T)
        X=np.empty((n, n, n)),  # overwritten by every node_matrices call
        # the gradient's working stacks, G returned in the first; _fields
        # then writes L G and dZ into the second and third
        scratch=np.empty((4, n, n, n)),
    )


def node_matrices(network: NetworkState, tables=None) -> np.ndarray:
    """The stack of matrices X_i whose largest eigenvalues the nodes drive down."""
    n, t = network.graph.n, tables or _tables(network.graph)
    X = t.X
    np.matmul(network.graph.laplacian, network.Z.reshape(n, n * n), out=X.reshape(n, n * n))
    # sum_k w_ik E_k: -w_ik at (a_k, b_k) and (b_k, a_k), sum_k w_ik |B|_pk at (p, p)
    X.reshape(-1)[t.off] += network.W.reshape(-1)[t.w_at]
    X.reshape(n, n * n)[:, :: n + 1] -= network.W @ t.abs_bt
    X -= network.mu[:, None, None]
    return X


def _broadcast(network: NetworkState, tables=None) -> np.ndarray:
    """Phase 1 of a round: every node's smoothed-eigenvalue gradient G_i,
    in the first of the tables' scratch stacks."""
    t = tables or _tables(network.graph)
    X = node_matrices(network, t)
    try:
        return smoothed_max_eig_grad(X, network.eps, t.scratch)
    except ValueError:  # the gradient found a non-finite entry: name its node
        _require_finite(X)
        raise


def _fields(network: NetworkState, G: np.ndarray, tables=None) -> Fields:
    """Phase 2: each node's fields from its own and its neighbors' G.

    ``G`` may be the first of the tables' scratch stacks; ``dZ`` is the third.
    """
    graph, t = network.graph, tables or _tables(network.graph)
    n, a, b = graph.n, graph.heads, graph.tails
    g = network.budget_violation()
    flat = G.reshape(n, n * n)
    pairing = G[:, a, a] + G[:, b, b] - 2.0 * G[:, a, b]  # trace(G_i E_k)
    dW = np.where(graph.owned, pairing - network.v[:, None] - g[:, None], 0.0)
    S, dZ = t.scratch[1:3]
    np.matmul(graph.laplacian, flat, out=S.reshape(n, n * n))
    # trace(S B_pq) for the symmetric basis matrix B_pq, from S + S^T, which
    # keeps every Z_i exactly symmetric whatever order BLAS sums in
    np.add(S, np.swapaxes(S, 1, 2), out=dZ)
    dZ *= t.dz_coef
    return Fields(dmu=flat.sum(axis=1), dW=dW, dZ=dZ, dv=g)


def _residual_from_messages(network: NetworkState, fields: Fields, tables) -> float:
    """Sum of absolute budget violations plus the Euclidean norm of all
    projected primal fields (mu, w and the upper-triangle z coefficients of
    every node); zero exactly at equilibria of the dynamics.  ``tables`` is
    the run's :func:`_tables`."""
    # tangent cone of the orthant: a contribution on the bound may not
    # decrease; projected in a copy, since the update moves along the raw dW
    dW = tables.dW
    np.copyto(dW, fields.dW.reshape(-1))
    tables.orthant._tangent(network.W.reshape(-1), dW)
    # every dZ_i is symmetric (built from S + S^T), so its upper triangle
    # holds half of its squared entries plus half of its diagonal's
    n = len(fields.dZ)
    dz, diag = fields.dZ.reshape(-1), fields.dZ.reshape(n, n * n)[:, :: n + 1]
    sq = fields.dmu @ fields.dmu + dW @ dW + (dz @ dz + (diag * diag).sum()) / 2.0
    return float(np.abs(fields.dv).sum() + math.sqrt(sq))


def _apply_round(network: NetworkState, fields: Fields, dt: float, tables) -> None:
    """Phase 3: move every variable by ``dt`` times its field (both in
    place), project ``W`` back onto the orthant, and raise
    :class:`DivergenceError` naming the node once the state is not finite."""
    arrays = network.mu, network.W, network.Z, network.v  # in the order of Fields
    for array, field in zip(arrays, fields):
        field *= dt
        array += field
    tables.orthant._project_in_place(network.W.reshape(-1))
    # a non-finite total (non-finite entry or overflow) runs the exact check
    if not math.isfinite(sum(array.sum() for array in arrays)):
        _require_finite(*arrays)


def objective_value(X: np.ndarray, eps: float) -> float:
    """The network objective: the sum over nodes of the smoothed maximum
    eigenvalue of the stack ``X`` of node matrices at temperature ``eps``."""
    return float(smoothed_max_eig(X, eps).sum())


def assemble_weights(network: NetworkState) -> np.ndarray:
    """Total edge weights: each edge gets the sum of its endpoints' contributions."""
    return network.W.sum(axis=0)


def assembled_connectivity(network: NetworkState) -> float:
    """Algebraic connectivity of the graph under the assembled edge weights."""
    return algebraic_connectivity(
        weighted_laplacian(network.graph, assemble_weights(network))
    )


def contributions_vector(network: NetworkState) -> tuple:
    """All weight contributions in (node, edge label) lexicographic order."""
    return tuple(network.W[network.graph.owned].tolist())


def initial_network(graph: Graph, eps: float) -> NetworkState:
    """Default start: zero mu, Z and v; each node spreads its budget uniformly."""
    n, owned = graph.n, graph.owned
    W = owned / owned.sum(axis=1, keepdims=True)
    return NetworkState(graph, np.zeros(n), W, np.zeros((n, n, n)), np.zeros(n), eps)


def random_network(graph: Graph, eps: float, rng: np.random.Generator) -> NetworkState:
    """Arbitrary start: normal mu, v and Z entries; uniform nonnegative contributions."""
    n, owned = graph.n, graph.owned
    mu = rng.standard_normal(n)
    W = np.where(owned, rng.uniform(0.0, 1.0, owned.shape), 0.0)
    upper = np.triu(rng.standard_normal((n, n, n)))
    Z = upper + np.swapaxes(np.triu(upper, 1), 1, 2)
    return NetworkState(graph, mu, W, Z, rng.standard_normal(n), eps)


def simulate(
    graph: Graph,
    eps: float,
    config: SolverConfig,
    init: Optional[NetworkState] = None,
):
    """Run synchronous rounds until the network residual drops below tol.

    In a round every node computes its fields from the pre-round state, then
    all updates apply at once.  The weight update uses the proximal form
    w+ = max(0, w + dt * raw_field), which keeps contributions nonnegative
    exactly.

    Returns ``(final_network, history)`` where history holds
    :class:`HistoryPoint` rows every ``record_stride`` rounds plus the final
    one, so the last row carries the final round count and residual.  The
    rounds are Euler steps, so a config whose ``integrator`` is not
    ``"euler"`` is refused; ``dt``, ``max_steps``, ``tol`` and
    ``record_stride`` count and stop rounds as they do steps in ``solve``.
    ``init`` supplies the starting arrays (a warm start) and
    is left unchanged; the rounds run at ``eps``.  The state is validated
    once, at the start, and its copy of the arrays is advanced in place.
    Raises :class:`DivergenceError` naming the round and the node once the
    state, or a node's X_i, stops being finite.
    """
    if config.integrator != "euler":
        raise ValueError(f"simulate runs Euler rounds only, not {config.integrator!r}")
    if init is not None and init.graph is not graph and init.graph.edges != graph.edges:
        raise ValueError("init was built for a different graph")
    network = initial_network(graph, eps) if init is None else replace(init, eps=eps)
    # a fresh copy, which _apply_round advances in place
    arrays = network.mu, network.W, network.Z, network.v
    for array in arrays:
        array.setflags(write=True)

    history: list[HistoryPoint] = []
    rounds, tables = 0, _tables(graph)
    # overflow is caught by the finiteness checks; silence its warnings
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                G = _broadcast(network, tables)
                fields = _fields(network, G, tables)
                residual = _residual_from_messages(network, fields, tables)
                done = residual <= config.tol or rounds >= config.max_steps
                if done or rounds % config.record_stride == 0:
                    history.append(
                        HistoryPoint(
                            round=rounds,
                            objective=objective_value(tables.X, network.eps),
                            lambda2=assembled_connectivity(network),
                            residual=residual,
                            contributions=contributions_vector(network),
                        )
                    )
                if done:
                    break
                rounds += 1
                _apply_round(network, fields, config.dt, tables)
    except DivergenceError as err:
        # the round after which the state, or the X_i built from it, stopped being finite
        raise DivergenceError(f"round {rounds}: {err}") from err
    for array in arrays:
        array.setflags(write=False)
    return network, history
