"""Labeled undirected graphs and weighted Laplacians.

Nodes are numbered 1..N and edges carry 1-based labels assigned in input
order; the labels are part of the external contract so that per-node weight
outputs are reproducible across runs.
"""

from __future__ import annotations

import math

import numpy as np

from .sets import _check_finite, _integer
from .spectral import _psd_average

# A graph whose unweighted Laplacian has its second-smallest eigenvalue
# below this counts as disconnected (a connected graph has exactly one zero).
_ZERO_EIG_TOL = 1e-9


def _add_edge(seen: set, n: int, i: int, j: int) -> tuple:
    """Record edge (i, j) of an n-node graph in ``seen``; return it with the
    smaller endpoint first.  Rejects endpoints that are not integers or lie
    outside 1..n, self-loops and edges already in ``seen``."""
    i, j = _integer(i, "edge endpoint"), _integer(j, "edge endpoint")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"edge ({i}, {j}) references a node outside 1..{n}")
    if i == j:
        raise ValueError(f"self-loop at node {i}")
    pair = (min(i, j), max(i, j))
    if pair in seen:
        raise ValueError(f"duplicate edge ({pair[0]}, {pair[1]})")
    seen.add(pair)
    return pair


class Graph:
    """Connected undirected graph without self-loops or duplicate edges.

    Parameters
    ----------
    n : int
        Number of nodes, labeled 1..n.
    edges : iterable of (int, int)
        Node pairs; edge k (1-based) is the k-th pair.  Pairs are stored
        with the smaller endpoint first.

    Built once and read-only: ``heads`` and ``tails``, the 0-based
    endpoints of every edge; the incidence matrix ``incidence`` (B, N x E,
    column k - 1 is e_a - e_b for edge k = (a, b)); its boolean pattern
    ``owned`` (node i owns the weight w_ik exactly when edge k touches i);
    and the unweighted Laplacian ``laplacian`` = B B^T.  A graph with fewer
    than N - 1 edges is refused as not connected before these are built.
    """

    def __init__(self, n: int, edges):
        n = _integer(n, "node count")
        if n < 1:
            raise ValueError("graph needs at least one node")
        seen = set()
        self.n = n
        self.edges = tuple(_add_edge(seen, n, i, j) for i, j in edges)
        if len(self.edges) < n - 1:  # a connected graph has at least n - 1 edges
            raise ValueError("graph is not connected")
        self.heads = np.array([a - 1 for a, _ in self.edges], dtype=np.intp)
        self.tails = np.array([b - 1 for _, b in self.edges], dtype=np.intp)
        cols = np.arange(len(self.edges))
        self.incidence = np.zeros((n, len(self.edges)))
        self.incidence[self.heads, cols] = 1.0
        self.incidence[self.tails, cols] = -1.0
        self.owned = self.incidence != 0.0
        self.laplacian = self.incidence @ self.incidence.T
        for array in (self.heads, self.tails, self.incidence, self.owned, self.laplacian):
            array.setflags(write=False)

        if n > 1 and algebraic_connectivity(self.laplacian) < _ZERO_EIG_TOL:
            raise ValueError("graph is not connected")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incident_edges(self, i: int) -> tuple:
        """Labels of the edges touching node ``i``, ascending."""
        if not 1 <= i <= self.n:
            raise ValueError(f"node {i} out of range 1..{self.n}")
        return tuple((np.flatnonzero(self.owned[i - 1]) + 1).tolist())

    def degree(self, i: int) -> int:
        return len(self.incident_edges(i))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def weighted_laplacian(graph: Graph, weights) -> np.ndarray:
    """B diag(w) B^T: the sum over edges k = (i, j) of ``weights[k-1]`` times
    the rank-one Laplacian (e_i - e_j)(e_i - e_j)^T."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (graph.num_edges,):
        raise ValueError(
            f"expected {graph.num_edges} edge weights, got shape {weights.shape}"
        )
    _check_finite("edge weights", weights)
    if np.any(weights < 0):
        raise ValueError("edge weights must be nonnegative")
    return (graph.incidence * weights) @ graph.incidence.T


def algebraic_connectivity(laplacian) -> float:
    """Second-smallest eigenvalue of a Laplacian matrix.

    The input must actually be a Laplacian: finite, symmetric, rows summing
    to zero and positive semidefinite (the last three within 1e-9, scaled).
    """
    L = np.asarray(laplacian, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[0] < 2:
        raise ValueError("expected a square matrix of order >= 2")
    _, eigs = _psd_average(L, "matrix")
    # on L scaled by a power of two to max |L| < 1, which is exact (as is the
    # threshold's scaling) and keeps the sums from overflowing
    top = float(np.abs(L).max())
    scale = 2.0 ** -math.frexp(top)[1]
    if float(np.abs((L * scale).sum(axis=1)).max()) > 1e-9 * (scale + top * scale):
        raise ValueError("matrix rows do not sum to zero")
    return float(eigs[1])


def parse_graph(text: str) -> Graph:
    """Parse the edge-list graph format.

    The first non-comment line is the node count N; every following
    non-comment line is "i j" with 1 <= i, j <= N.  ``#`` starts a comment,
    blank lines are ignored, edge labels follow file order starting at 1.
    """
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ValueError(f"line {lineno}: expected the node count, got {raw!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise ValueError(f"line {lineno}: node count {fields[0]!r} is not an integer") from None
            if n < 1:
                raise ValueError(f"line {lineno}: node count must be positive")
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints must be integers, got {raw!r}") from None
        try:
            edges.append(_add_edge(seen, n, i, j))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    if n is None:
        raise ValueError("empty graph file")
    return Graph(n, edges)
