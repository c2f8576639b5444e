"""Graph parsing, edge matrices, weighted Laplacians and lambda2."""

import warnings

import numpy as np
import pytest

from conftest import edge_matrix
from pdflow.graphs import (
    Graph,
    algebraic_connectivity,
    parse_graph,
    weighted_laplacian,
)

P3 = Graph(3, [(1, 2), (2, 3)])


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(1, 2), (2, 1), (2, 3)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            Graph(4, [(1, 2), (3, 4)])

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (0, [], "at least one node"),
            (3, [(1, 4)], r"edge \(1, 4\) references a node outside 1..3"),
            # neither truncated nor taken as 1
            (3.9, [(1, 2), (2, 3)], "^node count must be an integer, got 3.9$"),
            (True, [], "^node count must be an integer, got True$"),
            (3, [(1.5, 2), (2, 3)], "^edge endpoint must be an integer, got 1.5$"),
            (3, [(1, 2), (True, 3)], "^edge endpoint must be an integer, got True$"),
        ],
    )
    def test_rejects_bad_size_or_endpoint(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(n, edges)

    def test_numpy_integer_size_and_endpoints(self):
        g = Graph(np.int64(3), [(np.int64(1), 2), (2, np.uint8(3))])
        assert g.n == 3 and g.edges == ((1, 2), (2, 3))
        assert all(type(i) is int for i in (g.n,) + g.edges[0] + g.edges[1])

    def test_adjacency_structure(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert g.incident_edges(2) == (1, 2)
        assert g.degree(2) == 2
        assert g.num_edges == 4

    def test_incident_edges_cover_edge_set(self):
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
        union = set()
        for i in range(1, 6):
            union.update(g.incident_edges(i))
        assert union == set(range(1, g.num_edges + 1))
        for k, (i, j) in enumerate(g.edges, start=1):
            for node in range(1, 6):
                touches = node in (i, j)
                assert (k in g.incident_edges(node)) == touches


    def test_incidence_and_laplacian(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        for k, (i, j) in enumerate(g.edges):
            e = np.zeros(4)
            e[i - 1], e[j - 1] = 1.0, -1.0
            assert np.array_equal(g.incidence[:, k], e)
            assert (g.heads[k], g.tails[k]) == (i - 1, j - 1)
        edge_sum = sum(edge_matrix(g, k) for k in range(1, g.num_edges + 1))
        assert np.array_equal(g.laplacian, edge_sum)
        assert np.array_equal(g.owned, g.incidence != 0.0) and g.owned.dtype == bool
        for array in (g.heads, g.tails, g.incidence, g.owned, g.laplacian):
            assert not array.flags.writeable

    def test_node_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            P3.incident_edges(0)
        with pytest.raises(ValueError, match="out of range"):
            P3.degree(4)


class TestEdgeMatrix:
    def test_p3_first_edge(self):
        E1 = edge_matrix(P3, 1)
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(E1, expected)

    def test_rank_one_structure(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        for k in range(1, g.num_edges + 1):
            E = edge_matrix(g, k)
            assert np.array_equal(E, E.T)
            assert np.allclose(E.sum(axis=1), 0.0, atol=0)
            eigs = np.linalg.eigvalsh(E)
            assert np.allclose(sorted(eigs), [0.0, 0.0, 0.0, 2.0], atol=1e-12)
            i, j = g.edges[k - 1]
            e = np.zeros(4)
            e[i - 1], e[j - 1] = 1.0, -1.0
            assert np.array_equal(E, np.outer(e, e))

    def test_sum_is_unweighted_laplacian(self):
        total = edge_matrix(P3, 1) + edge_matrix(P3, 2)
        expected = np.diag([1.0, 2.0, 1.0]) - (np.ones((3, 3)) - np.eye(3)) * np.array(
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )
        assert np.array_equal(total, np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]))
        assert np.array_equal(total, expected + np.zeros((3, 3)))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            edge_matrix(P3, 3)

    def test_orthogonal_to_all_ones_matrix(self):
        # trace(E_k @ ones) = 0 for every edge matrix
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)])
        ones = np.ones((5, 5))
        for k in range(1, g.num_edges + 1):
            assert abs(np.trace(edge_matrix(g, k) @ ones)) <= 1e-12


class TestWeightedLaplacian:
    def test_unit_weights(self):
        L = weighted_laplacian(P3, [1.0, 1.0])
        assert np.array_equal(L, np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]))

    def test_zero_weights(self):
        assert np.array_equal(weighted_laplacian(P3, [0.0, 0.0]), np.zeros((3, 3)))

    def test_optimal_p3_weights_reach_lambda2(self):
        # assembled optimum: both edges carry 1 + 0.5 = 0.5 + 1 = 1.5
        L = weighted_laplacian(P3, [1.5, 1.5])
        assert abs(algebraic_connectivity(L) - 1.5) <= 1e-12

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            weighted_laplacian(P3, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, bad):
        # NaN ended in LinAlgError from eigvalsh, inf in a RuntimeWarning
        with pytest.raises(ValueError, match="^edge weights must be finite$"):
            weighted_laplacian(P3, [bad, 1.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            weighted_laplacian(P3, [1.0, -0.1])

    def test_row_sums_and_psd_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            g = _random_connected_graph(rng)
            w = rng.uniform(0.0, 3.0, size=g.num_edges)
            L = weighted_laplacian(g, w)
            assert np.abs(L @ np.ones(g.n)).max() <= 1e-12
            assert np.linalg.eigvalsh(L)[0] >= -1e-10

    def test_matches_weighted_edge_matrix_sum(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            g = _random_connected_graph(rng)
            w = rng.uniform(0.0, 3.0, size=g.num_edges)
            expected = sum(w[k - 1] * edge_matrix(g, k) for k in range(1, g.num_edges + 1))
            assert np.abs(weighted_laplacian(g, w) - expected).max() <= 1e-12

    def test_lambda2_monotone_in_each_weight(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            g = _random_connected_graph(rng)
            w = rng.uniform(0.1, 2.0, size=g.num_edges)
            base = algebraic_connectivity(weighted_laplacian(g, w))
            k = int(rng.integers(g.num_edges))
            w2 = w.copy()
            w2[k] += rng.uniform(0.1, 1.0)
            bumped = algebraic_connectivity(weighted_laplacian(g, w2))
            assert bumped >= base - 1e-10


class TestAlgebraicConnectivity:
    def test_path(self):
        assert abs(algebraic_connectivity(weighted_laplacian(P3, [1.0, 1.0])) - 1.0) <= 1e-12

    def test_triangle(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        L = weighted_laplacian(g, [1.0, 1.0, 1.0])
        assert abs(algebraic_connectivity(L) - 3.0) <= 1e-12

    def test_weights_near_float_limit(self):
        # lambda2 = w and lambda_max = 3w are finite, but the middle diagonal
        # entry of L + L^T is 4w, which overflows if summed before halving
        w = 5e307
        L = weighted_laplacian(P3, [w, w])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert algebraic_connectivity(L) == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry_without_warning(self, bad):
        # a NaN made the scale NaN, so every check passed without testing
        # anything; an inf warned in L - L^T before the checks refused it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                algebraic_connectivity(np.array([[1.0, -1.0], [-1.0, bad]]))

    def test_rejects_asymmetric_entries_near_float_limit_without_warning(self):
        # L - L^T overflowed here and warned before the refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not symmetric"):
                algebraic_connectivity([[1e308, -1e308], [1e308, -1e308]])

    def test_rejects_non_laplacian(self):
        with pytest.raises(ValueError):
            algebraic_connectivity(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            algebraic_connectivity(np.array([[0.0, 1.0], [1.0, 0.0]]))


    @pytest.mark.parametrize(
        "matrix,message",
        [
            (np.zeros((2, 3)), "square matrix of order >= 2"),
            ([[1.0, -1.0], [0.0, 0.0]], "not symmetric"),
            ([[1.0, 0.0], [0.0, 1.0]], "rows do not sum to zero"),
            ([[-1.0, 1.0], [1.0, -1.0]], "not positive semidefinite"),
        ],
        ids=["non-square", "non-symmetric", "row-sums", "negative-definite"],
    )
    def test_names_why_a_matrix_is_not_a_laplacian(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            algebraic_connectivity(matrix)


class TestParseGraph:
    def test_p3(self):
        g = parse_graph("3\n1 2\n2 3\n")
        assert g.n == 3
        assert g.edges == ((1, 2), (2, 3))

    def test_comments_and_blank_lines(self):
        g = parse_graph("# path\n\n3   # node count\n1 2\n\n# middle\n2 3\n")
        assert g.edges == ((1, 2), (2, 3))

    def test_self_loop_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_graph("3\n1 2\n1 1\n")

    def test_duplicate_reports_line(self):
        with pytest.raises(ValueError, match="line 4"):
            parse_graph("3\n1 2\n2 3\n2 1\n")

    def test_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            parse_graph("4\n1 2\n3 4\n")

    def test_garbage_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_graph("3\n1 2 3\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("3 4\n1 2\n", "line 1: expected the node count"),
            ("three\n", "line 1: node count 'three' is not an integer"),
            ("# none\n0\n", "line 2: node count must be positive"),
            ("3\n1 b\n", "line 2: endpoints must be integers"),
        ],
        ids=["two-counts", "word-count", "zero-count", "word-endpoint"],
    )
    def test_malformed_line_is_named(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_graph(text)

    def test_too_few_edges_fail_before_the_incidence_is_built(self):
        # 10^7 nodes with one edge: the N x N Laplacian would need 728 TiB
        with pytest.raises(ValueError, match="^graph is not connected$"):
            parse_graph("10000000\n1 2\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_graph("# nothing\n")


def _random_connected_graph(rng, max_nodes=7):
    n = int(rng.integers(3, max_nodes + 1))
    edges = [(i, i + 1) for i in range(1, n)]  # spanning path keeps it connected
    extra = {(int(a), int(b)) for a in range(1, n + 1) for b in range(a + 1, n + 1)} - set(edges)
    for pair in sorted(extra):
        if rng.random() < 0.3:
            edges.append(pair)
    return Graph(n, edges)
