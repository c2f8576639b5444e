"""Distributed connectivity maximization: node-local assembly, field values
against a per-node reference and finite differences, locality, synchronous
rounds and small end-to-end runs."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    aggregate_augmented_lagrangian,
    broadcast_of,
    edge_matrix,
    network_fields,
    num_basis,
    network_objective,
    node_matrices_of,
    one_round,
    random_connected_graph,
    reference_fields,
    reference_node_matrix,
    smoothed_max_eig,
    symmetric_basis,
    with_node,
    worst_field_fd_error,
)
from pdflow import connectivity
from pdflow.connectivity import (
    DivergenceError,
    NetworkState,
    _broadcast,
    assemble_weights,
    assembled_connectivity,
    contributions_vector,
    initial_network,
    random_network,
    simulate,
)
from pdflow.flow import SolverConfig
from pdflow.graphs import Graph
from pdflow.presets import EXAMPLE4_DT, EXAMPLE4_EPS, EXAMPLE4_TOL, example4_graph
from pdflow.spectral import smoothed_max_eig_grad

P3 = Graph(3, [(1, 2), (2, 3)])
P4 = Graph(4, [(1, 2), (2, 3), (3, 4)])
K2 = Graph(2, [(1, 2)])
K3 = Graph(3, [(1, 2), (2, 3), (1, 3)])


def zero_network(graph, eps=1e-3):
    n = graph.n
    return NetworkState(
        graph, np.zeros(n), np.zeros((n, graph.num_edges)), np.zeros((n, n, n)), np.zeros(n), eps
    )


def k2_equilibrium(eps=1e-3):
    """Fixed point of the K2 dynamics (in double precision).

    With mu large enough, the all-ones direction's softmax weight underflows
    to exactly zero, so G is [[1, -1], [-1, 1]] / 2 up to rounding.  ``v`` is
    the pairing trace(G E_1) and each budget is met, so dW, dZ and dv are
    exactly 0.0; dmu, the sum of G's entries, is 0 up to rounding.
    """
    net = NetworkState(K2, np.full(2, 2.0), np.ones((2, 1)), np.zeros((2, 2, 2)), np.zeros(2), eps)
    G = smoothed_max_eig_grad(node_matrices_of(net)[0], eps)
    v = float(G[0, 0] + G[1, 1] - 2.0 * G[0, 1])
    return dataclasses.replace(net, v=np.full(2, v))


def assert_k2_fixed_point(net, dt):
    """dW, dZ and dv vanish exactly; dmu, the sum of four entries of G that
    are +-1/2 to within an ulp of 1/2, is at most four such ulps per node.
    So the residual is at most 4 ulps times sqrt(2), and a round moves mu
    by dt * dmu, below half an ulp of mu, and changes nothing."""
    bound = 4.0 * np.spacing(0.5)
    fields = network_fields(net)
    for name in ("dW", "dZ", "dv"):
        assert not getattr(fields, name).any(), name
    assert np.abs(fields.dmu).max() <= bound
    after, residual = one_round(net, dt)
    assert residual <= math.sqrt(2.0) * bound
    assert_same_state(net, after)


def ring_with_chords(n, chords, rng):
    """The ring 1..n plus ``chords`` distinct random chords."""
    edges = {(i, i % n + 1) if i < n else (1, n) for i in range(1, n + 1)}
    while len(edges) < n + chords:
        i, j = sorted(int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        edges.add((i, j))
    return Graph(n, sorted(edges))


def assert_same_state(a, b):
    for name in ("mu", "W", "Z", "v"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestSymmetricBasis:
    """The per-node reference's basis: it fixes the coefficient convention
    of the z field (dz_l = -trace(S B_l)) that the matrix form reproduces."""

    def test_first_is_corner_diagonal(self):
        B = symmetric_basis(1, 3)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(B, expected)

    def test_second_is_off_diagonal_pair(self):
        B = symmetric_basis(2, 3)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(B, expected)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            symmetric_basis(7, 3)
        with pytest.raises(ValueError):
            symmetric_basis(0, 3)

    def test_span_reproduces_any_symmetric_matrix(self):
        rng = np.random.default_rng(51)
        n = 4
        S = rng.normal(size=(n, n))
        S = (S + S.T) / 2.0
        z = np.array([S[p, q] for p, q in zip(*np.triu_indices(n))])
        total = sum(z[l] * symmetric_basis(l + 1, n) for l in range(num_basis(n)))
        assert np.abs(total - S).max() <= 1e-15
        upper = np.triu(total)
        assert np.array_equal(upper + np.triu(upper, 1).T, total)


class TestNodeMatrix:
    def test_zero_state_is_zero_matrix(self):
        assert np.array_equal(node_matrices_of(zero_network(P3)), np.zeros((3, 3, 3)))

    def test_endpoint_with_unit_weight(self):
        net = with_node(zero_network(P3), 1, W=[1.0, 0.0])
        assert np.array_equal(node_matrices_of(net)[0], -edge_matrix(P3, 1))

    def test_equal_z_cancels(self):
        rng = np.random.default_rng(52)
        Z = rng.normal(size=(3, 3))
        net = dataclasses.replace(zero_network(P3), Z=np.stack([Z + Z.T] * 3))
        assert np.abs(node_matrices_of(net)).max() <= 1e-15

    def test_gauge_shift_leaves_matrices_unchanged(self):
        # adding the same Z to every node changes nothing
        rng = np.random.default_rng(53)
        net = random_network(P3, 1e-2, rng)
        shift = rng.normal(size=(3, 3))
        shifted = dataclasses.replace(net, Z=net.Z + (shift + shift.T))
        assert np.abs(node_matrices_of(net) - node_matrices_of(shifted)).max() <= 1e-12

    def test_matches_per_node_reference(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            graph = random_connected_graph(rng, min_nodes=2, max_nodes=6)
            net = random_network(graph, 0.5, rng)
            X = node_matrices_of(net)
            for i in range(1, graph.n + 1):
                assert np.abs(X[i - 1] - reference_node_matrix(net, i)).max() <= 1e-12


class TestNodeFields:
    def test_budget_satisfied_gives_zero_dual_field(self):
        net = initial_network(P3, 1e-3)  # uniform start is budget-feasible
        assert np.array_equal(network_fields(net).dv, np.zeros(3))

    def test_orthant_projection_at_zero_weight(self):
        # at w = 0 a negative raw field is clamped to zero: the weight stays
        # on the bound and the residual does not count the field
        net = with_node(zero_network(K2, eps=0.5), 1, v=10.0)
        fields = network_fields(net)
        assert fields.dW[0, 0] < 0.0 < fields.dW[1, 0]
        after, residual = one_round(net, 0.1)
        assert after.W[0, 0] == 0.0
        rows, cols = np.triu_indices(2)
        dz = fields.dZ[:, rows, cols]
        expected = np.abs(fields.dv).sum() + np.sqrt(
            np.sum(fields.dmu**2) + fields.dW[1, 0] ** 2 + np.sum(dz**2)
        )
        assert residual == pytest.approx(expected, rel=1e-15)

    def test_residual_matches_the_upper_triangle_sum(self):
        # the residual's z term comes from each dZ_i's squared entries and
        # diagonal; the reference sums the upper triangles it stands for
        rng = np.random.default_rng(83)
        for _ in range(5):
            graph = random_connected_graph(rng, 3, 6)
            net = random_network(graph, 0.3, rng)
            tables = connectivity._tables(graph)
            fields = connectivity._fields(net, _broadcast(net, tables), tables)
            residual = connectivity._residual_from_messages(net, fields, tables)
            rows, cols = np.triu_indices(graph.n)
            dz = fields.dZ[:, rows, cols]
            assert np.array_equal(fields.dZ, np.swapaxes(fields.dZ, 1, 2))
            expected = np.abs(fields.dv).sum() + np.sqrt(
                np.sum(fields.dmu**2) + np.sum(fields.dW**2) + np.sum(dz**2)
            )
            assert residual == pytest.approx(expected, rel=1e-14)

    def test_residual_leaves_the_raw_weight_field(self):
        # the update moves along the raw dW; the residual projects a copy
        net = with_node(zero_network(K2, eps=0.5), 1, v=10.0)
        tables = connectivity._tables(K2)
        fields = connectivity._fields(net, _broadcast(net, tables), tables)
        raw = fields.dW.copy()
        connectivity._residual_from_messages(net, fields, tables)
        assert raw[0, 0] < 0.0 and fields.dW.tobytes() == raw.tobytes()

    def test_symmetric_triangle_has_zero_z_field(self):
        # identical nodes on a vertex-transitive graph: G_i = G_j
        net = initial_network(K3, 1e-2)
        assert np.abs(network_fields(net).dZ).max() <= 1e-14

    def test_locality_ignores_non_neighbor_state(self):
        # node 1 only hears node 2: node 3's state cannot reach X_1 or G_1,
        # nor the fields node 1 derives from them alone
        rng = np.random.default_rng(54)
        net = random_network(P3, 1e-2, rng)
        Z3 = rng.normal(size=(3, 3))
        perturbed = with_node(net, 3, mu=99.0, v=-7.0, W=[0.0, 0.3], Z=Z3 + Z3.T)
        G, G_p = broadcast_of(net), broadcast_of(perturbed)
        assert np.array_equal(node_matrices_of(net)[0], node_matrices_of(perturbed)[0])
        assert np.array_equal(G[0], G_p[0])
        before, after = network_fields(net), network_fields(perturbed)
        for name in ("dmu", "dW", "dv"):
            assert np.array_equal(getattr(before, name)[0], getattr(after, name)[0]), name

    def test_two_hop_locality(self):
        # row i of every field depends on nodes within two hops only: a
        # node's Z_j and G_j reach i's z field through S_i = sum_j L_ij G_j,
        # and G_j depends on j's neighbors' Z.  Zero Laplacian entries add
        # exact zeros, so farther nodes leave row i bit-identical.
        rng = np.random.default_rng(62)
        ring = [(i, i % 8 + 1) for i in range(1, 9)]
        for graph in (Graph(8, ring + [(1, 4)]), Graph(6, [(i, i + 1) for i in range(1, 6)])):
            net = random_network(graph, 0.2, rng)
            before = network_fields(net)
            adjacency = (graph.laplacian != 0.0).astype(int)
            within_two = np.linalg.matrix_power(adjacency, 2) > 0
            far_pairs = 0
            for i, j in zip(*np.nonzero(~within_two)):
                mask = [j + 1 in (a, b) for a, b in graph.edges]
                Zj = rng.normal(size=(graph.n, graph.n))
                perturbed = with_node(
                    net, j + 1, mu=5.0, v=-3.0, Z=Zj + Zj.T,
                    W=np.where(mask, rng.uniform(0.0, 1.0, graph.num_edges), 0.0),
                )
                after = network_fields(perturbed)
                for name in before._fields:
                    assert np.array_equal(getattr(before, name)[i], getattr(after, name)[i]), name
                far_pairs += 1
            assert far_pairs > 0

    def test_batched_fields_match_per_node_reference(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            graph = random_connected_graph(rng, min_nodes=2, max_nodes=6)
            net = random_network(graph, float(rng.uniform(0.1, 1.0)), rng)
            batched = network_fields(net)
            for name, expected in zip(batched._fields, reference_fields(net)):
                assert np.abs(getattr(batched, name) - expected).max() <= 1e-12, name

    def test_fields_match_finite_differences(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            graph = random_connected_graph(rng)
            net = random_network(graph, float(rng.uniform(0.3, 1.0)), rng)
            assert worst_field_fd_error(net) <= 1e-5


class TestRound:
    def test_equilibrium_is_fixed_point(self):
        assert_k2_fixed_point(k2_equilibrium(), 0.05)

    def test_fixed_point_check_sees_a_dual_off_by_1e_12(self):
        net = k2_equilibrium()
        with pytest.raises(AssertionError):
            assert_k2_fixed_point(dataclasses.replace(net, v=net.v + 1e-12), 0.05)

    def test_zero_state_dual_update(self):
        # every node starts with empty budget: dv = -1, so v <- -dt
        after, _ = one_round(zero_network(P3), 0.25)
        assert np.array_equal(after.v, np.full(3, -0.25))

    def test_deterministic(self):
        rng = np.random.default_rng(56)
        net = random_network(P3, 1e-2, rng)
        assert_same_state(one_round(net, 1e-2)[0], one_round(net, 1e-2)[0])

    def test_matches_node_fields_applied_in_any_order(self):
        # recompute the round node by node, in reversed order, from the
        # per-node reference fields and the prox/Euler update by hand
        rng = np.random.default_rng(57)
        graph = random_connected_graph(rng, min_nodes=4, max_nodes=4)
        net = random_network(graph, 1e-2, rng)
        dt = 1e-3
        after, _ = one_round(net, dt)
        dmu, dW, dZ, dv = reference_fields(net)
        for i in reversed(range(graph.n)):
            assert after.mu[i] == pytest.approx(net.mu[i] + dt * dmu[i], abs=1e-14)
            W = np.maximum(0.0, net.W[i] + dt * dW[i])
            assert np.abs(after.W[i] - W).max() <= 1e-14
            assert np.abs(after.Z[i] - (net.Z[i] + dt * dZ[i])).max() <= 1e-14
            assert after.v[i] == pytest.approx(net.v[i] + dt * dv[i], abs=1e-14)

    def test_weights_stay_nonnegative_exactly(self):
        rng = np.random.default_rng(58)
        net = random_network(P3, 1e-2, rng)
        for _ in range(200):
            net, _ = one_round(net, 5e-2)
            assert (net.W >= 0.0).all()

    def test_divergence_names_node(self):
        # a huge budget violation overflows the dual update
        net = with_node(zero_network(K2, eps=1e-3), 1, W=[1e308])
        with pytest.raises(DivergenceError, match="node 1"):
            one_round(net, 10.0)

    def test_divergence_names_round_and_node(self):
        # node 3's dual update overflows in round 2, after round 1's residual
        # overflowed its sum of squares; no RuntimeWarning leaks on the way
        net = with_node(zero_network(P4, eps=1e-3), 3, W=[0.0, 1e308, 0.0], v=-1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, history = simulate(P4, 1e-3, SolverConfig(dt=1.5, max_steps=1, tol=1e-30), init=net)
            assert history[-1].residual == np.inf
            with pytest.raises(DivergenceError, match="^round 2: node 3 produced non-finite"):
                simulate(P4, 1e-3, SolverConfig(dt=1.5, max_steps=10, tol=1e-30), init=net)

    def test_non_finite_node_matrix_names_round_and_node(self):
        # the state after round 1 is finite, but node 3's X_3 overflows: the
        # eigensolver's finiteness check fails, not the state's; a non-finite
        # start is bad input, refused before any round
        net = with_node(zero_network(P4, eps=1e-3), 3, W=[0.0, 1e308, 0.0], v=-1.7e308)
        with pytest.raises(DivergenceError, match="^round 1: node 3 produced non-finite") as err:
            simulate(P4, 1e-3, SolverConfig(dt=1.0, max_steps=10, tol=1e-30), init=net)
        assert isinstance(err.value.__cause__.__context__, ValueError)
        with pytest.raises(ValueError, match="^mu must be finite$"):
            with_node(zero_network(P3), 2, mu=np.nan)

    @pytest.mark.parametrize(
        "name, row",
        [
            ("mu", np.inf),
            ("W", [np.nan, 0.0]),  # node 2's contribution to edge 1
            ("Z", np.full((3, 3), -np.inf)),  # symmetric, so only finiteness fails
            ("v", np.nan),
        ],
    )
    def test_non_finite_state_is_rejected_naming_the_array(self, name, row):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            with_node(zero_network(P3), 2, **{name: row})

    def test_overflowing_sum_of_finite_state_keeps_running(self, monkeypatch):
        # every entry stays finite, but the v entries sum past the largest
        # float: each round's cheap sum test fails and the exact check passes
        exact, exact_checks = connectivity._require_finite, []

        def counted(*arrays):
            exact_checks.append(len(arrays))
            exact(*arrays)

        monkeypatch.setattr(connectivity, "_require_finite", counted)
        cfg = SolverConfig(dt=1e-2, max_steps=5, tol=1e-30)
        simulate(P3, 0.1, cfg, init=zero_network(P3, eps=0.1))
        assert exact_checks == []  # a finite sum skips the exact check
        net = dataclasses.replace(zero_network(P3, eps=0.1), v=np.full(3, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            after, history = simulate(P3, 0.1, cfg, init=net)
        assert history[-1].round == 5 and exact_checks == [4] * 5
        for name in ("mu", "W", "Z", "v"):
            assert np.isfinite(getattr(after, name)).all(), name


class TestAssembly:
    def test_zero_contributions(self):
        assert np.array_equal(assemble_weights(zero_network(P3)), [0.0, 0.0])

    def test_p3_optimum_assembly(self):
        W = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        net = dataclasses.replace(zero_network(P3), W=W)
        assert np.allclose(assemble_weights(net), [1.5, 1.5], atol=0)
        assert assembled_connectivity(net) == pytest.approx(1.5, abs=1e-12)

    def test_k2_both_endpoints_contribute(self):
        net = initial_network(K2, 1e-3)  # single incident edge: share = 1
        assert np.array_equal(assemble_weights(net), [2.0])

    def test_contributions_vector_order(self):
        net = initial_network(P3, 1e-3)
        # (node, edge) pairs in order: (1,1), (2,1), (2,2), (3,2)
        assert contributions_vector(net) == (1.0, 0.5, 0.5, 1.0)


class TestObjective:
    def test_all_zero_state(self):
        net = zero_network(P3, eps=0.2)
        assert network_objective(net) == pytest.approx(3 * 0.2 * np.log(3), abs=1e-12)

    def test_aggregate_lagrangian_reduces_to_objective_when_feasible(self):
        net = initial_network(P3, 1e-2)  # budgets hold exactly
        assert aggregate_augmented_lagrangian(net) == pytest.approx(
            network_objective(net), abs=1e-12
        )

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(59)
        net = random_network(P3, 0.5, rng)
        manual = sum(smoothed_max_eig(reference_node_matrix(net, i), 0.5) for i in (1, 2, 3))
        assert network_objective(net) == pytest.approx(manual, abs=1e-12)

    def test_recorded_objective_matches_reference(self):
        # simulate records the objective from the round's own eigenvalues
        graph = example4_graph()
        cfg = SolverConfig(dt=EXAMPLE4_DT, max_steps=300, tol=1e-30, record_stride=100)
        net, hist = simulate(graph, EXAMPLE4_EPS, cfg)
        start = initial_network(graph, EXAMPLE4_EPS)
        assert abs(hist[0].objective - network_objective(start)) <= 1e-12
        assert abs(hist[-1].objective - network_objective(net)) <= 1e-12


class TestSimulate:
    def test_k2_forced_budget(self):
        cfg = SolverConfig(dt=1e-2, max_steps=20_000, tol=1e-6, record_stride=100)
        net, hist = simulate(K2, 1e-3, cfg)
        assert hist[-1].residual <= 1e-6
        assert np.abs(net.W[:, 0] - 1.0).max() <= 1e-5
        assert assemble_weights(net)[0] == pytest.approx(2.0, abs=1e-5)

    def test_history_contains_final_round(self):
        cfg = SolverConfig(dt=1e-2, max_steps=50, tol=1e-30, record_stride=20)
        net, hist = simulate(P3, 1e-2, cfg)
        assert [h.round for h in hist] == [0, 20, 40, 50]
        assert len(hist[0].contributions) == 4

    def test_init_runs_at_eps_argument(self):
        # init supplies the starting arrays; the run uses the eps argument
        cfg = SolverConfig(dt=1e-2, max_steps=5, tol=1e-30)
        warm_net, warm = simulate(P3, 0.5, cfg, init=initial_network(P3, 1e-3))
        cold_net, cold = simulate(P3, 0.5, cfg)
        assert warm[0].objective == cold[0].objective
        assert warm_net.eps == 0.5
        assert_same_state(warm_net, cold_net)

    def test_rounds_match_per_node_reference_loop(self):
        # simulate itself against a plain loop of Euler/prox steps built from
        # the per-node reference fields, from arbitrary starts
        rng = np.random.default_rng(66)
        dt, rounds = 1e-2, 50
        for _ in range(4):
            graph = random_connected_graph(rng, min_nodes=2, max_nodes=5)
            eps = float(rng.uniform(0.1, 1.0))
            net = random_network(graph, eps, rng)
            cfg = SolverConfig(dt=dt, max_steps=rounds, tol=1e-30)
            after, _ = simulate(graph, eps, cfg, init=net)
            for _ in range(rounds):
                dmu, dW, dZ, dv = reference_fields(net)
                net = NetworkState(
                    graph, net.mu + dt * dmu, np.maximum(0.0, net.W + dt * dW),
                    net.Z + dt * dZ, net.v + dt * dv, eps,
                )
            for name in ("mu", "W", "Z", "v"):
                assert np.abs(getattr(after, name) - getattr(net, name)).max() <= 1e-12, name

    def test_rounds_match_a_loop_with_fresh_stacks(self):
        # simulate reuses one set of scratch stacks for G, L G and dZ in every
        # round; network_fields builds new ones for G and again for the
        # fields, so no stack it reads can have been overwritten
        rng = np.random.default_rng(67)
        graph = ring_with_chords(36, 18, rng)
        net = random_network(graph, EXAMPLE4_EPS, rng)
        dt, rounds = EXAMPLE4_DT, 5
        after, _ = simulate(graph, net.eps, SolverConfig(dt=dt, max_steps=rounds, tol=1e-30), init=net)
        for _ in range(rounds):
            dmu, dW, dZ, dv = network_fields(net)
            net = NetworkState(
                graph, net.mu + dt * dmu, np.maximum(0.0, net.W + dt * dW),
                net.Z + dt * dZ, net.v + dt * dv, net.eps,
            )
        assert_same_state(after, net)

    def test_round_allocates_no_stack(self, monkeypatch):
        # the gradient and the fields write into the run's scratch stacks: a
        # round's transient allocations (the peak over the round less the
        # memory held at its start) stay well below two N x N x N stacks
        n, rng = 40, np.random.default_rng(11)
        graph = ring_with_chords(n, 20, rng)
        broadcast, start, transients = connectivity._broadcast, [], []

        def measured(network, tables):
            current, peak = tracemalloc.get_traced_memory()
            if start:
                transients.append(peak - start[-1])
            tracemalloc.reset_peak()
            start.append(current)
            return broadcast(network, tables)

        monkeypatch.setattr(connectivity, "_broadcast", measured)
        config = SolverConfig(dt=EXAMPLE4_DT, max_steps=6, tol=EXAMPLE4_TOL, record_stride=100)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            simulate(graph, EXAMPLE4_EPS, config)
        finally:
            if not tracing:
                tracemalloc.stop()
        # round 0 also records a history row
        assert len(transients) == 6
        assert max(transients[1:]) < 1.5 * n**3 * 8

    def test_init_left_unchanged(self):
        # simulate advances its own copy: init keeps its values and stays
        # read-only, also when the run diverges
        init = random_network(P3, 1e-2, np.random.default_rng(64))
        diverging = with_node(zero_network(K2), 1, W=[1e308])
        copies = [dataclasses.replace(init), dataclasses.replace(diverging)]
        simulate(P3, 1e-2, SolverConfig(dt=1e-2, max_steps=20, tol=1e-30), init=init)
        with pytest.raises(DivergenceError):
            simulate(K2, 1e-3, SolverConfig(dt=10.0, max_steps=1, tol=1e-30), init=diverging)
        for start, copy in zip((init, diverging), copies):
            assert_same_state(start, copy)
            for name in ("mu", "W", "Z", "v"):
                assert not getattr(start, name).flags.writeable, name

    def test_returned_arrays_are_read_only(self):
        net, _ = simulate(P3, 1e-2, SolverConfig(dt=1e-2, max_steps=5, tol=1e-30))
        for name in ("mu", "W", "Z", "v"):
            assert getattr(net, name).flags.writeable is False, name

    def test_runs_from_one_init_agree(self):
        init = random_network(P3, 1e-2, np.random.default_rng(65))
        cfg = SolverConfig(dt=1e-2, max_steps=50, tol=1e-30, record_stride=10)
        first, first_hist = simulate(P3, 1e-2, cfg, init=init)
        second, second_hist = simulate(P3, 1e-2, cfg, init=init)
        assert_same_state(first, second)
        assert first_hist == second_hist

    @pytest.mark.parametrize("integrator", ["heun", "rk4"])
    def test_rejects_an_integrator_other_than_euler(self, integrator):
        # the rounds are Euler steps: an rk4 config ran them without a word
        with pytest.raises(ValueError, match=f"^simulate runs Euler rounds only, not '{integrator}'$"):
            simulate(P3, 1e-2, SolverConfig(max_steps=50, integrator=integrator))

    def test_memory_order_of_init_does_not_matter(self):
        # a Fortran-ordered W was kept as given, so the in-place projection
        # of W.reshape(-1) acted on a copy and was lost
        init = initial_network(P3, 1e-2)
        init = dataclasses.replace(init, v=init.v + 5.0)  # drives contributions onto the bound
        fortran = dataclasses.replace(init, W=np.asfortranarray(init.W), Z=np.asfortranarray(init.Z))
        cfg = SolverConfig(dt=0.5, max_steps=20, tol=1e-30, record_stride=1)
        c_order, history = simulate(P3, 1e-2, cfg, init=init)
        f_order, _ = simulate(P3, 1e-2, cfg, init=fortran)
        assert_same_state(c_order, f_order)
        assert min(history[1].contributions) == 0.0  # the projection was active

    def test_rejects_foreign_init(self):
        cfg = SolverConfig(dt=1e-2, max_steps=10, tol=1e-6)
        init = initial_network(K2, 1e-3)
        with pytest.raises(ValueError, match="different graph"):
            simulate(P3, 1e-3, cfg, init=init)


class TestNetworkStateValidation:
    def test_wrong_weight_keys(self):
        W = np.array([[1.0, 0.5], [0.5, 0.5], [0.0, 1.0]])  # node 1 is not on edge 2
        with pytest.raises(ValueError, match="incident"):
            dataclasses.replace(zero_network(P3), W=W)

    def test_wrong_z_length(self):
        with pytest.raises(ValueError, match="Z must have shape"):
            dataclasses.replace(zero_network(K2), Z=np.zeros((2, 3)))

    def test_asymmetric_z_rejected(self):
        Z = np.zeros((2, 2, 2))
        Z[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            dataclasses.replace(zero_network(K2), Z=Z)

    def test_negative_w_rejected(self):
        # before this check simulate failed in its round-0 history record
        network = initial_network(P3, 1e-3)
        W = np.array(network.W)
        W[0, 0] = -5.0
        with pytest.raises(ValueError, match="^W must be nonnegative$"):
            dataclasses.replace(network, W=W)

    def test_single_node_graph_rejected(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            initial_network(Graph(1, []), 1e-3)

    def test_message_gradient_has_unit_trace(self):
        rng = np.random.default_rng(61)
        net = random_network(P3, 1e-2, rng)
        G = broadcast_of(net)
        assert G.shape == (3, 3, 3)
        assert np.abs(np.trace(G, axis1=1, axis2=2) - 1.0).max() <= 1e-10
