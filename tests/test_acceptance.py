"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Reference values: the five-variable LP optimum -76, the toy LP
saddle (2, 2) with dual 3, and the three-node path optimum lambda2 = 1.5
with per-node contributions (1, 0.5, 0.5, 1).
"""

import time

import numpy as np
import pytest

from conftest import (
    example1_saddle,
    integrator_order_slope,
    lyapunov_distance,
    make_set_variants,
    random_connected_graph,
    sample_in_set,
    stepping,
    strictly_interior,
    tangent_quotient,
    worst_field_fd_error,
)
from pdflow import connectivity as distnet
from pdflow.flow import FlowState, SolverConfig, solve
from pdflow.presets import (
    EXAMPLE2_OPTIMAL_VALUE,
    EXAMPLE4_DT,
    EXAMPLE4_EPS,
    EXAMPLE4_TOL,
    example1_problem,
    example2_problem,
    example3_graph,
    example4_graph,
)


def _report(number, name):
    print(f"\n[criterion {number}] {name}: PASS")


# ------------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def ex2_run():
    problem = example2_problem()
    config = SolverConfig(dt=1e-3, max_steps=500_000, tol=1e-6, record_stride=1000)
    start = time.perf_counter()
    result = solve(problem, config, FlowState(x=np.zeros(5), v=np.zeros(3)))
    elapsed = time.perf_counter() - start
    return problem, config, result, elapsed


@pytest.fixture(scope="module")
def ex2_tight(ex2_run):
    problem, _, result, _ = ex2_run
    config = SolverConfig(dt=1e-3, max_steps=500_000, tol=1e-8, record_stride=1000)
    tight = solve(problem, config, result.final)
    return problem, tight


@pytest.fixture(scope="module")
def ex3_run():
    graph = example3_graph()
    config = SolverConfig(dt=1e-2, max_steps=200_000, tol=1e-4, record_stride=100)
    start = time.perf_counter()
    network, history = distnet.simulate(graph, 1e-3, config)
    elapsed = time.perf_counter() - start
    return graph, network, history, elapsed


@pytest.fixture(scope="module")
def ex4_run():
    graph = example4_graph()
    config = SolverConfig(dt=EXAMPLE4_DT, max_steps=60_000, tol=EXAMPLE4_TOL, record_stride=200)
    network, history = distnet.simulate(graph, EXAMPLE4_EPS, config)
    return graph, network, history


# ------------------------------------------------------------- criteria

def test_criterion_1_example2_lp(ex2_run, ex2_tight):
    problem, config, result, elapsed = ex2_run
    assert result.converged
    value = problem.objective.evaluate(result.final.x)
    assert abs(value - EXAMPLE2_OPTIMAL_VALUE) <= 1e-1
    assert elapsed < 10.0
    _, tight = ex2_tight
    assert tight.converged and tight.residual <= 1e-8
    tight_value = problem.objective.evaluate(tight.final.x)
    assert abs(tight_value - EXAMPLE2_OPTIMAL_VALUE) <= 1e-2
    _report(1, f"example 2 LP value {value:.4f} (tight {tight_value:.5f}), {elapsed:.1f}s")


def test_criterion_2_example1_random_starts():
    problem = example1_problem()
    config = SolverConfig(dt=1e-2, max_steps=50_000, tol=1e-6, record_stride=1000)
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    for _ in range(5):
        # feasible start: first coordinate at least 2, everything else free
        x0 = np.array([2.0 + abs(rng.normal(scale=2.0)), rng.normal(scale=2.0)])
        v0 = rng.normal(scale=2.0, size=1)
        result = solve(problem, config, FlowState(x=x0, v=v0))
        assert result.converged
        assert abs(result.final.x[0] - 2.0) <= 1e-3
        assert abs(result.final.x[1] - 2.0) <= 1e-3
        assert abs(result.final.v[0] - 3.0) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(2, f"example 1 from 5 random feasible starts, {elapsed:.2f}s")


def test_criterion_3_example3_p3(ex3_run):
    graph, network, history, elapsed = ex3_run
    final = history[-1]
    assert final.residual <= 1e-4
    assert elapsed < 30.0
    contributions = {
        (1, 1): network.W[0, 0],
        (2, 1): network.W[1, 0],
        (2, 2): network.W[1, 1],
        (3, 2): network.W[2, 1],
    }
    assert abs(contributions[(1, 1)] - 1.0) <= 0.05
    assert abs(contributions[(3, 2)] - 1.0) <= 0.05
    assert abs(contributions[(2, 1)] - 0.5) <= 0.05
    assert abs(contributions[(2, 2)] - 0.5) <= 0.05
    assert abs(final.lambda2 - 1.5) <= 0.05
    # 2,786 rounds with one OpenBLAS build; another BLAS kernel sums in
    # another order, so the round is pinned within 1%
    assert abs(final.round - 2_786) <= 0.01 * 2_786
    _report(3, f"example 3 lambda2 {final.lambda2:.4f}, contributions ok, {elapsed:.1f}s")


def test_criterion_4_example4_properties(ex4_run):
    graph, network, history = ex4_run
    uniform_lambda2 = distnet.assembled_connectivity(distnet.initial_network(graph, EXAMPLE4_EPS))
    final = history[-1]
    assert final.residual < 1e-3
    objectives = [h.objective for h in history]
    start = max(1, int(0.05 * len(objectives)))
    for a, b in zip(objectives[start:], objectives[start + 1 :]):
        assert b <= a + 1e-12 * (1.0 + abs(a))
    assert final.lambda2 >= uniform_lambda2 - 1e-6
    # 17,316 rounds with one OpenBLAS build; another BLAS kernel sums in
    # another order, so the round is pinned within 1%
    assert abs(final.round - 17_316) <= 0.01 * 17_316
    _report(
        4,
        f"example 4 stops at round {final.round}, residual {final.residual:.2e}, "
        f"lambda2 {final.lambda2:.4f} >= uniform {uniform_lambda2:.4f}, objective monotone",
    )


def test_criterion_5_projection_laws():
    rng = np.random.default_rng(321)
    variants = make_set_variants()
    triples = 0
    for set_ in variants:
        for _ in range(250):
            x_raw = rng.normal(scale=3.0, size=set_.dim)
            y_raw = rng.normal(scale=3.0, size=set_.dim)
            v = rng.normal(scale=2.0, size=set_.dim)
            # idempotence, exactly
            p = set_.project(x_raw)
            assert np.array_equal(set_.project(p), p)
            # nonexpansiveness
            assert (
                np.linalg.norm(set_.project(x_raw) - set_.project(y_raw))
                <= np.linalg.norm(x_raw - y_raw) + 1e-12
            )
            # interior identity and quotient-limit consistency
            x = sample_in_set(set_, rng)
            w = set_.project_tangent(x, v)
            if strictly_interior(set_, x):
                assert np.array_equal(w, v)
            q = tangent_quotient(set_, x, v, 1e-8)
            assert np.linalg.norm(w - q) <= 1e-6 * (1.0 + np.linalg.norm(v))
            triples += 1
    assert triples >= 1000
    _report(5, f"projection laws over {triples} randomized triples")


def test_criterion_6_smoothing_suite():
    from conftest import smoothed_max_eig
    from pdflow.spectral import smoothed_max_eig_grad

    rng = np.random.default_rng(654)
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        X = rng.uniform(-5.0, 5.0, size=(n, n))
        X = (X + X.T) / 2.0
        lam_max = float(np.linalg.eigvalsh(X)[-1])
        for eps in (1.0, 1e-1, 1e-2):
            f = smoothed_max_eig(X, eps)
            assert lam_max - 1e-10 <= f <= lam_max + eps * np.log(n) + 1e-10
    for _ in range(200):
        n = int(rng.integers(2, 9))
        X = rng.uniform(-5.0, 5.0, size=(n, n))
        X = (X + X.T) / 2.0
        G = smoothed_max_eig_grad(X, 0.1)
        assert np.array_equal(G, G.T)
        assert abs(np.trace(G) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(G)[0] >= -1e-10
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(2, 7))
        X = rng.uniform(-5.0, 5.0, size=(n, n))
        X = (X + X.T) / 2.0
        D = rng.uniform(-1.0, 1.0, size=(n, n))
        D = (D + D.T) / 2.0
        eps = float(rng.uniform(0.2, 1.0))
        analytic = float(np.trace(smoothed_max_eig_grad(X, eps) @ D))
        fd = (smoothed_max_eig(X + h * D, eps) - smoothed_max_eig(X - h * D, eps)) / (2 * h)
        assert abs(analytic - fd) <= 1e-5 * (1.0 + abs(analytic))
    n, eps = 5, 0.25
    I = np.eye(n)
    for alpha in np.linspace(0.0, 1.0, 21):
        left = alpha * smoothed_max_eig(I, eps) + (1 - alpha) * smoothed_max_eig(2 * I, eps)
        right = smoothed_max_eig((2 - alpha) * I, eps)
        assert abs(left - right) <= 1e-10
    _report(6, "smoothing suite (sandwich, gradient structure, FD, witness)")


def test_criterion_7_lyapunov_monotonicity(ex2_tight):
    # example 1 against the analytic saddle
    problem = example1_problem()
    saddle = example1_saddle()
    dt = 1e-3
    state = FlowState(x=problem.set.project(np.array([6.0, -2.0])), v=np.array([0.0]))
    d_prev = lyapunov_distance(state, saddle)
    for _, state in zip(range(30_000), stepping(problem, "euler", dt, state)):
        d = lyapunov_distance(state, saddle)
        assert d <= d_prev + 1e-6 * (1.0 + d_prev)
        d_prev = d

    # example 2 against its converged saddle
    problem2, tight = ex2_tight
    saddle2 = tight.final
    state = FlowState(x=problem2.set.project(np.zeros(5)), v=np.zeros(3))
    d_prev = lyapunov_distance(state, saddle2)
    for _, state in zip(range(150_000), stepping(problem2, "euler", dt, state)):
        d = lyapunov_distance(state, saddle2)
        assert d <= d_prev + 1e-6 * (1.0 + d_prev)
        d_prev = d

    # feasibility of every recorded state on both examples
    res1 = solve(
        problem, SolverConfig(dt=dt, max_steps=20_000, tol=1e-8, record_stride=100),
        FlowState(x=np.array([6.0, -2.0]), v=np.array([0.0])),
    )
    for point in res1.trajectory:
        assert problem.set.contains(point.x, tol=1e-12)
    assert all(problem2.set.contains(p.x, tol=1e-12) for p in tight.trajectory)
    _report(7, "Lyapunov distance nonincreasing; recorded states feasible")


def test_criterion_8_distributed_gradient_oracle():
    rng = np.random.default_rng(987)
    states = 0
    worst = 0.0
    while states < 100:
        graph = random_connected_graph(rng, min_nodes=2, max_nodes=4)
        eps = float(rng.uniform(0.25, 1.0))
        network = distnet.random_network(graph, eps, rng)
        err = worst_field_fd_error(network)
        worst = max(worst, err)
        assert err <= 1e-5
        states += 1
    _report(8, f"distributed fields match FD oracle on 100 states (worst {worst:.2e})")


# -------------------------------------------- converged-state invariants

def test_invariant_budget_decay(ex3_run, ex4_run):
    # the total budget violation at the final state sits below the stop tol
    for run, tol in ((ex3_run, 1e-4), (ex4_run, 1e-3)):
        network = run[1]
        violation = np.abs(network.budget_violation()).sum()
        assert violation <= tol


def test_invariant_smoothing_gap(ex3_run, ex4_run):
    # |assembled lambda2 - (-objective)| bounded by the summed smoothing gap
    for run, eps, tol in ((ex3_run, 1e-3, 1e-4), (ex4_run, EXAMPLE4_EPS, EXAMPLE4_TOL)):
        network, history = run[1], run[2]
        n = network.graph.n
        final = history[-1]
        assert abs(final.lambda2 - (-final.objective)) <= n * eps * np.log(n) + tol


def test_invariant_lambda2_never_below_uniform(ex3_run):
    graph, network, history, _ = ex3_run
    uniform = distnet.assembled_connectivity(distnet.initial_network(graph, 1e-3))
    assert history[-1].lambda2 >= uniform - 1e-6


def test_invariant_objective_settles(ex3_run):
    # the path-graph objective converges through a damped oscillation (it
    # undershoots the optimum), so monotonicity is checked on example 4 only
    # (criterion 4); here the tail must have stopped moving
    _, _, history, _ = ex3_run
    objectives = [h.objective for h in history]
    tail = objectives[-max(2, len(objectives) // 10) :]
    assert max(tail) - min(tail) <= 1e-3


def test_criterion_9_integrator_orders():
    slopes = {}
    for name, nominal in (("euler", 1.0), ("heun", 2.0), ("rk4", 4.0)):
        slope = integrator_order_slope(name)
        assert abs(slope - nominal) <= 0.4
        slopes[name] = slope
    _report(
        9,
        "integrator orders euler %.2f / heun %.2f / rk4 %.2f"
        % (slopes["euler"], slopes["heun"], slopes["rk4"]),
    )
