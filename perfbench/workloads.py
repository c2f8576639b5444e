"""The four benchmark workloads: how each makes its inputs, runs one op and
checks the answer.

An op is one ``solve()`` or ``simulate()`` call plus writing the CSV files
the command line would write.  ``generate`` is the load generator: it turns
the seed into raw arrays and text before any pdflow code runs.  ``build`` is
the program's set-up: it turns those into pdflow objects and is timed as
``setup_s``.  ``check`` returns the reasons an op's answer is wrong, empty
when it is right.  Why each workload was chosen, and the layer it stresses,
is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np


@dataclass(frozen=True)
class Outcome:
    """What an op produced, compared bit for bit between traced and untraced ops."""

    iters: int
    residual: float
    lambda2: float | None = None


# ---------------------------------------------------------------- solve


@dataclass(frozen=True)
class FlowInputs:
    problem: Any
    config: Any
    init: Any


class FlowWorkload:
    """An op is ``pdflow.flow.solve`` plus the trajectory CSV."""

    root_span: ClassVar[str] = "flow.solve"
    stem: ClassVar[str] = "problem"

    def run(self, program, inputs):
        return program.flow.solve(inputs.problem, inputs.config, inputs.init)

    def write(self, program, inputs, result, out_dir) -> int:
        program.cli.write_trajectory_csv(
            out_dir / f"{self.stem}_trajectory.csv", inputs.problem, result
        )
        return len(result.trajectory)

    def outcome(self, result) -> Outcome:
        return Outcome(iters=result.steps_taken, residual=result.residual)

    def check(self, program, inputs, result) -> list:
        if not result.converged:
            return [f"not converged after {result.steps_taken} steps"]
        return []


@dataclass(frozen=True)
class Lp5Euler(FlowWorkload):
    """Example 2 from a seeded normal start, as ``pdflow examples example2 --seed``."""

    name: ClassVar[str] = "lp5-euler"
    max_steps: int = 500_000
    warmup_steps: int = 2_000

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"x0": rng.standard_normal(5), "v0": rng.standard_normal(3)}

    def build(self, program, raw, tracer) -> FlowInputs:
        return FlowInputs(
            problem=program.presets.example2_problem(),
            config=program.presets.lp_config(max_steps=self.max_steps),
            init=program.flow.FlowState(x=raw["x0"], v=raw["v0"]),
        )

    def warmup(self) -> "Lp5Euler":
        return dataclasses.replace(self, max_steps=self.warmup_steps)

    def check(self, program, inputs, result) -> list:
        problems = super().check(program, inputs, result)
        x = result.final.x
        value = float(inputs.problem.objective.evaluate(x))
        optimum = program.presets.EXAMPLE2_OPTIMAL_VALUE
        if not abs(value - optimum) <= 1e-3:
            problems.append(f"objective {value!r} is not within 1e-3 of {optimum!r}")
        if not np.all(x >= 0.0):
            problems.append("final x leaves the nonnegative orthant")
        return problems


def qp_instance(n: int, m: int, seed: int) -> dict:
    """Strictly convex QP over Box[-1,1]^k x Ball(0,1) x Orthant^k (k = n/3).

    ``Q = M M^T / n + 0.1 I`` and ``b = A x_interior`` for a point strictly
    inside the product set, so the problem is feasible with a unique optimum.
    """
    if n % 3:
        raise ValueError("n must split into three equal blocks")
    rng = np.random.default_rng(seed)
    k = n // 3
    M = rng.standard_normal((n, n))
    d = rng.standard_normal(k)
    interior = np.concatenate(
        [rng.uniform(-0.5, 0.5, k), 0.5 * d / np.linalg.norm(d), rng.uniform(0.1, 1.0, k)]
    )
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    return {
        "k": k,
        "Q": M @ M.T / n + 0.1 * np.eye(n),
        "c": rng.standard_normal(n),
        "A": A,
        "b": A @ interior,
    }


@dataclass(frozen=True)
class Qp600Rk4(FlowWorkload):
    """A seeded start on a fixed QP instance, integrated with RK4.

    The instance is drawn once from ``instance_seed``; ``--seed`` draws the
    start.  Different instances need 2,650 to 3,200 steps to reach the
    tolerance, a spread that would hide any per-step change, while different
    starts on one instance move the step count by about 1%.
    """

    name: ClassVar[str] = "qp600-rk4"
    instance_seed: ClassVar[int] = 600
    dt: ClassVar[float] = 0.05
    tol: ClassVar[float] = 1e-6
    n: int = 600
    m: int = 100
    max_steps: int = 20_000
    warmup_steps: int = 20

    def generate(self, seed: int) -> dict:
        raw = qp_instance(self.n, self.m, self.instance_seed)
        rng = np.random.default_rng(seed)
        raw["x0"] = rng.standard_normal(self.n)
        raw["v0"] = rng.standard_normal(self.m)
        return raw

    def build(self, program, raw, tracer) -> FlowInputs:
        sets, flow = program.sets, program.flow
        k = raw["k"]
        product = sets.Product(
            [
                sets.Box(-np.ones(k), np.ones(k)),
                sets.Ball(np.zeros(k), 1.0),
                sets.NonnegativeOrthant(k),
            ]
        )
        return FlowInputs(
            problem=flow.ProblemSpec(
                objective=flow.Objective.quadratic(raw["Q"], raw["c"]),
                A=raw["A"],
                b=raw["b"],
                set=product,
            ),
            config=flow.SolverConfig(
                dt=self.dt, tol=self.tol, integrator="rk4", max_steps=self.max_steps
            ),
            init=flow.FlowState(x=raw["x0"], v=raw["v0"]),
        )

    def warmup(self) -> "Qp600Rk4":
        return dataclasses.replace(self, max_steps=self.warmup_steps)

    def check(self, program, inputs, result) -> list:
        problems = super().check(program, inputs, result)
        if not inputs.problem.set.contains(result.final.x, 1e-9):
            # the KKT residual is only defined on the set
            return problems + ["final x lies outside the set by more than 1e-9"]
        residual = program.flow.kkt_residual(inputs.problem, result.final)
        if not residual <= inputs.config.tol:
            problems.append(f"recomputed KKT residual {residual!r} exceeds tol")
        return problems


# ---------------------------------------------------------------- simulate


@dataclass(frozen=True)
class NetworkInputs:
    graph: Any
    eps: float
    config: Any
    init: Any


class NetworkWorkload:
    """An op is ``pdflow.connectivity.simulate`` for a fixed number of rounds
    from the default start, plus the history and weights CSVs.

    Both graphs use Example 4's smoothing, step and stop tolerance from
    ``pdflow.presets``, as ``pdflow examples example4`` does.  The tolerance
    is never reached in the round budget, so every op runs exactly
    ``rounds`` rounds.  Subclasses are dataclasses with ``rounds`` and
    ``warmup_rounds`` fields.
    """

    root_span: ClassVar[str] = "connectivity.simulate"
    stem: ClassVar[str] = "graph"
    # λ2 rises monotonically only from the default start of Example 4
    require_lambda2_rise: ClassVar[bool] = False

    def graph_text(self, program, raw) -> str:
        return raw["graph_text"]

    def build(self, program, raw, tracer) -> NetworkInputs:
        presets = program.presets
        text = self.graph_text(program, raw)
        graph = tracer.call("graphs.build", program.graphs.parse_graph, text)
        return NetworkInputs(
            graph=graph,
            eps=presets.EXAMPLE4_EPS,
            config=presets.connectivity_config(
                dt=presets.EXAMPLE4_DT, tol=presets.EXAMPLE4_TOL, max_steps=self.rounds
            ),
            init=program.connectivity.initial_network(graph, presets.EXAMPLE4_EPS),
        )

    def warmup(self):
        return dataclasses.replace(self, rounds=self.warmup_rounds)

    def run(self, program, inputs):
        return program.connectivity.simulate(
            inputs.graph, inputs.eps, inputs.config, init=inputs.init
        )

    def write(self, program, inputs, result, out_dir) -> int:
        network, history = result
        program.cli.write_history_csv(out_dir / f"{self.stem}_history.csv", inputs.graph, history)
        program.cli.write_weights_csv(out_dir / f"{self.stem}_weights.csv", network)
        return len(history) + inputs.graph.num_edges

    def outcome(self, result) -> Outcome:
        last = result[1][-1]
        return Outcome(iters=last.round, residual=last.residual, lambda2=last.lambda2)

    def check(self, program, inputs, result) -> list:
        network, history = result
        first, last = history[0], history[-1]
        problems = []
        if last.round != self.rounds:
            problems.append(f"ran {last.round} rounds, expected {self.rounds}")
        if min(min(point.contributions) for point in history) < 0.0:
            problems.append("a weight contribution went negative")
        if not last.residual < first.residual:
            problems.append(f"residual {last.residual!r} did not fall below {first.residual!r}")
        graphs = program.graphs
        lambda2 = graphs.algebraic_connectivity(
            graphs.weighted_laplacian(inputs.graph, program.connectivity.assemble_weights(network))
        )
        if lambda2 != last.lambda2:
            problems.append(f"recomputed lambda2 {lambda2!r} != history {last.lambda2!r}")
        if self.require_lambda2_rise and not last.lambda2 > first.lambda2:
            problems.append(f"lambda2 {last.lambda2!r} did not rise above {first.lambda2!r}")
        return problems

    @staticmethod
    def msg_floats_per_round(graph) -> int:
        """Floats sent per round: every node sends its Z and its gradient G,
        two symmetric N x N matrices of N(N+1)/2 entries, to each neighbour."""
        n = graph.n
        return sum(graph.degree(i) for i in range(1, n + 1)) * n * (n + 1)


@dataclass(frozen=True)
class ConnRing10(NetworkWorkload):
    """Example 4's ten-node graph; the seed is unused."""

    name: ClassVar[str] = "conn-ring10"
    require_lambda2_rise: ClassVar[bool] = True
    rounds: int = 3_000
    warmup_rounds: int = 50

    def generate(self, seed: int) -> dict:
        return {}

    def graph_text(self, program, raw) -> str:
        return program.presets.EXAMPLE4_GRAPH_TEXT


def ring_with_chords(n: int, chords: int, seed: int) -> str:
    """Graph file text: the ring 1..n plus ``chords`` distinct random chords."""
    rng = np.random.default_rng(seed)
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    seen = {tuple(sorted(e)) for e in edges}
    while len(edges) < n + chords:
        i, j = sorted(int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        if (i, j) not in seen:
            seen.add((i, j))
            edges.append((i, j))
    return f"{n}\n" + "".join(f"{i} {j}\n" for i, j in edges)


@dataclass(frozen=True)
class ConnN40(NetworkWorkload):
    """A ring of 40 plus 20 chords drawn from the seed."""

    name: ClassVar[str] = "conn-n40"
    nodes: ClassVar[int] = 40
    chords: ClassVar[int] = 20
    rounds: int = 200
    warmup_rounds: int = 5

    def generate(self, seed: int) -> dict:
        return {"graph_text": ring_with_chords(self.nodes, self.chords, seed)}


WORKLOADS = {w.name: w for w in (Lp5Euler(), Qp600Rk4(), ConnRing10(), ConnN40())}
