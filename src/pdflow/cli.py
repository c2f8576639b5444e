"""Command-line front end.

Three commands: ``solve`` runs the projected saddle-point flow on a problem
file, ``connectivity`` runs the distributed connectivity maximization on a
graph file, and ``examples`` replays the built-in presets.  Results land in
CSV files; numbers are written with full round-trip precision.

Exit codes: 0 converged, 1 stopped at the step budget, 2 bad input (or an
input too large to allocate), 3 divergence (dt too large).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import connectivity as distnet
from . import presets
from .flow import (
    DivergenceError,
    FlowState,
    Objective,
    ProblemSpec,
    SolverConfig,
    SolveResult,
    solve,
)
from .graphs import Graph, parse_graph
from .sets import Ball, Box, FreeSpace, NonnegativeOrthant, Product, SimpleSet

EXIT_CONVERGED = 0
EXIT_STEP_BUDGET = 1
EXIT_INPUT = 2
EXIT_DIVERGED = 3


def _fmt(x) -> str:
    # repr of a Python float round-trips exactly
    return repr(float(x))


# ---------------------------------------------------------------- problem files

def _parse_bound(value, side: str) -> float:
    if value is None:
        return -np.inf if side == "lower" else np.inf
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return np.inf
        if s in ("-inf", "-infinity"):
            return -np.inf
        raise ValueError(f"bad bound {value!r}; use a number, 'inf', '-inf' or null")
    return float(value)


def parse_set_descriptor(desc) -> SimpleSet:
    """Build a simple set from its JSON descriptor."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise ValueError("set descriptor must be an object with a 'type' key")
    kind = desc["type"]
    if kind in ("free", "nonnegative"):
        return (FreeSpace if kind == "free" else NonnegativeOrthant)(desc["dim"])
    if kind == "box":
        lower = [_parse_bound(v, "lower") for v in desc["lower"]]
        upper = [_parse_bound(v, "upper") for v in desc["upper"]]
        return Box(lower, upper)
    if kind == "ball":
        return Ball(center=desc["center"], radius=desc["radius"])
    if kind == "product":
        return Product(parse_set_descriptor(c) for c in desc["components"])
    raise ValueError(f"unknown set type {kind!r}")


def parse_objective_descriptor(desc) -> Objective:
    if not isinstance(desc, dict) or "type" not in desc:
        raise ValueError("objective must be an object with a 'type' key")
    kind = desc["type"]
    if kind == "linear":
        return Objective.linear(desc["c"])
    if kind == "quadratic":
        if "Q" not in desc:
            raise ValueError("quadratic objective requires a 'Q' matrix")
        return Objective.quadratic(desc["Q"], desc["c"])
    raise ValueError(f"unknown objective type {kind!r}")


def _refuse_booleans(value, key=None) -> None:
    """Refuse a JSON boolean inside an array, which numpy would read as 1 or
    0; ``key`` names the member that holds the array."""
    if isinstance(value, dict):
        for name, item in value.items():
            _refuse_booleans(item, name)
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, bool):
                raise ValueError(f"{key} holds the boolean {json.dumps(item)}; use a number")
            _refuse_booleans(item, key)


def load_problem(path: Path) -> ProblemSpec:
    """Load and validate a JSON problem file."""
    try:
        document = json.loads(path.read_text())
        if not isinstance(document, dict):
            raise ValueError("top level must be an object")
        _refuse_booleans(document)
        objective = parse_objective_descriptor(document["objective"])
        simple_set = parse_set_descriptor(document["set"])
        n = simple_set.dim
        if n == 0:
            raise ValueError("set has dimension 0; a problem needs at least one variable")
        A = np.asarray(document.get("A", []), dtype=float)
        if A.size and A.ndim != 2:
            raise ValueError("A must be a list of rows, one per constraint")
        A = A if A.size else A.reshape(0, n)  # [] means no constraints
        b = np.asarray(document.get("b", []), dtype=float)
        rho = document.get("rho", 1.0)
        return ProblemSpec(objective=objective, A=A, b=b, set=simple_set, rho=rho)
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err}") from err
    except RecursionError:  # from json.loads or parse_set_descriptor
        raise ValueError(f"{path}: nested too deeply") from None
    except (TypeError, ValueError, OverflowError) as err:  # OverflowError: an integer past the float range
        raise ValueError(f"{path}: {err}") from err


# ---------------------------------------------------------------- CSV output

def _write_csv(path: Path, header: list, rows) -> None:
    """Write ``header`` and ``rows`` (sequences of strings) as comma-separated
    lines, each ending in ``\n``."""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_trajectory_csv(path: Path, problem: ProblemSpec, result: SolveResult) -> None:
    n, m = problem.dim, problem.num_constraints
    header = (
        ["t"]
        + [f"x_{i}" for i in range(1, n + 1)]
        + [f"v_{i}" for i in range(1, m + 1)]
        + ["objective", "residual"]
    )
    rows = (
        [_fmt(point.t)]
        + [_fmt(c) for c in point.x]
        + [_fmt(c) for c in point.v]
        + [_fmt(point.objective), _fmt(point.residual)]
        for point in result.trajectory
    )
    _write_csv(path, header, rows)


def write_history_csv(path: Path, graph: Graph, history) -> None:
    header = ["round", "objective", "lambda2", "residual"] + [
        f"w_{i}_{k}" for i in range(1, graph.n + 1) for k in graph.incident_edges(i)
    ]
    rows = (
        [str(point.round), _fmt(point.objective), _fmt(point.lambda2), _fmt(point.residual)]
        + [_fmt(c) for c in point.contributions]
        for point in history
    )
    _write_csv(path, header, rows)


def write_weights_csv(path: Path, network: distnet.NetworkState) -> None:
    header = ["edge", "node_a", "node_b", "contribution_a", "contribution_b", "total"]
    rows = []
    for k, (i, j) in enumerate(network.graph.edges, start=1):
        wa, wb = network.W[i - 1, k - 1], network.W[j - 1, k - 1]
        rows.append([str(k), str(i), str(j), _fmt(wa), _fmt(wb), _fmt(wa + wb)])
    _write_csv(path, header, rows)


# ---------------------------------------------------------------- commands

def _solve_config(args, defaults: SolverConfig) -> SolverConfig:
    """``defaults`` overlaid with the run flags given on the command line
    (each flag's ``dest`` is the name of its ``SolverConfig`` field)."""
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(SolverConfig)}
    return dataclasses.replace(defaults, **{k: v for k, v in given.items() if v is not None})


def _finish(converged, steps, last, wall_time, outputs) -> int:
    """Print the run summary from the run's last recorded row ``last``;
    return the run's exit code."""
    print(f"converged:      {'yes' if converged else 'no'}")
    print(f"steps:          {steps}")
    print(f"final residual: {last.residual:.6e}")
    print(f"objective:      {last.objective:.10g}")
    if hasattr(last, "lambda2"):
        print(f"lambda2:        {last.lambda2:.10g}")
    print(f"wall time:      {wall_time:.2f} s")
    for out in outputs:
        print(f"wrote:          {out}")
    return EXIT_CONVERGED if converged else EXIT_STEP_BUDGET


def _run_solve(problem: ProblemSpec, defaults: SolverConfig, args, stem: str) -> int:
    config = _solve_config(args, defaults)
    n, m = problem.dim, problem.num_constraints
    if args.seed is None:
        init = FlowState(x=np.zeros(n), v=np.zeros(m))
    else:
        rng = np.random.default_rng(args.seed)
        init = FlowState(x=rng.standard_normal(n), v=rng.standard_normal(m))
    args.output.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    result = solve(problem, config, init)
    elapsed = time.perf_counter() - start
    csv_path = args.output / f"{stem}_trajectory.csv"
    write_trajectory_csv(csv_path, problem, result)
    return _finish(result.converged, result.steps_taken, result.trajectory[-1], elapsed, [csv_path])


def _run_connectivity(
    graph: Graph, default_eps: float, defaults: SolverConfig, args, stem: str
) -> int:
    config = _solve_config(args, defaults)
    eps = args.epsilon if args.epsilon is not None else default_eps
    if args.seed is None:
        init = distnet.initial_network(graph, eps)
    else:
        init = distnet.random_network(graph, eps, np.random.default_rng(args.seed))
    args.output.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    network, history = distnet.simulate(graph, eps, config, init=init)
    elapsed = time.perf_counter() - start
    final = history[-1]
    history_path = args.output / f"{stem}_history.csv"
    weights_path = args.output / f"{stem}_weights.csv"
    write_history_csv(history_path, graph, history)
    write_weights_csv(weights_path, network)
    return _finish(
        final.residual <= config.tol, final.round, final, elapsed, [history_path, weights_path]
    )


def cmd_solve(args) -> int:
    return _run_solve(load_problem(args.problem), presets.lp_config(), args, args.problem.stem)


def cmd_connectivity(args) -> int:
    graph = parse_graph(args.graph.read_text())
    return _run_connectivity(
        graph, presets.CONNECTIVITY_EPS, presets.connectivity_config(), args, args.graph.stem
    )


def cmd_examples(args) -> int:
    name = args.name
    unused = "epsilon" if name in ("example1", "example2") else "integrator"
    if getattr(args, unused) is not None:
        raise ValueError(f"--{unused} does not apply to {name}")
    if name in ("example1", "example2"):
        problem = presets.example1_problem() if name == "example1" else presets.example2_problem()
        return _run_solve(problem, presets.lp_config(), args, name)
    if name == "example3":
        graph, default_eps = presets.example3_graph(), presets.CONNECTIVITY_EPS
        config = presets.connectivity_config()
    else:
        graph, default_eps = presets.example4_graph(), presets.EXAMPLE4_EPS
        config = presets.connectivity_config(dt=presets.EXAMPLE4_DT, tol=presets.EXAMPLE4_TOL)
    return _run_connectivity(graph, default_eps, config, args, name)


# ---------------------------------------------------------------- entry point

def seed(text: str) -> int:
    """A ``--seed``; argparse calls one that is not an integer an "invalid seed value"."""
    if int(text) < 0:  # numpy's generators take nonnegative seeds only
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return int(text)


def _add_run_flags(parser, with_integrator=False, with_epsilon=False):
    parser.add_argument("--dt", type=float, default=None, help="integration step size")
    parser.add_argument(
        "--steps", dest="max_steps", metavar="STEPS", type=int, default=None,
        help="maximum number of steps",
    )
    parser.add_argument("--tol", type=float, default=None, help="residual stopping tolerance")
    parser.add_argument("--record-stride", type=int, default=None, help="record every Nth step")
    parser.add_argument("--seed", type=seed, default=None, help="random initialization seed")
    parser.add_argument("--output", type=Path, default=Path("."), help="output directory")
    if with_integrator:
        parser.add_argument("--integrator", choices=["euler", "heun", "rk4"], default=None)
    if with_epsilon:
        parser.add_argument("--epsilon", type=float, default=None, help="eigenvalue smoothing parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdflow",
        description="Projected primal-dual gradient flow solver and distributed "
        "algebraic-connectivity maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file with the projected flow")
    p_solve.add_argument("problem", type=Path, help="JSON problem file")
    _add_run_flags(p_solve, with_integrator=True)
    p_solve.set_defaults(func=cmd_solve)

    p_conn = sub.add_parser("connectivity", help="maximize a graph's algebraic connectivity")
    p_conn.add_argument("graph", type=Path, help="edge-list graph file")
    _add_run_flags(p_conn, with_epsilon=True)
    p_conn.set_defaults(func=cmd_connectivity)

    p_ex = sub.add_parser("examples", help="run a built-in example")
    p_ex.add_argument("name", choices=["example1", "example2", "example3", "example4"])
    _add_run_flags(p_ex, with_integrator=True, with_epsilon=True)
    p_ex.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"error: divergence: {err}", file=sys.stderr)
        print("hint: reduce --dt", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError, MemoryError) as err:  # MemoryError: an input too large
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
