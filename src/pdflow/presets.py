"""Built-in demonstration problems.

Two small linear programs (a scalar toy with one bound and a five-variable
LP with known optimal value -76) and two connectivity-maximization graphs
(the three-node path whose optimum is lambda2 = 1.5, and a ten-node
network).
"""

from __future__ import annotations

import numpy as np

from .flow import Objective, ProblemSpec, SolverConfig
from .graphs import Graph, parse_graph
from .sets import Box, NonnegativeOrthant


def example1_problem() -> ProblemSpec:
    """minimize x + 3y  subject to  x = y,  x >= 2."""
    return ProblemSpec(
        objective=Objective.linear([1.0, 3.0]),
        A=np.array([[1.0, -1.0]]),
        b=np.array([0.0]),
        set=Box(lower=[2.0, -np.inf], upper=[np.inf, np.inf]),
    )


def example2_problem() -> ProblemSpec:
    """Five-variable LP over the nonnegative orthant; optimal value -76."""
    A = np.array(
        [
            [-3.0, 1.0, 1.0, -1.0, 2.0],
            [2.0, 0.0, -1.0, 1.0, -1.0],
            [0.0, 1.0, 2.0, -1.0, 1.0],
        ]
    )
    b = np.array([5.0, 6.0, 3.0])
    c = np.array([2.0, 1.0, -1.0, -3.0, 1.0])
    return ProblemSpec(
        objective=Objective.linear(c), A=A, b=b, set=NonnegativeOrthant(5)
    )


EXAMPLE2_OPTIMAL_VALUE = -76.0

P3_GRAPH_TEXT = "3\n1 2\n2 3\n"

# Stand-in 10-node topology: a ring with four chords.
EXAMPLE4_GRAPH_TEXT = """\
10
1 2
2 3
3 4
4 5
5 6
6 7
7 8
8 9
9 10
1 10
1 5
2 7
4 9
6 10
"""


def example3_graph() -> Graph:
    return parse_graph(P3_GRAPH_TEXT)


def example4_graph() -> Graph:
    return parse_graph(EXAMPLE4_GRAPH_TEXT)


def lp_config(**overrides) -> SolverConfig:
    """Solver defaults for the linear programs."""
    params = dict(dt=1e-3, max_steps=500_000, tol=1e-6, integrator="euler", record_stride=100)
    params.update(overrides)
    return SolverConfig(**params)


def connectivity_config(**overrides) -> SolverConfig:
    """Solver defaults for the connectivity application."""
    params = dict(dt=1e-2, max_steps=200_000, tol=1e-4, integrator="euler", record_stride=100)
    params.update(overrides)
    return SolverConfig(**params)


CONNECTIVITY_EPS = 1e-3

# The ten-node example maximizes lambda2 at an eigenvalue crossing, where the
# smoothed objective's curvature grows like 1/eps; a heavier smoothing with a
# matched step keeps the forward-Euler rounds stable and the stop residual
# reachable.  (The three-node path has a simple optimal lambda2 and runs fine
# at the tighter defaults above.)
EXAMPLE4_EPS = 0.05
EXAMPLE4_DT = 4e-3
EXAMPLE4_TOL = 1e-3
