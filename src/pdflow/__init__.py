"""Projected primal-dual gradient flow for constrained convex optimization.

The solver handles problems of the form

    minimize f(x)  subject to  A x = b,  x in K,

where K is a simple convex set with a cheap projection, by following the
saddle-point flow of the augmented Lagrangian with the primal velocity
projected onto the tangent cone of K.  On top of it sits a distributed
algorithm that maximizes the algebraic connectivity of a graph by letting
each node tune its edge-weight contributions through synchronous
message-passing rounds.
"""

from .flow import (
    DivergenceError,
    FlowState,
    Objective,
    ProblemSpec,
    SolveResult,
    SolverConfig,
    euler_step,
    heun_step,
    kkt_residual,
    rk4_step,
    solve,
)
from .graphs import (
    Graph,
    algebraic_connectivity,
    parse_graph,
    weighted_laplacian,
)
from .sets import (
    Ball,
    Box,
    FreeSpace,
    NonnegativeOrthant,
    Product,
    SimpleSet,
)
from .spectral import (
    smoothed_max_eig,
    smoothed_max_eig_grad,
    symmetrize,
)
from .connectivity import (
    NetworkState,
    assemble_weights,
    assembled_connectivity,
    initial_network,
    node_matrices,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "FlowState",
    "Objective",
    "ProblemSpec",
    "SolveResult",
    "SolverConfig",
    "euler_step",
    "heun_step",
    "kkt_residual",
    "rk4_step",
    "solve",
    "Graph",
    "algebraic_connectivity",
    "parse_graph",
    "weighted_laplacian",
    "Ball",
    "Box",
    "FreeSpace",
    "NonnegativeOrthant",
    "Product",
    "SimpleSet",
    "smoothed_max_eig",
    "smoothed_max_eig_grad",
    "symmetrize",
    "NetworkState",
    "assemble_weights",
    "assembled_connectivity",
    "initial_network",
    "node_matrices",
    "simulate",
]
