"""Saddle-point flow: field values, integrators, residuals, convergence.

The LP reference values come from the two demonstration problems; the
integrator orders are checked against a matrix-exponential oracle on an
unconstrained linear saddle system.
"""

import contextlib
import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import (
    STEPPERS,
    augmented_lagrangian,
    dual_field,
    euler_step,
    example1_saddle,
    integrator_order_slope,
    lagrangian,
    lyapunov_distance,
    primal_field,
    reference_steps,
    saddle_global_error,
    stepping,
)
from pdflow import flow
from pdflow.flow import (
    DivergenceError,
    FlowState,
    Objective,
    ProblemSpec,
    SolverConfig,
    _integrator,
    _product,
    _residual,
    _residual_gate,
    _row_norms,
    kkt_residual,
    solve,
)
from pdflow.presets import (
    EXAMPLE2_OPTIMAL_VALUE,
    example1_problem,
    example2_problem,
    lp_config,
)
from pdflow.sets import Ball, Box, FreeSpace, NonnegativeOrthant, Product


def quadratic_free_problem(q=1.0, a=1.0, b0=1.0, rho=1.0):
    """One primal, one dual variable, no set constraint: a 2x2 linear system."""
    return ProblemSpec(
        objective=Objective.quadratic(np.array([[q]]), np.zeros(1)),
        A=np.array([[a]]),
        b=np.array([b0]),
        set=FreeSpace(1),
        rho=rho,
    )


def third_coordinate_problem():
    """min x_2^2 / 2 over the free space, with one all-zero constraint row:
    only x[2] moves, and 0 * inf in the constraint row spreads NaNs."""
    return ProblemSpec(
        objective=Objective.quadratic(np.diag([0.0, 0.0, 1.0]), np.zeros(3)),
        A=np.zeros((1, 3)),
        b=np.zeros(1),
        set=FreeSpace(3),
    )


def softplus_problem():
    """min sum_i log(1 + e^x_i) s.t. x_1 + x_2 + x_3 = 1 over [-2, 2]^2 x [0.5, 2].

    The objective is given only by callables.  The optimum is
    x = (0.25, 0.25, 0.5) with dual v = -sigmoid(0.25): the first two
    coordinates are interior with sigmoid(x_i) = -v, and the third sits on
    its lower bound since sigmoid(0.5) + v > 0.
    """
    return ProblemSpec(
        objective=Objective(
            evaluate=lambda x: float(np.logaddexp(0.0, x).sum()),
            gradient=lambda x: 1.0 / (1.0 + np.exp(-x)),
        ),
        A=np.ones((1, 3)),
        b=np.ones(1),
        set=Box(lower=[-2.0, -2.0, 0.5], upper=[2.0, 2.0, 2.0]),
    )


def product_qp():
    """A strictly convex QP over [-0.5, 0.5]^2 x Ball(0, 0.6) x R_+^2 with two
    equality constraints, whose optimum sits on the Box's upper bound, on
    the sphere and on both of the orthant's bounds."""
    rng = np.random.default_rng(5)
    M = rng.normal(size=(6, 6))
    objective = Objective.quadratic(M @ M.T / 6 + 0.1 * np.eye(6), 3.0 * rng.normal(size=6))
    A = rng.normal(size=(2, 6))
    return ProblemSpec(
        objective=objective,
        A=A,
        b=A @ [0.2, -0.3, 0.3, 0.1, 0.5, 0.2],
        set=Product([Box([-0.5, -0.5], [0.5, 0.5]), Ball([0.0, 0.0], 0.6), NonnegativeOrthant(2)]),
    )


def central_difference(f, x, h=1e-5):
    """Gradient of the scalar function ``f`` at ``x`` by central differences."""
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


def iterate_until_within_tol(problem, integrator, state, dt, tol):
    """Steps taken one at a time until kkt_residual <= tol: (state, steps)."""
    steps, states = 0, stepping(problem, integrator, dt, state)
    while kkt_residual(problem, state) > tol:
        state = next(states)
        steps += 1
    return state, steps


class TestObjective:
    def test_linear_value_and_gradient(self):
        f = Objective.linear([1.0, 3.0])
        x = np.array([2.0, 2.0])
        assert f.evaluate(x) == 8.0
        assert np.array_equal(f.gradient(x), [1.0, 3.0])

    def test_quadratic_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Objective.quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    def test_quadratic_rejects_asymmetric_entries_near_float_limit_without_warning(self):
        # Q - Q^T overflowed here and warned before the refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Q is not symmetric"):
                Objective.quadratic([[0.0, 1e308], [-1e308, 0.0]], [0.0, 0.0])

    def test_quadratic_psd_margin_scales_with_the_top_eigenvalue(self):
        # lambda_min = -5e-9 is within 1e-9 (1 + lambda_max), lambda_max ~ 10
        Objective.quadratic(np.ones((10, 10)) - 5e-9 * np.eye(10), np.zeros(10))
        with pytest.raises(ValueError, match="Q is not positive semidefinite"):
            Objective.quadratic(np.ones((10, 10)) - 2e-8 * np.eye(10), np.zeros(10))

    def test_quadratic_rejects_indefinite(self):
        with pytest.raises(ValueError):
            Objective.quadratic(np.array([[-1.0]]), np.zeros(1))

    def test_rejects_non_finite_data(self):
        # a NaN in Q makes every comparison of the symmetry check false
        with pytest.raises(ValueError, match="Q must be finite"):
            Objective.quadratic(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="c must be finite"):
            Objective.quadratic(np.eye(2), np.array([0.0, np.inf]))
        with pytest.raises(ValueError, match="c must be finite"):
            Objective.linear([1.0, np.nan])

    def test_quadratic_symmetrizes_without_overflow(self):
        # (Q + Q^T) / 2 overflows here; the checked average halves first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = Objective.quadratic([[1e308]], [0.0])
        assert np.array_equal(f.Q, [[1e308]])

    def test_keeps_read_only_copies(self):
        Q, c = np.eye(2), np.ones(2)
        quadratic = Objective.quadratic(Q, c)
        for f in (quadratic, Objective.linear(c)):
            assert not f.c.flags.writeable and not np.shares_memory(f.c, c)
        assert not quadratic.Q.flags.writeable and not np.shares_memory(quadratic.Q, Q)
        Q[0, 0] = c[0] = 5.0  # the caller's arrays stay writable

    @pytest.mark.parametrize(
        "objective,dim",
        [
            (Objective.linear([1.0, -2.0, 0.5]), 3),
            (Objective.quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])), 2),
        ],
    )
    def test_gradient_matches_central_difference(self, objective, dim):
        rng = np.random.default_rng(41)
        for _ in range(100):
            x = rng.normal(scale=3.0, size=dim)
            g = objective.gradient(x)
            for i in range(dim):
                h = 1e-6 * (1.0 + abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (objective.evaluate(xp) - objective.evaluate(xm)) / (2 * h)
                assert abs(g[i] - fd) <= 1e-6 * (1.0 + abs(g[i]))


class TestProblemSpec:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            ProblemSpec(
                objective=Objective.linear([1.0, 2.0]),
                A=np.ones((1, 3)),
                b=np.zeros(1),
                set=FreeSpace(2),
            )
        with pytest.raises(ValueError, match=r"c must have 2 entries, got shape \(3,\)"):
            ProblemSpec(
                objective=Objective.linear([1.0, 2.0, 3.0]),
                A=np.zeros((0, 2)),
                b=np.zeros(0),
                set=FreeSpace(2),
            )
        for make in (lambda: Objective.linear(5.0), lambda: Objective.quadratic([[1.0]], 5.0)):
            with pytest.raises(ValueError, match="c must be a vector"):
                make()

    def test_rejects_a_non_matrix_A(self):
        with pytest.raises(ValueError, match="^A must be a matrix$"):
            ProblemSpec(
                objective=Objective.linear([1.0, 2.0]), A=np.ones(2), b=np.ones(1), set=FreeSpace(2)
            )

    def test_rho_positive(self):
        with pytest.raises(ValueError):
            ProblemSpec(
                objective=Objective.linear([1.0]),
                A=np.zeros((0, 1)),
                b=np.zeros(0),
                set=FreeSpace(1),
                rho=0.0,
            )

    @pytest.mark.parametrize(
        "field,value",
        [("A", np.array([[1.0, np.nan]])), ("b", np.array([np.inf])), ("rho", np.inf)],
    )
    def test_rejects_non_finite_data(self, field, value):
        data = dict(A=np.ones((1, 2)), b=np.ones(1), rho=1.0)
        data[field] = value
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            ProblemSpec(objective=Objective.linear([1.0, 2.0]), set=FreeSpace(2), **data)


class TestLagrangians:
    def test_example1_saddle_value(self):
        p = example1_problem()
        assert lagrangian(p, np.array([2.0, 2.0]), np.array([3.0])) == pytest.approx(8.0, abs=1e-12)

    def test_feasible_point_equals_objective(self):
        p = example1_problem()
        x = np.array([4.0, 4.0])
        assert lagrangian(p, x, np.array([17.0])) == pytest.approx(p.objective.evaluate(x), abs=1e-12)
        assert augmented_lagrangian(p, x, np.array([17.0])) == pytest.approx(
            p.objective.evaluate(x), abs=1e-12
        )

    def test_zero_dual_is_objective(self):
        p = example1_problem()
        x = np.array([3.0, 1.0])
        assert lagrangian(p, x, np.zeros(1)) == pytest.approx(p.objective.evaluate(x), abs=1e-12)

    def test_augmented_hand_value(self):
        # f = 6, violation 2, penalty 0.5 * 4 = 2
        p = example1_problem()
        assert augmented_lagrangian(p, np.array([3.0, 1.0]), np.zeros(1)) == pytest.approx(8.0, abs=1e-12)

    def test_penalty_linear_in_rho(self):
        p1 = example1_problem()
        p2 = ProblemSpec(objective=p1.objective, A=p1.A, b=p1.b, set=p1.set, rho=2.0)
        x, v = np.array([3.0, 1.0]), np.array([0.5])
        pen1 = augmented_lagrangian(p1, x, v) - lagrangian(p1, x, v)
        pen2 = augmented_lagrangian(p2, x, v) - lagrangian(p2, x, v)
        assert pen2 == pytest.approx(2.0 * pen1, abs=1e-12)


class TestFields:
    def test_primal_field_zero_at_saddle(self):
        p = example1_problem()
        s = example1_saddle()
        assert np.linalg.norm(primal_field(p, s.x, s.v)) <= 1e-14

    def test_interior_unprojected(self):
        p = example1_problem()
        x = np.array([5.0, 1.0])  # interior of the box
        v = np.zeros(1)
        expected = -p.objective.gradient(x) - p.A.T @ (p.A @ x - p.b)
        assert np.allclose(primal_field(p, x, v), expected, atol=1e-14)

    def test_unconstrained_gradient_descent(self):
        p = ProblemSpec(
            objective=Objective.quadratic(np.eye(2), np.zeros(2)),
            A=np.zeros((0, 2)),
            b=np.zeros(0),
            set=FreeSpace(2),
        )
        x = np.array([1.0, -2.0])
        assert np.array_equal(primal_field(p, x, np.zeros(0)), -x)
        assert dual_field(p, x).shape == (0,)

    def test_dual_field_hand_value(self):
        p = example1_problem()
        assert np.array_equal(dual_field(p, np.array([3.0, 1.0])), [2.0])
        assert np.array_equal(dual_field(p, np.array([4.0, 4.0])), [0.0])

    @pytest.mark.parametrize("rho", [0.5, 2.0])
    def test_fields_are_augmented_lagrangian_gradients(self, rho):
        # with a nonzero dual point this pins every block of the stacked
        # kernel: -A^T v, the rho scaling of A^T A, and A x - b in the dual
        # row, which the Euler step applies
        rng = np.random.default_rng(44)
        n, m, dt = 4, 2, 1e-3
        for _ in range(20):
            M = rng.normal(size=(n, n))
            p = ProblemSpec(
                objective=Objective.quadratic(M @ M.T, rng.normal(size=n)),
                A=rng.normal(size=(m, n)),
                b=rng.normal(size=m),
                set=FreeSpace(n),
                rho=rho,
            )
            x, v = rng.normal(size=n), rng.normal(size=m)
            grad_x = central_difference(lambda y: augmented_lagrangian(p, y, v), x)
            grad_v = central_difference(lambda u: augmented_lagrangian(p, x, u), v)
            step = euler_step(p, FlowState(x=x, v=v), dt)
            for got, want in [
                (primal_field(p, x, v), -grad_x),
                (dual_field(p, x), grad_v),
                ((step.x - x) / dt, -grad_x),
                ((step.v - v) / dt, grad_v),
            ]:
                assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


class TestSteps:
    def test_equilibrium_is_fixed_point(self):
        p = example1_problem()
        s = example1_saddle()
        for stepper in STEPPERS.values():
            nxt = stepper(p, s, 0.1)
            assert np.linalg.norm(nxt.x - s.x) <= 1e-12
            assert np.linalg.norm(nxt.v - s.v) <= 1e-12

    def test_euler_hand_computed(self):
        # from x=(2,2), v=0, dt=0.1: y=(1,3), clip brings x back to the bound
        p = example1_problem()
        s = FlowState(x=np.array([2.0, 2.0]), v=np.array([0.0]))
        nxt = euler_step(p, s, 0.1)
        assert np.allclose(nxt.x, [2.0, 1.7], atol=1e-15)
        assert np.array_equal(nxt.v, [0.0])
        assert nxt.t == pytest.approx(0.1)

    def test_zero_dt_is_identity(self):
        p = example1_problem()
        s = FlowState(x=np.array([3.0, 1.0]), v=np.array([0.5]))
        for stepper in STEPPERS.values():
            nxt = stepper(p, s, 0.0)
            assert np.array_equal(nxt.x, s.x)
            assert np.array_equal(nxt.v, s.v)

    def test_euler_matches_proximal_reference(self):
        # x+ = P_K(x - dt grad_x L_rho(x, v)) and v+ = v + dt (A x - b), from
        # the problem data, on every set type and objective kind; dt
        # alternates on each problem, so a map kept for another dt would show
        rng = np.random.default_rng(47)
        n, m = 4, 2
        Q = rng.normal(size=(n, n))
        objectives = {
            "linear": Objective.linear(rng.normal(size=n)),
            "quadratic": Objective.quadratic(Q @ Q.T, rng.normal(size=n)),
            "callable": softplus_problem().objective,  # gradient not in the kernel
        }
        sets = [
            FreeSpace(n),
            NonnegativeOrthant(n),
            Box(lower=[-1.0, -0.5, 0.0, -np.inf], upper=[1.0, 0.5, np.inf, 2.0]),
            Ball(center=rng.normal(size=n), radius=1.5),
            Product(
                [Box(lower=[-1.0], upper=[1.0]), Ball(center=np.zeros(2), radius=1.0), NonnegativeOrthant(1)]
            ),
        ]
        for name, objective in objectives.items():
            for set_ in sets:
                p = ProblemSpec(
                    objective=objective,
                    A=rng.normal(size=(m, n)),
                    b=rng.normal(size=m),
                    set=set_,
                    rho=1.5,
                )
                for i in range(20):
                    dt = (1e-2, 1e-3)[i % 2]
                    x, v = rng.normal(scale=3.0, size=n), rng.normal(scale=3.0, size=m)
                    r = p.A @ x - p.b
                    y = p.objective.gradient(x) + p.A.T @ v + p.rho * p.A.T @ r
                    nxt = euler_step(p, FlowState(x=x, v=v), dt)
                    scale = 1e-12 * (1.0 + np.abs(np.concatenate([x, v, dt * y])).max())
                    want_x, want_v = set_.project(x - dt * y), v + dt * r
                    case = f"{name} objective on {set_!r}, dt {dt:g}"
                    np.testing.assert_allclose(nxt.x, want_x, rtol=1e-12, atol=scale, err_msg=case)
                    np.testing.assert_allclose(nxt.v, want_v, rtol=1e-12, atol=scale, err_msg=case)

    def test_euler_keeps_iterates_feasible(self):
        p = example2_problem()
        rng = np.random.default_rng(42)
        s = FlowState(x=p.set.project(rng.normal(size=5)), v=rng.normal(size=3))
        for _ in range(100):
            s = euler_step(p, s, 0.05)
            assert p.set.contains(s.x, tol=1e-12)


def large_qp(set_=None):
    """min |x|^2 / 2 + c^T x s.t. A x = b over [-1, 1]^520 (or ``set_``),
    with 40 constraints: its ``K`` (2.4 MiB) is above ``TWO_CORE_BYTES``, and
    from zero Heun and RK4 at dt 0.5 meet tol 1e-8 at step 139."""
    rng = np.random.default_rng(63)
    n, m = 520, 40
    problem = ProblemSpec(
        objective=Objective.quadratic(np.eye(n), rng.normal(size=n)),
        A=rng.normal(size=(m, n)) / np.sqrt(n),
        b=rng.normal(size=m),
        set=Box(-np.ones(n), np.ones(n)) if set_ is None else set_,
    )
    assert problem._kernel[0].nbytes > flow.TWO_CORE_BYTES
    return problem, FlowState(x=np.zeros(n), v=np.zeros(m))


# Ways for the process to see its CPUs: (name, CPUs _cpus reports, patches
# of os).  Without os.sched_getaffinity, as on macOS and Windows, _cpus
# falls back to os.cpu_count, or to one CPU where that is None.
CPU_VIEWS = [
    ("two CPUs", 2, {"sched_getaffinity": lambda pid: {0, 1}}),
    ("one CPU", 1, {"sched_getaffinity": lambda pid: {0}}),
    ("no affinity call", 2, {"sched_getaffinity": None, "cpu_count": lambda: 2}),
    ("no CPU count", 1, {"sched_getaffinity": None, "cpu_count": lambda: None}),
]


@contextlib.contextmanager
def cpu_view(patches):
    """``os`` with ``patches`` applied; a patch of None deletes the name."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            if value is None:
                mp.delattr(os, name, raising=False)
            else:
                mp.setattr(os, name, value, raising=False)
        yield


def check_split_product_is_k_dot():
    """Every branch of the split product gives ``K.dot``'s bits on every
    call: the helper thread above ``TWO_CORE_BYTES`` with two CPUs, the
    alternating order below it or with one CPU, however the CPUs are
    counted."""
    rng = np.random.default_rng(61)
    for name, cpus, patches in CPU_VIEWS:
        with cpu_view(patches):
            assert flow._cpus() == cpus, name
            for rows in (480, 560, 700, 701, 1203):
                K = rng.normal(size=(rows, rows))
                assert K.nbytes > flow.SPLIT_BYTES
                helper = cpus > 1 and K.nbytes > flow.TWO_CORE_BYTES
                threads, block = threading.active_count(), _product(K)
                if helper:  # the caller's block, at a multiple of 64 rows, is the larger
                    top, bottom = block.args
                    assert len(top) % 64 == 0 and 0 <= len(top) - len(bottom) < 128, rows
                for _ in range(2):  # the order alternates across blocks too
                    with block() as product:
                        assert threading.active_count() == threads + helper, (name, rows)
                        assert product != K.dot
                        for s in rng.normal(size=(3, rows)):
                            out = np.full(rows, np.nan)
                            product(s, out)
                            assert out.tobytes() == K.dot(s).tobytes(), (name, rows)
                    assert threading.active_count() == threads


def check_large_stage_solves_match_reference():
    """Heun and RK4 on a QP whose ``K`` is split match the plain-numpy
    reference stage bit for bit, with two CPUs and with one."""
    rng = np.random.default_rng(62)
    n, m, k = 510, 60, 170
    M = rng.normal(size=(n, n))
    problem = ProblemSpec(
        objective=Objective.quadratic(M @ M.T / n + 0.1 * np.eye(n), rng.normal(size=n)),
        A=rng.normal(size=(m, n)) / np.sqrt(n),
        b=rng.normal(size=m),
        set=Product([Box(-np.ones(k), np.ones(k)), Ball(np.zeros(k), 1.0), NonnegativeOrthant(k)]),
    )
    assert problem._kernel[0].nbytes > flow.TWO_CORE_BYTES
    init = FlowState(x=problem.set.project(rng.normal(size=n)), v=rng.normal(size=m))
    for integrator in ("heun", "rk4"):
        config = SolverConfig(dt=0.05, tol=1e-300, integrator=integrator, max_steps=25)
        want = reference_steps(problem, integrator, 0.05, init, 25)
        for name, _, patches in CPU_VIEWS[:2]:
            with cpu_view(patches):
                final = solve(problem, config, init).final
            assert np.concatenate([final.x, final.v]).tobytes() == want.tobytes(), (integrator, name)


def check_large_divergence_is_silent():
    """A diverging RK4 solve with a split ``K`` raises DivergenceError and
    no warning: the helper thread runs under the solve's error state."""
    problem, init = large_qp(FreeSpace(520))
    with pytest.raises(DivergenceError, match=r"^non-finite iterate at step \d+; "):
        solve(problem, SolverConfig(dt=1e3, integrator="rk4"), init)


def check_helper_error_reaches_the_caller():
    """An error in the helper's block is raised by the caller's product,
    which is not left waiting, and the next product is ``K.dot``'s again."""
    rng = np.random.default_rng(64)
    K, s = rng.normal(size=(600, 600)), rng.normal(size=600)
    cut, threads = 320, threading.active_count()
    with mock.patch.object(flow, "_cpus", lambda: 2), _product(K)() as product:
        # out[:cut] suits the caller's block; out[cut:] is 10 rows too long
        # for the helper's, whose dot alone raises
        out = np.full(610, np.nan)
        with pytest.raises(ValueError):
            product(s, out)
        assert out[:cut].tobytes() == K[:cut].dot(s).tobytes() and np.isnan(out[cut:]).all()
        with pytest.raises(ValueError):  # both blocks raise: s is too short
            product(s[:5], np.empty(600))
        out = np.empty(600)
        product(s, out)  # no error is left over for this product
        assert out.tobytes() == K.dot(s).tobytes()
    assert threading.active_count() == threads


class InterruptOnce:
    """A stand-in for ``_two_core``'s top block whose first ``dot`` raises
    KeyboardInterrupt, as a Ctrl-C in the caller's half of a product."""

    def __init__(self, block):
        self.block, self.calls = block, 0

    def __len__(self):
        return len(self.block)

    def dot(self, s, out):
        self.calls += 1
        if self.calls == 1:
            raise KeyboardInterrupt
        return self.block.dot(s, out=out)


class SlowDot:
    """A stand-in for ``_two_core``'s bottom block that sleeps 20 ms before
    each ``dot``: a caller that read an answer left over from an earlier
    product would return before this product's rows are written."""

    def __init__(self, block):
        self.block = block

    def dot(self, s, out):
        time.sleep(0.02)
        return self.block.dot(s, out=out)


def check_interrupted_product_leaves_no_answer():
    """An interrupt in the caller's block is raised by its product after
    the helper has answered, so the next product in the same block is
    ``K.dot``'s, and the helper still ends with the block."""
    rng = np.random.default_rng(65)
    K, s = rng.normal(size=(600, 600)), rng.normal(size=(2, 600))
    threads = threading.active_count()
    with flow._two_core(InterruptOnce(K[:320]), SlowDot(K[320:])) as product:
        with pytest.raises(KeyboardInterrupt):
            product(s[0], np.empty(600))
        out = np.full(600, np.nan)
        product(s[1], out)
        assert out.tobytes() == K.dot(s[1]).tobytes()
    assert threading.active_count() == threads


def check_large_euler_solve_matches_stepping():
    """Euler on a QP whose ``E`` is 560 x 561, 14 steps a block: solve's
    stop step, state and trajectory are those of its steps taken one at a
    time with kkt_residual tested after each."""
    problem, init = large_qp()
    config = SolverConfig(dt=0.2, tol=1e-8, record_stride=25)
    res = solve(problem, config, init)
    assert res.converged and res.steps_taken == 336
    assert_matches_reference(res, problem, config, init)


def exit_on_thread_error(args):
    """``threading.excepthook`` for :func:`run_in_child`: a thread that ends
    with an unhandled exception prints it and fails the child at once."""
    threading.__excepthook__(args)
    sys.stderr.flush()
    os._exit(1)


def run_in_child(check):
    """Run ``check``, a function of this module, in a child Python under one
    BLAS thread with RuntimeWarnings as errors: so that it holds whatever
    BLAS threading this process runs with (with two threads, neither the
    split nor ``K.dot`` is reproducible across thread counts), so that a
    thread left waiting fails at the timeout instead of hanging, and so
    that a thread that dies of an exception fails the child."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(here, "..", "src"), here, os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(path),
    )
    code = (
        "import threading, test_flow; threading.excepthook = test_flow.exit_on_thread_error; "
        f"test_flow.{check.__name__}()"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestSplitProduct:
    def test_small_kernel_is_one_product(self):
        for rows in (3, math.isqrt(flow.SPLIT_BYTES // 8)):
            K = np.eye(rows)
            assert K.nbytes <= flow.SPLIT_BYTES
            with _product(K)() as product:
                assert product == K.dot

    @pytest.mark.parametrize(
        "check", [check_split_product_is_k_dot, check_large_stage_solves_match_reference]
    )
    def test_bitwise_under_one_blas_thread(self, check):
        run_in_child(check)

    @pytest.mark.parametrize(
        "check",
        [
            check_large_divergence_is_silent,
            check_helper_error_reaches_the_caller,
            check_interrupted_product_leaves_no_answer,
        ],
    )
    def test_helper_thread_fails_safe(self, check):
        run_in_child(check)

    @pytest.fixture
    def helper_counts(self, monkeypatch):
        """The thread count inside each ``_product`` block that solve opens."""
        counts, product = [], flow._product

        def counted(K):
            block = product(K)

            @contextlib.contextmanager
            def counting():
                with block() as inner:
                    counts.append(threading.active_count())
                    yield inner

            return counting

        monkeypatch.setattr(flow, "_product", counted)
        return counts

    @pytest.mark.parametrize("integrator", ["heun", "rk4"])
    @pytest.mark.parametrize("outcome", ["converges", "max_steps", "diverges"])
    def test_no_thread_outlives_solve(self, helper_counts, integrator, outcome):
        problem, init = large_qp(FreeSpace(520) if outcome == "diverges" else None)
        config = SolverConfig(
            dt=1e3 if outcome == "diverges" else 0.5,
            tol=1e-8,
            max_steps=50 if outcome == "max_steps" else 1_000,
            integrator=integrator,
        )
        threads = threading.active_count()
        if outcome == "diverges":
            with pytest.raises(DivergenceError):
                solve(problem, config, init)
        else:
            res = solve(problem, config, init)
            assert res.steps_taken == (139 if outcome == "converges" else 50)
            assert res.converged == (outcome == "converges")
        assert threading.active_count() == threads
        # the helper ran in every block, where the process has two CPUs
        helper = flow._cpus() > 1
        assert helper_counts and set(helper_counts) == {threads + helper}

    def test_no_thread_outlives_a_step_that_raises(self, helper_counts):
        # the objective is not folded into K, so its gradient runs in every
        # stage, inside the block; its 30th call raises
        problem, init = large_qp()
        c, calls = problem.objective.c, []

        def gradient(x):
            calls.append(None)
            if len(calls) == 30:
                raise ArithmeticError("gradient failed")
            return x + c

        problem = dataclasses.replace(
            problem, objective=Objective(problem.objective.evaluate, gradient)
        )
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match="^gradient failed$"):
            solve(problem, SolverConfig(dt=0.5, integrator="rk4"), init)
        assert threading.active_count() == threads and len(helper_counts) == 1


class TestKKTResidual:
    def test_zero_at_example1_saddle(self):
        assert kkt_residual(example1_problem(), example1_saddle()) <= 1e-12

    def test_positive_off_saddle(self):
        p = example1_problem()
        rng = np.random.default_rng(43)
        for _ in range(20):
            x = p.set.project(rng.normal(scale=3.0, size=2))
            v = rng.normal(size=1)
            if np.linalg.norm(x - [2.0, 2.0]) + np.linalg.norm(v - [3.0]) < 1e-6:
                continue
            assert kkt_residual(p, FlowState(x=x, v=v)) > 0.0

    def test_misshapen_point_is_named(self):
        # the stationarity term, whose projection checks x, comes first
        with pytest.raises(ValueError, match=r"^expected a vector of dimension 2, got shape \(3,\)$"):
            kkt_residual(example1_problem(), FlowState(x=np.zeros(3), v=np.zeros(1)))

    def test_large_state_is_infinite_and_silent(self):
        # ||A x - b||^2 overflows
        state = FlowState(x=np.full(5, 1e200), v=np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert kkt_residual(example2_problem(), state) == math.inf

    def test_wrong_length_dual_is_named(self):
        with pytest.raises(ValueError, match=r"^dual init must have 3 entries, got shape \(2,\)$"):
            kkt_residual(example2_problem(), FlowState(x=np.zeros(5), v=np.zeros(2)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_dual_is_named(self, entry):
        # refused as input, not a nan residual; solve shares the check
        state = FlowState(x=np.zeros(5), v=[entry, 0.0, 0.0])
        with pytest.raises(ValueError, match="^dual init must be finite$"):
            kkt_residual(example2_problem(), state)
        with pytest.raises(ValueError, match="^dual init must be finite$"):
            solve(example2_problem(), lp_config(), state)

    def test_fixed_point_iff_zero_residual(self):
        p = example1_problem()
        s = example1_saddle()
        assert kkt_residual(p, s) <= 1e-12
        nxt = euler_step(p, s, 1e-2)
        assert np.linalg.norm(np.concatenate([nxt.x - s.x, nxt.v - s.v])) <= 1e-10 * 1e-2


class TestLyapunov:
    def test_zero_at_reference(self):
        s = example1_saddle()
        assert lyapunov_distance(s, s) == 0.0

    def test_unit_offset(self):
        s = example1_saddle()
        shifted = FlowState(x=s.x + np.array([1.0, 0.0]), v=s.v)
        assert lyapunov_distance(shifted, s) == pytest.approx(0.5)

    def test_monotone_along_example1_euler(self):
        p = example1_problem()
        saddle = example1_saddle()
        s = FlowState(x=np.array([5.0, -1.0]), v=np.array([0.0]))
        s = FlowState(x=p.set.project(s.x), v=s.v)
        d_prev = lyapunov_distance(s, saddle)
        for _, s in zip(range(20000), stepping(p, "euler", 1e-3, s)):
            d = lyapunov_distance(s, saddle)
            assert d <= d_prev + 1e-6 * (1.0 + d_prev)
            d_prev = d
        assert d_prev < 1e-4


class TestSolve:
    def test_rejects_unknown_integrator(self):
        with pytest.raises(ValueError, match="^unknown integrator 'leapfrog'$"):
            SolverConfig(integrator="leapfrog")

    @pytest.mark.parametrize("field", ["max_steps", "record_stride"])
    @pytest.mark.parametrize("value", [7.5, 3.0, True, "3"])
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        # neither rounded nor taken as 1
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["dt", "tol"])
    @pytest.mark.parametrize("value", [True, "1"])
    def test_rejects_a_step_or_tolerance_that_is_not_a_number(self, field, value):
        # neither taken as 1 nor a TypeError from the comparison
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
            SolverConfig(**{field: value})

    def test_numpy_integer_counts(self):
        assert SolverConfig(max_steps=np.int64(5), record_stride=np.uint8(2)).max_steps == 5

    def test_rejects_dual_init_of_wrong_shape(self):
        init = FlowState(x=np.zeros(2), v=np.zeros(2))
        with pytest.raises(ValueError, match=r"dual init must have 1 entries, got shape \(2,\)"):
            solve(example1_problem(), SolverConfig(), init)

    def test_example1_from_several_starts(self):
        p = example1_problem()
        cfg = SolverConfig(dt=1e-2, max_steps=50_000, tol=1e-8)
        rng = np.random.default_rng(44)
        for _ in range(5):
            init = FlowState(x=rng.normal(scale=4.0, size=2), v=rng.normal(size=1))
            res = solve(p, cfg, init)
            assert res.converged
            assert np.linalg.norm(res.final.x - [2.0, 2.0]) <= 1e-6
            assert abs(res.final.v[0] - 3.0) <= 1e-6
            assert p.objective.evaluate(res.final.x) == pytest.approx(8.0, abs=1e-6)

    def test_example2_reaches_reference_value(self):
        p = example2_problem()
        cfg = SolverConfig(dt=2e-3, max_steps=400_000, tol=1e-6)
        res = solve(p, cfg, FlowState(x=np.zeros(5), v=np.zeros(3)))
        assert res.converged
        assert p.objective.evaluate(res.final.x) == pytest.approx(EXAMPLE2_OPTIMAL_VALUE, abs=1e-1)
        # the constraint part of the residual is below tol on its own
        assert np.linalg.norm(p.A @ res.final.x - p.b) <= cfg.tol

    def test_unconstrained_quadratic_to_origin(self):
        p = ProblemSpec(
            objective=Objective.quadratic(np.eye(3), np.zeros(3)),
            A=np.zeros((0, 3)),
            b=np.zeros(0),
            set=FreeSpace(3),
        )
        res = solve(p, SolverConfig(dt=1e-2, max_steps=10_000, tol=1e-10), FlowState(x=np.ones(3), v=np.zeros(0)))
        assert res.converged
        assert np.linalg.norm(res.final.x) <= 1e-9
        assert res.final.v.shape == (0,)

    @pytest.mark.parametrize("integrator", ["heun", "rk4"])
    def test_higher_order_integrators_on_constrained_problem(self, integrator):
        # stage points are re-projected, so recorded states stay feasible
        p = example1_problem()
        cfg = SolverConfig(
            dt=1e-3, max_steps=60_000, tol=1e-6, integrator=integrator, record_stride=500
        )
        res = solve(p, cfg, FlowState(x=np.array([6.0, -2.0]), v=np.array([0.0])))
        assert res.converged
        assert np.linalg.norm(res.final.x - [2.0, 2.0]) <= 1e-5
        assert abs(res.final.v[0] - 3.0) <= 1e-5
        for point in res.trajectory:
            assert p.set.contains(point.x, tol=1e-9)

    def test_init_projected_onto_set(self):
        p = example1_problem()
        res = solve(p, SolverConfig(dt=1e-2, max_steps=1, tol=1e-12), FlowState(x=np.array([-5.0, 0.0]), v=np.zeros(1)))
        assert res.trajectory[0].x[0] >= 2.0

    def test_infinite_start_on_a_ball_converges(self):
        # the start projects to the limit point (1, 0) of the ball, not NaN
        p = ProblemSpec(
            objective=Objective.linear(np.ones(2)), A=np.zeros((0, 2)), b=np.zeros(0), set=Ball(np.zeros(2), 1.0)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve(p, SolverConfig(dt=1e-2, tol=1e-9), FlowState(x=[np.inf, 0.0], v=np.zeros(0)))
        assert res.converged
        assert np.array_equal(res.trajectory[0].x, [1.0, 0.0])
        assert np.abs(res.final.x + 0.5**0.5).max() <= 1e-8

    def test_matches_manual_euler_iteration_bitwise(self):
        p = example1_problem()
        cfg = SolverConfig(dt=1e-2, max_steps=300, tol=1e-30, record_stride=50)
        init = FlowState(x=np.array([6.0, -2.0]), v=np.array([1.0]))
        res = solve(p, cfg, init)
        s = FlowState(x=p.set.project(init.x), v=init.v)
        for _ in range(300):
            s = euler_step(p, s, cfg.dt)
        assert np.array_equal(res.final.x, s.x)
        assert np.array_equal(res.final.v, s.v)
        assert res.residual == kkt_residual(p, s)

    @pytest.mark.parametrize("tol", [1e-1, 1e-3, 1e-6])
    def test_stops_at_first_step_within_tol(self, tol):
        # each integrator against its steps taken one at a time; a stride
        # longer than the run, so the stopping step is never a recorded one
        # and the residual test runs on its own
        p = example1_problem()
        init = FlowState(x=np.array([6.0, -2.0]), v=np.array([1.0]))
        for integrator in STEPPERS:
            cfg = SolverConfig(
                dt=1e-2, max_steps=10_000, tol=tol, record_stride=10**6, integrator=integrator
            )
            res = solve(p, cfg, init)
            s, steps = iterate_until_within_tol(p, integrator, init, cfg.dt, tol)
            assert res.converged and res.steps_taken == steps, integrator
            assert np.array_equal(res.final.x, s.x), integrator
            assert np.array_equal(res.final.v, s.v), integrator
            assert res.residual == kkt_residual(p, s), integrator

    def test_divergence_error_names_step(self):
        # every integrator: the error names the first step whose iterate the
        # one-step reference makes non-finite, and no earlier step met tol; the
        # last residual it names is finite and is the stepper's kkt_residual at
        # an earlier step
        p = quadratic_free_problem(q=1.0, a=1.0)
        init = FlowState(x=np.array([1.0]), v=np.array([0.0]))
        for integrator, stepper in STEPPERS.items():
            cfg = SolverConfig(dt=1e6, max_steps=10_000, tol=1e-12, integrator=integrator)
            with pytest.raises(DivergenceError, match="step") as err:
                solve(p, cfg, init)
            s, residuals = init, []
            with np.errstate(over="ignore", invalid="ignore"):
                while np.isfinite(s.x).all() and np.isfinite(s.v).all():
                    residuals.append(kkt_residual(p, s))
                    assert not residuals[-1] <= cfg.tol
                    s = stepper(p, s, cfg.dt)
            steps = len(residuals)
            assert f"non-finite iterate at step {steps};" in str(err.value), integrator
            last = re.search(r"; last finite residual (\S+) at step (\d+);", str(err.value))
            assert last and int(last[2]) < steps, integrator
            assert np.isfinite(residuals[int(last[2])]), integrator
            assert last[1] == f"{residuals[int(last[2])]:.1e}", integrator

    @pytest.mark.parametrize(
        "objective,A,b",
        [
            (Objective.linear([1.0]), [[1e300]], [1e300]),  # rho A^T A and rho A^T b
            (Objective.quadratic([[1e308]], [0.0]), [[1.2e154]], [0.0]),  # Q + rho A^T A
            (Objective.linear([-1.7e308]), [[1.0]], [1.7e308]),  # rho A^T b - c
        ],
    )
    def test_kernel_overflow_is_refused_without_warning(self, objective, A, b):
        # finite data whose kernel overflows: no dt can help, so it is bad
        # input, not a divergence
        p = ProblemSpec(objective=objective, A=A, b=b, set=Box([0.0], [1.0]))
        for integrator in STEPPERS:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match=r"^Q \+ rho A\^T A or rho A\^T b - c overflows; scale the problem down$"):
                    solve(p, SolverConfig(integrator=integrator), FlowState(x=[0.0], v=[0.0]))

    @pytest.mark.parametrize("integrator", list(STEPPERS))
    def test_stops_at_first_step_within_tol_on_example2(self, monkeypatch, integrator):
        # the gate takes a block's A x - b from one 3x5 matrix product,
        # which sums in another order than kkt_residual's matrix-vector
        # product on some steps; the gate's rounding slack must keep the
        # stop on the stepper's step
        p, tol = example2_problem(), 1e-3
        n, m = p.dim, p.num_constraints
        cfg = SolverConfig(
            dt=1e-2, max_steps=10**6, tol=tol, record_stride=10**6, integrator=integrator
        )
        init = FlowState(x=np.zeros(5), v=np.zeros(3))
        # per block, _row_norms sees the states (8 wide), then the gate's
        # A x - b of all but the last (3 wide), then stationarities (5 wide)
        normed, row_norms = [], flow._row_norms

        def recording(block):
            normed.append(block.copy())
            return row_norms(block)

        monkeypatch.setattr(flow, "_row_norms", recording)
        res = solve(p, cfg, init)
        gated, differing = 0, 0
        for states, feasibility in zip(normed, normed[1:]):
            if states.shape[1] == n + m and feasibility.shape[1] == m:
                for s, r in zip(states, feasibility):
                    differing += not np.array_equal(r, p.A.dot(s[:n]) - p.b)
                gated += len(feasibility)
        assert differing > 0 and gated >= res.steps_taken
        s, steps = iterate_until_within_tol(p, integrator, init, cfg.dt, tol)
        assert res.converged and res.steps_taken == steps
        assert np.array_equal(res.final.x, s.x)
        assert np.array_equal(res.final.v, s.v)
        assert res.residual == kkt_residual(p, s)

    def test_matches_manual_euler_iteration_bitwise_on_example2(self):
        p = example2_problem()
        cfg = SolverConfig(dt=1e-2, max_steps=10**6, tol=1e-3, record_stride=50)
        init = FlowState(x=np.zeros(5), v=np.zeros(3))
        res = solve(p, cfg, init)
        s, states = init, stepping(p, "euler", cfg.dt, init)
        for step in range(res.steps_taken):
            if step % cfg.record_stride == 0:
                point = res.trajectory[step // cfg.record_stride]
                assert np.array_equal(point.x, s.x) and np.array_equal(point.v, s.v)
            s = next(states)
        assert np.array_equal(res.final.x, s.x)
        assert np.array_equal(res.final.v, s.v)
        assert res.residual == kkt_residual(p, s)

    @pytest.mark.parametrize(
        "problem",
        [quadratic_free_problem(q=1.0, a=1.0), third_coordinate_problem()],
        ids=["coupled", "third-coordinate"],
    )
    def test_divergence_error_names_first_non_finite_coordinate(self, problem):
        # the first infinite coordinate of the one-step reference, else its
        # first NaN
        n = problem.dim
        init = FlowState(x=np.ones(n), v=np.zeros(1))
        for integrator, stepper in STEPPERS.items():
            cfg = SolverConfig(dt=1e6, max_steps=10_000, tol=1e-12, integrator=integrator)
            with pytest.raises(DivergenceError) as err:
                solve(problem, cfg, init)
            s, steps = np.concatenate([init.x, init.v]), 0
            with np.errstate(over="ignore", invalid="ignore"):
                while np.isfinite(s).all():
                    state = stepper(problem, FlowState(x=s[:n], v=s[n:]), cfg.dt)
                    s, steps = np.concatenate([state.x, state.v]), steps + 1
            inf = np.flatnonzero(np.isinf(s))
            i = int(inf[0]) if inf.size else int(np.flatnonzero(np.isnan(s))[0])
            at = f"x[{i}]" if i < n else f"v[{i - n}]"
            assert f"non-finite iterate at step {steps}; {at} = {s[i]};" in str(err.value)

    def test_divergence_error_names_the_infinity_not_a_nan_bystander(self):
        # x[2] overflows; by the step Heun and RK4 stop at, 0 * inf has already
        # made v, x[0] and x[1] NaN, yet every integrator names x[2]
        init = FlowState(x=np.ones(3), v=np.zeros(1))
        for integrator, step in (("euler", 52), ("heun", 27), ("rk4", 14)):
            cfg = SolverConfig(dt=1e6, max_steps=10_000, tol=1e-12, integrator=integrator)
            with pytest.raises(DivergenceError) as err:
                solve(third_coordinate_problem(), cfg, init)
            assert str(err.value).startswith(
                f"non-finite iterate at step {step}; x[2] = inf;"
            ), integrator

    @pytest.mark.parametrize("integrator", list(STEPPERS))
    def test_callable_objective_matches_stepper_and_optimum(self, integrator):
        # the gradient is not folded into the kernel: it is called per field
        p = softplus_problem()
        cfg = SolverConfig(dt=5e-2, max_steps=50_000, tol=1e-9, integrator=integrator)
        init = FlowState(x=np.array([2.0, -1.0, 1.0]), v=np.zeros(1))
        res = solve(p, cfg, init)
        s, steps = iterate_until_within_tol(p, integrator, init, cfg.dt, cfg.tol)
        assert res.converged and res.steps_taken == steps
        assert np.array_equal(res.final.x, s.x)
        assert np.array_equal(res.final.v, s.v)
        assert res.residual == kkt_residual(p, s)
        assert np.abs(res.final.x - [0.25, 0.25, 0.5]).max() <= 1e-8
        assert res.final.v[0] == pytest.approx(-1.0 / (1.0 + np.exp(-0.25)), abs=1e-8)

    def test_folded_gradient_called_only_at_residual_checks(self):
        # the linear objective lives in the kernel, so its gradient is called
        # for the exact residual only: on recorded steps and where the gate's
        # estimate of the whole residual is within tol plus its rounding
        # slack, which on this run is the stop step alone (it is recorded)
        calls = 0
        p = example2_problem()

        def counting(x):
            nonlocal calls
            calls += 1
            return p.objective.gradient(x)

        counted = dataclasses.replace(p, objective=dataclasses.replace(p.objective, gradient=counting))
        res = solve(counted, lp_config(), FlowState(x=np.zeros(5), v=np.zeros(3)))
        assert res.converged and res.steps_taken > 400_000
        assert res.steps_taken == 423_912
        assert 0 <= calls - len(res.trajectory) <= 3  # 0 measured

    def test_trajectory_recording_stride(self):
        p = example1_problem()
        cfg = SolverConfig(dt=1e-2, max_steps=100, tol=1e-30, record_stride=10)
        res = solve(p, cfg, FlowState(x=np.array([4.0, 4.0]), v=np.zeros(1)))
        assert res.steps_taken == 100
        assert len(res.trajectory) == 11
        assert res.trajectory[0].t == 0.0
        for point in res.trajectory:
            assert p.set.contains(point.x, tol=1e-12)


def reference_solve(problem, config, init):
    """``(steps, state, residual, trajectory)`` of :func:`solve`, from its
    steps taken one at a time with :func:`kkt_residual` tested after each
    and the same rows recorded."""
    state = FlowState(x=problem.set.project(init.x), v=init.v, t=init.t)
    states, steps, trajectory = stepping(problem, config.integrator, config.dt, state), 0, []
    while True:
        residual = kkt_residual(problem, state)
        done = residual <= config.tol or steps >= config.max_steps
        if steps % config.record_stride == 0 or done:
            trajectory.append((state.t, state.x, state.v, problem.objective.evaluate(state.x), residual))
        if done:
            return steps, state, residual, trajectory
        state, steps = next(states), steps + 1


def assert_matches_reference(res, problem, config, init):
    """Stop step, final state, residual and every trajectory row are
    bitwise those of :func:`reference_solve`."""
    steps, state, residual, trajectory = reference_solve(problem, config, init)
    assert res.steps_taken == steps
    assert res.converged == (residual <= config.tol) and res.residual == residual
    assert np.array_equal(res.final.x, state.x) and np.array_equal(res.final.v, state.v)
    assert res.final.t == state.t
    assert len(res.trajectory) == len(trajectory)
    for point, (t, x, v, objective, r) in zip(res.trajectory, trajectory):
        assert point.t == t and np.array_equal(point.x, x) and np.array_equal(point.v, v)
        assert point.objective == objective and point.residual == r


class TestBlockedStepping:
    """solve stores a block of steps, then tests them all at once: its result
    must be the one its steps taken one at a time give, wherever in a block
    the run stops, reaches max_steps or diverges."""

    problem = example1_problem()
    init = FlowState(x=[6.0, -2.0], v=[1.0])

    @staticmethod
    def use_blocks(monkeypatch, problem, length):
        """Make solve store ``length`` steps per block on ``problem``."""
        k, m = problem.dim + problem.num_constraints, problem.num_constraints
        monkeypatch.setattr(flow, "BLOCK_BYTES", 8 * length * (k + 1))
        rows, _ = _integrator(problem, "euler", 1.0, np.zeros(problem.dim), np.zeros(m))
        assert rows.shape == (length + 1, k + 1)

    # Example 1 from init meets tol 1e-3 at step 1595 = 55 * 29 = 58 * 27 + 29
    # = 57 * 28 - 1 under every integrator; 7 divides none of the lengths
    @pytest.mark.parametrize("integrator", list(STEPPERS))
    @pytest.mark.parametrize("stride", [1, 7, 100])
    @pytest.mark.parametrize(
        "length,row", [(55, 0), (58, 29), (57, 56)], ids=["first-row", "mid-block", "last-row"]
    )
    def test_stop_anywhere_in_a_later_block(self, monkeypatch, integrator, stride, length, row):
        self.use_blocks(monkeypatch, self.problem, length)
        config = SolverConfig(
            dt=1e-2, max_steps=10_000, tol=1e-3, integrator=integrator, record_stride=stride
        )
        res = solve(self.problem, config, self.init)
        assert res.steps_taken > length and res.steps_taken % length == row
        assert_matches_reference(res, self.problem, config, self.init)

    @pytest.mark.parametrize("integrator", list(STEPPERS))
    @pytest.mark.parametrize("stride", [1, 7, 100])
    def test_max_steps_mid_block(self, monkeypatch, integrator, stride):
        self.use_blocks(monkeypatch, self.problem, 58)
        config = SolverConfig(
            dt=1e-2, max_steps=2 * 58 + 29, tol=1e-30, integrator=integrator, record_stride=stride
        )
        res = solve(self.problem, config, self.init)
        assert not res.converged and res.steps_taken == config.max_steps
        assert_matches_reference(res, self.problem, config, self.init)

    @pytest.mark.parametrize("integrator,step", [("euler", 52), ("heun", 27), ("rk4", 14)])
    def test_divergence_in_a_later_block(self, monkeypatch, integrator, step):
        # every step is recorded, so every residual before the divergence is
        # tested; the steps computed past it raise no warning, and max_steps
        # one step past it, in the same block, does not end the run first
        p, init = third_coordinate_problem(), FlowState(x=np.ones(3), v=np.zeros(1))
        self.use_blocks(monkeypatch, p, 5)
        config = SolverConfig(
            dt=1e6, max_steps=step + 1, tol=1e-12, integrator=integrator, record_stride=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                solve(p, config, init)
        s, steps, finite = init, 0, None
        with np.errstate(over="ignore", invalid="ignore"):
            states = stepping(p, integrator, config.dt, init)
            while np.isfinite(s.x).all() and np.isfinite(s.v).all():
                residual = kkt_residual(p, s)
                if math.isfinite(residual):
                    finite = residual, steps
                s, steps = next(states), steps + 1
        assert steps == step and step > 5 and step % 5 != 0
        z = np.concatenate([s.x, s.v])
        i = int(np.flatnonzero(np.isinf(z))[0])
        assert str(err.value) == (
            f"non-finite iterate at step {steps}; x[{i}] = {z[i]}; last finite residual "
            f"{finite[0]:.1e} at step {finite[1]}; try a smaller dt than {config.dt:g}"
        )

    @pytest.mark.parametrize("integrator", list(STEPPERS))
    @pytest.mark.parametrize("stride", [1, 7, 100])
    def test_stop_on_a_box_ball_orthant_product(self, monkeypatch, integrator, stride):
        # the gate projects a block of stationarities onto every kind of
        # tangent cone, each active at the optimum
        p, init = product_qp(), FlowState(x=np.full(6, 2.0), v=np.zeros(2))
        self.use_blocks(monkeypatch, p, 29)
        config = SolverConfig(dt=0.05, max_steps=5_000, tol=1e-8, integrator=integrator, record_stride=stride)
        res = solve(p, config, init)
        assert res.converged and 400 < res.steps_taken < 500
        x = res.final.x
        assert x[1] == 0.5 and abs(np.linalg.norm(x[2:4]) - 0.6) <= 1e-12 and x[4] == x[5] == 0.0
        assert_matches_reference(res, p, config, init)

    def test_large_euler_under_one_blas_thread(self):
        run_in_child(check_large_euler_solve_matches_stepping)

    @pytest.mark.parametrize("integrator", list(STEPPERS))
    def test_gate_reads_each_steps_own_feasibility(self, integrator):
        # min 0 s.t. x = 0 over x >= 0 from x = 5: Euler's dt = 1 step lands
        # on x = 0, so A x - b falls from 5 to 0 in one step, and step 1 is
        # the stop step though step 0's A x - b is far outside the gate
        p = ProblemSpec(
            objective=Objective.linear([0.0]), A=np.ones((1, 1)), b=np.zeros(1), set=NonnegativeOrthant(1)
        )
        config, init = SolverConfig(dt=1.0, tol=1e-9, integrator=integrator), FlowState(x=[5.0], v=[0.0])
        res = solve(p, config, init)
        assert res.converged and (integrator != "euler" or res.steps_taken == 1)
        assert_matches_reference(res, p, config, init)

    @pytest.mark.parametrize("integrator", list(STEPPERS))
    def test_no_warning_from_steps_past_the_stop(self, integrator):
        # the start meets tol; the rest of its block overflows to inf and NaN
        p, init = quadratic_free_problem(), FlowState(x=[1.0], v=[0.0])
        config = SolverConfig(dt=1e6, tol=1.0, integrator=integrator)
        rows, advance = _integrator(p, integrator, config.dt, init.x, init.v)
        with np.errstate(over="ignore", invalid="ignore"):
            advance(len(rows) - 1)
        assert np.isnan(rows).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve(p, config, init)
        assert res.converged and res.steps_taken == 0
        assert_matches_reference(res, p, config, init)


class TestNonUniqueOptimum:
    """min x_1 s.t. x_1 + x_2 + x_3 = 1, x >= 0: the optimal set is the face
    x_1 = 0, and its saddle points are ((0, t, 1 - t), v = 0) for t in [0, 1].
    The paper's theorem: the flow converges to one of them, and its distance
    to every one of them does not increase.  A QP with a singular Q on the
    same simplex has an edge as its optimal set."""

    problem = ProblemSpec(
        objective=Objective.linear([1.0, 0.0, 0.0]),
        A=np.ones((1, 3)),
        b=np.ones(1),
        set=NonnegativeOrthant(3),
    )
    config = SolverConfig(dt=1e-2, max_steps=20_000, tol=1e-9)

    @staticmethod
    def start(seed):
        rng = np.random.default_rng(seed)
        return FlowState(x=rng.uniform(0.0, 2.0, 3), v=rng.normal(size=1))

    @pytest.fixture(scope="class")
    def runs(self):
        return [solve(self.problem, self.config, self.start(seed)) for seed in range(4)]

    @pytest.fixture(scope="class")
    def qp_runs(self):
        return [solve(self.singular_qp, self.config, self.start(seed)) for seed in range(4)]

    # min (x_1 + x_2)^2 / 2 - x_1 - x_2 + x_3 on the same simplex: Q is
    # singular, and with u = x_1 + x_2 the objective is u^2/2 - 2u + 1, so the
    # optimal set is the edge x_1 + x_2 = 1, x_3 = 0 and the optimal value -1/2
    singular_qp = ProblemSpec(
        objective=Objective.quadratic([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], [-1.0, -1.0, 1.0]),
        A=np.ones((1, 3)),
        b=np.ones(1),
        set=NonnegativeOrthant(3),
    )

    def assert_different_points_of_the_face(self, problem, runs, off_face):
        """Each run converged to a KKT point with ``x[off_face] = 0`` on the
        simplex, and the limits are pairwise far apart beyond what the
        tolerance leaves unresolved."""
        tol, limits = self.config.tol, []
        for res in runs:
            x = res.final.x
            assert res.converged
            assert kkt_residual(problem, res.final) <= tol
            assert x.min() >= 0.0 and x[off_face] <= tol
            assert abs(x.sum() - 1.0) <= tol
            limits.append(x)
        gaps = [np.linalg.norm(a - b) for i, a in enumerate(limits) for b in limits[i + 1 :]]
        assert min(gaps) >= 1e3 * tol
        return limits

    def assert_distance_to_every_saddle_does_not_increase(self, problem, runs, saddle):
        """Along each run, the distance to ``saddle(t)`` for t = 0, 1/4, 1/2,
        1 and the run's own limit ``t = x[i] / (x[i] + x[j])``, with (i, j)
        the two coordinates ``saddle`` varies, does not grow by more than
        an Euler step allows.

        An Euler step x+ = P_K(x + dt F), v+ = v + dt (A x - b) adds at most
        dt^2 (||F||^2 + ||r||^2) / 2 to the half squared distance, since
        <F, z - z*> <= 0 for the monotone field."""
        p, dt = problem, self.config.dt
        i, j = np.flatnonzero(saddle(1.0).x != saddle(0.0).x)
        for seed, res in enumerate(runs):
            own = res.final.x[i] / (res.final.x[i] + res.final.x[j])
            saddles = [saddle(t) for t in (0.0, 0.25, 0.5, 1.0, own)]
            state = self.start(seed)
            state = FlowState(x=p.set.project(state.x), v=state.v)
            d_prev = [lyapunov_distance(state, z) for z in saddles]
            for _, nxt in zip(range(res.steps_taken), stepping(p, "euler", dt, state)):
                r = p.A @ state.x - p.b
                F = -p.objective.gradient(state.x) - p.A.T @ (state.v + p.rho * r)
                slack = 0.5 * dt**2 * (F @ F + r @ r)
                d = [lyapunov_distance(nxt, z) for z in saddles]
                for a, b in zip(d_prev, d):
                    assert b <= a + slack + 1e-14 * (1.0 + a)
                state, d_prev = nxt, d

    def test_limits_are_different_points_of_the_face(self, runs):
        self.assert_different_points_of_the_face(self.problem, runs, 0)

    def test_limits_reach_the_linprog_optimal_value(self, runs):
        p = self.problem
        lp = linprog(p.objective.c, A_eq=p.A, b_eq=p.b, bounds=(0.0, None))
        assert lp.status == 0
        for res in runs:
            assert abs(p.objective.evaluate(res.final.x) - lp.fun) <= self.config.tol

    def test_singular_quadratic_limits_are_different_points_of_the_face(self, qp_runs):
        p = self.singular_qp
        for x in self.assert_different_points_of_the_face(p, qp_runs, 2):
            assert abs(p.objective.evaluate(x) + 0.5) <= self.config.tol

    def test_distance_to_every_saddle_does_not_increase(self, runs):
        self.assert_distance_to_every_saddle_does_not_increase(
            self.problem, runs, lambda t: FlowState(x=[0.0, t, 1.0 - t], v=[0.0])
        )

    def test_singular_quadratic_distance_to_every_saddle_does_not_increase(self, qp_runs):
        self.assert_distance_to_every_saddle_does_not_increase(
            self.singular_qp, qp_runs, lambda t: FlowState(x=[t, 1.0 - t, 0.0], v=[0.0])
        )


def gate_on_state(problem, s, tol, size):
    """``(admitted, estimate)`` of solve's residual gate on a block of
    ``size`` rows equal to the state ``s``, laid out as solve's rows
    ``[s; 1]``.  A block of one row rounds the gate's products as
    matrix-vector products do, a larger block as matrix products do, and
    neither need round as the exact residual does; ``admitted`` holds if
    every row passes and ``estimate`` is the largest."""
    rows = np.ones((size, s.size + 1))
    rows[:, :-1] = s
    states = rows[:, :-1]
    estimate, limit = _residual_gate(problem, tol)(states, _row_norms(states))
    return not (estimate > limit).any(), estimate.max()


class TestFeasibilityGate:
    def test_field_passes_wherever_feasibility_is_within_tol(self):
        # tol equal to a state's own feasibility, in kkt_residual's
        # arithmetic, is the worst case: the gate's A x - b, summed in
        # another order, must still pass the gate there.  The objectives are
        # callables, whose stationarity the gate does not estimate
        rng = np.random.default_rng(46)
        problems = [example2_problem()] + [
            ProblemSpec(
                objective=Objective.linear(rng.normal(size=n)),
                A=rng.normal(scale=scale, size=(m, n)),
                b=rng.normal(scale=scale, size=m),
                set=FreeSpace(n),
            )
            for n, m, scale in [(12, 4, 1.0), (60, 30, 1e-3), (30, 60, 1e3)]
        ]
        above = 0
        for p in problems:
            p = dataclasses.replace(p, objective=Objective(p.objective.evaluate, p.objective.gradient))
            n = p.dim
            for _ in range(2000):
                s = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=n + p.num_constraints)
                r = p.A.dot(s[:n]) - p.b
                tol = math.sqrt(r.dot(r))
                for size in (1, 8):
                    admitted, estimate = gate_on_state(p, s, tol, size)
                    assert admitted
                    above += estimate > tol
        assert above > 0  # states only the rounding slack lets through

    @staticmethod
    def whole_residual_problems(rng):
        """Linear and quadratic objectives on every kind of set: boxes with
        finite, infinite and shifted bounds, balls, a product and free space,
        each with constraints and without, where the feasibility slack is 0
        and only the stationarity slack covers the rounding."""
        sets = [
            Box(lower=[-1.0, 0.5, -np.inf, 2.0], upper=[1.0, np.inf, 0.0, 3.5]),
            Box(lower=rng.normal(size=5) - 3.0, upper=rng.normal(size=5) + 3.0),
            NonnegativeOrthant(4),
            Ball(center=rng.normal(size=4), radius=0.7),
            Product([Box(-np.ones(3), np.ones(3)), Ball(np.ones(3), 2.0), NonnegativeOrthant(3)]),
            FreeSpace(3),
        ]
        for set_, m, scale in zip(sets, [2, 3, 1, 2, 4, 2], [1.0, 1e-3, 1e3, 1.0, 10.0, 0.1]):
            n = set_.dim
            M = rng.normal(size=(n, n))
            for objective in (
                Objective.linear(rng.normal(scale=1.0 / scale, size=n)),
                Objective.quadratic(M @ M.T / scale, rng.normal(scale=1.0 / scale, size=n)),
            ):
                for rows in (m, 0):
                    A = rng.normal(scale=scale, size=(rows, n))
                    yield ProblemSpec(objective=objective, A=A, b=rng.normal(scale=scale, size=rows), set=set_)

    def test_whole_residual_passes_wherever_the_residual_is_within_tol(self):
        # tol equal to a state's own exact residual is the worst case: the
        # gate's stationarity and feasibility, summed in other orders, must
        # still pass it there
        rng = np.random.default_rng(47)
        above = 0
        for problem in self.whole_residual_problems(rng):
            for i in range(75):
                p = problem
                # projected, so often exactly on a bound or on a sphere
                x = p.set.project(rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=p.dim))
                v = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=p.num_constraints)
                if i % 3 == 0:
                    # c and b moved so that (x, v) is a saddle point up to
                    # rounding: the residual is as small as the slack
                    Q, c = p.objective.Q, -p.A.T.dot(v)
                    c = c - Q.dot(x) if Q is not None else c
                    objective = Objective.linear(c) if Q is None else Objective.quadratic(Q, c)
                    p = dataclasses.replace(p, objective=objective, b=p.A.dot(x))
                tol = _residual(p, x, v)
                for size in (1, 8):
                    admitted, estimate = gate_on_state(p, np.concatenate([x, v]), tol, size)
                    assert admitted
                    above += estimate > tol
        assert above > 0  # states only the rounding slack lets through

    def test_gate_refuses_rows_whose_stationarity_exceeds_tol(self):
        # Example 2 at a feasible point off the optimum: feasibility alone
        # would let it through, the stationarity term keeps it out
        p = example2_problem()
        x = p.set.project(linprog(np.ones(5), A_eq=p.A, b_eq=p.b).x)
        s, tol = np.concatenate([x, np.zeros(3)]), 1e-6
        assert np.linalg.norm(p.A @ x - p.b) <= 1e-3 * tol and _residual(p, x, np.zeros(3)) > 1.0
        for size in (1, 8):
            assert not gate_on_state(p, s, tol, size)[0]
        callable_only = dataclasses.replace(p, objective=Objective(p.objective.evaluate, p.objective.gradient))
        assert gate_on_state(callable_only, s, tol, 8)[0]


    def test_overflowing_data_norms_admit_every_row_silently(self):
        # K and g0 are finite, but ||A||_F (first) or ||b|| (second) is not:
        # the limit is infinite, or NaN on a zero row, so every row goes to
        # the exact residual, and neither the gate nor solve warns
        problems = [
            ProblemSpec(objective=Objective.linear([1.0, 1.0]), A=[[1e154, 1e154]], b=[1.0], set=FreeSpace(2)),
            ProblemSpec(objective=Objective.linear([1.0]), A=[[1e-200]], b=[1e200], set=Box([0.0], [1.0])),
        ]
        for p in problems:
            init = FlowState(x=np.zeros(p.dim), v=np.zeros(1))
            states = np.array([np.zeros(p.dim + 1), np.ones(p.dim + 1)])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                gate = _residual_gate(p, 1e-6)
                with np.errstate(over="ignore", invalid="ignore"):  # as solve runs it
                    estimate, limit = gate(states, _row_norms(states))
                assert not (estimate > limit).any()
                try:
                    res = solve(p, SolverConfig(max_steps=5), init)
                    assert not res.converged and res.steps_taken == 5
                except DivergenceError:  # the first problem's steps overflow
                    assert p is problems[0]


class TestIntegratorOrder:
    """Global error order on the 2x2 linear saddle system against expm."""

    @pytest.mark.parametrize(
        "integrator,order",
        [("euler", 1.0), ("heun", 2.0), ("rk4", 4.0)],
        ids=["euler_step-1.0", "heun_step-2.0", "rk4_step-4.0"],
    )
    def test_order_slope(self, integrator, order):
        assert abs(integrator_order_slope(integrator) - order) <= 0.4

    def test_rk4_close_to_exact_flow(self):
        err = saddle_global_error("rk4", 1e-2, 2.0, np.array([4.0, -3.0]))
        assert err <= 1e-8
