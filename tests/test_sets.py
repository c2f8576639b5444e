"""Projection laws for the simple convex sets.

The closed-form tangent-cone projections are checked against the
difference-quotient oracle (P(x + delta v) - x)/delta, and the nearest-point
projections against idempotence, nonexpansiveness and the Moreau identity.
"""

import numpy as np
import pytest

from conftest import make_set_variants, sample_in_set, strictly_interior, tangent_quotient
from pdflow.sets import Ball, Box, FreeSpace, NonnegativeOrthant, Product

make_sets = make_set_variants


class TestProjectPoint:
    def test_orthant_clamps(self):
        assert np.array_equal(NonnegativeOrthant(1).project([-1.0]), [0.0])

    def test_box_componentwise_clamp(self):
        got = Box([0.0, 0.0], [1.0, 1.0]).project([2.0, 0.5])
        assert np.allclose(got, [1.0, 0.5], atol=0)

    def test_ball_radial_scaling(self):
        got = Ball(center=[0.0, 0.0], radius=1.0).project([3.0, 4.0])
        assert np.allclose(got, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            NonnegativeOrthant(2).project([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("set_", make_sets(), ids=repr)
    def test_idempotent_exactly(self, set_):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = set_.project(rng.normal(scale=3.0, size=set_.dim))
            assert np.array_equal(set_.project(p), p)

    @pytest.mark.parametrize("set_", make_sets(), ids=repr)
    def test_nonexpansive(self, set_):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = rng.normal(scale=3.0, size=set_.dim)
            b = rng.normal(scale=3.0, size=set_.dim)
            lhs = np.linalg.norm(set_.project(a) - set_.project(b))
            assert lhs <= np.linalg.norm(a - b) + 1e-12

    def test_product_is_concatenation(self):
        rng = np.random.default_rng(9)
        prod = Product([NonnegativeOrthant(2), Ball(center=[0.0, 0.0], radius=1.0)])
        for _ in range(100):
            x = rng.normal(scale=3.0, size=4)
            expected = np.concatenate(
                [NonnegativeOrthant(2).project(x[:2]), Ball(center=[0.0, 0.0], radius=1.0).project(x[2:])]
            )
            assert np.array_equal(prod.project(x), expected)


class TestProjectInPlace:
    @pytest.mark.parametrize("set_", make_sets(), ids=repr)
    def test_matches_project_bitwise(self, set_):
        # the solver projects the x-slice of its stacked state in place, so
        # the projection goes through a view and leaves the rest untouched
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = rng.normal(scale=3.0, size=set_.dim)
            for point in (x, set_.project(x)):
                state = np.concatenate([point, [7.0, -7.0]])
                set_._project_in_place(state[: set_.dim])
                assert state[: set_.dim].tobytes() == set_.project(point).tobytes()
                assert np.array_equal(state[set_.dim :], [7.0, -7.0])

    @pytest.mark.parametrize("set_", make_sets(), ids=repr)
    def test_project_returns_a_new_array(self, set_):
        rng = np.random.default_rng(14)
        x = set_.project(rng.normal(scale=3.0, size=set_.dim))
        x.setflags(write=False)
        for point in (x, rng.normal(scale=3.0, size=set_.dim)):
            before = point.copy()
            projected = set_.project(point)
            assert not np.shares_memory(projected, point)
            assert np.array_equal(point, before)


class TestContains:
    def test_orthant_boundary_point(self):
        assert NonnegativeOrthant(2).contains([0.0, 0.0], tol=0.0)

    def test_box_within_tolerance(self):
        assert Box([0.0], [1.0]).contains([1.0 + 1e-9], tol=1e-8)

    def test_ball_outside(self):
        assert not Ball(center=[0.0, 0.0], radius=1.0).contains([2.0, 0.0], tol=1e-8)

    def test_product_boundary_and_outside(self):
        prod = Product([NonnegativeOrthant(2), Box([0.0], [1.0])])
        assert prod.contains([0.0, 3.0, 1.0], tol=0.0)
        assert not prod.contains([0.0, -1e-3, 1.0], tol=1e-4)


class TestTangentProjection:
    def test_orthant_inward_normal_absorbs(self):
        got = NonnegativeOrthant(1).project_tangent([0.0], [-1.0])
        assert np.array_equal(got, [0.0])

    def test_orthant_feasible_direction_kept(self):
        got = NonnegativeOrthant(1).project_tangent([0.0], [1.0])
        assert np.array_equal(got, [1.0])

    def test_interior_identity(self):
        got = Box([0.0], [1.0]).project_tangent([0.5], [-7.0])
        assert np.array_equal(got, [-7.0])

    def test_rejects_point_outside(self):
        with pytest.raises(ValueError):
            NonnegativeOrthant(1).project_tangent([-0.5], [1.0])

    @pytest.mark.parametrize("set_", make_sets(), ids=repr)
    def test_strict_interior_is_identity(self, set_):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = sample_in_set(set_, rng, boundary_bias=0.0)
            if not strictly_interior(set_, x):
                continue
            v = rng.normal(size=set_.dim)
            assert np.array_equal(set_.project_tangent(x, v), v)

    @pytest.mark.parametrize("set_", make_sets(), ids=repr)
    def test_moreau_identity(self, set_):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = sample_in_set(set_, rng)
            v = rng.normal(scale=2.0, size=set_.dim)
            w = set_.project_tangent(x, v)
            # tangent part orthogonal to the removed normal part
            assert abs(float((v - w) @ w)) <= 1e-10 * (1.0 + float(v @ v))
            # removed part lies in the normal cone: nonpositive against tangents
            for _ in range(5):
                d = set_.project_tangent(x, rng.normal(size=set_.dim))
                assert float((v - w) @ d) <= 1e-10 * (1.0 + np.linalg.norm(v) * np.linalg.norm(d))


class TestQuotientOracle:
    def test_orthant_blocked_direction(self):
        got = tangent_quotient(NonnegativeOrthant(1), [0.0], [-1.0], 1e-8)
        assert np.array_equal(got, [0.0])

    def test_box_blocked_at_upper(self):
        got = tangent_quotient(Box([0.0], [1.0]), [1.0], [2.0], 1e-8)
        assert np.array_equal(got, [0.0])

    def test_ball_tangential_direction(self):
        got = tangent_quotient(Ball(center=[0.0, 0.0], radius=1.0), [1.0, 0.0], [0.0, 1.0], 1e-8)
        assert np.linalg.norm(got - np.array([0.0, 1.0])) <= 1e-6

    @pytest.mark.parametrize("set_", make_sets(), ids=repr)
    def test_closed_forms_match_quotient(self, set_):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = sample_in_set(set_, rng)
            v = rng.normal(scale=2.0, size=set_.dim)
            closed = set_.project_tangent(x, v)
            quotient = tangent_quotient(set_, x, v, 1e-8)
            err = np.linalg.norm(closed - quotient)
            assert err <= 1e-6 * (1.0 + np.linalg.norm(v))



class TestValidation:
    def test_box_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_ball_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Ball(center=[0.0], radius=0.0)

    def test_product_dim_is_sum(self):
        p = Product([FreeSpace(2), NonnegativeOrthant(3)])
        assert p.dim == 5
