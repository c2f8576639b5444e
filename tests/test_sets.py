"""Projection laws for the simple convex sets.

The closed-form tangent-cone projections are checked against the
difference-quotient oracle (P(x + delta v) - x)/delta, and the nearest-point
projections against idempotence, nonexpansiveness and the Moreau identity.
"""

import re
import warnings

import numpy as np
import pytest

from conftest import (
    make_set_variants,
    reference_project,
    reference_tangent,
    sample_in_set,
    strictly_interior,
    tangent_quotient,
)
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

    @pytest.mark.parametrize(
        "x,want", [([1e300, 0.0], [1.0, 0.0]), ([1e308, 1e308], [0.5**0.5, 0.5**0.5])]
    )
    def test_ball_far_point_lands_on_the_sphere(self, x, want):
        # ||x||^2 overflows; the centre is not the answer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Ball(center=[0.0, 0.0], radius=1.0).project(x)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-15

    @pytest.mark.parametrize(
        "x,want", [([np.inf, 0.0], [1.0, 0.0]), ([-np.inf, np.inf], [-(0.5**0.5), 0.5**0.5])]
    )
    def test_ball_infinite_coordinate_projects_to_the_limit_point(self, x, want):
        # along the signs of the infinite coordinates, as a box clamps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Ball(center=[0.0, 0.0], radius=1.0).project(x)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "center,x", [([-1e308, 0.0], [1e308, 0.0]), ([-1e308, -1e308], [1e308, 1e308])]
    )
    def test_ball_point_whose_offset_overflows(self, center, x):
        # x - center is inf; the public methods neither return NaN nor warn
        ball = Ball(center=center, radius=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ball.project(x)
            assert np.isfinite(got).all() and ball.contains(got)
            assert not ball.contains(x)
        if center[1] == 0.0:
            assert np.array_equal(got, [-1e308, 0.0])

    def test_box_bound_gap_that_overflows_is_silent(self):
        # |x - lower| is inf at the upper bound: only the upper side is active
        box = Box([-1e308], [1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(box.project_tangent([1e308], [1.0]), [0.0])
            assert np.array_equal(box.project_tangent([1e308], [-1.0]), [-1.0])

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

    def test_infinite_point_is_outside_without_warning(self):
        # inf - inf in the distance would warn, and tier-1 makes that an error
        for set_ in (FreeSpace(1), Box([0.0], [np.inf]), Product([FreeSpace(1)])):
            assert not set_.contains([np.inf]), set_


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

    def test_ball_far_boundary_point(self):
        # ||x - center||^2 overflows; only the outward radial part goes
        ball, x = Ball(center=[0.0, 0.0], radius=1e300), [1e300, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ball.project_tangent(x, [1.0, 2.0]).tolist() == [0.0, 2.0]
            assert ball.project_tangent(x, [-1.0, 2.0]).tolist() == [-1.0, 2.0]

    @pytest.mark.parametrize("set_", make_sets(), ids=repr)
    def test_tangent_overwrites_its_argument(self, set_):
        # _tangent projects v in place and returns it; project_tangent
        # works on a copy of the caller's v
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = sample_in_set(set_, rng)
            v = rng.normal(size=set_.dim)
            kept = v.copy()
            want = set_.project_tangent(x, v)
            assert v.tobytes() == kept.tobytes()
            assert set_._tangent(x, v) is v
            assert v.tobytes() == want.tobytes()

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



class TestBoxReferences:
    """The orthant and free space are Boxes; the one Box implementation
    matches the separate closed forms bit for bit (see conftest)."""

    SETS = [
        pytest.param(FreeSpace(3), id="free"),
        pytest.param(NonnegativeOrthant(5), id="orthant"),
        pytest.param(Box([2.0, -np.inf], [np.inf, np.inf]), id="example1"),
        pytest.param(Box([0.0, -1.0, 2.0], [1.0, 1.0, np.inf]), id="mixed"),
        pytest.param(Box([-np.inf, 0.0, -0.0], [0.0, 0.0, 0.0]), id="degenerate"),
        pytest.param(Box(-np.ones(200), np.ones(200)), id="box200"),
    ]
    SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-10, -1e-10])

    def points(self, set_, rng):
        """Random points with coordinates snapped to finite bounds, to
        just off them and to signed zeros, NaN and infinities."""
        lo, hi = set_.lower, set_.upper
        for _ in range(300):
            x = rng.normal(scale=3.0, size=set_.dim)
            pick = rng.random(set_.dim)
            x = np.where((pick < 0.2) & np.isfinite(lo), lo, x)
            x = np.where((pick >= 0.2) & (pick < 0.4) & np.isfinite(hi), hi, x)
            x = np.where((pick >= 0.4) & (pick < 0.5), np.nextafter(x, np.inf), x)
            x = np.where(pick >= 0.85, rng.choice(self.SPECIAL, set_.dim), x)
            v = rng.normal(size=set_.dim)
            v = np.where(rng.random(set_.dim) < 0.2, rng.choice(self.SPECIAL, set_.dim), v)
            yield x, v

    @pytest.mark.parametrize("set_", SETS)
    def test_matches_closed_forms_bitwise(self, set_):
        rng = np.random.default_rng(15)
        # x - bound is NaN where x and the bound are the same infinity
        with np.errstate(invalid="ignore"):
            for x, v in self.points(set_, rng):
                projected = x.copy()
                set_._project_in_place(projected)
                assert projected.tobytes() == reference_project(set_, x).tobytes()
                w = set_._tangent(x, v.copy())
                assert w.tobytes() == reference_tangent(set_, x, v).tobytes()
                assert not np.shares_memory(w, v)

    def test_orthant_and_free_space_are_boxes(self):
        for set_, lower in ((NonnegativeOrthant(2), 0.0), (FreeSpace(2), -np.inf)):
            assert isinstance(set_, Box)
            assert np.array_equal(set_.lower, [lower] * 2)
            assert np.array_equal(set_.upper, [np.inf] * 2)
        assert repr(NonnegativeOrthant(2)) == "NonnegativeOrthant(2)"
        assert repr(FreeSpace(0)) == "FreeSpace(0)"
        for cls in (FreeSpace, NonnegativeOrthant):
            with pytest.raises(ValueError, match="^dimension must be nonnegative$"):
                cls(-1)

    def test_free_space_excludes_nan_as_a_product_does(self):
        assert not FreeSpace(2).contains([np.nan, 0.0])
        assert not Product([FreeSpace(2)]).contains([np.nan, 0.0])
        assert FreeSpace(2).contains([1e300, -0.0])


class TestValidation:
    def test_box_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_ball_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Ball(center=[0.0], radius=0.0)

    @pytest.mark.parametrize("radius", [np.inf, np.nan])
    def test_ball_rejects_non_finite_radius(self, radius):
        # an infinite radius would make the activity band inf - inf = nan
        with pytest.raises(ValueError, match="^radius must be positive and finite$"):
            Ball(center=[0.0, 0.0], radius=radius)

    @pytest.mark.parametrize(
        "make,error,message",
        [
            (lambda: Box([0.0, 0.0], [1.0]), ValueError, "1-d arrays of equal length"),
            (lambda: Box([np.nan], [1.0]), ValueError, "must not be NaN"),
            (lambda: Box([np.inf], [np.inf]), ValueError, "empty coordinate range"),
            (lambda: Ball(center=[[0.0]], radius=1.0), ValueError, "center must be a 1-d array"),
            (lambda: Ball(center=[0.0, np.inf], radius=1.0), ValueError, "center must be finite"),
            (lambda: Product([]), ValueError, "at least one component"),
            (lambda: Product([FreeSpace(1), "box"]), TypeError, "'box' is not a SimpleSet"),
        ],
        ids=[
            "box-shapes", "box-nan", "box-empty-range", "ball-center-shape", "ball-center-inf",
            "empty-product", "product-of-a-string",
        ],
    )
    def test_rejects_malformed_arguments(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    @pytest.mark.parametrize("cls", [FreeSpace, NonnegativeOrthant])
    @pytest.mark.parametrize("dim", [2.5, 2.0, True, np.float64(3.0), "3"])
    def test_dimension_must_be_an_integer(self, cls, dim):
        # neither truncated nor taken as 1
        with pytest.raises(ValueError, match=f"^set dimension must be an integer, got {re.escape(repr(dim))}$"):
            cls(dim)

    @pytest.mark.parametrize("cls", [FreeSpace, NonnegativeOrthant])
    def test_numpy_integer_dimension(self, cls):
        assert cls(np.int64(3)).dim == 3 and cls(np.uint8(0)).dim == 0

    def test_bounds_and_center_are_read_only_copies(self):
        # the sets keep their own arrays: the caller's stay writable and unshared
        lower, upper, center = np.zeros(2), np.ones(2), np.zeros(2)
        box, ball = Box(lower, upper), Ball(center, 1.0)
        for own, given in ((box.lower, lower), (box.upper, upper), (ball.center, center)):
            assert not own.flags.writeable and not np.shares_memory(own, given)
        lower[0], upper[0], center[0] = -1.0, 2.0, 5.0
        assert np.array_equal(box.lower, [0.0, 0.0]) and np.array_equal(box.upper, [1.0, 1.0])
        assert np.array_equal(ball.center, [0.0, 0.0])
        assert np.array_equal(ball.project([3.0, 0.0]), [1.0, 0.0])

    def test_product_dim_is_sum(self):
        p = Product([FreeSpace(2), NonnegativeOrthant(3)])
        assert p.dim == 5
