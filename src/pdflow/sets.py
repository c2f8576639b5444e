"""Simple convex sets with closed-form projections.

Every set here supports two operations used by the flow solver:

* ``project(x)`` — the nearest point of the set (Euclidean metric),
* ``project_tangent(x, v)`` — the projection of a direction ``v`` onto the
  tangent cone of the set at a point ``x`` of the set.

All variants (free space, nonnegative orthant, box, ball and products
thereof) admit cheap closed forms for both, which is the whole point: the
solver never projects onto the full feasible set of a problem, only onto
these simple pieces.
"""

from __future__ import annotations

import math

import numpy as np

# A coordinate counts as sitting on a bound when |x_i - bound| is within this
# band (relative to the bound's magnitude).  Iterates produced by the solver
# land on bounds exactly; the band exists for external callers.
ACTIVITY_RTOL = 1e-9

# How far outside the set a point may be before project_tangent refuses it.
MEMBERSHIP_TOL = 1e-9


def _integer(value, name: str) -> int:
    """``value`` as an int; floats and bools are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _dimension(dim) -> int:
    """``dim`` as a nonnegative int."""
    dim = _integer(dim, "set dimension")
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    return dim


def _as_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"expected a vector of dimension {dim}, got shape {x.shape}")
    return x


def _frozen(values) -> np.ndarray:
    """A read-only, C-ordered float copy of ``values``, shared with no caller."""
    array = np.array(values, dtype=float, order="C")
    array.setflags(write=False)
    return array


class SimpleSet:
    """Base class: a closed convex subset of R^n with cheap projections."""

    dim: int

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x``, as a new array."""
        x = _as_vector(x, self.dim).copy()
        with np.errstate(over="ignore"):  # x - bound may overflow; the sets handle it
            self._project_in_place(x)
        return x

    def _project_in_place(self, x: np.ndarray) -> None:
        """Overwrite ``x`` with its nearest point, unchecked, as the solver does."""
        raise NotImplementedError

    def project_tangent(self, x, v) -> np.ndarray:
        """Project ``v`` onto the tangent cone of the set at ``x``.

        ``x`` must belong to the set (within ``MEMBERSHIP_TOL``); a point in
        the interior leaves ``v`` unchanged.
        """
        x = _as_vector(x, self.dim)
        v = _as_vector(v, self.dim)
        self._require_member(x)
        with np.errstate(over="ignore"):
            return self._tangent(x, v.copy())

    def _tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Overwrite ``v`` with its tangent-cone projection at ``x`` and
        return it; closed form, without membership checks.

        The solver calls this on iterates that are feasible by construction.
        """
        raise NotImplementedError

    def contains(self, x, tol: float = 0.0) -> bool:
        """True iff ``x`` is finite and its distance to the set is at most ``tol``."""
        x = _as_vector(x, self.dim)
        if not np.isfinite(x).all():  # before inf - inf can warn
            return False
        with np.errstate(over="ignore"):  # a far x: the distance is inf
            return float(np.linalg.norm(self.project(x) - x)) <= tol

    def _require_member(self, x: np.ndarray) -> None:
        if not self.contains(x, MEMBERSHIP_TOL):
            raise ValueError(
                f"point lies outside the set by more than {MEMBERSHIP_TOL:g}; "
                "tangent-cone projection is only defined on the set"
            )


class Box(SimpleSet):
    """Componentwise bounds lower <= x <= upper; either bound may be infinite.

    A half-space like ``x_0 >= 2`` is a Box with ``upper = +inf``.  Each side
    with a finite bound keeps one ``(clamp, bound, band, shifted)`` entry:
    the lower side clamps with ``np.maximum``, the upper with
    ``np.minimum``.  An infinite bound gets the band -1: ``|x - bound|`` is
    still computed there, but no coordinate ever counts as active at it.
    ``shifted`` is False for an all-zero bound, whose ``|x - 0|`` is ``|x|``
    exactly, so the subtraction is skipped.
    """

    def __init__(self, lower, upper):
        lower, upper = _frozen(lower), _frozen(upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lower > upper):
            raise ValueError("box requires lower <= upper componentwise")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("box bounds leave an empty coordinate range")
        self.lower, self.upper = lower, upper
        self.dim = lower.size
        self._sides = tuple(
            (clamp, bound, np.where(np.isfinite(bound), ACTIVITY_RTOL * (1 + np.abs(bound)), -1.0),
             bool(bound.any()))
            for clamp, bound in ((np.maximum, lower), (np.minimum, upper))
            if np.isfinite(bound).any()
        )

    def _project_in_place(self, x) -> None:
        for clamp, bound, _, _ in self._sides:
            clamp(x, bound, out=x)

    def _tangent(self, x, v) -> np.ndarray:
        # at a bound, only motion out of the box is removed
        for clamp, bound, band, shifted in self._sides:
            gap = np.abs(x - bound) if shifted else np.abs(x)
            clamp(v, 0.0, out=v, where=gap <= band)
        return v

    def __repr__(self):
        return f"Box({self.lower!r}, {self.upper!r})"


class FreeSpace(Box):
    """All of R^n: a box without bounds, so both projections are the identity."""

    def __init__(self, dim: int):
        dim = _dimension(dim)
        super().__init__(np.full(dim, -np.inf), np.full(dim, np.inf))

    def __repr__(self):
        return f"FreeSpace({self.dim})"


class NonnegativeOrthant(Box):
    """The set x >= 0 componentwise: a box with lower bound 0 and no upper."""

    def __init__(self, dim: int):
        dim = _dimension(dim)
        super().__init__(np.zeros(dim), np.full(dim, np.inf))

    def __repr__(self):
        return f"NonnegativeOrthant({self.dim})"


class Ball(SimpleSet):
    """Euclidean ball ||x - center|| <= radius with radius > 0."""

    def __init__(self, center, radius: float):
        center = _frozen(center)
        if center.ndim != 1:
            raise ValueError("center must be a 1-d array")
        if not np.isfinite(center).all():
            raise ValueError("center must be finite")
        radius = float(radius)
        if not (radius > 0 and math.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        self.center = center
        self.radius = radius
        self.dim = center.size

    def _offset(self, x) -> tuple:
        """``(d, r, scale)``: ``d = (x - center) * scale`` and ``r = ||d||``.

        ``scale`` is 1, and ``r`` is ``np.linalg.norm``'s ``sqrt(d.d)``,
        unless ``d.d`` overflows for a finite ``x``; then ``d`` is scaled by
        the power of two that brings ``max |d_i|`` into [0.5, 1), so that
        ``d / r`` is still the direction, and first taken from the halves
        ``x/2 - center/2`` if ``x - center`` itself overflowed.  ``np.vdot``,
        unlike ``ndarray.dot`` and ``norm``, does not warn on the overflow;
        its bits are the same.  An ``x`` with infinite coordinates gets scale
        0 and, as ``d``, their signs: the direction of its limit point.
        """
        d = x - self.center
        r = math.sqrt(np.vdot(d, d))
        if r != math.inf:
            return d, r, 1.0
        if not np.isfinite(x).all():
            d = np.where(np.isinf(x), np.sign(x), 0.0)
            return d, math.sqrt(np.vdot(d, d)), 0.0
        halved = not np.isfinite(d).all()
        if halved:
            d = x / 2.0 - self.center / 2.0
        scale = math.ldexp(1.0, -math.frexp(float(np.abs(d).max()))[1])
        d *= scale
        return d, math.sqrt(np.vdot(d, d)), scale / 2.0 if halved else scale

    def _project_in_place(self, x) -> None:
        d, r, scale = self._offset(x)
        # the roundoff shell counts as inside so that projecting twice is
        # exactly idempotent (radial rescaling is only ulp-accurate)
        if r > self.radius * (1.0 + 1e-14) * scale:
            np.add(self.center, d * (self.radius / r), out=x)

    def _tangent(self, x, v) -> np.ndarray:
        d, r, scale = self._offset(x)
        if r == 0.0 or r < (self.radius - ACTIVITY_RTOL * (1.0 + self.radius)) * scale:
            return v
        # boundary: drop the positive part of the outward-radial component
        d /= r
        outward = float(v @ d)
        if outward > 0.0:
            v -= outward * d
        return v

    def __repr__(self):
        return f"Ball(center={self.center!r}, radius={self.radius})"


class Product(SimpleSet):
    """Cartesian product of simple sets over contiguous index ranges."""

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("product requires at least one component")
        for c in components:
            if not isinstance(c, SimpleSet):
                raise TypeError(f"product component {c!r} is not a SimpleSet")
        self.components = components
        self.dim = sum(c.dim for c in components)
        offsets = np.cumsum([0] + [c.dim for c in components])
        self._slices = tuple(
            slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])
        )

    def _project_in_place(self, x) -> None:
        for c, s in zip(self.components, self._slices):
            c._project_in_place(x[s])

    def _tangent(self, x, v) -> np.ndarray:
        for c, s in zip(self.components, self._slices):
            c._tangent(x[s], v[s])
        return v

    def __repr__(self):
        return f"Product({list(self.components)!r})"
