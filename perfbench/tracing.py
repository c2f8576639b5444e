"""Span tracer that observes pdflow from outside the package.

The tracer replaces selected functions and methods of a freshly imported
pdflow with wrappers that time each call and hand the original arguments
through unchanged, then puts the originals back.  Nothing under ``src/``
knows about it.  Spans are aggregated in memory per name as
``[calls, inclusive seconds, self seconds]``; a span's self time is its
duration minus the time covered by the spans it opened.  Durations are read
from the clock the tracer is given, so a clock that stops while something
else runs (see ``HostSpeed.clock``) keeps that time out of every span.

Two rules keep the counts meaningful:

* a layer that calls itself (a ``Product`` set projecting its components,
  the public ``project_tangent`` calling ``_tangent``) records one span, the
  outermost;
* a leaf span (a projection, a membership check, an eigendecomposition)
  records no spans beneath it, so e.g. the component projections made by a
  membership check count as membership time, not as extra projections.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

# Spans whose callees are folded into their own time.
LEAF_SPANS = frozenset(
    {
        "sets.project",
        "sets.membership",
        "flow.grad",
        "spectral.grad",
        "spectral.value",
        "graphs.lambda2",
    }
)

# Methods of every SimpleSet subclass, by the span they report to.
SET_METHOD_SPANS = {
    "project": "sets.project",
    "_tangent": "sets.tangent",
    "project_tangent": "sets.tangent",
    "_require_member": "sets.membership",
}

# Module-level functions: (defining module, function, span).  The wrapper
# replaces the function in every pdflow module that imported it by name.
FUNCTION_SPANS = (
    ("spectral", "smoothed_max_eig_grad", "spectral.grad"),
    ("spectral", "smoothed_max_eig", "spectral.value"),
    ("graphs", "algebraic_connectivity", "graphs.lambda2"),
    ("connectivity", "_broadcast", "connectivity.assemble"),
    ("connectivity", "_residual_from_messages", "connectivity.residual"),
    ("connectivity", "_apply_round", "connectivity.update"),
    ("connectivity", "objective_value", "connectivity.record"),
    ("connectivity", "assembled_connectivity", "connectivity.record"),
    ("connectivity", "contributions_vector", "connectivity.record"),
)

# Functions whose calls are counted but not timed: their work stays in the
# caller's self time.
COUNTED_FUNCTIONS = (("flow", "kkt_residual", "flow.kkt"),)


class NullTracer:
    """Stand-in used for untraced runs: calls straight through, records nothing."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def install(self, program, objective=None) -> None:
        pass

    def restore(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


class Tracer:
    def __init__(self, clock=perf_counter):
        self._clock = clock
        self.stats = {}  # span name -> [calls, inclusive s, self s]
        self._stack = []  # open frames: [name, child seconds, is leaf]
        self._patches = []  # (owner, attribute, original), in patch order

    def reset(self) -> None:
        self.stats.clear()

    def snapshot(self) -> dict:
        return {name: list(rec) for name, rec in self.stats.items()}

    def wrap(self, name, fn):
        """A function that behaves like ``fn`` and records span ``name``."""
        stack, stats, leaf, clock = self._stack, self.stats, name in LEAF_SPANS, self._clock

        def traced(*args, **kwargs):
            if stack and (stack[-1][0] == name or stack[-1][2]):
                return fn(*args, **kwargs)
            frame = [name, 0.0, leaf]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def count(self, name, fn):
        """A function that behaves like ``fn`` and only counts its calls."""
        stats = self.stats

        def counted(*args, **kwargs):
            rec = stats.get(name)
            if rec is None:
                rec = stats[name] = [0, 0.0, 0.0]
            rec[0] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, replacement) -> None:
        original = getattr(owner, attr) if not isinstance(owner, type) else owner.__dict__[attr]
        try:
            setattr(owner, attr, replacement)
        except dataclasses.FrozenInstanceError:
            object.__setattr__(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _patch_function(self, program, module_name, func_name, make_wrapper) -> None:
        """Replace one function wherever pdflow's modules refer to it.

        A function a later version of pdflow no longer has is skipped, so
        the benchmark keeps running and the span reads zero.
        """
        original = getattr(getattr(program, module_name), func_name, None)
        if original is None:
            return
        wrapped = make_wrapper(original)
        for module in vars(program).values():
            if getattr(module, func_name, None) is original:
                self._patch(module, func_name, wrapped)

    def install(self, program, objective=None) -> None:
        """Wrap the layers of one imported pdflow (see :func:`import_program`
        in ``run.py``), plus the gradient of ``objective`` if given."""
        sets = program.sets
        for cls in vars(sets).values():
            if isinstance(cls, type) and issubclass(cls, sets.SimpleSet):
                for attr, span in SET_METHOD_SPANS.items():
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self.wrap(span, cls.__dict__[attr]))
        for module_name, func_name, span in FUNCTION_SPANS:
            self._patch_function(
                program, module_name, func_name, lambda fn, s=span: self.wrap(s, fn)
            )
        for module_name, func_name, span in COUNTED_FUNCTIONS:
            self._patch_function(
                program, module_name, func_name, lambda fn, s=span: self.count(s, fn)
            )
        # the solver builds its recording closure per solve; trace what the
        # factory returns
        self._patch_function(
            program,
            "flow",
            "_make_recorder",
            lambda factory: lambda *a, **k: self.wrap("flow.record", factory(*a, **k)),
        )
        if objective is not None:
            self._patch(objective, "gradient", self.wrap("flow.grad", objective.gradient))

    def restore(self) -> None:
        """Put back every original patched by :meth:`install`."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            try:
                setattr(owner, attr, original)
            except dataclasses.FrozenInstanceError:
                object.__setattr__(owner, attr, original)
