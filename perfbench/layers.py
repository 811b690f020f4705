"""Per-layer tracing from outside the package.

`hooks(tracer)` replaces, for the duration of a `with` block, the module
attributes through which the package's callers reach each layer (for
example `harness.solve_ll`, the name `run_closed_loop` looks up), and puts
the originals back afterwards.  Spans are kept in memory as totals per name:
wall time, self time (wall time minus the time of wrapped calls made inside
it), calls, solver iterations and raised exceptions.  A hook whose target no
longer exists raises AttributeError, so a refactor cannot silently turn a
layer's numbers into zeros.
"""
from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Span names are "<module>.<function>", the module being where the function
# is defined.  The parts of one slow tick the controller must finish before
# the fast sub-loop can start:
TICK_PARTS = ("highlevel.solve_hl", "lowlevel.simulate_auxiliary",
              "lowlevel.solve_ll")


class Tracer:
    """Span totals for one pipeline run."""

    def __init__(self):
        self.total = Counter()       # span name -> seconds
        self.self_time = Counter()   # span name -> seconds outside child spans
        self.counts = Counter()      # "<span>.calls", ".iters", ".failed", ...
        self.ticks = []              # seconds of TICK_PARTS per slow tick
        self._children = []          # child seconds of each open span
        self._tick = None

    def _exit(self, name: str, seconds: float):
        child = self._children.pop()
        if self._children:
            self._children[-1] += seconds
        self.total[name] += seconds
        self.self_time[name] += seconds - child
        self.counts[name + ".calls"] += 1
        if name == TICK_PARTS[0]:
            self._close_tick()
            self._tick = seconds
        elif name in TICK_PARTS and self._tick is not None:
            self._tick += seconds
        elif name == "harness.run_closed_loop":
            self._close_tick()

    def _close_tick(self):
        if self._tick is not None:
            self.ticks.append(self._tick)
        self._tick = None

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = perf_counter()
        try:
            yield
        except Exception:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            self._exit(name, perf_counter() - start)

    def wrap(self, name: str, fn, iters: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if iters:
                self.counts[name + ".iters"] += int(result.iterations)
            return result
        return traced

    def count(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted


class _ModuleView:
    """Stands in for a module: `overrides` first, the module for the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def hooks(tracer: Tracer):
    """Route the package's internal layer calls through `tracer`."""
    import scipy
    import scipy.linalg

    from hiermpc import analysis, harness, highlevel, lowlevel, solver, trace

    # (module, attribute the caller looks up, span name, result has .iterations)
    spans = [
        (harness, "reduce_model", "reduction.reduce_model", False),
        (harness, "verify_reduction", "reduction.verify_reduction", False),
        (harness, "design_gain", "highlevel.design_gain", False),
        (harness, "design_ll_gain", "lowlevel.design_ll_gain", False),
        (harness, "tune_radii", "analysis.tune_radii", False),
        (harness, "certificate_constants", "analysis.certificate_constants", False),
        (harness, "rpi_outer", "sets.rpi_outer", False),
        (harness, "terminal_set", "sets.terminal_set", False),
        (harness, "solve_hl", "highlevel.solve_hl", True),
        (harness, "simulate_auxiliary", "lowlevel.simulate_auxiliary", False),
        (harness, "solve_ll", "lowlevel.solve_ll", True),
        (harness, "apply_correction", "lowlevel.apply_correction", False),
        (highlevel, "solve_qp", "solver.solve_qp", True),
        (lowlevel, "solve_qp", "solver.solve_qp", True),
        (analysis, "solve_lp", "solver.solve_lp", False),
        (trace, "load_archive", "trace.load_archive", False),
    ]
    saved = []

    def replace(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module, attr, name, iters in spans:
            replace(module, attr, tracer.wrap(name, getattr(module, attr), iters))
        for cls in (solver.BallConstraint, solver.EllipsoidConstraint):
            replace(cls, "project", tracer.count("solver.project.calls", cls.project))
        # Count KKT factorizations where `solver` calls scipy.linalg.lu_factor,
        # leaving every other scipy user untouched.
        linalg = _ModuleView(scipy.linalg, lu_factor=tracer.count(
            "solver.lu_factor.calls", scipy.linalg.lu_factor))
        if solver.scipy is not scipy:
            raise AttributeError("hiermpc.solver no longer reaches lu_factor "
                                 "through its module attribute `scipy`")
        replace(solver, "scipy", _ModuleView(scipy, linalg=linalg))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
