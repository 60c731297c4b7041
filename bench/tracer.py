"""Spans and counts around each layer of uapd, installed from outside.

The traced benchmark run wraps the library's functions by patching
module globals (``uapd.solver.line_search``, ``uapd.cli.envelope``, ...)
and instance attributes (``instance.h``, ``geometry.composite_prox``),
and swaps the constraint matrix for a view that counts mat-vecs.  The
wrappers only time and count: they pass arguments and results through
untouched, so a traced solve does the same arithmetic as an untraced
one (the benchmark checks this by comparing trace digests).

Every span records its inclusive time and its call count.  A span's
self time is its inclusive time minus the time of the spans it called
directly.  Spans are kept as running totals in memory, not as events.
"""

from __future__ import annotations

import builtins
import time
from collections import defaultdict

import numpy as np

import uapd.cli
import uapd.flow
import uapd.problems
import uapd.solver

_MISSING = object()

# (module, global name, span name).  cli imports some functions by name,
# so they are wrapped in both namespaces; each wrapper wraps the
# original function, so no call is counted twice.
MODULE_SPANS = (
    (uapd.solver, "line_search", "solver.line_search"),
    (uapd.solver, "inner_step", "solver.inner_step"),
    (uapd.solver, "outer_update", "solver.outer_update"),
    (uapd.solver, "_record", "solver.record"),
    (uapd.flow, "_rhs", "flow.rhs"),
    (uapd.flow, "flow_lyapunov", "flow.lyapunov"),
    (uapd.cli, "envelope", "analysis.envelope"),
    (uapd.cli, "fit_rate", "analysis.fit"),
    (uapd.cli, "trace_to_csv", "cli.csv"),
    (uapd.cli, "trajectory_to_csv", "cli.csv"),
    (uapd.problems, "make_matrix_game", "problems.instance_build"),
    (uapd.problems, "make_regularized_matrix_game", "problems.instance_build"),
    (uapd.problems, "make_steiner", "problems.instance_build"),
    (uapd.problems, "make_basis_pursuit", "problems.instance_build"),
    (uapd.problems, "make_synthetic_qp", "problems.instance_build"),
)

INSTANCE_SPANS = (
    ("h", "problems.h"),
    ("objective", "problems.objective"),
    ("feasibility", "problems.feasibility"),
)

GEOMETRY_SPANS = (
    ("composite_prox", "geometry.prox"),
    ("divergence", "geometry.divergence"),
    ("grad_conj", "geometry.grad_conj"),
)


class CountingMatrix(np.ndarray):
    """Constraint matrix view that counts ``@`` products.

    Transposes and other views inherit the tracer.  Operands are turned
    back into plain arrays before the ufunc runs, so results are plain
    arrays computed exactly as without the view.
    """

    def __array_finalize__(self, obj):
        self.tracer = getattr(obj, "tracer", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__" and self.tracer is not None:
            self.tracer.counts["problems.matvec"] += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, CountingMatrix) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class SolveLog:
    """Iterations, rejected trials and final M of every ``solve`` call.

    Installed in untraced runs too: it adds one Python call per solve,
    none per iteration.
    """

    def __init__(self):
        self.solves = []

    def wrap(self, solve):
        def logged(*args, **kwargs):
            state, trace = solve(*args, **kwargs)
            self.solves.append((trace[-1].k, state.line_search_total, state.M))
            return state, trace
        return logged

    @property
    def iters(self):
        return sum(k for k, _, _ in self.solves)

    @property
    def rejected(self):
        return sum(r for _, r, _ in self.solves)

    @property
    def trials(self):
        return self.iters + self.rejected


def log_solves(patches, log, wrap=lambda fn: fn):
    """Route ``solve`` (as the solver and the CLI call it) through ``log``."""
    solve = wrap(log.wrap(uapd.solver.solve))
    patches.set(uapd.solver, "solve", solve)
    patches.set(uapd.cli, "solve", solve)


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


class Tracer:
    """Inclusive time, child time and call counts per span name."""

    def __init__(self):
        self.time = defaultdict(float)
        self.child_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.nested_calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.flow_steps = 0
        self._stack = []

    def wrap(self, fn, name):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.time[name] += dt
                self.calls[name] += 1
                if parent is not None:
                    self.child_time[parent] += dt
                    self.nested_calls[parent, name] += 1
        return traced

    def self_time(self, name):
        return self.time[name] - self.child_time[name]

    def instrument_instance(self, patches, instance):
        for attr, name in INSTANCE_SPANS:
            patches.set(instance, attr, self.wrap(getattr(instance, attr), name))
        geometry = instance.geometry
        for attr, name in GEOMETRY_SPANS:
            patches.set(geometry, attr, self.wrap(getattr(geometry, attr), name))
        if instance.A is not None:
            counting = instance.A.view(CountingMatrix)
            counting.tracer = self
            patches.set(instance, "A", counting)
        return instance

    def install(self, patches, solve_log):
        """Patch every layer boundary; ``patches.undo()`` removes them."""
        for module, attr, name in MODULE_SPANS:
            patches.set(module, attr, self.wrap(getattr(module, attr), name))
        log_solves(patches, solve_log, lambda fn: self.wrap(fn, "solver.solve"))

        integrate = self.wrap(uapd.cli.integrate, "flow.integrate")

        def counted_integrate(*args, **kwargs):
            trajectory = integrate(*args, **kwargs)
            self.flow_steps += len(trajectory) - 1
            return trajectory
        patches.set(uapd.cli, "integrate", counted_integrate)

        resolve = self.wrap(uapd.cli._resolve_instance, "cli.resolve")
        patches.set(uapd.cli, "_resolve_instance",
                    lambda *a, **kw: self.instrument_instance(patches, resolve(*a, **kw)))
        patches.set(uapd.cli, "open", self._csv_open)

    def _csv_open(self, path, *args, **kwargs):
        """``open`` for cli's own writers: the ``with`` block of a CSV is a span."""
        fh = builtins.open(path, *args, **kwargs)
        if not str(path).endswith(".csv"):
            return fh
        return _SpanFile(self, fh)


class _SpanFile:
    """Context manager timing a CSV file's ``with`` block as ``cli.csv``."""

    def __init__(self, tracer, fh):
        self.tracer = tracer
        self.fh = fh

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self.fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self.fh.__exit__(*exc)
        finally:
            self.tracer.time["cli.csv"] += time.perf_counter() - self.t0
            self.tracer.calls["cli.csv"] += 1
