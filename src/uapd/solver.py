"""Accelerated primal-dual solver with an adaptive quadratic line search.

One iteration builds trial points from the running averages, solves a
composite prox subproblem, and accepts the step once the smooth part is
bracketed by its quadratic model up to a per-iteration tolerance.  The
curvature constant doubles on rejection from any M0 > 0 up to the float
range and never decreases, so nonsmooth and Hoelder-smooth objectives
are handled by the same loop without knowing their smoothness level.

Two tolerance policies are provided: the paper's delta_k = beta_{k+1} /
(k + 1) shrinks with the step-size parameter beta (no accuracy target is
needed up front), while ``solve(..., fixed_eps=eps)`` spreads a fixed
eps over iterations as eps / (k + 1); the state carries that eps.  mu
and ||A|| are read from the instance; a caller chooses only what
:class:`SolverConfig` holds.  A step is a function of the state alone:
each line-search trial builds a candidate :class:`SolverState`, and the
accepted candidate is the next state.

Every point is carried lifted, as (x, K x, A x - b) stacked by
``ProblemInstance.lift`` (K is the linear map inside h, if declared), so
one convex combination forms y_k or x_{k+1} with its images.  The
instance owns that layout: its ``*_block`` slices, ``constrained`` and
``dual_dimension`` are attributes set when it was built.  Work per
line-search trial: one lift of the prox output v_{k+1} (one K and, if
constrained, one A product), h with its gradient at y_k and h alone at
x_{k+1} (``instance.h_value``), both on carried K images, one
``instance.geometry.composite_prox`` and, if constrained, one A^T
product.  An instance that declares h = 0 (no oracle) makes neither h
call.  The dual update reads A v_{k+1} - b from the lift; the trace row
reuses h(x_{k+1}) and the carried A x_{k+1} - b, and so does its
Lyapunov value, whose f(x*) and A x* - b the instance formed when it
was built.  The carried images round differently from fresh products:
under 1e-12 relative on the recorded objective of the benchmark games.
Inputs are validated at the public boundary; the prox trusts its
anchors, prox outputs or their convex combinations.  Each trial makes
two finiteness checks, and the iteration loop silences numpy's warnings.

``solve`` returns its rows as a :class:`Trace`, typed columns of about
90 B per row that build an :class:`IterationRecord` when one is read.
"""

from __future__ import annotations

import csv
import math
import operator
import time
from array import array
from collections import deque, namedtuple
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .geometry import check_number

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "Trace",
    "SolverError",
    "LineSearchError",
    "initial_state",
    "inner_step",
    "line_search",
    "outer_update",
    "solve",
    "trace_to_csv",
    "TRACE_COLUMNS",
]


class SolverError(RuntimeError):
    """Raised when an oracle or update produces non-finite values."""


class LineSearchError(SolverError):
    """Raised when the curvature doubles past the float range.

    ``trials`` holds (M, h_at_candidate, model_value, tolerance) for
    every rejected trial, newest last.
    """

    def __init__(self, message, trials):
        super().__init__(message)
        self.trials = trials


@dataclass
class SolverConfig:
    """What a caller chooses: the starting constants and the stopping rule.

    gamma0 = None means min(1, ||A||^2) for constrained problems and 1
    otherwise, filled in by :meth:`resolved`.
    """

    gamma0: float | None = None
    M0: float = 1.0
    max_iterations: int = 1000
    feasibility_target: float | None = None
    gap_target: float | None = None

    def __post_init__(self):
        check_number(self.M0, "M0", positive=True)
        check_number(self.max_iterations, "max_iterations", integer=True)
        for name, positive in (("gamma0", True), ("feasibility_target", False),
                               ("gap_target", False)):
            if getattr(self, name) is not None:
                check_number(getattr(self, name), name, positive=positive)

    def resolved(self, instance):
        """A copy with the default gamma0 filled in from ``instance.a_norm``.

        ValueError for a ``gap_target`` on an instance without
        ``known_optimum``, which no run could meet.
        """
        if self.gap_target is not None and instance.known_optimum is None:
            raise ValueError("gap_target needs an instance with a known_optimum, "
                             "which this instance does not have")
        gamma0, a_norm = self.gamma0, instance.a_norm
        if gamma0 is None:
            gamma0 = min(1.0, a_norm ** 2) if a_norm > 0 else 1.0
        return replace(self, gamma0=gamma0)


@dataclass
class SolverState:
    """Iterate after k iterations, (x, v, lam, beta, gamma, M, k), with the step that led here.

    x_lift and v_lift are ``instance.lift`` of x and v, and x and v are
    views of their leading blocks; none of these arrays is modified in
    place.  alpha, delta and model are the step size, tolerance and
    quadratic model value of the trial that built the state (0.0 at the
    start), and h_at_x is h(x).  eps is the fixed tolerance numerator,
    None for the paper's rule.  line_search_total accumulates the
    rejected-trial count Sum_j i_j.
    """

    x: np.ndarray
    v: np.ndarray
    x_lift: np.ndarray
    v_lift: np.ndarray
    lam: np.ndarray
    beta: float
    gamma: float
    M: float
    k: int
    line_search_total: int
    alpha: float
    delta: float
    model: float
    h_at_x: float
    eps: float | None


TRACE_COLUMNS = ("k", "f_residual", "feasibility", "i_k", "M_k", "alpha_k",
                 "beta_k", "delta_k", "lyapunov", "wall_time_s", "objective")

# One trace row: the CSV's columns, then gamma_k, which the trace keeps and
# the CSV omits.  f_residual and lyapunov are None when unknown.
IterationRecord = namedtuple("IterationRecord", TRACE_COLUMNS + ("gamma_k",))


# The append of an absent trace column: a C-level sink that keeps nothing.
_drop = deque(maxlen=0).append


class Trace:
    """The rows of a solve, stored as typed columns.

    ``columns`` maps a field of :class:`IterationRecord` to its column:
    ``array('q')`` for ``k`` and ``i_k``, ``array('d')`` for the rest,
    about 90 B per row.  The ``f_residual`` and ``lyapunov`` columns
    exist only when asked for (an instance with ``known_optimum`` or
    ``known_saddle``); otherwise every row reads None there.
    ``trace[i]`` (an integer, negative too) and iteration build rows when
    they are read, with Python int and float values.
    """

    def __init__(self, f_residual=True, lyapunov=True):
        kept = {"f_residual": f_residual, "lyapunov": lyapunov}
        self.columns = {name: array("q" if name in ("k", "i_k") else "d")
                        for name in IterationRecord._fields if kept.get(name, True)}
        self._ordered = [self.columns.get(name) for name in IterationRecord._fields]
        self._appends = tuple(_drop if col is None else col.append for col in self._ordered)

    def append(self, k, f_residual, feasibility, i_k, M_k, alpha_k, beta_k, delta_k,
               lyapunov, wall_time_s, objective, gamma_k):
        """Add one row; an absent column drops its value.  Unrolled: it runs every iteration."""
        (push_k, push_f_residual, push_feasibility, push_i_k, push_M_k, push_alpha_k,
         push_beta_k, push_delta_k, push_lyapunov, push_wall_time_s, push_objective,
         push_gamma_k) = self._appends
        push_k(k)
        push_f_residual(f_residual)
        push_feasibility(feasibility)
        push_i_k(i_k)
        push_M_k(M_k)
        push_alpha_k(alpha_k)
        push_beta_k(beta_k)
        push_delta_k(delta_k)
        push_lyapunov(lyapunov)
        push_wall_time_s(wall_time_s)
        push_objective(objective)
        push_gamma_k(gamma_k)

    def __len__(self):
        return len(self.columns["k"])

    def __getitem__(self, index):
        index = operator.index(index)  # a slice is a TypeError, not a row of arrays
        return IterationRecord(*(None if col is None else col[index] for col in self._ordered))

    def __iter__(self):
        return map(IterationRecord, *(repeat(None) if col is None else col
                                      for col in self._ordered))


def _average(p, q, alpha):
    """(p + alpha q) / (1 + alpha), the same bits, with one temporary instead of three."""
    out = alpha * q
    out += p
    out /= 1.0 + alpha
    return out


def initial_state(instance, config, fixed_eps=None):
    """Barycenter start with a zero dual vector; ``fixed_eps`` picks the tolerance rule.

    ``fixed_eps``, when given, must be positive and finite (ValueError
    otherwise); None keeps the paper's rule.  ``config`` must be
    resolved (see :meth:`SolverConfig.resolved`).
    """
    if fixed_eps is not None:
        check_number(fixed_eps, "eps", positive=True)
    lifted = instance.lift(instance.geometry.barycenter())
    x_start = lifted[instance.x_block]
    return SolverState(
        x=x_start, v=x_start, x_lift=lifted, v_lift=lifted, lam=np.zeros(instance.dual_dimension),
        beta=1.0, gamma=config.gamma0, M=config.M0, k=0, line_search_total=0,
        alpha=0.0, delta=0.0, model=0.0,
        h_at_x=instance.h_value(x_start, lifted[instance.image_block]), eps=fixed_eps,
    )


def inner_step(state, M_trial, instance):
    """The candidate next state of iteration ``state.k`` for one curvature trial.

    The candidate's tolerance is beta_{k+1} / (k+1), or eps / (k+1) when
    ``state.eps`` is set; its line_search_total is still the state's.
    Raises :class:`SolverError` when alpha or gamma / alpha divides by
    zero, when h(y), the prox's linear term or h(x_{k+1}) - model is
    non-finite, or when the prox refuses its input; a non-finite prox
    output or h(x_{k+1}) always makes that difference non-finite.
    """
    beta, gamma, eps = state.beta, state.gamma, state.eps
    try:  # beta * M_trial and beta * gamma can underflow to 0
        alpha = math.sqrt(beta * gamma) / math.sqrt(beta * M_trial + instance.a_norm ** 2)
        rho = gamma / alpha
    except ZeroDivisionError:
        raise SolverError(f"step size underflow at iteration {state.k} "
                          f"(M = {M_trial:g})") from None
    beta_new = beta / (1.0 + alpha)
    delta = (beta_new if eps is None else eps) / (state.k + 1)

    y_lift = _average(state.x_lift, state.v_lift, alpha)
    y = y_lift[instance.x_block]
    zero_h = instance.h_oracle is None  # h = 0: no oracle call and no linear term from h
    h_y, grad_y = (0.0, None) if zero_h else instance.h(y, y_lift[instance.image_block])
    lam = state.lam
    if instance.constrained:
        c = instance.A.T @ (lam + (alpha / beta) * state.v_lift[instance.residual_block])
        if not zero_h:
            c = grad_y + c
    else:
        c = np.zeros(y.size) if zero_h else grad_y
    if not (math.isfinite(h_y) and np.logical_and.reduce(np.isfinite(c))):
        raise SolverError(f"non-finite h(y) or prox linear term at iteration {state.k} "
                          f"(M = {M_trial:g})")

    try:  # the prox divides c by mu + rho, which can overflow
        v_lift = instance.lift(instance.geometry.composite_prox(c, y, instance.mu, state.v, rho,
                                                                instance.g_spec))
    except ValueError as exc:
        raise SolverError(f"prox {exc} at iteration {state.k} (M = {M_trial:g})") from None
    x_lift = _average(state.x_lift, v_lift, alpha)
    x_new = x_lift[instance.x_block]
    d = x_new - y
    # the quadratic term stays when h = 0, so a non-finite prox output still raises
    model = 0.5 * M_trial * float(d @ d)
    if not zero_h:
        model = h_y + float(grad_y @ d) + model
    h_x = 0.0 if zero_h else instance.h_value(x_new, x_lift[instance.image_block])
    if not math.isfinite(h_x - model):
        raise SolverError(f"non-finite h(x) - model at iteration {state.k} (M = {M_trial:g})")

    if instance.constrained:  # the dual update reads A v_{k+1} - b from the lift
        lam = lam + (alpha / beta) * v_lift[instance.residual_block]
    return SolverState(
        x=x_new, v=v_lift[instance.x_block], x_lift=x_lift, v_lift=v_lift, lam=lam,
        beta=beta_new, gamma=(gamma + instance.mu * alpha) / (1.0 + alpha), M=M_trial,
        k=state.k + 1, line_search_total=state.line_search_total,
        alpha=alpha, delta=delta, model=model, h_at_x=h_x, eps=eps,
    )


def line_search(state, instance):
    """Double the curvature trial of iteration ``state.k`` until the quadratic model holds.

    Returns ``(accepted, i_k)``: the accepted candidate state, whose
    ``M`` is the accepted constant, and the number of rejected
    doublings.  The warm start is the previously accepted constant, so
    the accepted sequence never decreases.  The i-th trial is exactly
    2^i M, up to the float range.
    """
    trials = []
    M_trial = state.M
    while M_trial < math.inf:
        trial = inner_step(state, M_trial, instance)
        if trial.h_at_x - trial.model <= trial.delta / 2.0:
            return trial, len(trials)
        trials.append((M_trial, trial.h_at_x, trial.model, trial.delta))
        M_trial *= 2.0
    raise LineSearchError(f"line search doubled M past the float range at iteration "
                          f"{state.k}", trials)


def outer_update(state, accepted, i_k):
    """The next state: ``accepted``, with its ``i_k`` rejected trials counted."""
    accepted.line_search_total += i_k
    return accepted


def _record(trace, state, instance, i_k, wall):
    """Append the trace row of ``state``, whose step took ``i_k`` rejected trials.

    The carried A x_k - b serves feasibility and, when the instance has
    a known saddle point, the Lyapunov value.  Returns the row's
    (feasibility, f_residual) for the stopping test.
    """
    obj = state.h_at_x + instance.g_value(state.x)
    f_res = None if instance.known_optimum is None else obj - instance.known_optimum
    residual = state.x_lift[instance.residual_block] if instance.constrained else None
    feasibility = 0.0 if residual is None else math.sqrt(float(residual @ residual))
    lyap = None
    if instance.known_saddle is not None:
        lyap = instance.lyapunov(obj, residual, state.v, state.lam, state.gamma, state.beta)
    trace.append(state.k, f_res, feasibility, i_k, state.M, state.alpha, state.beta,
                 state.delta, lyap, wall, obj, state.gamma)
    return feasibility, f_res


def _targets_met(feasibility, f_residual, config):
    if config.feasibility_target is None and config.gap_target is None:
        return False
    if config.feasibility_target is not None and feasibility > config.feasibility_target:
        return False
    # resolved() has ensured that a gap_target comes with an f_residual
    if config.gap_target is not None and abs(f_residual) > config.gap_target:
        return False
    return True


def solve(instance, config=None, fixed_eps=None):
    """Run the adaptive method for up to ``config.max_iterations`` steps.

    Returns ``(final_state, trace)`` where the :class:`Trace` holds one
    row per iterate including the starting point.  ``fixed_eps``, when
    given, must be positive and finite: the tolerance is then eps / (k + 1),
    the fixed-tolerance baseline, instead of the paper's beta_{k+1} / (k + 1).
    ``initial_state`` stores it as ``state.eps``, which every step carries.

    Each iteration calls the module globals ``line_search``,
    ``outer_update`` and ``_record`` by name.  That is the seam for
    instrumentation: a wrapper of ``outer_update(state, accepted, i_k)``
    sees every accepted step at full precision, the state before it and
    the accepted candidate, and must return the new state.
    """
    config = (config or SolverConfig()).resolved(instance)
    state = initial_state(instance, config, fixed_eps)
    t0 = time.perf_counter()
    trace = Trace(f_residual=instance.known_optimum is not None,
                  lyapunov=instance.known_saddle is not None)
    _record(trace, state, instance, 0, 0.0)
    # quiet, as a value that overflows or turns NaN is checked and raises SolverError
    with np.errstate(all="ignore"):
        for _ in range(config.max_iterations):
            accepted, i_k = line_search(state, instance)
            state = outer_update(state, accepted, i_k)
            feasibility, f_res = _record(trace, state, instance, i_k, time.perf_counter() - t0)
            if _targets_met(feasibility, f_res, config):
                break
    return state, trace


def trace_to_csv(trace, path):
    """Write a :class:`Trace` from its columns (see TRACE_COLUMNS); absent ones stay blank.

    The csv module's default dialect: CRLF line ends, None as an empty
    cell, a float as its repr.
    """
    cells = [trace.columns.get(name, repeat(None)) for name in TRACE_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(zip(*cells))
