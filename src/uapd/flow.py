"""Continuous-time mirror primal-dual flow and its Lyapunov certificate.

The solver's iteration discretizes a coupled ODE system in the primal
point x, the mirror variable w = grad phi(v), and the multiplier lam:

    x'   = grad_conj(w) - x
    w'   = [mu (grad phi(x) - w) - grad f(x) - A^T lam] / gamma(t)
    lam' = (A grad_conj(w) - b) / beta(t)

with gamma(t) = mu + (gamma0 - mu) e^{-t} and beta(t) = e^{-t}
evaluated analytically.  Integrating in w rather than v avoids
differentiating grad phi(v) along the trajectory.

Only smooth instances are accepted (a Hoelder certificate with nu = 1,
so h is differentiable, and no nonsmooth term); the point of the
module is to check the exponential decay of the Lyapunov function, not
to solve anything new.

A run's grid points are kept as columns, a :class:`Trajectory`: row i
of one preallocated (points, 2n + m) float array holds the stacked
(x, w, lam) of grid point i, and two float columns beside it hold t
and the Lyapunov value, 8 (2n + m + 2) B per point.  Anything that
reads one grid point takes such a stacked row and its time.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .geometry import check_number
from .solver import SolverConfig

__all__ = ["FlowDomainError", "Trajectory", "gamma_of", "beta_of", "flow_lyapunov",
           "integrate", "trajectory_to_csv"]


class FlowDomainError(RuntimeError):
    """Trajectory left the domain interior; ``state`` and ``t`` are the last valid point."""

    def __init__(self, message, state, t):
        super().__init__(message)
        self.state = state
        self.t = t


class Trajectory:
    """The grid points of a flow run, stored as columns.

    ``states`` is a (points, 2n + m) float array whose row i is the
    stacked (x, w, lam) of grid point i; ``t`` and ``lyapunov`` are float
    arrays of one value per point, and ``len`` counts the points.
    """

    def __init__(self, points, n, m):
        try:
            self.states = np.empty((points, 2 * n + m))
            self.t = np.empty(points)
            self.lyapunov = np.empty(points)
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"cannot preallocate a flow grid of {points} points") from exc

    def __len__(self):
        return len(self.t)


def gamma_of(t, mu, gamma0):
    return mu + (gamma0 - mu) * math.exp(-t)


def beta_of(t):
    return math.exp(-t)


def _interior(geometry, x):
    if not geometry.contains(x):
        return False
    if geometry.kind == "entropy" and float(np.min(x)) <= 0.0:
        return False
    return True


def _rhs(t, z, instance, gamma0):
    """Time derivative of the stacked state z = (x, w, lam), as one array."""
    geom = instance.geometry
    n = geom.dimension
    x, w, lam = z[:n], z[n:2 * n], z[2 * n:]
    v = geom.grad_conj(w)
    _, grad = instance.h(x)
    mu = instance.mu
    force = -grad
    if mu > 0:
        force = force + mu * (geom.grad(x) - w)
    if instance.constrained:
        force = force - instance.A.T @ lam
        dlam = (instance.A @ v - instance.b) / beta_of(t)
    else:
        dlam = np.zeros(0)
    return np.concatenate((v - x, force / gamma_of(t, mu, gamma0), dlam))


def flow_lyapunov(z, t, instance, gamma0):
    """``instance.lyapunov`` at (x, grad_conj(w), lam, gamma(t), beta(t)).

    ``z`` is a stacked (x, w, lam) point at time ``t``.  The solver's
    trace uses the same formula; ValueError without a known saddle point.
    """
    n = instance.geometry.dimension
    x, w, lam = z[:n], z[n:2 * n], z[2 * n:]
    return instance.lyapunov(instance.objective(x), instance.residual(x),
                             instance.geometry.grad_conj(w), lam,
                             gamma_of(t, instance.mu, gamma0), beta_of(t))


def _grid_steps(t_end, dt):
    """The number of dt steps that cover [0, t_end]; ValueError when there is none."""
    check_number(t_end, "t_end", positive=True)
    check_number(dt, "dt", positive=True)
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / dt = {t_end!r} / {dt!r} is not a finite step count")
    n_steps = round(ratio)
    if n_steps < 1:
        raise ValueError("t_end must cover at least one step")
    return n_steps


def integrate(instance, t_end, dt, gamma0=None):
    """Fixed-step classical Runge-Kutta trajectory of the flow.

    The flow starts where the solver does: the barycenter, w = grad phi(x)
    and lam = 0.  Returns a :class:`Trajectory` with one point per grid
    time including t = 0, 8 (2n + m + 2) B per point: each new grid point
    is written into its row of the preallocated state array.
    Bad input raises ValueError: an instance the flow does not take (not
    smooth, or no known saddle) or a bad grid (``dt`` or ``t_end`` not a
    positive finite number, no whole step, a step count that is not
    finite or cannot be preallocated).  A run that leaves the domain, a
    non-finite point included, raises FlowDomainError, a RuntimeError,
    carrying a copy of the last valid grid point and its time; numpy
    warns of nothing on the way.  ``gamma0`` is checked and defaulted by
    ``SolverConfig``, as in the solver, so both start from the same gamma.
    """
    if instance.holder is None or instance.holder[0] != 1.0 or instance.g_spec != "zero":
        raise ValueError("flow integration requires a differentiable objective (a holder "
                         "certificate with nu = 1) with no nonsmooth term")
    if instance.known_saddle is None:
        raise ValueError("flow integration needs instance.known_saddle")
    n_steps = _grid_steps(t_end, dt)
    geom = instance.geometry
    gamma0 = SolverConfig(gamma0=gamma0).resolved(instance).gamma0

    n = geom.dimension
    trajectory = Trajectory(n_steps + 1, n, instance.dual_dimension)
    rows, ts, values = trajectory.states, trajectory.t, trajectory.lyapunov
    x = geom.barycenter()
    z = rows[0]
    z[:n], z[n:2 * n], z[2 * n:] = x, geom.grad(x), 0.0
    ts[0] = 0.0
    values[0] = flow_lyapunov(z, 0.0, instance, gamma0)
    # quiet, as a point that overflows or turns NaN ends the run as FlowDomainError
    with np.errstate(all="ignore"):
        for step in range(n_steps):
            t = step * dt
            k = [_rhs(t, z, instance, gamma0)]
            for c in (0.5 * dt, 0.5 * dt, dt):
                point = z + c * k[-1]
                if not _interior(geom, point[:n]):
                    raise FlowDomainError(f"iterate left the domain interior at t = {t + c:.6g}",
                                          z.copy(), t)
                k.append(_rhs(t + c, point, instance, gamma0))
            new = rows[step + 1]
            np.add(z, (dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3]), out=new)
            t_new = (step + 1) * dt
            if not _interior(geom, new[:n]):
                raise FlowDomainError(f"iterate left the domain interior at t = {t_new:.6g}",
                                      z.copy(), t)
            if not np.isfinite(new).all():
                raise FlowDomainError(f"non-finite state at t = {t_new:.6g}", z.copy(), t)
            z = new
            ts[step + 1] = t_new
            values[step + 1] = flow_lyapunov(z, t_new, instance, gamma0)
    return trajectory


def trajectory_to_csv(trajectory, instance, path):
    """Write (t, lyapunov, et_lyapunov, feasibility) rows of a :class:`Trajectory` for plotting.

    Reads its t and Lyapunov columns and the x block of its state rows.
    The csv module's default dialect, as :func:`uapd.solver.trace_to_csv`.
    """
    xs = trajectory.states[:, :instance.geometry.dimension]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "lyapunov", "et_lyapunov", "feasibility"))
        writer.writerows((t, lyap, math.exp(t) * lyap, instance.feasibility(x))
                         for t, lyap, x in zip(trajectory.t.tolist(),
                                               trajectory.lyapunov.tolist(), xs))
