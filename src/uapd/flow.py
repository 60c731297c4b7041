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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .solver import SolverConfig

__all__ = ["FlowState", "FlowDomainError", "gamma_of", "beta_of", "flow_lyapunov",
           "integrate", "trajectory_to_csv"]


@dataclass
class FlowState:
    x: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    t: float


class FlowDomainError(RuntimeError):
    """Trajectory left the domain interior; carries the last valid state."""

    def __init__(self, message, last_state):
        super().__init__(message)
        self.last_state = last_state


def gamma_of(t, mu, gamma0):
    return mu + (gamma0 - mu) * math.exp(-t)


def beta_of(t):
    return math.exp(-t)


def _check_smooth(instance):
    if instance.holder is None or instance.holder[0] != 1.0 or instance.g_spec != "zero":
        raise ValueError("flow integration requires a differentiable objective (a holder "
                         "certificate with nu = 1) with no nonsmooth term")


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


def flow_lyapunov(state, instance, gamma0):
    """``instance.lyapunov`` at (x, grad_conj(w), lam, gamma(t), beta(t)).

    The solver's trace uses the same formula; ValueError without a known
    saddle point.
    """
    return instance.lyapunov(instance.objective(state.x), instance.residual(state.x),
                             instance.geometry.grad_conj(state.w), state.lam,
                             gamma_of(state.t, instance.mu, gamma0), beta_of(state.t))


def integrate(instance, t_end, dt, gamma0=None):
    """Fixed-step classical Runge-Kutta trajectory of the flow.

    The flow starts where the solver does: the barycenter, w = grad phi(x)
    and lam = 0.  Returns a list of (FlowState, Lyapunov value) pairs, one
    per grid point including t = 0; a state's fields are views into its
    point's stacked (x, w, lam).  Domain exit raises FlowDomainError
    carrying the last valid grid state.  ``gamma0`` defaults to the
    solver's (``SolverConfig.resolved``), so both start from the same gamma.
    """
    _check_smooth(instance)
    if instance.known_saddle is None:
        raise ValueError("flow integration needs instance.known_saddle")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    geom = instance.geometry
    if gamma0 is None:
        gamma0 = SolverConfig().resolved(instance).gamma0
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ValueError("t_end must cover at least one step")

    n = geom.dimension
    x = geom.barycenter()
    z = np.concatenate((x, geom.grad(x), np.zeros(instance.dual_dimension)))
    state = FlowState(x=z[:n], w=z[n:2 * n], lam=z[2 * n:], t=0.0)
    trajectory = [(state, flow_lyapunov(state, instance, gamma0))]
    for step in range(n_steps):
        t = step * dt
        k = [_rhs(t, z, instance, gamma0)]
        for c in (0.5 * dt, 0.5 * dt, dt):
            point = z + c * k[-1]
            if not _interior(geom, point[:n]):
                raise FlowDomainError(
                    f"iterate left the domain interior at t = {t + c:.6g}", state)
            k.append(_rhs(t + c, point, instance, gamma0))
        z = z + (dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
        t_new = (step + 1) * dt
        if not _interior(geom, z[:n]):
            raise FlowDomainError(
                f"iterate left the domain interior at t = {t_new:.6g}", state)
        if not np.isfinite(z).all():
            raise FlowDomainError(f"non-finite state at t = {t_new:.6g}", state)
        state = FlowState(x=z[:n], w=z[n:2 * n], lam=z[2 * n:], t=t_new)
        trajectory.append((state, flow_lyapunov(state, instance, gamma0)))
    return trajectory


def trajectory_to_csv(trajectory, instance, path):
    """Write (t, lyapunov, et_lyapunov, feasibility) rows for plotting.

    The csv module's default dialect, as :func:`uapd.solver.trace_to_csv`.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "lyapunov", "et_lyapunov", "feasibility"))
        writer.writerows((state.t, lyap, math.exp(state.t) * lyap, instance.feasibility(state.x))
                         for state, lyap in trajectory)
