"""Analytic constants, decay envelopes and empirical rate fitting.

Everything here is a pure function of scalars or of trace columns:
the effective curvature constant that turns a Hoelder bound into a
quadratic model, the a posteriori bounds on the accepted curvature and
on the total line-search count, the closed-form envelopes of the
auxiliary differential inequality, the structural decay rates of the
step-size parameter beta, and a log-log slope fitter.

The multiplicative constants in the decay bounds are existential, so
``beta_rate_bound`` and ``envelope`` evaluate the structural expression
with constant 1; callers fit the constant on a window of data and check
domination elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecayBoundSpec",
    "holder_constant",
    "mk_bound",
    "line_search_total_bound",
    "envelope",
    "decay_spec_for_solver",
    "beta_rate_bound",
    "rate_bound_preconditions",
    "fit_rate",
]

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


def holder_constant(nu, delta, M_nu):
    """Effective curvature M(nu, delta) = delta^((nu-1)/(nu+1)) * M_nu^(2/(nu+1)).

    For nu = 1 the tolerance dependence vanishes and the value is M_nu.
    Decreasing in delta for nu < 1.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    if delta <= 0 or M_nu <= 0:
        raise ValueError("delta and M_nu must be positive")
    return delta ** ((nu - 1.0) / (nu + 1.0)) * M_nu ** (2.0 / (nu + 1.0))


def mk_bound(nu, M_nu, M0, delta_k):
    """Upper bound max{2*sqrt(2)*M(nu, delta_k), M0} on the accepted curvature."""
    if M0 <= 0:
        raise ValueError("M0 must be positive")
    return max(TWO_SQRT2 * holder_constant(nu, delta_k, M_nu), M0)


def line_search_total_bound(nu, M_nu, M0, k, delta_k1):
    """A posteriori bound on Sum_{j<=k} i_j given the realized delta_{k+1}."""
    ratio = holder_constant(nu, delta_k1, M_nu) / (M0 / TWO_SQRT2)
    return k + 1 + max(1.0, math.log2(ratio))


@dataclass
class DecayBoundSpec:
    """Parameters of the scalar inequality y' <= -sigma y^theta / sqrt(varphi y^(2 eta) + R^2).

    ``varphi`` and ``Sigma`` map t to scalars; Sigma is the integral of
    sigma from 0 to t.  Requires theta > 1 and 0 <= eta <= theta - 1.
    """

    theta: float
    eta: float
    R: float
    varphi: object
    Sigma: object

    def __post_init__(self):
        if self.theta <= 1.0:
            raise ValueError("theta must exceed 1")
        if not 0.0 <= self.eta <= self.theta - 1.0:
            raise ValueError("eta must lie in [0, theta - 1]")
        if self.R < 0.0:
            raise ValueError("R must be nonnegative")


def envelope(spec, t):
    """Closed-form decay envelope for the inequality described by ``spec``.

    For eta = theta - 1 returns Y1 + Y2, otherwise Y2 + Y3, where

        Y1 = exp(-Sigma / (2 sqrt(varphi)))
        Y2 = (1 + (theta-1) Sigma / (2R))^(1/(1-theta))
        Y3 = (1 + (theta-eta-1) Sigma / (2 sqrt(varphi)))^(1/(eta+1-theta))

    The Y2 term is dropped when R = 0.  Constant factors are absorbed by
    the caller's fit.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    S = float(spec.Sigma(t))
    phi = float(spec.varphi(t))
    if S < 0 or phi <= 0:
        raise ValueError("Sigma must be nonnegative and varphi positive")
    theta, eta, R = spec.theta, spec.eta, spec.R
    sqrt_phi = math.sqrt(phi)
    y2 = 0.0
    if R > 0:
        y2 = (1.0 + (theta - 1.0) * S / (2.0 * R)) ** (1.0 / (1.0 - theta))
    if abs(eta - (theta - 1.0)) <= 1e-12:
        y1 = math.exp(-S / (2.0 * sqrt_phi))
        return y1 + y2
    y3 = (1.0 + (theta - eta - 1.0) * S / (2.0 * sqrt_phi)) ** (1.0 / (eta + 1.0 - theta))
    return y2 + y3


def decay_spec_for_solver(nu, mu, gamma0, gamma_min, A_norm, M_nu):
    """Map a solver run onto the differential-inequality parameters.

    theta = 2 with Sigma(t) = sqrt(gamma0) t / 2 for mu = 0, theta = 3/2
    with Sigma(t) = sqrt(gamma_min) t / 2 for mu > 0; in both cases
    eta = nu / (1 + nu) and varphi(t) absorbs the 8 sqrt(2) factor of
    the discrete-to-continuous comparison.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    eta = nu / (1.0 + nu)
    power = (1.0 - nu) / (1.0 + nu)
    factor = 8.0 * math.sqrt(2.0) * M_nu ** (2.0 / (1.0 + nu))

    def varphi(t):
        return factor * (t + 1.0) ** power

    if mu == 0:
        rate = math.sqrt(gamma0) / 2.0
        theta = 2.0
    else:
        rate = math.sqrt(gamma_min) / 2.0
        theta = 1.5

    def Sigma(t):
        return rate * t

    return DecayBoundSpec(theta=theta, eta=eta, R=A_norm, varphi=varphi, Sigma=Sigma)


def beta_rate_bound(nu, mu, gamma0, gamma_min, A_norm, M_nu, k):
    """Structural decay rate of beta_k with the overall constant set to 1.

    mu = 0:  |A| / (sqrt(gamma0) k) + M_nu / (gamma0^((1+nu)/2) k^((1+3nu)/2))
    mu > 0, nu < 1:
        |A|^2 / (gamma_min k^2)
        + M_nu^(2/(1-nu)) / (gamma_min^((1+nu)/(1-nu)) k^((1+3nu)/(1-nu)))
    mu > 0, nu = 1:
        |A|^2 / (gamma_min k^2) + exp(-k sqrt(gamma_min / M_nu) / (8 sqrt(3)))
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    if mu == 0:
        return (A_norm / (math.sqrt(gamma0) * k)
                + M_nu / (gamma0 ** ((1.0 + nu) / 2.0) * k ** ((1.0 + 3.0 * nu) / 2.0)))
    head = A_norm ** 2 / (gamma_min * k ** 2)
    if nu < 1.0:
        tail = (M_nu ** (2.0 / (1.0 - nu))
                / (gamma_min ** ((1.0 + nu) / (1.0 - nu)) * k ** ((1.0 + 3.0 * nu) / (1.0 - nu))))
    else:
        tail = math.exp(-k * math.sqrt(gamma_min / M_nu) / (8.0 * math.sqrt(3.0)))
    return head + tail


def rate_bound_preconditions(nu, mu, gamma0, A_norm, M_nu, M0):
    """Flag (do not enforce) the assumptions behind the decay bounds.

    Returns a list of human-readable violations, empty when all hold:
    M0 <= M_nu^(2/(1+nu)) and max(gamma0, mu) <= |A|^2.
    """
    issues = []
    cap = M_nu ** (2.0 / (1.0 + nu))
    if M0 > cap:
        issues.append(f"M0 = {M0:g} exceeds M_nu^(2/(1+nu)) = {cap:g}")
    if max(gamma0, mu) > A_norm ** 2:
        issues.append(
            f"max(gamma0, mu) = {max(gamma0, mu):g} exceeds |A|^2 = {A_norm ** 2:g}")
    return issues


def fit_rate(ks, values, k_min, k_max):
    """Least-squares slope of log(value) against log(k) over a window.

    ``ks`` and ``values`` are two columns of one length, such as a
    trace's ``columns["k"]`` and ``columns["beta_k"]``.  The window must
    start at k >= 1 and its values must be positive.
    """
    if k_min < 1:
        raise ValueError(f"k_min must be at least 1, got {k_min}")
    ks, values = np.asarray(ks, dtype=float), np.asarray(values, dtype=float)
    window = (k_min <= ks) & (ks <= k_max)
    if np.count_nonzero(window) < 2:
        raise ValueError(f"window [{k_min}, {k_max}] selects fewer than two records")
    values = values[window]
    if np.any(values <= 0):
        raise ValueError("nonpositive values in the window")
    slope, _ = np.polyfit(np.log(ks[window]), np.log(values), 1)
    return float(slope)
