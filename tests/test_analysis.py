"""Tests for the analytic constants, envelopes and rate fitting."""

import math

import numpy as np
import pytest

from uapd import analysis, problems, solver
from helpers import integrate_scalar_decay

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------- constants

def test_holder_constant_smooth_case_ignores_delta():
    for delta in (1e-8, 0.37, 5.0):
        assert analysis.holder_constant(1.0, delta, 3.2) == pytest.approx(3.2, rel=1e-12)


def test_holder_constant_nonsmooth_case():
    # nu = 0: M(0, delta) = M^2 / delta
    assert analysis.holder_constant(0.0, 0.25, 2.0) == pytest.approx(16.0, rel=1e-12)
    assert analysis.holder_constant(0.0, 2.0, 3.0) == pytest.approx(4.5, rel=1e-12)


def test_holder_constant_intermediate_exponent():
    # nu = 1/2: delta^(-1/3) M^(4/3); pick numbers with exact roots
    assert analysis.holder_constant(0.5, 8.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert analysis.holder_constant(0.5, 1.0, 8.0) == pytest.approx(16.0, rel=1e-12)


def test_holder_constant_decreasing_in_delta_below_one():
    deltas = np.logspace(-6, 2, 30)
    for nu in (0.0, 0.3, 0.9):
        vals = [analysis.holder_constant(nu, d, 1.7) for d in deltas]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_holder_constant_rejects_bad_arguments():
    with pytest.raises(ValueError):
        analysis.holder_constant(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        analysis.holder_constant(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        analysis.holder_constant(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        analysis.holder_constant(0.5, 1.0, -2.0)


def test_mk_bound_takes_the_larger_branch():
    # 2 sqrt(2) M(0, 0.25, 2) = 32 sqrt(2) dominates M0 = 1
    assert analysis.mk_bound(0.0, 2.0, 1.0, 0.25) == pytest.approx(32.0 * math.sqrt(2.0))
    # a large M0 wins over 2 sqrt(2) * 1
    assert analysis.mk_bound(1.0, 1.0, 10.0, 0.1) == 10.0
    with pytest.raises(ValueError):
        analysis.mk_bound(1.0, 1.0, 0.0, 0.1)


def test_line_search_bound_floor_at_one():
    # a tiny effective curvature still charges k + 2 trials overall
    assert analysis.line_search_total_bound(1.0, 1e-6, 1.0, 10, 0.5) == 10 + 1 + 1.0


def test_line_search_bound_grows_as_tolerance_shrinks():
    k = 50
    vals = [analysis.line_search_total_bound(0.0, 2.0, 1.0, k, eps / (k + 1))
            for eps in (1e-1, 1e-3, 1e-6)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(ValueError):
        analysis.line_search_total_bound(0.0, 2.0, 1.0, k, 0.0)


# ---------------------------------------------------------------- envelopes

def constant_spec(theta, eta, R, phi=1.0, rate=1.0):
    return analysis.DecayBoundSpec(theta=theta, eta=eta, R=R,
                                   varphi=lambda t: phi,
                                   Sigma=lambda t: rate * t)


def test_spec_validation():
    with pytest.raises(ValueError):
        constant_spec(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        constant_spec(2.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        constant_spec(2.0, 1.2, 1.0)
    with pytest.raises(ValueError):
        constant_spec(2.0, 0.5, -1.0)


def test_envelope_at_zero_sums_both_terms():
    assert analysis.envelope(constant_spec(2.0, 0.5, 1.0), 0.0) == pytest.approx(2.0)
    assert analysis.envelope(constant_spec(2.0, 1.0, 3.0), 0.0) == pytest.approx(2.0)
    # R = 0 drops the algebraic constraint term
    assert analysis.envelope(constant_spec(2.0, 0.5, 0.0), 0.0) == pytest.approx(1.0)


def test_envelope_exponential_branch_value():
    # eta = theta - 1, R = 0, phi = 4: envelope = exp(-S / 4)
    spec = constant_spec(2.0, 1.0, 0.0, phi=4.0)
    assert analysis.envelope(spec, 3.0) == pytest.approx(math.exp(-0.75), rel=1e-12)


def test_envelope_algebraic_branch_values():
    # theta = 2, eta = 0, R = 1, phi = 1: both terms equal (1 + S/2)^(-1)
    spec = constant_spec(2.0, 0.0, 1.0)
    assert analysis.envelope(spec, 2.0) == pytest.approx(1.0, rel=1e-12)
    # theta = 3 with matching R and phi: (1 + S)^(-1/2) twice
    spec = constant_spec(3.0, 0.0, 1.0)
    assert analysis.envelope(spec, 3.0) == pytest.approx(1.0, rel=1e-12)


def test_envelope_rejects_bad_evaluations():
    spec = constant_spec(2.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        analysis.envelope(spec, -1.0)
    bad = analysis.DecayBoundSpec(theta=2.0, eta=0.5, R=1.0,
                                  varphi=lambda t: 0.0, Sigma=lambda t: t)
    with pytest.raises(ValueError):
        analysis.envelope(bad, 1.0)
    bad = analysis.DecayBoundSpec(theta=2.0, eta=0.5, R=1.0,
                                  varphi=lambda t: 1.0, Sigma=lambda t: -t)
    with pytest.raises(ValueError):
        analysis.envelope(bad, 1.0)


def test_envelope_nonincreasing_in_t():
    for spec in (constant_spec(2.0, 1.0 / 3.0, 1.0),
                 constant_spec(1.5, 0.5, 0.5, phi=4.0),
                 constant_spec(2.0, 1.0, 0.0, phi=2.0)):
        ts = np.linspace(0.0, 20.0, 400)
        vals = [analysis.envelope(spec, t) for t in ts]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12)


def test_envelope_dominates_ode_oracle():
    # brute-force integration of the underlying scalar inequality with
    # equality in place of <=; the closed form must stay above it
    cases = [
        (2.0, 1.0 / 3.0, 1.0, 1.0),   # the algebraic branch
        (1.5, 0.5, 0.5, 4.0),         # eta = theta - 1: exponential branch
        (2.0, 0.0, 0.0, 1.0),         # R = 0, exactly solvable y = 1/(1+t)
    ]
    for theta, eta, R, phi in cases:
        spec = constant_spec(theta, eta, R, phi=phi)
        for t in (1.0, 5.0, 20.0):
            y = integrate_scalar_decay(theta, eta, R, lambda s: 1.0,
                                       lambda s: phi, t, 1e-4)
            y_fine = integrate_scalar_decay(theta, eta, R, lambda s: 1.0,
                                            lambda s: phi, t, 5e-5)
            # Richardson-style consistency: halving the step barely moves y
            assert abs(y - y_fine) <= 1e-4 * max(y, 1e-12)
            assert y <= analysis.envelope(spec, t)
            assert y_fine <= analysis.envelope(spec, t)


def test_ode_oracle_matches_closed_form_solution():
    # theta = 2, eta = 0, R = 0, phi = 1 integrates y' = -y^2 exactly
    for t in (1.0, 5.0, 20.0):
        y = integrate_scalar_decay(2.0, 0.0, 0.0, lambda s: 1.0, lambda s: 1.0, t, 1e-4)
        assert y == pytest.approx(1.0 / (1.0 + t), rel=1e-4)


# ------------------------------------------------------- solver rate bounds

def test_decay_spec_for_solver_mappings():
    spec = analysis.decay_spec_for_solver(1.0, 0.0, 4.0, 4.0, 2.5, 3.0)
    assert spec.theta == 2.0
    assert spec.eta == pytest.approx(0.5)
    assert spec.R == 2.5
    assert spec.Sigma(4.0) == pytest.approx(math.sqrt(4.0) * 4.0 / 2.0)
    # nu = 1 makes varphi constant: 8 sqrt(2) M_nu
    assert spec.varphi(0.0) == pytest.approx(8.0 * math.sqrt(2.0) * 3.0)
    assert spec.varphi(7.0) == pytest.approx(spec.varphi(0.0))

    spec = analysis.decay_spec_for_solver(0.0, 0.5, 1.0, 0.25, 2.0, 3.0)
    assert spec.theta == 1.5
    assert spec.eta == 0.0
    assert spec.Sigma(2.0) == pytest.approx(math.sqrt(0.25))
    # nu = 0 gives varphi growing like (t + 1) and M_nu squared
    assert spec.varphi(0.0) == pytest.approx(8.0 * math.sqrt(2.0) * 9.0)
    assert spec.varphi(3.0) == pytest.approx(4.0 * spec.varphi(0.0))

    with pytest.raises(ValueError):
        analysis.decay_spec_for_solver(1.5, 0.0, 1.0, 1.0, 1.0, 1.0)


def test_beta_rate_bound_smooth_unregularized():
    # mu = 0, nu = 1: |A|/(sqrt(g0) k) + M/(g0 k^2)
    val = analysis.beta_rate_bound(1.0, 0.0, 4.0, 4.0, 6.0, 8.0, 10)
    assert val == pytest.approx(6.0 / 20.0 + 8.0 / 400.0, rel=1e-12)


def test_beta_rate_bound_nonsmooth_unregularized():
    # mu = 0, nu = 0: |A|/(sqrt(g0) k) + M/(sqrt(g0) sqrt(k))
    val = analysis.beta_rate_bound(0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 4)
    assert val == pytest.approx(0.25 + 1.0, rel=1e-12)


def test_beta_rate_bound_strongly_convex_smooth():
    # mu > 0, nu = 1: |A|^2/(gmin k^2) + exp(-k sqrt(gmin/M) / (8 sqrt 3))
    val = analysis.beta_rate_bound(1.0, 1.0, 1.0, 0.25, 2.0, 4.0, 8)
    expected = 4.0 / (0.25 * 64.0) + math.exp(-8.0 * 0.25 / (8.0 * math.sqrt(3.0)))
    assert val == pytest.approx(expected, rel=1e-12)


def test_beta_rate_bound_strongly_convex_intermediate():
    # mu > 0, nu = 1/2: exponents 2/(1-nu) = 4, (1+nu)/(1-nu) = 3, (1+3nu)/(1-nu) = 5
    val = analysis.beta_rate_bound(0.5, 2.0, 1.0, 0.5, 3.0, 1.2, 3)
    expected = 9.0 / (0.5 * 9.0) + 1.2 ** 4 / (0.5 ** 3 * 3 ** 5)
    assert val == pytest.approx(expected, rel=1e-12)


def test_beta_rate_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        analysis.beta_rate_bound(1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        analysis.beta_rate_bound(2.0, 0.0, 1.0, 1.0, 1.0, 1.0, 5)


def test_rate_bound_preconditions():
    assert analysis.rate_bound_preconditions(1.0, 0.5, 0.25, 1.0, 2.0, 1.0) == []
    # boundary equalities are fine
    assert analysis.rate_bound_preconditions(1.0, 1.0, 1.0, 1.0, 4.0, 4.0) == []
    issues = analysis.rate_bound_preconditions(1.0, 0.0, 2.0, 1.0, 1.0, 5.0)
    assert len(issues) == 2
    assert any("M0" in s for s in issues)
    assert any("gamma0" in s for s in issues)


# ------------------------------------------------------------ rate fitting

def synthetic_columns(fn, ks):
    """The (k, value) columns of a trace whose values are ``fn(k)``."""
    return list(ks), [fn(k) for k in ks]


def test_fit_rate_recovers_power_laws():
    ks = range(1, 101)
    assert analysis.fit_rate(*synthetic_columns(lambda k: 1.0 / k, ks),
                             10, 100) == pytest.approx(-1.0, abs=1e-10)
    assert analysis.fit_rate(*synthetic_columns(lambda k: 3.0 / k ** 2, ks),
                             10, 100) == pytest.approx(-2.0, abs=1e-10)
    assert analysis.fit_rate(*synthetic_columns(lambda k: 0.5 * k ** -1.7, ks),
                             5, 90) == pytest.approx(-1.7, abs=1e-10)


def test_fit_rate_window_and_positivity_errors():
    columns = synthetic_columns(lambda k: 1.0 / k, range(1, 20))
    with pytest.raises(ValueError):
        analysis.fit_rate(*columns, 100, 200)
    columns = synthetic_columns(lambda k: (-1.0) ** k / k, range(1, 20))
    with pytest.raises(ValueError):
        analysis.fit_rate(*columns, 1, 19)
    # k = 0 has no logarithm: a window reaching below 1 is an error, not a dropped row
    columns = synthetic_columns(lambda k: 1.0 / (k + 1), range(0, 20))
    for k_min in (0, -5):
        with pytest.raises(ValueError, match="k_min"):
            analysis.fit_rate(*columns, k_min, 10)


def test_interpolated_beta_dominated_by_fitted_envelope():
    # strongly convex run started with gamma0 far below mu: the envelope
    # constant fitted on an early window keeps dominating later, also at
    # non-integer times through the piecewise-linear interpolation
    qp = problems.make_synthetic_qp(10, 3, mu=0.9, seed=5)
    config = solver.SolverConfig(max_iterations=500, gamma0=0.002)
    state, trace = solver.solve(qp, config)
    resolved = config.resolved(qp)
    lip = qp.holder[1]
    spec = analysis.decay_spec_for_solver(
        1.0, qp.mu, resolved.gamma0, min(resolved.gamma0, qp.mu), qp.a_norm, lip)
    betas = [rec.beta_k for rec in sorted(trace, key=lambda rec: rec.k)]
    fitted = max(betas[k] / analysis.envelope(spec, float(k))
                 for k in range(100, 201))
    for t in np.linspace(200.0, 500.0, 1201):
        level = fitted * analysis.envelope(spec, t)
        assert np.interp(t, np.arange(len(betas)), betas) <= level * (1.0 + 1e-9)


def test_interpolated_beta_same_window_domination_unregularized():
    # mu = 0 run: the constant fitted over a window dominates the dense
    # interpolated curve over that window up to midpoint chord slack
    qp = problems.make_synthetic_qp(10, 3, mu=0.0, seed=5)
    config = solver.SolverConfig(max_iterations=500)
    state, trace = solver.solve(qp, config)
    resolved = config.resolved(qp)
    lip = qp.holder[1]
    spec = analysis.decay_spec_for_solver(
        1.0, 0.0, resolved.gamma0, resolved.gamma0, qp.a_norm, lip)
    betas = [rec.beta_k for rec in sorted(trace, key=lambda rec: rec.k)]
    fitted = max(betas[k] / analysis.envelope(spec, float(k))
                 for k in range(100, 501))
    for t in np.linspace(100.0, 500.0, 1601):
        level = fitted * analysis.envelope(spec, t)
        assert np.interp(t, np.arange(len(betas)), betas) <= level * (1.0 + 1e-5)
