"""Solver recursions: transcription equality, exact identities, traces."""

import csv
import dataclasses
import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from uapd.cli import main
from uapd.geometry import LOG_FLOOR, EntropyGeometry, EuclideanGeometry
from uapd.problems import (ProblemInstance, load_instance, make_basis_pursuit,
                           make_matrix_game, make_regularized_matrix_game, make_steiner,
                           make_synthetic_qp)
from uapd.solver import (IterationRecord, LineSearchError, SolverConfig, SolverError, Trace,
                         initial_state, inner_step, line_search, outer_update, solve,
                         trace_to_csv, TRACE_COLUMNS)

import uapd
from uapd import solver

import helpers


def small_instances():
    return [
        make_matrix_game(4, 6, seed=0),
        make_steiner(4, 3, seed=1),
        make_basis_pursuit(5, 12, seed=2, sparsity=2),
        make_synthetic_qp(7, 3, mu=0.0, seed=3),
        make_synthetic_qp(7, 3, mu=0.8, seed=4),
    ]


def run(instance, iters, fixed_eps=None, **cfg):
    config = SolverConfig(max_iterations=iters, **cfg)
    with helpers.StepRecorder() as recorder:
        state, trace = solve(instance, config, fixed_eps=fixed_eps)
    return state, trace, recorder, config.resolved(instance)


# ---------------------------------------------------------------------------
# one-step equality against an independent transcription


@pytest.mark.parametrize("fixed_eps", [None, 1e-3])
def test_inner_step_matches_manual_transcription(fixed_eps):
    for instance in small_instances():
        _, _, recorder, _ = run(instance, 12, fixed_eps=fixed_eps)
        for k, state, accepted, i_k, new_state in recorder.steps:
            M_acc = new_state.M
            want = helpers.manual_inner_step(k, state, M_acc, instance, fixed_eps=fixed_eps)
            assert accepted.alpha == pytest.approx(want["alpha"], rel=1e-14)
            assert accepted.beta_new == pytest.approx(want["beta_new"], rel=1e-14)
            assert accepted.delta == pytest.approx(want["delta"], rel=1e-14)
            assert np.allclose(accepted.y, want["y"], rtol=1e-13, atol=1e-15)
            assert np.allclose(accepted.v, want["v"], rtol=1e-12, atol=1e-14)
            assert np.allclose(accepted.x, want["x"], rtol=1e-13, atol=1e-15)
            assert np.allclose(accepted.lam, want["lam_tilde"], rtol=1e-13, atol=1e-15)
            assert accepted.model == pytest.approx(want["model"], rel=1e-12, abs=1e-13)
            assert want["accept"]


def test_rejected_trials_really_fail_the_test():
    instance = make_matrix_game(5, 8, seed=5)
    _, _, recorder, _ = run(instance, 40)
    rejected = 0
    for k, state, accepted, i_k, new_state in recorder.steps:
        for i in range(i_k):
            M_trial = (2.0 ** i) * state.M
            trial = helpers.manual_inner_step(k, state, M_trial, instance)
            assert not trial["accept"]
            rejected += 1
    assert rejected > 0  # a nu=0 objective must reject at least once in 40 steps


# ---------------------------------------------------------------------------
# exact scalar identities along trajectories


def test_step_size_identity_every_iteration():
    for instance in small_instances():
        _, _, recorder, _ = run(instance, 60)
        for k, state, accepted, i_k, new_state in recorder.steps:
            lhs = accepted.alpha ** 2 * (state.beta * new_state.M + instance.a_norm ** 2)
            rhs = state.gamma * state.beta
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_gamma_tracks_beta_exactly():
    for instance in small_instances():
        _, trace, _, config = run(instance, 60)
        for r in trace:
            want = instance.mu + (config.gamma0 - instance.mu) * r.beta_k
            assert r.gamma_k == pytest.approx(want, rel=1e-12)


def test_feasibility_residual_telescopes_into_dual():
    instance = make_synthetic_qp(8, 3, mu=0.5, seed=6)
    state, _, recorder, _ = run(instance, 80)
    r0 = instance.A @ instance.geometry.barycenter() - instance.b
    for _, _, _, _, new_state in recorder.steps:
        lhs = (instance.A @ new_state.x - instance.b) / new_state.beta
        rhs = r0 + new_state.lam
        scale = max(1.0, float(np.linalg.norm(rhs)))
        assert float(np.linalg.norm(lhs - rhs)) <= 1e-9 * scale


def test_beta_recursion_and_monotone_m():
    for instance in small_instances():
        _, trace, recorder, _ = run(instance, 50)
        for k, state, accepted, i_k, new_state in recorder.steps:
            assert new_state.beta == pytest.approx(state.beta / (1 + accepted.alpha),
                                                   rel=1e-14)
            assert new_state.M >= state.M
            assert new_state.M == state.M * 2.0 ** i_k
        betas = [r.beta_k for r in trace]
        assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))


def test_delta_follows_shrinking_policy():
    instance = make_synthetic_qp(7, 3, mu=0.0, seed=7)
    _, trace, _, _ = run(instance, 30)
    for r in list(trace)[1:]:
        assert r.delta_k == pytest.approx(r.beta_k / r.k, rel=1e-14)


def test_delta_fixed_tolerance_policy():
    instance = make_synthetic_qp(7, 3, mu=0.0, seed=7)
    config = SolverConfig(max_iterations=30)
    _, trace = solve(instance, config, fixed_eps=1e-2)
    for r in list(trace)[1:]:
        assert r.delta_k == pytest.approx(1e-2 / r.k, rel=1e-14)


@pytest.mark.parametrize("entry", ["solve", "cli"])
@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
def test_fixed_eps_must_be_positive_at_both_entry_points(entry, eps, tmp_path, capsys):
    recipe = {"kind": "synthetic_qp", "n": 7, "m": 3, "mu": 0.0, "seed": 7}
    if entry == "solve":
        with pytest.raises(ValueError, match="eps must be positive"):
            solve(load_instance(recipe), SolverConfig(max_iterations=5), fixed_eps=eps)
    else:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"instance": recipe, "variant": "fixed_tolerance",
                                    "eps": eps}), encoding="utf-8")
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eps" in err


def test_dual_update_uses_new_point_while_inner_used_old():
    instance = make_synthetic_qp(8, 3, mu=0.0, seed=8)
    _, _, recorder, _ = run(instance, 30)
    moved = 0
    for _, state, accepted, _, new_state in recorder.steps:
        coef = accepted.alpha / state.beta
        want_new = state.lam + coef * (instance.A @ accepted.v - instance.b)
        want_tilde = state.lam + coef * (instance.A @ state.v - instance.b)
        assert np.allclose(new_state.lam, want_new, rtol=1e-12, atol=1e-14)
        assert np.allclose(accepted.lam, want_tilde, rtol=1e-12, atol=1e-14)
        if not np.allclose(want_new, want_tilde):
            moved += 1
    assert moved > 0


def test_accepted_descent_inequality_slack():
    for instance in small_instances():
        _, _, recorder, _ = run(instance, 50)
        for _, _, accepted, _, _ in recorder.steps:
            slack = accepted.delta / 2.0 - (accepted.h_at_x - accepted.model)
            assert slack >= -1e-9


# ---------------------------------------------------------------------------
# lyapunov diagnostics


def test_lyapunov_contracts_on_qp():
    instance = make_synthetic_qp(10, 4, mu=0.0, seed=9)
    _, trace, _, _ = run(instance, 200)
    E = [r.lyapunov for r in trace]
    assert E[0] > 0
    for k in range(1, len(trace)):
        r = trace[k]
        bound = E[k - 1] / (1.0 + r.alpha_k) + r.delta_k / 2.0
        assert E[k] <= bound + 1e-9 * (1.0 + E[k - 1])
    assert E[-1] < 0.05 * E[0]


def test_lyapunov_requires_saddle():
    instance = make_matrix_game(3, 4, seed=10)
    config = SolverConfig(max_iterations=1).resolved(instance)
    state = initial_state(instance, config)
    with pytest.raises(ValueError):
        instance.lyapunov(instance.objective(state.x), None, state.v, state.lam,
                          state.gamma, state.beta)


# ---------------------------------------------------------------------------
# solve loop mechanics


def test_trace_shape_and_initial_record():
    instance = make_matrix_game(4, 5, seed=11)
    _, trace, _, config = run(instance, 25)
    assert len(trace) == 26
    first = trace[0]
    assert first.k == 0 and first.i_k == 0 and first.alpha_k == 0.0
    assert first.beta_k == 1.0 and first.M_k == config.M0
    assert first.feasibility == 0.0
    assert [r.k for r in trace] == list(range(26))


def test_zero_iteration_budget_gives_initial_record_only():
    instance = make_matrix_game(4, 5, seed=12)
    state, trace = solve(instance, SolverConfig(max_iterations=0))
    assert len(trace) == 1
    assert state.k == 0


def test_outer_update_sees_every_iteration_in_order():
    instance = make_steiner(3, 2, seed=13)
    _, _, recorder, _ = run(instance, 17)
    assert [s[0] for s in recorder.steps] == list(range(17))
    for k, state, _, _, new_state in recorder.steps:
        assert state.k == k and new_state.k == k + 1


@pytest.mark.parametrize("fixed_eps", [None, 1e-3])
def test_trace_rows_carry_the_accepted_trial(fixed_eps):
    for instance in small_instances():
        _, trace, recorder, _ = run(instance, 15, fixed_eps=fixed_eps)
        assert trace[0].alpha_k == 0.0 and trace[0].delta_k == 0.0
        assert len(trace) == len(recorder.steps) + 1
        for row, (k, _, accepted, _, _) in zip(list(trace)[1:], recorder.steps):
            assert row.k == k + 1
            assert (row.alpha_k, row.delta_k, row.M_k) == (accepted.alpha, accepted.delta,
                                                           accepted.M)


def test_feasibility_is_the_norm_of_the_carried_residual():
    instance = make_basis_pursuit(20, 60, seed=16, sparsity=4)
    _, trace, recorder, _ = run(instance, 200)
    assert len(trace) == 201
    states = [recorder.steps[0][1]] + [step[4] for step in recorder.steps]
    for record, st in zip(trace, states):
        residual = st.x_lift[instance.residual_block]
        assert record.feasibility == float(np.linalg.norm(residual))


def test_unconstrained_instances_keep_empty_dual():
    instance = make_steiner(4, 3, seed=14)
    state, trace, recorder, config = run(instance, 20)
    assert instance.a_norm == 0.0 and config.gamma0 == 1.0
    assert state.lam.shape == (0,)
    for k, st, accepted, _, new_state in recorder.steps:
        # with ||A|| = 0 the step size simplifies to sqrt(gamma / M)
        want = math.sqrt(st.gamma / new_state.M)
        assert accepted.alpha == pytest.approx(want, rel=1e-12)


def test_targets_stop_early():
    instance = make_synthetic_qp(8, 3, mu=0.5, seed=15)
    _, trace = solve(instance, SolverConfig(max_iterations=5000,
                                            feasibility_target=1e-2,
                                            gap_target=1e-2))
    assert trace[-1].k < 5000
    assert trace[-1].feasibility <= 1e-2
    assert abs(trace[-1].f_residual) <= 1e-2


def test_line_search_count_recorded():
    instance = make_matrix_game(5, 8, seed=16)
    state, trace, recorder, _ = run(instance, 60)
    assert state.line_search_total == sum(r.i_k for r in trace)
    assert state.line_search_total == sum(s[3] for s in recorder.steps)
    assert state.line_search_total > 0


def test_line_search_cap_raises_with_trial_log(monkeypatch):
    # an oracle whose reported gradient is wildly wrong forces rejection
    n = 4

    def lying_oracle(x):
        return 0.0, np.full(n, 1e8)

    instance = ProblemInstance(h_oracle=lying_oracle, g_spec="zero",
                               geometry=EuclideanGeometry(n))
    monkeypatch.setattr(solver, "LINE_SEARCH_CAP", 3)
    with pytest.raises(LineSearchError) as err:
        solve(instance, SolverConfig(max_iterations=1))
    assert len(err.value.trials) == 4
    ms = [t[0] for t in err.value.trials]
    assert ms == [1.0, 2.0, 4.0, 8.0]


def test_non_finite_oracle_raises_solver_error():
    def nan_value(x):
        return float("nan"), np.zeros(3)

    def nan_gradient(x):
        return 0.0, np.array([1.0, float("nan"), 0.0])

    def inf_at_candidate_only():
        # call 1 is the k = 0 row; then h(y_k) and h(x_{k+1}) alternate.
        calls = [0]

        def oracle(x):
            calls[0] += 1
            at_candidate = calls[0] > 1 and calls[0] % 2 == 1
            return (float("inf") if at_candidate else 0.0), np.ones(3)
        return oracle

    setups = [
        (EuclideanGeometry(3), "zero"),
        (EuclideanGeometry(3, domain="simplex"), "zero"),
        (EntropyGeometry(3), "zero"),
        (EuclideanGeometry(3), "squared_l1_half"),
    ]
    for geometry, g_spec in setups:
        for oracle in (nan_value, nan_gradient, inf_at_candidate_only()):
            instance = ProblemInstance(h_oracle=oracle, g_spec=g_spec,
                                       geometry=geometry)
            with pytest.raises(SolverError) as err:
                solve(instance, SolverConfig(max_iterations=1))
            # raised by the finiteness checks, not by exhausting the line search
            assert not isinstance(err.value, LineSearchError)


# valid runs whose numbers leave the floats: a step size whose beta * M underflows to
# 0, and a prox whose input c / (mu + rho) overflows
FAILING_RUNS = [
    (lambda: make_matrix_game(4, 5, seed=1, geometry="euclidean"),
     SolverConfig(gamma0=1e300, M0=1e-300), "step size underflow at iteration 1 "),
    (lambda: make_basis_pursuit(5, 12, seed=1, sparsity=2), SolverConfig(gamma0=1e-300),
     "prox non-finite input at iteration 0 "),
    (lambda: make_basis_pursuit(5, 12, seed=1, sparsity=2), SolverConfig(gamma0=1e-150),
     "prox non-finite input at iteration 0 "),
    (lambda: make_matrix_game(4, 5, seed=1, geometry="euclidean"), SolverConfig(M0=1e-300),
     "prox non-finite input at iteration 0 "),
]


@pytest.mark.parametrize("make, config, message", FAILING_RUNS,
                         ids=["underflow", "prox-1e-300", "prox-1e-150", "game-prox"])
def test_numbers_that_leave_the_floats_raise_solver_error(make, config, message):
    with pytest.raises(SolverError, match=f"^{message}") as err:
        solve(make(), config)
    assert not isinstance(err.value, LineSearchError)


@pytest.mark.parametrize("instance", [make_matrix_game(5, 8, seed=5),
                                      make_basis_pursuit(5, 12, seed=2, sparsity=2),
                                      make_synthetic_qp(7, 3, mu=0.0, seed=3)],
                         ids=["matrix_game", "basis_pursuit", "synthetic_qp"])
def test_one_oracle_call_per_point(instance):
    calls = {"gradient": 0, "value": 0, "h": 0}

    def counting(name, fn):
        def counted(*args):  # (x) or, with a declared K, (x, K x)
            calls[name] += 1
            return fn(*args)
        return counted
    if instance.h_oracle is not None:
        instance.h_oracle = counting("gradient", instance.h_oracle)
    if instance.h_value_oracle is not None:
        instance.h_value_oracle = counting("value", instance.h_value_oracle)
    instance.h = counting("h", instance.h)
    state, trace = solve(instance, SolverConfig(max_iterations=40))
    trials = trace[-1].k + state.line_search_total
    # h(y_k) with its gradient once per trial; h(x_{k+1}) and the k = 0 row by
    # value alone: the game's value oracle, the QP's full oracle; basis pursuit
    # declares h = 0 and calls nothing.  f(x*) of a known saddle point was
    # formed when the instance was built.
    want = {"matrix_game": {"gradient": trials, "value": 1 + trials, "h": trials},
            "basis_pursuit": {"gradient": 0, "value": 0, "h": 0},
            "synthetic_qp": {"gradient": 1 + 2 * trials, "value": 0, "h": 1 + 2 * trials}}
    assert calls == want[instance.metadata["kind"]]


def lifted_instances():
    return [make_matrix_game(20, 30, seed=5), make_synthetic_qp(12, 4, mu=0.0, seed=3),
            make_basis_pursuit(10, 30, seed=2, sparsity=3)]


LIFTED_IDS = ["matrix_game", "synthetic_qp", "basis_pursuit"]


@pytest.mark.parametrize("instance", lifted_instances(), ids=LIFTED_IDS)
def test_carried_images_match_fresh_products(instance):
    state, trace = solve(instance, SolverConfig(max_iterations=2000))
    assert trace[-1].k == 2000
    n, end = state.x.size, state.x_lift.size - instance.dual_dimension
    assert np.array_equal(state.x_lift[:n], state.x)
    # every trial lifts v_{k+1} afresh, so its images are exact
    assert np.array_equal(state.v_lift, instance.lift(state.v))
    # x_k carries its images through 2000 convex combinations; the worst
    # drift measured here is 5.5e-15 for K x and 1.2e-15 for A x - b
    if instance.K is not None:
        fresh = instance.K(state.x)
        assert np.max(np.abs(state.x_lift[n:end] - fresh)) <= 5e-14 * np.max(np.abs(fresh))
    if instance.constrained:
        fresh = instance.A @ state.x - instance.b
        scale = np.max(np.abs(instance.b))
        assert np.max(np.abs(state.x_lift[end:] - fresh)) <= 1e-14 * scale


class CountingMatrix(np.ndarray):
    """Constraint matrix view (and transposes) counting ``@`` products."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __matmul__(self, other):
        self.counter[0] += 1
        return self.view(np.ndarray) @ other


@pytest.mark.parametrize("instance", lifted_instances(), ids=LIFTED_IDS)
def test_one_k_product_per_trial_and_two_a_products_per_iteration(instance):
    k_products, a_products = [0], [0]
    if instance.K is not None:
        K = instance.K

        def counted(x):
            k_products[0] += 1
            return K(x)
        instance.K = counted
    if instance.constrained:
        instance.A = instance.A.view(CountingMatrix)
        instance.A.counter = a_products
    state, trace = solve(instance, SolverConfig(max_iterations=40))
    trials = trace[-1].k + state.line_search_total
    # x_0 is lifted once (f(x*) and A x* - b of a known saddle point were
    # formed when the instance was built); then every trial lifts v_{k+1}
    # (one K product, one A product) and forms one A^T product
    if instance.K is not None:
        assert k_products[0] == 1 + trials
    if instance.constrained:
        assert a_products[0] == 1 + 2 * trials
    if instance.metadata["kind"] == "basis_pursuit":
        assert state.line_search_total == 0 and a_products[0] == 1 + 2 * trace[-1].k


def calls_into_uapd(instance, iterations):
    """(calls, k, T) of one solve: Python calls into uapd's own code, iterations, trials.

    Only frames whose code lives in the uapd package count, so numpy's
    Python wrappers do not.
    """
    root = os.path.dirname(uapd.__file__) + os.sep
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls[0] += 1
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        state, trace = solve(instance, SolverConfig(max_iterations=iterations))
    finally:
        sys.setprofile(previous)
    return calls[0], trace[-1].k, trace[-1].k + state.line_search_total


# Per iteration, both: line_search, outer_update, _record, g_value,
# Trace.append, _targets_met and one _drop per absent trace column (the
# game has an f_residual).  Per trial, both: inner_step, two _average and
# lift; the game adds h with its oracle, h_value with its value oracle, K
# and the entropy prox with _floored_log and _softmax; basis pursuit adds
# the Euclidean prox with _prox_squared_l1.  Basis pursuit never rejects
# a trial (h = 0), so k = T there and only the sum of its two constants
# is pinned.
@pytest.mark.parametrize("make, per_iteration, per_trial", [
    (lambda: make_matrix_game(5, 8, seed=5), 7, 12),
    (lambda: make_basis_pursuit(5, 12, seed=2, sparsity=2), 8, 6),
], ids=["matrix_game", "basis_pursuit"])
def test_python_calls_are_fixed_per_iteration_and_per_trial(make, per_iteration, per_trial):
    # calls == a k + b T + c, with c the calls of a solve of no iteration
    setup = calls_into_uapd(make(), 0)[0]
    for iterations in (10, 40):
        calls, k, trials = calls_into_uapd(make(), iterations)
        assert k == iterations
        assert calls == per_iteration * k + per_trial * trials + setup


def softmax_prox(geometry, c, y, mu, v, rho):
    """The entropy prox with an out-of-place softmax per block."""
    log_v = np.log(np.maximum(v, LOG_FLOOR))
    if mu == 0:
        a = (rho * log_v - c) / (mu + rho)
    else:
        a = (mu * np.log(np.maximum(y, LOG_FLOOR)) + rho * log_v - c) / (mu + rho)
    out = np.empty_like(a)
    for sl in helpers.block_slices(geometry.blocks):
        e = np.exp(a[sl] - a[sl].max())
        out[sl] = e / e.sum()
    return out


@pytest.mark.parametrize("instance", [make_matrix_game(20, 30, seed=5),
                                      make_matrix_game(20, 30, seed=5, geometry="euclidean"),
                                      make_regularized_matrix_game(6, 9, seed=6, eps=0.5),
                                      make_synthetic_qp(12, 4, mu=0.5, seed=4),
                                      make_basis_pursuit(10, 30, seed=2, sparsity=3)],
                         ids=["entropy_game", "euclidean_game", "regularized_game",
                              "synthetic_qp", "basis_pursuit"])
def test_solver_calls_composite_prox_once_per_trial(instance):
    # wrapped on the geometry object, as bench/tracer.py wraps it
    geometry, seen = instance.geometry, []
    prox = geometry.composite_prox

    def recording(*args):
        before = [a.copy() for a in args if isinstance(a, np.ndarray)]
        out = prox(*args)
        after = [a for a in args if isinstance(a, np.ndarray)]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))  # inputs untouched
        seen.append((args, out))
        return out
    geometry.composite_prox = recording
    try:
        state, trace = solve(instance, SolverConfig(max_iterations=60))
    finally:
        del geometry.composite_prox
    assert len(seen) == trace[-1].k + state.line_search_total
    if geometry.kind == "entropy":  # the in-place softmax changes no bit
        for (c, y, mu, v, rho, _), out in seen:
            assert np.array_equal(softmax_prox(geometry, c, y, mu, v, rho), out)


def test_trace_lyapunov_is_lyapunov_of_state():
    instance = make_synthetic_qp(7, 3, mu=0.0, seed=3)
    x_star, lam_star = instance.known_saddle
    _, trace, recorder, _ = run(instance, 60)
    states = [recorder.steps[0][1]] + [s[4] for s in recorder.steps]
    assert len(states) == len(trace)
    for record, state in zip(trace, states):
        # the defining formula, in the same order of operations
        dl = state.lam - lam_star
        want = (helpers.lagrangian(instance, state.x, lam_star)
                - helpers.lagrangian(instance, x_star, state.lam)
                + state.gamma * instance.geometry.divergence(x_star, state.v))
        # the record uses the carried H x_k and A x_k - b; the formula multiplies afresh
        assert record.lyapunov == pytest.approx(want + 0.5 * state.beta * float(dl @ dl),
                                                rel=1e-12)


def test_trace_objective_is_objective_at_iterate():
    for instance in small_instances():
        _, trace, recorder, _ = run(instance, 30)
        iterates = [recorder.steps[0][1].x] + [s[4].x for s in recorder.steps]
        assert len(iterates) == len(trace)
        for record, x in zip(trace, iterates):
            if instance.K is None:
                assert record.objective == instance.objective(x)
            else:  # the record's h uses the carried K x, which rounds differently
                assert record.objective == pytest.approx(instance.objective(x), rel=1e-12)


def test_config_validation():
    nan, inf = float("nan"), float("inf")
    for bad in ({"M0": 0.0}, {"M0": nan}, {"M0": inf}, {"gamma0": -1.0}, {"gamma0": nan},
                {"gamma0": inf}, {"max_iterations": -1}, {"max_iterations": 2.5},
                {"max_iterations": nan}, {"max_iterations": True},
                {"gap_target": nan}, {"gap_target": -1e-3},
                {"feasibility_target": nan}, {"feasibility_target": -1e-3},
                # the type is checked before the range, so no bare TypeError
                {"gamma0": "x"}, {"M0": None}, {"M0": True}, {"feasibility_target": "x"},
                {"feasibility_target": inf}, {"gap_target": inf}, {"M0": 10 ** 400}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(**bad)
    assert SolverConfig(max_iterations=np.int64(3), gap_target=0.0).max_iterations == 3
    assert SolverConfig(max_iterations=10 ** 400).max_iterations == 10 ** 400
    # the paper fixes beta0, delta's scale and the cap; the instance owns mu and ||A||
    for name in ("beta0", "mu", "A_norm", "delta_scale", "line_search_cap"):
        with pytest.raises(TypeError):
            SolverConfig(**{name: 1.0})
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "gamma0", "M0", "max_iterations", "feasibility_target", "gap_target"]


def test_config_resolution_defaults():
    qp = make_synthetic_qp(7, 3, mu=0.25, seed=17, a_norm=0.5)
    resolved = SolverConfig().resolved(qp)
    assert resolved.gamma0 == pytest.approx(0.25, rel=1e-8)  # min(1, 0.5^2)
    assert qp.mu == 0.25
    assert qp.a_norm == pytest.approx(0.5, rel=1e-8)
    game = make_matrix_game(3, 4, seed=18)
    resolved = SolverConfig().resolved(game)
    assert resolved.gamma0 == 1.0 and game.a_norm == 0.0
    assert SolverConfig(gamma0=0.125).resolved(qp).gamma0 == 0.125


def test_gap_target_needs_a_known_optimum():
    # no run could meet it, so solve refuses before its first iteration
    bp = make_basis_pursuit(4, 10, seed=0, sparsity=2)
    assert bp.known_optimum is None
    config = SolverConfig(max_iterations=50, gap_target=1e-3)
    with pytest.raises(ValueError, match="known_optimum"):
        solve(bp, config)
    with pytest.raises(ValueError, match="known_optimum"):
        config.resolved(bp)
    assert SolverConfig(gap_target=1e-3).resolved(make_matrix_game(3, 4, seed=18)).gap_target == 1e-3


# ---------------------------------------------------------------------------
# trace storage and export

RECORD_FIELDS = IterationRecord._fields


def traces_by_known_values():
    """(trace, absent columns) for a saddle-point QP, a game and a Steiner problem."""
    return [(solve(instance, SolverConfig(max_iterations=12))[1], absent)
            for instance, absent in ((make_synthetic_qp(7, 3, mu=0.0, seed=3), set()),
                                     (make_matrix_game(4, 6, seed=0), {"lyapunov"}),
                                     (make_steiner(4, 3, seed=1), {"f_residual", "lyapunov"}))]


def test_trace_rows_are_built_from_typed_columns():
    for trace, absent in traces_by_known_values():
        assert isinstance(trace, Trace)
        assert set(trace.columns) == set(RECORD_FIELDS) - absent
        assert {name: col.typecode for name, col in trace.columns.items()} == {
            name: "q" if name in ("k", "i_k") else "d" for name in trace.columns}
        rows = list(trace)
        assert len(trace) == len(rows) == 13
        assert [r.k for r in rows] == list(range(13))
        assert trace[-1] == trace[12] == rows[-1] and trace[-13] == rows[0]
        with pytest.raises(TypeError):
            trace[1:]
        for index in (13, -14):
            with pytest.raises(IndexError):
                trace[index]
        for r in rows:
            for name in RECORD_FIELDS:
                want = (type(None) if name in absent
                        else int if name in ("k", "i_k") else float)
                assert type(getattr(r, name)) is want, name


def test_trace_memory_per_row():
    # a list of IterationRecords held 408 B per row; the columns hold ~90
    instance = make_matrix_game(2, 3, seed=5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, trace = solve(instance, SolverConfig(max_iterations=20000))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 20001
    assert held / len(trace) <= 128


def test_trace_csv_equals_row_wise_writer(tmp_path):
    special = Trace(f_residual=True, lyapunov=False)
    for k, value in enumerate((0.0, -0.0, float("inf"), float("-inf"), float("nan"),
                               5e-324, 1.7976931348623157e308, 0.1, -1e-300)):
        special.append(k, -value, value, 2 ** 62 + k, value, value, value, value, None, value,
                       value, value)
    traces = [trace for trace, _ in traces_by_known_values()] + [special]
    for i, trace in enumerate(traces):
        got, want = tmp_path / f"columns{i}.csv", tmp_path / f"rows{i}.csv"
        trace_to_csv(trace, got)
        helpers.reference_trace_to_csv(trace, want, TRACE_COLUMNS)
        assert got.read_bytes() == want.read_bytes()


def test_trace_csv_schema_and_values(tmp_path):
    instance = make_synthetic_qp(6, 2, mu=0.0, seed=19)
    _, trace, _, _ = run(instance, 10)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(TRACE_COLUMNS)
    assert len(rows) == len(trace)
    for row, rec in zip(rows, trace):
        assert int(row["k"]) == rec.k
        assert float(row["beta_k"]) == rec.beta_k
        assert float(row["lyapunov"]) == rec.lyapunov
        assert float(row["f_residual"]) == rec.f_residual


def test_trace_csv_blank_for_unknown_residuals(tmp_path):
    instance = make_steiner(4, 3, seed=20)  # no known optimum or saddle
    _, trace, _, _ = run(instance, 5)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["f_residual"] == "" and row["lyapunov"] == "" for row in rows)
    assert all(row["objective"] != "" for row in rows)


def test_runs_are_deterministic():
    instance_a = make_basis_pursuit(6, 15, seed=21, sparsity=2)
    instance_b = make_basis_pursuit(6, 15, seed=21, sparsity=2)
    _, trace_a = solve(instance_a, SolverConfig(max_iterations=40))
    _, trace_b = solve(instance_b, SolverConfig(max_iterations=40))
    for ra, rb in zip(trace_a, trace_b):
        for name in ("k", "objective", "f_residual", "feasibility", "i_k", "M_k",
                     "alpha_k", "beta_k", "gamma_k", "delta_k", "lyapunov"):
            assert getattr(ra, name) == getattr(rb, name)
