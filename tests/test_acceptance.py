"""Acceptance suite: one test per criterion, one printed line each.

Each criterion reruns the library at the stated scale and tolerance and
reports a single PASS/FAIL line with the measured numbers; the lines are
echoed again in the terminal summary.  Instance sizes, seeds and solver
settings are fixed here so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

import conftest
import helpers
from uapd import analysis, flow, problems, solver
from uapd.geometry import EntropyGeometry, EuclideanGeometry, three_term_residual
from uapd.solver import SolverConfig, solve


def report(number, name, ok, detail):
    line = f"criterion {number:>2} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return line


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def benchmark_runs():
    """The four benchmark problems at desk scale, 1e3 iterations each,
    with the accepted-step intermediates recorded."""
    specs = {
        "matrix_game": problems.make_matrix_game(30, 60, seed=25),
        "regularized_game": problems.make_regularized_matrix_game(30, 60, seed=22, eps=1e-3),
        "steiner": problems.make_steiner(8, 3, seed=23),
        "basis_pursuit": problems.make_basis_pursuit(20, 60, seed=24, sparsity=5),
    }
    runs = {}
    for name, instance in specs.items():
        config = SolverConfig(max_iterations=1000)
        t0 = time.perf_counter()
        with helpers.StepRecorder() as recorder:
            _, trace = solve(instance, config)
        slacks = [accepted.delta / 2.0 - (accepted.h_at_x - accepted.model)
                  for _, _, accepted, _, _ in recorder.steps]
        runs[name] = {
            "instance": instance,
            "resolved": config.resolved(instance),
            "trace": trace,
            "slacks": slacks,
            "elapsed": time.perf_counter() - t0,
        }
    return runs


@pytest.fixture(scope="module")
def contraction_run():
    """Strong-saddle QP used by the Lyapunov contraction criterion."""
    qp = problems.make_synthetic_qp(50, 10, mu=0.0, seed=42)
    config = SolverConfig(max_iterations=5000)
    t0 = time.perf_counter()
    _, trace = solve(qp, config)
    return {"instance": qp, "resolved": config.resolved(qp), "trace": trace,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def slope_run():
    """mu = 0 QP for the log-log rate exponent."""
    qp = problems.make_synthetic_qp(50, 10, mu=0.0, seed=101)
    config = SolverConfig(max_iterations=10 ** 4)
    t0 = time.perf_counter()
    _, trace = solve(qp, config)
    return {"instance": qp, "resolved": config.resolved(qp), "trace": trace,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def domination_run():
    """mu > 0 QP with a cold primal start (gamma0 far below mu), so the
    decay envelope's gamma_min equals gamma0 and the constant fitted on
    an early window stays valid for the whole tail."""
    qp = problems.make_synthetic_qp(50, 10, mu=1.0, seed=102, a_norm=1.2,
                                    eig_spread=0.0)
    config = SolverConfig(max_iterations=10 ** 4, gamma0=0.002)
    t0 = time.perf_counter()
    _, trace = solve(qp, config)
    return {"instance": qp, "resolved": config.resolved(qp), "trace": trace,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def game_variant_runs():
    """One matrix game solved by both variants for the line-search
    bound and over-estimation criteria."""
    game = problems.make_matrix_game(30, 60, seed=25)
    t0 = time.perf_counter()
    _, trace_u = solve(game, SolverConfig(max_iterations=1001))
    _, trace_f = solve(game, SolverConfig(max_iterations=1000), fixed_eps=1e-5)
    return {"instance": game, "trace_uapd": trace_u, "trace_fixed": trace_f,
            "eps": 1e-5, "elapsed": time.perf_counter() - t0}


# ---------------------------------------------------------------- criteria

def test_criterion_01_three_term_identity():
    geometries = [
        EuclideanGeometry(7),
        EuclideanGeometry(7, domain="nonneg"),
        EuclideanGeometry(7, domain="simplex", blocks=(3, 4)),
        EntropyGeometry(7, blocks=(3, 4)),
        EntropyGeometry(5),
    ]
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0
    for geom in geometries:
        for _ in range(1000):
            x = helpers.random_point(geom, rng)
            y = helpers.random_point(geom, rng)
            z = helpers.random_point(geom, rng)
            residual = abs(three_term_residual(geom, x, y, z))
            scale = max(1.0, abs(geom.divergence(z, x)),
                        abs(geom.divergence(z, y)), abs(geom.divergence(y, x)))
            worst = max(worst, residual / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    line = report(1, "three-term identity", ok,
                  f"worst relative residual {worst:.2e} over "
                  f"{len(geometries)} geometries x 1000 triples, {elapsed:.2f}s")
    assert ok, line


def test_criterion_02_prox_oracles():
    cases = [
        ("euclidean reals", EuclideanGeometry(7), "zero",
         lambda q: helpers.euclidean_prox_pg(q, "reals", None)),
        ("euclidean nonneg", EuclideanGeometry(7, domain="nonneg"), "zero",
         lambda q: helpers.euclidean_prox_pg(q, "nonneg", None)),
        ("euclidean simplex", EuclideanGeometry(7, domain="simplex", blocks=(3, 4)),
         "zero", lambda q: helpers.euclidean_prox_pg(q, "simplex", (3, 4))),
        ("entropy", EntropyGeometry(7, blocks=(3, 4)), "zero",
         lambda q: helpers.entropy_prox_bisect(q, (3, 4))),
        ("squared-l1", EuclideanGeometry(9), "squared_l1_half",
         lambda q: helpers.squared_l1_prox_bisect(q)),
    ]
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst = 0.0
    for _, geom, nonsmooth, oracle in cases:
        for _ in range(200):
            query = helpers.random_query(geom, rng, nonsmooth=nonsmooth)
            got = geom.composite_prox(*query)
            worst = max(worst, float(np.max(np.abs(got - oracle(query)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    line = report(2, "prox vs brute-force oracles", ok,
                  f"worst l-inf gap {worst:.2e} over {len(cases)} closed forms "
                  f"x 200 queries, {elapsed:.2f}s")
    assert ok, line


def test_criterion_03_step_size_identity(benchmark_runs, contraction_run,
                                         slope_run, domination_run):
    named = [(name, run) for name, run in benchmark_runs.items()]
    named += [("qp contraction", contraction_run), ("qp mu=0 rate", slope_run),
              ("qp mu>0 rate", domination_run)]
    worst = 0.0
    total = 0
    for _, run in named:
        trace = run["trace"]
        a2 = run["instance"].a_norm ** 2
        for k in range(1, len(trace)):
            prev, rec = trace[k - 1], trace[k]
            lhs = rec.alpha_k ** 2 * (prev.beta_k * rec.M_k + a2)
            rhs = prev.gamma_k * prev.beta_k
            worst = max(worst, abs(lhs - rhs) / rhs)
            total += 1
    ok = worst <= 1e-12
    line = report(3, "step-size identity", ok,
                  f"worst relative error {worst:.2e} across {total} iterations "
                  f"on {len(named)} trajectories")
    assert ok, line


def test_criterion_04_accepted_descent(benchmark_runs):
    worst = math.inf
    for run in benchmark_runs.values():
        worst = min(worst, min(run["slacks"]))
    count = sum(len(run["slacks"]) for run in benchmark_runs.values())
    ok = worst >= -1e-9
    line = report(4, "accepted-descent inequality", ok,
                  f"min slack {worst:.2e} over {count} accepted steps on "
                  f"{len(benchmark_runs)} instances")
    assert ok, line


def test_criterion_05_lyapunov_contraction(contraction_run):
    trace = contraction_run["trace"]
    energies = [rec.lyapunov for rec in trace]
    t0 = time.perf_counter()
    worst_step = math.inf
    for k in range(1, len(trace)):
        rec = trace[k]
        bound = energies[k - 1] / (1.0 + rec.alpha_k) + rec.delta_k / 2.0
        worst_step = min(worst_step,
                         bound + 1e-9 * (1.0 + energies[k - 1]) - energies[k])
    worst_cumulative = min(
        trace[k].beta_k * (energies[0] + math.log(k + 1)) - energies[k]
        for k in range(len(trace)))
    elapsed = contraction_run["elapsed"] + (time.perf_counter() - t0)
    ok = worst_step >= 0.0 and worst_cumulative >= 0.0 and elapsed < 60.0
    line = report(5, "Lyapunov contraction", ok,
                  f"min contraction slack {worst_step:.2e}, min cumulative "
                  f"slack {worst_cumulative:.2e} over 5000 iterations, "
                  f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_06_rate_exponents(slope_run, domination_run):
    t0 = time.perf_counter()
    slope = analysis.fit_rate(slope_run["trace"], "beta_k", 100, 10 ** 4)

    run = domination_run
    resolved, instance = run["resolved"], run["instance"]
    lip = instance.holder[1]
    gamma_min = min(resolved.gamma0, instance.mu)
    issues = analysis.rate_bound_preconditions(
        1.0, instance.mu, resolved.gamma0, instance.a_norm, lip, resolved.M0)
    ratios = {}
    for rec in run["trace"]:
        if rec.k >= 1:
            bound = analysis.beta_rate_bound(
                1.0, instance.mu, resolved.gamma0, gamma_min,
                instance.a_norm, lip, rec.k)
            ratios[rec.k] = rec.beta_k / bound
    fitted = max(v for k, v in ratios.items() if 10 <= k <= 100)
    tail_sup = max(v for k, v in ratios.items() if 100 <= k <= 10 ** 4)
    elapsed = (slope_run["elapsed"] + run["elapsed"]
               + (time.perf_counter() - t0))
    ok = (slope <= -0.9 and tail_sup <= fitted and not issues
          and elapsed < 120.0)
    line = report(6, "rate exponents", ok,
                  f"mu=0 slope {slope:.3f} (<= -0.9); mu>0 fit C={fitted:.5f} "
                  f"on [10,100], tail sup {tail_sup:.5f} on [100,1e4] "
                  f"(margin {fitted / tail_sup:.2f}x), {elapsed:.2f}s")
    assert ok, line


def test_criterion_07_line_search_bounds(game_variant_runs):
    game = game_variant_runs["instance"]
    trace = game_variant_runs["trace_uapd"]
    m_est = game.holder[1]
    m0 = 1.0
    worst_m = math.inf
    worst_count = math.inf
    cumulative = 0
    for k in range(1, 1001):
        rec = trace[k]
        cumulative += rec.i_k
        worst_m = min(worst_m,
                      analysis.mk_bound(0.0, m_est, m0, rec.delta_k) - rec.M_k)
        cap = analysis.line_search_total_bound(0.0, m_est, m0, k,
                                               trace[k + 1].delta_k)
        worst_count = min(worst_count, cap - cumulative)
    ok = worst_m >= 0.0 and worst_count >= 0.0
    line = report(7, "line-search bounds", ok,
                  f"min curvature margin {worst_m:.1f}, min trial-count "
                  f"margin {worst_count:.1f} over k <= 1e3 "
                  f"(subgradient bound {m_est:.2f})")
    assert ok, line


def test_criterion_08_over_estimation(game_variant_runs):
    game = game_variant_runs["instance"]
    trace_u = game_variant_runs["trace_uapd"]
    trace_f = game_variant_runs["trace_fixed"]
    eps = game_variant_runs["eps"]
    m_est = game.holder[1]
    m0 = 1.0
    checked = 0
    strict = True
    for k in range(1, 1001):
        ru, rf = trace_u[k], trace_f[k]
        if ru.beta_k > eps:
            checked += 1
            bound_u = analysis.mk_bound(0.0, m_est, m0, ru.delta_k)
            bound_f = analysis.mk_bound(0.0, m_est, m0, rf.delta_k)
            strict = strict and bound_f > bound_u
    ratios = [trace_f[k].M_k / trace_u[k].M_k for k in range(100, 1001)]
    mean_ratio = float(np.mean(ratios))
    ok = strict and checked > 0
    line = report(8, "over-estimation of curvature", ok,
                  f"fixed-tolerance analytic bound strictly above on all "
                  f"{checked} iterations with beta_k > eps; mean realized "
                  f"M ratio {mean_ratio:.0f} (soft, expected > 1)")
    assert ok, line


def test_criterion_09_flow_decay():
    qp = problems.make_synthetic_qp(50, 10, mu=0.5, seed=42)
    t0 = time.perf_counter()

    def worst_ratio(dt):
        trajectory = flow.integrate(qp, t_end=5.0, dt=dt)
        values = trajectory.lyapunov.tolist()
        return max(math.exp(t) * ly for t, ly in zip(trajectory.t.tolist(), values)) / values[0]

    coarse = worst_ratio(1e-3)
    fine = worst_ratio(5e-4)
    elapsed = time.perf_counter() - t0
    ok = coarse <= 1.01 and fine <= coarse + 1e-12 and elapsed < 30.0
    line = report(9, "flow decay", ok,
                  f"max e^t E/E0 = {coarse:.6f} at dt=1e-3, {fine:.6f} at "
                  f"dt=5e-4, {elapsed:.2f}s")
    assert ok, line


def test_criterion_10_end_to_end():
    t0 = time.perf_counter()
    game = problems.make_matrix_game(100, 400, seed=61)
    _, game_trace = solve(game, SolverConfig(max_iterations=150000))
    game_final = game_trace[-1].objective

    bp = problems.make_basis_pursuit(100, 500, seed=71, sparsity=20)
    bp_config = dict(gamma0=bp.metadata["a_norm"] ** 2)
    _, ref_trace = solve(bp, SolverConfig(max_iterations=20000, **bp_config))
    f_ref = ref_trace[-1].objective
    _, bp_trace = solve(bp, SolverConfig(max_iterations=65000, **bp_config))
    bp_feas = bp_trace[-1].feasibility
    bp_rel = abs(bp_trace[-1].objective - f_ref) / abs(f_ref)

    finals = {}
    for kind in ("entropy", "euclidean"):
        ablation = problems.make_matrix_game(100, 400, seed=61, geometry=kind)
        _, tr = solve(ablation, SolverConfig(max_iterations=3000))
        finals[kind] = tr[-1].objective
    elapsed = time.perf_counter() - t0

    ok = (game_final <= 1e-2 and bp_feas <= 1e-3 and bp_rel <= 1e-2
          and finals["entropy"] < finals["euclidean"] and elapsed < 600.0)
    line = report(10, "end-to-end benchmarks", ok,
                  f"game f={game_final:.2e} (<=1e-2); basis pursuit "
                  f"feas={bp_feas:.2e} (<=1e-3), rel obj gap={bp_rel:.2e} "
                  f"(<=1e-2 of 2e4-iter reference); ablation entropy "
                  f"{finals['entropy']:.2e} < euclidean "
                  f"{finals['euclidean']:.2e}; {elapsed:.0f}s")
    assert ok, line
