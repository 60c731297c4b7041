"""Tests for the continuous-time primal-dual flow."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from uapd import flow, problems
from uapd.geometry import EntropyGeometry
from uapd.problems import ProblemInstance
from uapd.solver import SolverConfig, initial_state
from helpers import euler_flow, lagrangian, reference_integrate


def entropy_quadratic(c=(0.5, 0.3, 0.2)):
    """Smooth problem on the simplex with an interior optimum at c."""
    c = np.asarray(c, dtype=float)

    def oracle(x):
        diff = x - c
        return 0.5 * float(np.dot(diff, diff)), diff

    return ProblemInstance(
        h_oracle=oracle, g_spec="zero", geometry=EntropyGeometry(c.size),
        known_saddle=(c.copy(), np.zeros(0)), known_optimum=0.0,
        holder=(1.0, 1.0))


def worst_scaled(trajectory):
    """max_t e^t E(t) over the grid, read from the t and Lyapunov columns."""
    return max(math.exp(t) * ly
               for t, ly in zip(trajectory.t.tolist(), trajectory.lyapunov.tolist()))


def test_schedule_closed_forms():
    assert flow.gamma_of(0.0, 0.3, 2.0) == pytest.approx(2.0)
    assert flow.gamma_of(math.log(2.0), 0.3, 2.0) == pytest.approx(0.3 + 1.7 / 2.0)
    assert flow.gamma_of(50.0, 0.3, 2.0) == pytest.approx(0.3, abs=1e-12)
    assert flow.beta_of(math.log(4.0)) == pytest.approx(0.25)


def test_rhs_vanishes_at_saddle():
    for mu in (0.0, 0.7):
        qp = problems.make_synthetic_qp(9, 3, mu=mu, seed=3)
        x_star, lam_star = qp.known_saddle
        z = np.concatenate((x_star, qp.geometry.grad(x_star), lam_star))
        dx, dw, dlam = np.split(flow._rhs(0.0, z, qp, gamma0=1.0), [9, 18])
        assert np.max(np.abs(dx)) <= 1e-8
        assert np.max(np.abs(dw)) <= 1e-7
        assert np.max(np.abs(dlam)) <= 1e-8


def test_rhs_rejects_nonsmooth_instances():
    game = problems.make_matrix_game(3, 4, seed=0)
    with pytest.raises(ValueError, match="differentiable"):
        flow.integrate(game, t_end=1.0, dt=0.1, gamma0=1.0)
    bp = problems.make_basis_pursuit(4, 10, seed=0, sparsity=2)
    with pytest.raises(ValueError, match="differentiable"):
        flow.integrate(bp, t_end=1.0, dt=0.1)


def test_integrate_matches_independent_euler():
    qp = problems.make_synthetic_qp(8, 2, mu=0.7, seed=11)
    geom = qp.geometry
    start = geom.barycenter()
    trajectory = flow.integrate(qp, t_end=1.0, dt=1e-3, gamma0=1.0)
    x_e, w_e, lam_e = euler_flow(qp, 1.0, 1.0, start, geom.grad(start),
                                 np.zeros(qp.dual_dimension), 1.0, 1e-5)
    n, final = geom.dimension, trajectory.states[-1]
    assert trajectory.t[-1] == pytest.approx(1.0)
    assert np.max(np.abs(final[:n] - x_e)) <= 2e-4
    assert np.max(np.abs(final[n:2 * n] - w_e)) <= 2e-4
    assert np.max(np.abs(final[2 * n:] - lam_e)) <= 2e-4


def test_lyapunov_scaled_decay_quadratic():
    for mu in (0.0, 0.7):
        qp = problems.make_synthetic_qp(9, 3, mu=mu, seed=3)
        trajectory = flow.integrate(qp, t_end=4.0, dt=1e-3)
        e0 = trajectory.lyapunov[0]
        assert e0 > 0
        assert worst_scaled(trajectory) <= e0 * (1.0 + 1e-6)
        # the Lyapunov value itself heads to zero
        assert trajectory.lyapunov[-1] <= 0.05 * e0


def test_lyapunov_scaled_decay_entropy():
    inst = entropy_quadratic()
    trajectory = flow.integrate(inst, t_end=4.0, dt=1e-3)
    assert worst_scaled(trajectory) <= trajectory.lyapunov[0] * (1.0 + 1e-6)


def test_refining_the_step_does_not_hurt_decay():
    qp = problems.make_synthetic_qp(9, 3, mu=0.0, seed=3)

    def worst_ratio(dt):
        trajectory = flow.integrate(qp, t_end=2.0, dt=dt)
        return worst_scaled(trajectory) / trajectory.lyapunov[0]

    coarse = worst_ratio(2e-3)
    fine = worst_ratio(1e-3)
    assert fine <= coarse + 1e-12


def test_gross_step_leaves_simplex_interior():
    steep = np.array([40.0, -35.0, 2.0])
    inst = ProblemInstance(
        h_oracle=lambda x: (float(np.dot(steep, x)), steep.copy()),
        g_spec="zero", geometry=EntropyGeometry(3),
        known_saddle=(np.array([0.0, 1.0, 0.0]), np.zeros(0)),
        known_optimum=-35.0, holder=(1.0, 0.0))
    with pytest.raises(flow.FlowDomainError) as err:
        flow.integrate(inst, t_end=20.0, dt=2.5)
    assert err.value.t == pytest.approx(0.0)
    with pytest.raises(flow.FlowDomainError) as err:
        flow.integrate(inst, t_end=20.0, dt=1.5)
    last, reached = err.value.state, flow.integrate(inst, t_end=1.5, dt=1.5)
    assert err.value.t == reached.t[-1] == 1.5
    assert last.tobytes() == reached.states[-1].tobytes()
    # the error keeps its own (x, w, lam), not the whole preallocated grid
    assert last.base is None and last.shape == (2 * 3,)


def test_integrate_argument_validation():
    qp = problems.make_synthetic_qp(5, 2, mu=0.0, seed=1)
    with pytest.raises(ValueError):
        flow.integrate(qp, t_end=0.0, dt=0.1)
    with pytest.raises(ValueError):
        flow.integrate(qp, t_end=1.0, dt=-0.1)
    with pytest.raises(ValueError, match="at least one step"):
        flow.integrate(qp, t_end=0.1, dt=1.0)
    with pytest.raises(ValueError, match="not a finite step count"):
        flow.integrate(qp, t_end=1e300, dt=1e-300)
    # past numpy's intp range, so refused before anything is allocated
    with pytest.raises(ValueError, match=f"{round(1e30) + 1} points"):
        flow.integrate(qp, t_end=1e30, dt=1.0)
    # the grid's numbers are checked by type before their range, naming the argument
    for t_end, dt, name in (("1", 0.1, "t_end"), (1.0, None, "dt"), (True, 0.1, "t_end")):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            flow.integrate(qp, t_end=t_end, dt=dt)
    anon = ProblemInstance(
        h_oracle=lambda x: (float(np.dot(x, x)), 2.0 * x), g_spec="zero",
        geometry=problems.make_synthetic_qp(3, 1, mu=0.0, seed=0).geometry.__class__(3),
        holder=(1.0, 2.0))
    with pytest.raises(ValueError):
        flow.integrate(anon, t_end=1.0, dt=0.1)


def test_default_gamma0_matches_the_solver_without_a_norm_metadata():
    made = problems.make_synthetic_qp(7, 3, mu=0.25, seed=17, a_norm=0.5)
    qp = ProblemInstance(h_oracle=made.h_oracle, K=made.K, g_spec="zero",
                         geometry=made.geometry, A=made.A, b=made.b, mu=made.mu,
                         known_saddle=made.known_saddle, holder=made.holder)
    gamma0 = SolverConfig().resolved(qp).gamma0
    assert gamma0 == pytest.approx(0.25, rel=1e-12)  # min(1, 0.5^2)
    default = flow.integrate(qp, t_end=0.05, dt=0.01)
    explicit = flow.integrate(qp, t_end=0.05, dt=0.01, gamma0=gamma0)
    assert default.lyapunov.tolist() == explicit.lyapunov.tolist()
    assert np.array_equal(default.states[-1], explicit.states[-1])


@pytest.mark.parametrize("gamma0", [-1.0, 0.0, float("nan"), float("inf")])
def test_integrate_rejects_a_gamma0_the_solver_rejects(gamma0):
    qp = problems.make_synthetic_qp(8, 3, mu=0.0, seed=1)
    with pytest.raises(ValueError, match="gamma0"):
        flow.integrate(qp, t_end=1.0, dt=0.1, gamma0=gamma0)


def test_flow_lyapunov_is_the_lagrangian_formula():
    qp = problems.make_synthetic_qp(9, 3, mu=0.4, seed=7)
    gamma0 = SolverConfig().resolved(qp).gamma0
    trajectory = flow.integrate(qp, t_end=0.2, dt=0.02)
    x_star, lam_star = qp.known_saddle
    n = qp.geometry.dimension
    for z, t, value in zip(trajectory.states, trajectory.t.tolist(),
                           trajectory.lyapunov.tolist()):
        x, w, lam = z[:n], z[n:2 * n], z[2 * n:]
        v = qp.geometry.grad_conj(w)
        dl = lam - lam_star
        want = (lagrangian(qp, x, lam_star) - lagrangian(qp, x_star, lam)
                + flow.gamma_of(t, qp.mu, gamma0) * qp.geometry.divergence(x_star, v)
                + 0.5 * flow.beta_of(t) * float(dl @ dl))
        assert value == want
        assert flow.flow_lyapunov(z, t, qp, gamma0) == value


def test_flow_evaluates_the_saddle_objective_once():
    qp = problems.make_synthetic_qp(6, 2, mu=0.5, seed=4)
    calls = []
    objective = qp.objective
    qp.objective = lambda x: calls.append(1) or objective(x)
    trajectory = flow.integrate(qp, t_end=0.2, dt=0.02)
    # one per grid point; f(x*) was formed when the instance was built
    assert len(calls) == len(trajectory)


def test_trajectory_grid_and_initial_conditions():
    for inst in (problems.make_synthetic_qp(6, 2, mu=0.0, seed=4), entropy_quadratic()):
        trajectory = flow.integrate(inst, t_end=0.5, dt=0.05)
        assert len(trajectory) == 11
        # the flow starts where the solver does: (x_0, grad phi(x_0), 0)
        start = initial_state(inst, SolverConfig().resolved(inst))
        n, first = inst.geometry.dimension, trajectory.states[0]
        assert np.array_equal(first[:n], start.x)
        assert np.array_equal(first[n:2 * n], inst.geometry.grad(start.v))
        assert np.array_equal(first[2 * n:], start.lam)
        assert np.allclose(trajectory.t, np.arange(11) * 0.05)


@pytest.mark.parametrize("make", [
    lambda: problems.make_synthetic_qp(8, 3, mu=0.6, seed=5),
    lambda: problems.make_synthetic_qp(9, 3, mu=0.0, seed=3),
    entropy_quadratic,
], ids=["constrained_qp_mu_positive", "qp_mu_zero_odd_n", "entropy_simplex"])
def test_integrate_equals_the_three_array_reference(make):
    inst = make()
    got = flow.integrate(inst, t_end=0.5, dt=1e-2)
    want = reference_integrate(inst, t_end=0.5, dt=1e-2)
    assert len(got) == len(want) == 51
    for z, t, value, (ref, ref_value) in zip(got.states, got.t.tolist(),
                                             got.lyapunov.tolist(), want):
        assert t == ref.t
        assert z.tobytes() == np.concatenate((ref.x, ref.w, ref.lam)).tobytes()
        assert value == ref_value


def test_each_point_is_checked_once():
    qp = problems.make_synthetic_qp(6, 2, mu=0.5, seed=4)
    calls = []
    contains = qp.geometry.contains
    qp.geometry.contains = lambda x: calls.append(1) or contains(x)
    flow.integrate(qp, t_end=0.2, dt=0.02)
    # three stage points and one new grid point per step
    assert len(calls) == 4 * 10


def test_trajectory_memory_per_point():
    # a list of (FlowState, value) pairs held ~1000 B per point; the columns
    # hold the stacked (x, w, lam), t and the value: 8 (2n + m + 2) B
    qp = problems.make_synthetic_qp(20, 5, mu=0.5, seed=4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajectory = flow.integrate(qp, t_end=1.0, dt=1e-3)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trajectory) == 1001
    assert held <= 8 * (2 * 20 + 5 + 2) * len(trajectory) + 16384


def test_trajectory_csv_round_trip(tmp_path):
    qp = problems.make_synthetic_qp(6, 2, mu=0.5, seed=4)
    trajectory = flow.integrate(qp, t_end=0.2, dt=0.02)
    path = tmp_path / "traj.csv"
    flow.trajectory_to_csv(trajectory, qp, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "lyapunov", "et_lyapunov", "feasibility"]
    assert len(rows) == len(trajectory) + 1
    xs = trajectory.states[:, :qp.geometry.dimension]
    for row, t_point, lyap, x in zip(rows[1:], trajectory.t, trajectory.lyapunov, xs):
        t, value, scaled, feas = map(float, row)
        assert t == pytest.approx(t_point)
        assert value == pytest.approx(lyap)
        assert scaled == pytest.approx(math.exp(t) * lyap)
        assert feas == pytest.approx(qp.feasibility(x))
