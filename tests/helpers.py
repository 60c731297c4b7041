"""Independent oracles used by the test suite.

Everything in here recomputes quantities from their defining
optimization problems or recursions, without calling the closed forms
under test: simplex projection by water-level bisection, the composite
prox by projected gradient or multiplier search, the squared-l1 prox by
threshold bisection, the Lagrangian from its definition, and a
line-by-line transcription of one inner solver step.  Two threshold
routines scanning reversed sorted views are kept as bit-for-bit
references for the contiguous ones in ``uapd.geometry``, as are a
row-by-row trace writer for the column-wise ``trace_to_csv`` and an
RK4 loop on three arrays for the stacked-state ``flow.integrate``.
``three_term_residual`` checks a geometry's divergence against its
mirror map through the three-point identity.
``bad_instance_documents`` lists stored fields that no document may
hold, for the loader's and the CLI's tests alike.
"""

import csv
import json
import math
from typing import NamedTuple

import numpy as np

from uapd import problems, solver
from uapd.flow import FlowDomainError, beta_of, flow_lyapunov, gamma_of
from uapd.solver import SolverConfig


class ProxQuery(NamedTuple):
    """One composite prox subproblem, fields in ``composite_prox``'s argument order.

    ``linear_term`` is c, ``anchor_y`` carries weight ``mu`` and
    ``anchor_v`` carries weight ``rho``; ``geom.composite_prox(*query)``
    solves it.
    """

    linear_term: np.ndarray
    anchor_y: np.ndarray
    mu: float
    anchor_v: np.ndarray
    rho: float
    nonsmooth: str = "zero"


def block_slices(blocks):
    out = []
    start = 0
    for size in blocks:
        out.append(slice(start, start + size))
        start += size
    return out


def project_simplex_bisect(z, iters=200):
    """Euclidean projection of z onto the unit simplex via bisection.

    Solves sum_i max(z_i - tau, 0) = 1 for the water level tau; fully
    independent of the sort-and-threshold closed form.
    """
    z = np.asarray(z, dtype=float)
    lo = float(np.min(z)) - 1.0
    hi = float(np.max(z))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(z - mid, 0.0)) > 1.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return np.maximum(z - tau, 0.0)


def prox_objective(geom, query, v):
    """The composite prox objective evaluated at a feasible point."""
    val = float(np.dot(query.linear_term, v))
    val += query.mu * geom.divergence(v, query.anchor_y)
    val += query.rho * geom.divergence(v, query.anchor_v)
    if query.nonsmooth == "squared_l1_half":
        val += 0.5 * float(np.sum(np.abs(v))) ** 2
    return val


def euclidean_prox_pg(query, domain, blocks, iters=4000):
    """Projected gradient on the Euclidean composite prox objective.

    The smooth part has gradient c + mu (v - y) + rho (v - v_anchor) with
    Lipschitz constant mu + rho; a constant 1/L step converges.  The
    projection uses the bisection routine above.
    """
    c, y, v_anchor = query.linear_term, query.anchor_y, query.anchor_v
    s = query.mu + query.rho
    v = v_anchor.copy()
    for _ in range(iters):
        grad = c + query.mu * (v - y) + query.rho * (v - v_anchor)
        z = v - grad / s
        if domain == "reals":
            new = z
        elif domain == "nonneg":
            new = np.maximum(z, 0.0)
        else:
            new = np.empty_like(z)
            for sl in block_slices(blocks):
                new[sl] = project_simplex_bisect(z[sl])
        if np.max(np.abs(new - v)) < 1e-15:
            v = new
            break
        v = new
    return v


def entropy_prox_bisect(query, blocks, iters=300):
    """Entropy composite prox by bisection on the block multiplier.

    Stationarity gives v_i proportional to exp(t_i) with
    t = (mu ln y + rho ln v_anchor - c) / (mu + rho); instead of normalizing
    directly, solve sum_i exp(t_i - nu) = 1 for nu per block.
    """
    c, y, v_anchor = query.linear_term, query.anchor_y, query.anchor_v
    s = query.mu + query.rho
    t = (query.mu * np.log(y) + query.rho * np.log(v_anchor) - c) / s
    out = np.empty_like(t)
    for sl in block_slices(blocks):
        tb = t[sl]
        lo = float(np.max(tb)) - 1.0
        hi = float(np.max(tb)) + math.log(tb.size) + 1.0
        for _ in range(iters):
            nu = 0.5 * (lo + hi)
            if np.sum(np.exp(tb - nu)) > 1.0:
                lo = nu
            else:
                hi = nu
        out[sl] = np.exp(tb - 0.5 * (lo + hi))
    return out


def squared_l1_prox_bisect(query, iters=300):
    """Squared-l1 composite prox by bisection on the threshold.

    With z = (mu y + rho v_anchor - c) / s and w = 1/s, the minimizer is the
    soft-thresholding of z at tau solving tau = w ||soft(z, tau)||_1.
    """
    c, y, v_anchor = query.linear_term, query.anchor_y, query.anchor_v
    s = query.mu + query.rho
    z = (query.mu * y + query.rho * v_anchor - c) / s
    w = 1.0 / s

    def soft_l1(tau):
        return float(np.sum(np.maximum(np.abs(z) - tau, 0.0)))

    lo, hi = 0.0, w * soft_l1(0.0) + 1.0
    for _ in range(iters):
        tau = 0.5 * (lo + hi)
        if w * soft_l1(tau) > tau:
            lo = tau
        else:
            hi = tau
    tau = 0.5 * (lo + hi)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def reference_project_simplex(z):
    """Simplex projection scanning a reversed sorted view: ``_project_simplex``'s reference.

    It sorts into a reversed view, takes ``np.cumsum`` over it and
    divides by an integer ``arange``; ``_project_simplex`` must return
    the same bits.
    """
    n = z.shape[0]
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, n + 1)
    valid = u - css / idx > 0
    try:
        r = idx[valid][-1]
    except IndexError:  # finite input always has a threshold index
        raise ValueError("non-finite input") from None
    theta = css[r - 1] / r
    return np.maximum(z - theta, 0.0)


def reference_prox_squared_l1(z, w):
    """Squared-l1 prox scanning a reversed sorted view: ``_prox_squared_l1``'s reference.

    Same scan as ``reference_project_simplex``; ``_prox_squared_l1``
    must return the same bits, up to the sign of a zero output at a
    -0.0 input.
    """
    u = np.abs(z)
    if u.max() == 0.0:
        return np.zeros_like(z)
    if w <= 0:
        return z.copy()
    us = np.sort(u)[::-1]
    cum = np.cumsum(us)
    j = np.arange(1, u.shape[0] + 1)
    taus = w * cum / (1.0 + j * w)
    valid = us > taus
    try:
        jstar = j[valid][-1]
    except IndexError:  # finite input always has a threshold index
        raise ValueError("non-finite input") from None
    tau = taus[jstar - 1]
    return np.sign(z) * np.maximum(u - tau, 0.0)


def three_term_residual(geom, x, y, z):
    """Residual of the three-point identity, zero in exact arithmetic.

    Returns <grad phi(x) - grad phi(y), y - z>
            - [D(z, x) - D(z, y) - D(y, x)].
    """
    lhs = float((geom.grad(x) - geom.grad(y)) @ (np.asarray(y, dtype=float)
                                                 - np.asarray(z, dtype=float)))
    rhs = geom.divergence(z, x) - geom.divergence(z, y) - geom.divergence(y, x)
    return lhs - rhs


def random_point(geom, rng):
    """A random strictly feasible point of the geometry's domain."""
    if geom.kind == "entropy" or getattr(geom, "domain", None) == "simplex":
        x = np.empty(geom.dimension)
        for sl in block_slices(geom.blocks):
            u = rng.uniform(0.1, 1.0, sl.stop - sl.start)
            x[sl] = u / np.sum(u)
        return x
    if getattr(geom, "domain", None) == "nonneg":
        return rng.uniform(0.05, 2.0, geom.dimension)
    return rng.standard_normal(geom.dimension)


def random_query(geom, rng, nonsmooth="zero"):
    return ProxQuery(
        linear_term=rng.standard_normal(geom.dimension),
        anchor_y=random_point(geom, rng),
        mu=float(rng.uniform(0.0, 2.0)),
        anchor_v=random_point(geom, rng),
        rho=float(rng.uniform(0.2, 3.0)),
        nonsmooth=nonsmooth,
    )


def manual_inner_step(k, state, M_trial, instance, fixed_eps=None):
    """Textbook transcription of one inner trial, for equality checks.

    Returns a dict with every intermediate quantity; uses only the
    instance oracles and the geometry prox, recomputing the scalar
    recursions from their definitions.
    """
    beta, gamma = state.beta, state.gamma
    A_norm2 = instance.a_norm ** 2
    alpha = math.sqrt(beta * gamma) / math.sqrt(beta * M_trial + A_norm2)
    beta_new = beta / (1.0 + alpha)
    if fixed_eps is None:
        delta = beta_new / (k + 1)
    else:
        delta = fixed_eps / (k + 1)
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    h_y, grad_y = instance.h(y)
    linear = grad_y.copy()
    if instance.constrained:
        lam_tilde = state.lam + (alpha / beta) * (instance.A @ state.v - instance.b)
        linear = linear + instance.A.T @ lam_tilde
    else:
        lam_tilde = state.lam
    v_new = instance.geometry.composite_prox(linear, y, instance.mu, state.v, gamma / alpha,
                                             instance.g_spec)
    x_new = (state.x + alpha * v_new) / (1.0 + alpha)
    diff = x_new - y
    model = h_y + float(grad_y @ diff) + 0.5 * M_trial * float(diff @ diff)
    h_x = instance.h(x_new)[0]
    return {
        "alpha": alpha, "beta_new": beta_new, "delta": delta, "y": y,
        "lam_tilde": lam_tilde, "v": v_new, "x": x_new, "model": model,
        "h_at_y": h_y, "h_at_x": h_x, "accept": h_x - model <= delta / 2.0,
    }


def reference_trace_to_csv(trace, path, columns):
    """The trace CSV written row by row, each cell formatted on its own."""
    def fmt(value):
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else str(value)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in trace:
            writer.writerow([fmt(getattr(r, c)) for c in columns])


class StepRecorder:
    """Records (k, state, accepted, i_k, new_state) for every accepted step of a solve.

    A context manager: inside its ``with`` block ``solver.outer_update``,
    which ``solve`` calls by its module name once per iteration, is
    wrapped to record its arguments and result; the block's exit
    restores it.
    """

    def __init__(self):
        self.steps = []

    def __enter__(self):
        self._outer_update = update = solver.outer_update

        def recorded(state, accepted, i_k, instance):
            new_state = update(state, accepted, i_k, instance)
            self.steps.append((state.k, state, accepted, i_k, new_state))
            return new_state

        solver.outer_update = recorded
        return self

    def __exit__(self, *exc):
        solver.outer_update = self._outer_update


def finite_difference_gradient(func, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (func(x + e) - func(x - e)) / (2.0 * h)
    return g


def lagrangian(instance, x, lam):
    """L(x, lam) = f(x) + <lam, A x - b>, multiplying A x afresh."""
    value = instance.objective(x)
    if instance.A is not None and lam is not None and np.size(lam):
        value += float(np.asarray(lam) @ (instance.A @ x - instance.b))
    return value


def euler_flow(instance, gamma0, beta0, x_start, w_start, lam_start, t_end, dt):
    """Forward-Euler integration of the flow, assembled from scratch."""
    geom = instance.geometry
    x, w, lam = x_start.copy(), w_start.copy(), lam_start.copy()
    n = int(round(t_end / dt))
    for step in range(n):
        t = step * dt
        gamma_t = instance.mu + (gamma0 - instance.mu) * math.exp(-t)
        beta_t = beta0 * math.exp(-t)
        v = geom.grad_conj(w)
        grad = instance.h(x)[1]
        force = -grad
        if instance.mu > 0:
            force = force + instance.mu * (geom.grad(x) - w)
        if instance.constrained:
            force = force - instance.A.T @ lam
            dlam = (instance.A @ v - instance.b) / beta_t
        else:
            dlam = np.zeros(0)
        x = x + dt * (v - x)
        w = w + dt * (force / gamma_t)
        lam = lam + dt * dlam
    return x, w, lam


def _reference_interior(geometry, x):
    if not geometry.contains(x):
        return False
    if geometry.kind == "entropy" and float(np.min(x)) <= 0.0:
        return False
    return True


class FlowPoint(NamedTuple):
    """One grid point of ``reference_integrate``: x, w and lam as three arrays."""

    x: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    t: float

    def stacked(self):
        return np.concatenate((self.x, self.w, self.lam))


def _reference_rhs(t, x, w, lam, instance, gamma0, last):
    geom = instance.geometry
    if not _reference_interior(geom, x):
        raise FlowDomainError(
            f"iterate left the domain interior at t = {t:.6g}", last.stacked(), last.t)
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
    dx = v - x
    dw = force / gamma_of(t, mu, gamma0)
    return dx, dw, dlam


def reference_integrate(instance, t_end, dt, gamma0=None):
    """RK4 on x, w and lam as three arrays: ``flow.integrate``'s bit-for-bit reference.

    Returns a list of (:class:`FlowPoint`, Lyapunov value) pairs.

    Each stage calls a right-hand side that checks its point, so every
    grid point is checked twice; ``flow.integrate`` steps the stacked
    (x, w, lam) and must return the same bits and Lyapunov values.
    """
    geom = instance.geometry
    if gamma0 is None:
        gamma0 = SolverConfig().resolved(instance).gamma0
    x = geom.barycenter()
    w = geom.grad(x.copy())
    lam = np.zeros(instance.dual_dimension)
    n_steps = int(round(t_end / dt))

    state = FlowPoint(x=x, w=w, lam=lam, t=0.0)
    trajectory = [(state, flow_lyapunov(state.stacked(), state.t, instance, gamma0))]
    for step in range(n_steps):
        t = step * dt
        k1 = _reference_rhs(t, x, w, lam, instance, gamma0, state)
        k2 = _reference_rhs(t + 0.5 * dt, x + 0.5 * dt * k1[0], w + 0.5 * dt * k1[1],
                            lam + 0.5 * dt * k1[2], instance, gamma0, state)
        k3 = _reference_rhs(t + 0.5 * dt, x + 0.5 * dt * k2[0], w + 0.5 * dt * k2[1],
                            lam + 0.5 * dt * k2[2], instance, gamma0, state)
        k4 = _reference_rhs(t + dt, x + dt * k3[0], w + dt * k3[1], lam + dt * k3[2],
                            instance, gamma0, state)
        x = x + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        w = w + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        lam = lam + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        t_new = (step + 1) * dt
        if not _reference_interior(geom, x):
            raise FlowDomainError(
                f"iterate left the domain interior at t = {t_new:.6g}", state.stacked(), state.t)
        # contains(x) has checked x for non-finite entries
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(lam))):
            raise FlowDomainError(
                f"non-finite state at t = {t_new:.6g}", state.stacked(), state.t)
        state = FlowPoint(x=x, w=w, lam=lam, t=t_new)  # each step builds new arrays
        trajectory.append((state, flow_lyapunov(state.stacked(), state.t, instance, gamma0)))
    return trajectory


def integrate_scalar_decay(theta, eta, R, sigma, varphi, t_end, dt):
    """Fine explicit integration of y' = -sigma(t) y^theta / sqrt(varphi(t) y^(2 eta) + R^2)."""
    y = 1.0
    n = int(round(t_end / dt))
    for step in range(n):
        t = step * dt
        y = y + dt * (-sigma(t) * y ** theta / math.sqrt(varphi(t) * y ** (2 * eta) + R * R))
        if y <= 0:
            raise RuntimeError("oracle integration underflowed; shrink dt")
    return y


def bad_instance_documents():
    """(case id, document, field) for documents whose ``field`` must make loading fail.

    A bad scalar, or an array of the wrong rank, type or length, replaces
    the field; a non-finite value replaces the first entry of a stored
    array.
    """
    docs = {doc["kind"]: doc for doc in map(problems.instance_to_dict, (
        problems.make_matrix_game(3, 4, seed=1),
        problems.make_regularized_matrix_game(4, 5, seed=1, eps=0.1),
        problems.make_steiner(3, 2, seed=0),
        problems.make_basis_pursuit(4, 6, seed=2, sparsity=2),
        problems.make_synthetic_qp(6, 2, mu=0.5, seed=3)))}
    nan, inf = float("nan"), float("inf")
    cases = []
    for kind, field, value in (("regularized_matrix_game", "eps", 0.0),
                               ("regularized_matrix_game", "eps", -1.0),
                               ("regularized_matrix_game", "eps", nan),
                               ("regularized_matrix_game", "eps", "x"),
                               ("basis_pursuit", "sparsity", 0),
                               ("basis_pursuit", "sparsity", 99),
                               ("basis_pursuit", "sparsity", "x"),
                               ("basis_pursuit", "x_true", [1.0]),
                               # above lambda_min(H) = 0.5: not a modulus h has
                               ("synthetic_qp", "mu", 5),
                               ("synthetic_qp", "mu", 1e200),
                               ("synthetic_qp", "mu", 1e308)):
        cases.append((f"{field}={value!r}", {**docs[kind], field: value}, field))
    # the wrong rank, type or length (QP n = 6, basis pursuit m = 4)
    for case, kind, field, value in (("P-1d", "matrix_game", "P", [1.0, 2.0]),
                                     ("P-scalar", "matrix_game", "P", 3.0),
                                     ("P-string", "matrix_game", "P", "x"),
                                     ("P-ragged", "matrix_game", "P", [[1.0, 2.0], [3.0]]),
                                     ("P-null", "regularized_matrix_game", "P", None),
                                     ("anchors-1d", "steiner", "anchors", [1.0, 2.0]),
                                     ("A-1d", "basis_pursuit", "A", [1.0] * 6),
                                     ("b-length-1", "basis_pursuit", "b", [1.0]),
                                     ("c-length-1", "synthetic_qp", "c", [1.0]),
                                     ("H-5x6", "synthetic_qp", "H", [[1.0] * 6] * 5),
                                     ("lam_star-2d", "synthetic_qp", "lam_star", [[0.0, 0.0]])):
        cases.append((case, {**docs[kind], field: value}, field))
    for kind, field, value in (("matrix_game", "P", nan),
                               ("regularized_matrix_game", "P", inf),
                               ("steiner", "anchors", inf),
                               ("synthetic_qp", "H", nan),
                               ("synthetic_qp", "c", nan),
                               ("basis_pursuit", "x_true", nan),
                               ("synthetic_qp", "x_star", inf),
                               ("synthetic_qp", "lam_star", -inf)):
        doc = json.loads(json.dumps(docs[kind]))  # a deep copy
        cell = doc[field]
        while isinstance(cell[0], list):
            cell = cell[0]
        cell[0] = value
        cases.append((f"{kind}-{field}={value!r}", doc, field))
    return cases
