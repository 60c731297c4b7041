"""Property tests: closed forms, the three-point identity and replay.

Hypothesis draws geometries, points, prox queries and instance
recipes; each property is checked against the independent oracles in
``helpers``.  Runs are derandomized with a capped example count, so
the suite is deterministic and its wall time stays small.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from uapd.geometry import (EntropyGeometry, EuclideanGeometry, _project_simplex,
                           _prox_squared_l1)
from uapd.problems import (instance_from_dict, instance_to_dict, make_basis_pursuit,
                           make_matrix_game, make_regularized_matrix_game,
                           make_steiner, make_synthetic_qp)
from uapd.solver import SolverConfig, solve

import helpers

PROPERTY = settings(max_examples=40, deadline=2000, derandomize=True, database=None)


@st.composite
def geometries(draw, kinds=("reals", "nonneg", "simplex", "entropy")):
    kind = draw(st.sampled_from(kinds))
    blocks = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    n = sum(blocks)
    if kind == "entropy":
        return EntropyGeometry(n, blocks=blocks)
    if kind == "simplex":
        return EuclideanGeometry(n, domain="simplex", blocks=blocks)
    return EuclideanGeometry(n, domain=kind)


def vectors(n, lo, hi):
    return hnp.arrays(np.float64, n, elements=st.floats(lo, hi))


@st.composite
def points(draw, geom):
    """A feasible point; simplex and entropy points have entries >= 0.0025."""
    n = geom.dimension
    if geom.kind == "euclidean" and geom.domain == "reals":
        return draw(vectors(n, -5.0, 5.0))
    if geom.kind == "euclidean" and geom.domain == "nonneg":
        return draw(vectors(n, 0.0, 5.0))
    x = draw(vectors(n, 0.01, 1.0))
    for sl in helpers.block_slices(geom.blocks):
        x[sl] /= x[sl].sum()
    return x


@st.composite
def queries(draw, geom, nonsmooth="zero"):
    return helpers.ProxQuery(
        linear_term=draw(vectors(geom.dimension, -10.0, 10.0)),
        anchor_y=draw(points(geom)),
        mu=draw(st.floats(0.0, 2.0)),
        anchor_v=draw(points(geom)),
        rho=draw(st.floats(0.1, 3.0)),
        nonsmooth=nonsmooth,
    )


def assert_close(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * (1.0 + np.max(np.abs(want)))


@PROPERTY
@given(st.data())
def test_euclidean_prox_matches_projected_gradient(data):
    geom = data.draw(geometries(kinds=("reals", "nonneg", "simplex")))
    q = data.draw(queries(geom))
    got = geom.composite_prox(*q)
    # the 1/(mu + rho) step of the oracle lands on the minimizer in one
    # step up to rounding, which may keep its 1e-15 stop rule from firing
    want = helpers.euclidean_prox_pg(q, geom.domain, getattr(geom, "blocks", None),
                                     iters=10)
    assert_close(got, want, 1e-8)
    assert geom.contains(got)


@PROPERTY
@given(st.data())
def test_entropy_prox_matches_multiplier_bisection(data):
    geom = data.draw(geometries(kinds=("entropy",)))
    q = data.draw(queries(geom))
    got = geom.composite_prox(*q)
    assert_close(got, helpers.entropy_prox_bisect(q, geom.blocks), 1e-10)
    assert geom.contains(got)


@PROPERTY
@given(st.data())
def test_squared_l1_prox_matches_threshold_bisection(data):
    geom = data.draw(geometries(kinds=("reals",)))
    q = data.draw(queries(geom, nonsmooth="squared_l1_half"))
    assert_close(geom.composite_prox(*q), helpers.squared_l1_prox_bisect(q), 1e-9)


@st.composite
def threshold_points(draw):
    """Length 1-600, magnitude 1e-6-1e6, entries rounded so ties and zeros occur."""
    n = draw(st.integers(1, 600))
    digits = draw(st.integers(0, 6))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    entries = st.floats(-1.0, 1.0).map(lambda x: round(x, digits))
    return draw(hnp.arrays(np.float64, n, elements=entries)) * scale


@PROPERTY
@given(threshold_points(), st.floats(-4.0, 4.0))
def test_threshold_routines_match_their_references_bit_for_bit(z, log_w):
    w, counts = 10.0 ** log_w, np.arange(1.0, z.size + 1.0)
    got, want = _prox_squared_l1(z, w, counts), helpers.reference_prox_squared_l1(z, w)
    # np.copysign keeps the sign of a -0.0 input, which np.sign(z) * drops
    minus_zero = (z == 0.0) & np.signbit(z)
    assert got[~minus_zero].tobytes() == want[~minus_zero].tobytes()
    assert np.all(got[minus_zero] == 0.0) and np.all(want[minus_zero] == 0.0)
    got = _project_simplex(z, np.empty_like(z), counts)
    assert got.tobytes() == helpers.reference_project_simplex(z).tobytes()


@PROPERTY
@given(st.data())
def test_three_term_identity(data):
    geom = data.draw(geometries())
    x, y, z = (data.draw(points(geom)) for _ in range(3))
    scale = max(1.0, abs(geom.divergence(z, x)), abs(geom.divergence(z, y)),
                abs(geom.divergence(y, x)))
    assert abs(helpers.three_term_residual(geom, x, y, z)) <= 1e-10 * scale


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(["matrix_game", "regularized_matrix_game", "steiner",
                                 "basis_pursuit", "synthetic_qp"]))
    seed = draw(st.integers(0, 2 ** 16))
    if kind == "matrix_game":
        return make_matrix_game(draw(st.integers(1, 6)), draw(st.integers(1, 6)), seed,
                                geometry=draw(st.sampled_from(["entropy", "euclidean"])))
    if kind == "regularized_matrix_game":
        return make_regularized_matrix_game(draw(st.integers(2, 6)), draw(st.integers(1, 6)),
                                            seed, eps=draw(st.sampled_from([1e-2, 1e-1])))
    if kind == "steiner":
        return make_steiner(draw(st.integers(1, 5)), draw(st.integers(1, 4)), seed)
    m = draw(st.integers(1, 5))
    n = m + draw(st.integers(1, 8))
    if kind == "basis_pursuit":
        return make_basis_pursuit(m, n, seed, sparsity=draw(st.integers(1, m)))
    a_norm = draw(st.none() | st.floats(0.1, 3.0))
    return make_synthetic_qp(n, m, draw(st.floats(0.0, 1.0)), seed, a_norm=a_norm)


@PROPERTY
@given(instances(), st.data())
def test_holder_certificate_bounds_the_gradient_change(instance, data):
    # the Euclidean norm of the line-search model 0.5 M ||d||^2, on pairs
    # x, x + t (y - x) of feasible points at three distances
    if instance.holder is None:
        assert instance.h_oracle is None  # basis pursuit: h = 0
        return
    nu, m_nu = instance.holder
    x, y = (data.draw(points(instance.geometry)) for _ in range(2))
    for t in (1.0, 1e-1, 1e-3):
        z = x + t * (y - x)
        change = float(np.linalg.norm(instance.h(x)[1] - instance.h(z)[1]))
        assert change <= m_nu * float(np.linalg.norm(x - z)) ** nu * (1.0 + 1e-9)


def replay(instance):
    """Every trace field but wall_time_s, or the error the solve raised."""
    try:
        state, trace = solve(instance, SolverConfig(max_iterations=25))
    except Exception as exc:  # a failing solve must fail the same way on the clone
        return repr(exc)
    rows = [(r.k, r.objective, r.f_residual, r.feasibility, r.i_k, r.M_k, r.alpha_k,
             r.beta_k, r.gamma_k, r.delta_k, r.lyapunov) for r in trace]
    return rows, state.x.tobytes(), state.v.tobytes(), state.lam.tobytes()


@PROPERTY
@given(instances())
def test_json_round_trip_replays_bit_identical_trace(instance):
    clone = instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))
    assert clone.metadata.get("a_norm") == instance.metadata.get("a_norm")
    assert clone.holder == instance.holder
    assert replay(clone) == replay(instance)
