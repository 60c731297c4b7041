"""Property tests: closed forms, the three-point identity and replay.

Hypothesis draws geometries, points, prox queries and instance
recipes; each property is checked against the independent oracles in
``helpers``.  Runs are derandomized with a capped example count, so
the suite is deterministic and its wall time stays small.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from uapd.geometry import (EntropyGeometry, EuclideanGeometry, _project_simplex,
                           _prox_squared_l1)
from uapd.problems import (instance_from_dict, instance_to_dict, make_basis_pursuit,
                           make_matrix_game, make_regularized_matrix_game,
                           make_steiner, make_synthetic_qp)
from uapd import cli
from uapd.solver import SolverConfig, SolverError, solve

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


def boundary_sources():
    """Name -> (command, config): each configs/*.json and a document run of each kind."""
    sources = {}
    for path in sorted((Path(__file__).parent.parent / "configs").glob("*.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        if "flow" in cfg:
            cfg["flow"]["t_end"] = 0.01  # ten RK4 steps
        sources[path.stem] = (path.stem.rsplit("_", 1)[1], cfg)
    for instance in (make_matrix_game(3, 4, seed=1),
                     make_regularized_matrix_game(4, 5, seed=1, eps=0.1),
                     make_steiner(3, 2, seed=0),
                     make_basis_pursuit(4, 6, seed=2, sparsity=2),
                     make_synthetic_qp(6, 2, mu=0.5, seed=3)):
        doc = instance_to_dict(instance)
        sources[f"document_{doc['kind']}"] = ("solve", {"instance": doc})
    return sources


BOUNDARY_SOURCES = boundary_sources()


def boundary_fields(cfg):
    """The fields a mutation may set: the config's own, every solver field, recipe extras."""
    names = set(cfg)
    names.update(f"{key}.{name}" for key, section in cfg.items() if isinstance(section, dict)
                 for name in section)
    names.update(f"solver.{f.name}" for f in fields(SolverConfig))
    if cfg["instance"].get("kind") == "synthetic_qp" and "H" not in cfg["instance"]:
        names.update(("instance.a_norm", "instance.eig_spread"))
    if "bounds" in cfg:
        names.update(("bounds.nu", "bounds.M_nu"))
    return sorted(names)


# A wrong type, a bool, null, zero, a negative, +-inf, NaN, the largest float
# decade and a 400-digit integer (json.dumps writes Infinity and NaN).
BAD_NUMBERS = ("x", True, None, 0, -1, math.inf, -math.inf, math.nan, 1e308, 10 ** 400)
# a valid integer here is unbounded in work, so only invalid values are drawn;
# solve is capped below, so max_iterations draws every value
UNBOUNDED = ("instance.m", "instance.n")


@st.composite
def boundary_cases(draw):
    source = draw(st.sampled_from(sorted(BOUNDARY_SOURCES)))
    field = draw(st.sampled_from(boundary_fields(BOUNDARY_SOURCES[source][1])))
    values = [v for v in BAD_NUMBERS
              if not (field in UNBOUNDED and type(v) is int and v >= 1)]
    return source, field, draw(st.sampled_from(values))


def run_mutated(source, field, value):
    """(exit code, stderr, files written, what the capped solve saw or raised)."""
    command, cfg = BOUNDARY_SOURCES[source]
    cfg = json.loads(json.dumps(cfg))
    section, _, name = field.partition(".")
    if name:
        if not isinstance(cfg.get(section), dict):
            cfg[section] = {}
        cfg[section][name] = value
    else:
        cfg[section] = value
    seen = []

    def capped_solve(instance, config=None, fixed_eps=None):
        seen.append(config.max_iterations)
        try:
            return solve(instance, replace(config, max_iterations=min(config.max_iterations, 12)),
                         fixed_eps=fixed_eps)
        except Exception as exc:
            seen.append(exc)
            raise

    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "run.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cfg))
        err = io.StringIO()
        with mock.patch.object(cli, "solve", capped_solve), contextlib.redirect_stderr(err):
            code = cli.main([command, path, "--out", out])
        written = os.listdir(out) if os.path.isdir(out) else []
    return code, err.getvalue(), written, seen


@PROPERTY
@given(boundary_cases())
# the probes of the recipe, of 400-digit integers, of a squared ||A|| past the
# float range and of QP recipes that no draw can satisfy
@example(("qp_flow", "instance.a_norm", -1))
@example(("qp_flow", "instance.a_norm", 0))
@example(("qp_bounds", "instance.eig_spread", -5))
@example(("qp_bounds", "instance.mu", math.nan))
@example(("qp_flow", "instance.n", "8"))
@example(("game_compare", "eps", 10 ** 400))
@example(("qp_flow", "flow.dt", 10 ** 400))
@example(("qp_bounds", "bounds.M_nu", 10 ** 400))
@example(("qp_bounds", "instance.a_norm", 1e200))
@example(("qp_flow", "instance.mu", 1e30))
@example(("qp_flow", "instance.mu", 1e308))
@example(("qp_bounds", "instance.eig_spread", 1e308))
@example(("game_solve", "solver.max_iterations", 10 ** 400))
# valid runs that fail with SolverError: a step size whose beta * M underflows
# to 0, and a squared-l1 prox whose weight is past double precision
@example(("game_euclidean_solve", "solver", {"gamma0": 1e300, "M0": 1e-300}))
@example(("basis_pursuit_solve", "solver.gamma0", 1e-300))
# an M_nu whose power M_nu^(2/(1+nu)) underflows to 0 is bad input
@example(("qp_bounds", "bounds", {"nu": 0.5, "M_nu": 1e-300}))
def test_one_bad_number_exits_cleanly(case):
    code, err, written, seen = run_mutated(*case)
    lines = err.splitlines()
    assert code in (0, 1, 2), (case, code)
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), (case, err)
    else:
        assert err == "", (case, err)
    if code == 1:  # only a valid instance whose solve fails
        assert seen and isinstance(seen[-1], SolverError), (case, err)
    if code:  # bad input and a failed run both write nothing
        assert written == [], (case, written)
    if case[1] == "solver.max_iterations" and case[2] == 10 ** 400:
        assert code == 0 and seen[0] == 10 ** 400  # valid: the solve gets it as given


# one small instance of each kind, as an inline recipe
EXTREME_KINDS = {
    "entropy_game": {"kind": "matrix_game", "m": 4, "n": 5, "seed": 1},
    "euclidean_game": {"kind": "matrix_game", "m": 4, "n": 5, "seed": 1,
                       "geometry": "euclidean"},
    "regularized_game": {"kind": "regularized_matrix_game", "m": 4, "n": 5, "seed": 1,
                         "eps": 0.1},
    "steiner": {"kind": "steiner", "m": 3, "n": 2, "seed": 1},
    "basis_pursuit": {"kind": "basis_pursuit", "m": 4, "n": 6, "seed": 2, "sparsity": 2},
    "synthetic_qp": {"kind": "synthetic_qp", "n": 6, "m": 2, "mu": 0.5, "seed": 3},
}
EXTREME_VALUES = (1e-300, 1e-150, 1e-30, 1.0, 1e30, 1e150, 1e300)


@settings(PROPERTY, max_examples=120)
@given(st.sampled_from(("solve", "bounds", "flow")), st.sampled_from(sorted(EXTREME_KINDS)),
       st.sampled_from(EXTREME_VALUES), st.sampled_from(EXTREME_VALUES))
# M0 = 1e-300 doubles about 1000 times in iteration 0, and gamma0 = M0 = 1e-300
# overflows Steiner's first model (exit 1)
@example("solve", "entropy_game", 1.0, 1e-300)
@example("solve", "euclidean_game", 1.0, 1e-300)
@example("solve", "steiner", 1e-300, 1e-300)
def test_valid_extreme_constants_exit_cleanly(command, kind, gamma0, M0):
    cfg = {"instance": EXTREME_KINDS[kind],
           "solver": {"gamma0": gamma0, "M0": M0, "max_iterations": 30}}
    if command == "flow":
        cfg["flow"] = {"t_end": 0.01, "dt": 0.001}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cfg))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")  # a numpy warning fails the run
            code = cli.main([command, path, "--out", os.path.join(tmp, "out")])
    lines = err.getvalue().splitlines()
    # bad input only where the config is: a flow on a kind it does not take, and
    # bounds without an M_nu on basis pursuit, which certifies no Hoelder constant
    bad_input = ((command == "flow" and kind != "synthetic_qp")
                 or (command == "bounds" and kind == "basis_pursuit"))
    assert code == 2 if bad_input else code in (0, 1), (code, lines)
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        # M doubles up to the float range, which none of these runs comes near
        assert not lines[0].startswith("error: line search"), lines
    else:
        assert lines == []
