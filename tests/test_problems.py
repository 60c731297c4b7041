"""Instance generators: oracle correctness, metadata, serialization."""

import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from uapd import problems
from uapd.geometry import EntropyGeometry, EuclideanGeometry
from uapd.problems import (InstanceRecipe, ProblemInstance, instance_from_dict,
                           instance_to_dict, load_instance, make_basis_pursuit, make_matrix_game,
                           make_regularized_matrix_game, make_steiner,
                           make_synthetic_qp, operator_norm)
from uapd.solver import SolverConfig, solve

import helpers


# ---------------------------------------------------------------------------
# operator norm


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(0)
    for shape in [(5, 8), (8, 5), (1, 6), (7, 7)]:
        A = rng.standard_normal(shape)
        assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-8)


def _with_singular_values(rng, m, n, sigma):
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = np.zeros((m, n))
    S[np.arange(len(sigma)), np.arange(len(sigma))] = sigma
    return U @ S @ V.T


def _operator_norm_cases():
    rng = np.random.default_rng(1)
    rows_sum_to_zero = rng.standard_normal((6, 9))
    rows_sum_to_zero -= rows_sum_to_zero.mean(axis=1, keepdims=True)
    return {
        "tall": rng.standard_normal((40, 7)),
        "wide": rng.standard_normal((7, 40)),
        "square": rng.standard_normal((12, 12)),
        "rank_deficient": rng.standard_normal((10, 3)) @ rng.standard_normal((3, 15)),
        # A 1 = 0: an all-ones start vector lies in the null space
        "rows_orthogonal_to_ones": rows_sum_to_zero,
        # sigma_2 = (1 - 1e-5) sigma_1: iterative estimates converge slowly
        "near_degenerate": _with_singular_values(rng, 8, 11,
                                                 [3.0, 3.0 * (1.0 - 1e-5), 1.0, 0.5]),
    }


@pytest.mark.parametrize("name", sorted(_operator_norm_cases()))
def test_operator_norm_is_exact_largest_singular_value(name):
    A = _operator_norm_cases()[name]
    want = np.linalg.svd(A, compute_uv=False)[0]
    assert abs(operator_norm(A) - want) <= 1e-12 * want


def test_a_norm_survives_json_round_trip_bit_for_bit():
    for inst in (make_basis_pursuit(5, 12, seed=21, sparsity=2),
                 make_synthetic_qp(7, 3, mu=0.3, seed=22, a_norm=0.5)):
        clone = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        assert clone.metadata["a_norm"] == inst.metadata["a_norm"]


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_operator_norm_of_tiny_and_huge_matrices(scale):
    # unscaled, the Gram matrix underflows to zero or overflows to inf
    A = np.random.default_rng(5).standard_normal((5, 8))
    want = scale * np.linalg.svd(A, compute_uv=False)[0]
    assert abs(operator_norm(scale * A) - want) <= 1e-12 * want


def test_operator_norm_beyond_the_float_range_raises_value_error():
    with pytest.raises(ValueError, match="overflows"):
        operator_norm([[1.7e308, 1e308]])


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((4, 3))) == 0.0


def test_operator_norm_rank_one():
    u = np.array([3.0, 4.0])
    v = np.array([1.0, 2.0, 2.0])
    A = np.outer(u, v)
    assert operator_norm(A) == pytest.approx(5.0 * 3.0, rel=1e-10)


# ---------------------------------------------------------------------------
# matrix game


def test_matrix_game_oracle_brute_force():
    inst = make_matrix_game(4, 6, seed=3)
    P = inst.metadata["P"]
    n, m = P.shape
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = helpers.random_point(inst.geometry, rng)
        x, y = u[:n], u[n:]
        value = max(P[:, j] @ x for j in range(m)) + max(-P[i, :] @ y for i in range(n))
        got, grad = inst.h(u)
        assert got == pytest.approx(value, rel=1e-12)
        # the subgradient is a (column, negated row) pair achieving the max
        j = int(np.argmax(P.T @ x))
        i = int(np.argmax(-(P @ y)))
        assert np.allclose(grad, np.concatenate([P[:, j], -P[i, :]]))


def test_matrix_game_value_oracle_has_the_oracle_value_bits():
    inst = make_matrix_game(30, 40, seed=3)
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = helpers.random_point(inst.geometry, rng)
        image = inst.K(u)
        assert inst.h_value(u, image) == inst.h(u, image)[0] == inst.h(u)[0]
    nan = np.concatenate([np.full(30, np.nan), np.ones(40)])
    assert np.isnan(inst.h_value(nan, inst.K(nan))) and np.isnan(inst.h(nan)[0])


def test_matrix_game_holds_one_payoff_matrix():
    make_matrix_game(2, 3, seed=0)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = make_matrix_game(100, 400, seed=61)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    P = inst.metadata["P"]
    assert P.shape == (400, 100)
    assert P.nbytes <= held < 1.5 * P.nbytes  # no second (n, m) array such as -P


def test_matrix_game_tie_break_smallest_index():
    P = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])  # first two columns tie
    from uapd.problems import _assemble_matrix_game

    inst = _assemble_matrix_game(P, seed=0, geometry_kind="entropy")
    u = np.concatenate([np.ones(2) / 2, np.ones(3) / 3])
    _, grad = inst.h(u)
    assert np.allclose(grad[:2], P[:, 0])


def test_matrix_game_value_nonnegative_and_metadata():
    inst = make_matrix_game(5, 7, seed=0)
    assert inst.known_optimum == 0.0
    assert inst.geometry.blocks == (7, 5)
    assert not inst.constrained and inst.dual_dimension == 0
    P = inst.metadata["P"]
    col = np.linalg.norm(P, axis=0).max()
    row = np.linalg.norm(P, axis=1).max()
    expected = 2.0 * np.sqrt(col ** 2 + row ** 2)
    assert inst.holder[1] == pytest.approx(expected, rel=1e-12)
    # the minimax value of the product form is 0, so f >= 0 on the domain
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert inst.h(helpers.random_point(inst.geometry, rng))[0] >= -1e-12


def test_matrix_game_euclidean_variant():
    inst = make_matrix_game(4, 6, seed=5, geometry="euclidean")
    assert inst.geometry.kind == "euclidean"
    assert inst.geometry.domain == "simplex"
    ref = make_matrix_game(4, 6, seed=5)
    assert np.allclose(inst.metadata["P"], ref.metadata["P"])


# ---------------------------------------------------------------------------
# regularized game


def test_regularized_game_uniform_smoothing_error():
    inst = make_regularized_matrix_game(6, 9, seed=4, eps=1e-2)
    P = inst.metadata["P"]
    sigma = inst.metadata["sigma"]
    assert sigma == pytest.approx(1e-2 / (2 * np.log(6)), rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = helpers.random_point(inst.geometry, rng)
        exact = float(np.max(P.T @ x))
        smooth = inst.h(x)[0]
        assert -1e-12 <= smooth - exact <= 1e-2 / 2 + 1e-12


def test_regularized_game_gradient_finite_difference():
    inst = make_regularized_matrix_game(5, 7, seed=6, eps=0.5)
    rng = np.random.default_rng(4)
    x = helpers.random_point(inst.geometry, rng)
    _, grad = inst.h(x)
    fd = helpers.finite_difference_gradient(lambda u: inst.h(u)[0], x)
    assert np.max(np.abs(grad - fd)) < 1e-5
    assert inst.holder[0] == 1.0


# ---------------------------------------------------------------------------
# steiner


def test_steiner_value_and_gradient():
    inst = make_steiner(5, 3, seed=7)
    anchors = inst.metadata["anchors"]
    x = np.array([0.3, 1.2, 0.8])
    value, grad = inst.h(x)
    assert value == pytest.approx(sum(np.linalg.norm(x - a) for a in anchors), rel=1e-12)
    fd = helpers.finite_difference_gradient(lambda u: inst.h_oracle(u)[0], x)
    assert np.max(np.abs(grad - fd)) < 1e-5


def test_steiner_at_anchor_skips_singular_term():
    inst = make_steiner(3, 2, seed=8)
    anchors = inst.metadata["anchors"]
    value, grad = inst.h(anchors[0].copy())
    assert np.all(np.isfinite(grad))
    assert value == pytest.approx(sum(np.linalg.norm(anchors[0] - a) for a in anchors[1:]),
                                  rel=1e-12)


def test_steiner_domain_is_nonnegative_orthant():
    inst = make_steiner(4, 3, seed=9)
    assert inst.geometry.domain == "nonneg"
    assert inst.geometry.contains(np.zeros(3))


# ---------------------------------------------------------------------------
# basis pursuit


def test_basis_pursuit_planted_solution_is_feasible():
    inst = make_basis_pursuit(8, 20, seed=10, sparsity=3)
    x_true = inst.metadata["x_true"]
    assert np.count_nonzero(x_true) == 3
    assert inst.feasibility(x_true) < 1e-12
    assert inst.g_spec == "squared_l1_half"
    assert inst.h(np.ones(20))[0] == 0.0
    assert inst.objective(x_true) == pytest.approx(0.5 * np.abs(x_true).sum() ** 2,
                                                   rel=1e-12)


def test_basis_pursuit_declares_h_zero():
    inst = make_basis_pursuit(6, 15, seed=11, sparsity=2)
    x = np.random.default_rng(3).standard_normal(15)
    assert inst.h_oracle is None
    value, grad = inst.h(x)
    assert value == 0.0 and np.array_equal(grad, np.zeros(15))
    assert inst.h_value(x, x[:0]) == 0.0
    assert inst.objective(x) == inst.g_value(x) == 0.5 * float(np.abs(x).sum()) ** 2


def test_basis_pursuit_metadata_norm():
    inst = make_basis_pursuit(6, 15, seed=11, sparsity=2)
    assert inst.metadata["a_norm"] == pytest.approx(np.linalg.norm(inst.A, 2), rel=1e-8)


def test_operator_norm_runs_once_per_constrained_build_and_never_in_solve(monkeypatch):
    calls = []

    def counting(A, _norm=problems.operator_norm):
        calls.append(A.shape)
        return _norm(A)

    monkeypatch.setattr(problems, "operator_norm", counting)
    game = load_instance({"kind": "matrix_game", "m": 3, "n": 4, "seed": 1})
    assert game.a_norm == 0.0 and "a_norm" not in game.metadata and calls == []
    for recipe in ({"kind": "basis_pursuit", "m": 4, "n": 9, "seed": 2, "sparsity": 2},
                   {"kind": "synthetic_qp", "m": 2, "n": 6, "mu": 0.5, "seed": 3}):
        del calls[:]
        inst = load_instance(recipe)
        assert len(calls) == 1
        assert inst.a_norm == operator_norm(inst.A) == inst.metadata["a_norm"]
        clone = load_instance(instance_to_dict(inst))
        assert len(calls) == 2 and clone.a_norm == inst.a_norm
        SolverConfig().resolved(clone)
        solve(inst, SolverConfig(max_iterations=5))
        assert len(calls) == 2
    with pytest.raises(TypeError):  # an attribute, not a constructor argument
        ProblemInstance(h_oracle=None, g_spec="zero", geometry=game.geometry, a_norm=1.0)


@pytest.mark.parametrize("mu", [-0.5, float("nan"), float("inf"), "x"],
                         ids=["negative", "nan", "inf", "string"])
def test_instance_rejects_a_negative_or_nan_mu(mu):
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        ProblemInstance(h_oracle=lambda x: (0.0, np.zeros(3)), g_spec="zero",
                        geometry=EuclideanGeometry(3), mu=mu)


@pytest.mark.parametrize("holder", [(-0.1, 1.0), (1.5, 1.0), (float("nan"), 1.0), (1.0, -3.0),
                                    (1.0, float("inf")), (0.0, float("nan"))])
def test_instance_rejects_a_holder_outside_its_range(holder):
    with pytest.raises(ValueError, match="holder must be"):
        ProblemInstance(h_oracle=lambda x: (0.0, np.zeros(3)), g_spec="zero",
                        geometry=EuclideanGeometry(3), holder=holder)


@pytest.mark.parametrize("geometry", [EntropyGeometry(6, blocks=(2, 4)), EuclideanGeometry(6),
                                      EuclideanGeometry(6, domain="nonneg"),
                                      EuclideanGeometry(6, domain="simplex", blocks=(2, 4))],
                         ids=["entropy", "reals", "nonneg", "simplex"])
def test_instance_rejects_a_g_its_geometry_has_no_prox_for(geometry):
    # closed-form proxes exist for g = 0 on every geometry and for
    # g = 0.5 ||x||_1^2 on the Euclidean full space only
    full_space = geometry.kind == "euclidean" and geometry.domain == "reals"
    for g_spec in ("zero", "squared_l1_half", "l1"):
        def build():
            return ProblemInstance(h_oracle=lambda x: (0.0, np.zeros(6)), g_spec=g_spec,
                                   geometry=geometry)
        if g_spec == "zero" or (g_spec == "squared_l1_half" and full_space):
            assert build().g_spec == g_spec
        else:
            with pytest.raises(ValueError, match=f"g_spec '{g_spec}'"):
                build()
    for entry in DOCUMENTS:  # every kind's recipe pairs its g with a geometry that has the prox
        InstanceRecipe.from_dict(entry["recipe"]).generate()
    make_matrix_game(3, 4, seed=0, geometry="euclidean")


@pytest.mark.parametrize("A, b, match", [
    (np.ones((2, 3)), None, "A and b must both be given"),
    (np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]]), np.zeros(2), "^A has non-finite entries$"),
    (np.ones((2, 4)), np.zeros(2), "constraint dimensions do not match"),
], ids=["A_without_b", "A_not_finite", "A_wrong_width"])
def test_instance_rejects_bad_constraints(A, b, match):
    # the constructor's own checks, which a document's field checks reach first
    with pytest.raises(ValueError, match=match):
        ProblemInstance(h_oracle=lambda x: (0.0, np.zeros(3)), g_spec="zero",
                        geometry=EuclideanGeometry(3), A=A, b=b)


@pytest.mark.parametrize("field", ["A", "b"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_instance_rejects_non_finite_constraint_data(field, bad):
    for inst in (make_basis_pursuit(4, 9, seed=2, sparsity=2),
                 make_synthetic_qp(6, 2, mu=0.5, seed=3)):
        doc = instance_to_dict(inst)
        row = doc[field][0] if field == "A" else doc[field]
        row[1] = bad
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries$"):
            instance_from_dict(doc)


BAD_DOCUMENTS = helpers.bad_instance_documents()


@pytest.mark.parametrize("doc, field", [case[1:] for case in BAD_DOCUMENTS],
                         ids=[case[0] for case in BAD_DOCUMENTS])
def test_documents_with_a_bad_stored_field_raise_naming_it(doc, field):
    # the loader runs the builders' checks, as the generators do
    with pytest.raises(ValueError, match=f"^{field} "):
        instance_from_dict(doc)


def test_basis_pursuit_documents_may_leave_x_true_and_sparsity_null():
    doc = instance_to_dict(make_basis_pursuit(4, 6, seed=2, sparsity=2))
    inst = instance_from_dict({**doc, "x_true": None, "sparsity": None})
    assert inst.metadata["x_true"] is None and inst.metadata["sparsity"] is None


def test_known_saddle_is_shape_checked_and_its_terms_formed_at_build():
    inst = make_synthetic_qp(6, 2, mu=0.5, seed=3)
    xs, ls = inst.known_saddle
    assert inst.objective_star == inst.known_optimum == inst.objective(xs)
    assert np.array_equal(inst.residual_star, inst.A @ xs - inst.b)
    for saddle in ((xs[:-1], ls), (xs, np.append(ls, 0.0)), (xs, np.zeros(0)),
                   (xs[None, :], ls)):
        with pytest.raises(ValueError, match="^known_saddle has shapes"):
            ProblemInstance(h_oracle=inst.h_oracle, K=inst.K, g_spec="zero",
                            geometry=inst.geometry, A=inst.A, b=inst.b, known_saddle=saddle)


@pytest.mark.parametrize("x_star", [[-0.1, 0.6, 0.5], [math.nan, 0.5, 0.5], [0.5, 0.2, 0.2]],
                         ids=["negative", "nan", "off_simplex"])
def test_instance_rejects_a_known_saddle_outside_the_domain(x_star):
    # the geometry's divergence, which the Lyapunov value takes at x*, checks no point
    def build(x):
        return ProblemInstance(h_oracle=lambda x: (0.0, np.zeros(3)), g_spec="zero",
                               geometry=EntropyGeometry(3), known_saddle=(x, np.zeros(0)))
    assert build(np.array([0.2, 0.3, 0.5])).known_saddle is not None
    with pytest.raises(ValueError, match=r"^known_saddle's x\* is not a finite point of the "
                                         r"simplex domain$"):
        build(np.array(x_star))


def test_basis_pursuit_argument_validation():
    with pytest.raises(ValueError):
        make_basis_pursuit(10, 10, seed=0, sparsity=2)
    # sparsity is checked before the draw reads it
    for sparsity in (6, 0, 11, 2.0, "x"):
        with pytest.raises(ValueError, match="^sparsity "):
            make_basis_pursuit(5, 10, seed=0, sparsity=sparsity)


# ---------------------------------------------------------------------------
# synthetic QP


def test_synthetic_qp_kkt_and_spectrum():
    for mu in (0.0, 0.7):
        inst = make_synthetic_qp(10, 4, mu=mu, seed=12)
        H, c = inst.metadata["H"], inst.metadata["c"]
        xs, ls = inst.known_saddle
        assert np.linalg.norm(H @ xs + c + inst.A.T @ ls) < 1e-8
        assert np.linalg.norm(inst.A @ xs - inst.b) < 1e-8
        eigs = np.linalg.eigvalsh(H)
        assert eigs[0] == pytest.approx(mu, abs=1e-9)
        assert inst.holder[1] == pytest.approx(eigs[-1], rel=1e-12)
        assert inst.mu == mu


def test_synthetic_qp_saddle_minimizes_over_feasible_set():
    inst = make_synthetic_qp(8, 3, mu=0.5, seed=13)
    xs, _ = inst.known_saddle
    _, _, Vt = np.linalg.svd(inst.A)
    null = Vt[3:]  # rows span the null space of A
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = xs + null.T @ rng.standard_normal(5)
        assert inst.feasibility(x) < 1e-8
        assert inst.objective(x) >= inst.known_optimum - 1e-9


def test_synthetic_qp_gradient_finite_difference():
    inst = make_synthetic_qp(6, 2, mu=0.0, seed=14)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(6)
    _, grad = inst.h(x)
    fd = helpers.finite_difference_gradient(lambda u: inst.h(u)[0], x)
    assert np.max(np.abs(grad - fd)) < 1e-4


@pytest.mark.parametrize("mu, eig_spread", [(1e30, 9.0), (1e308, 9.0), (0.5, 1e308)])
def test_synthetic_qp_without_a_good_draw_names_its_numbers(mu, eig_spread):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow in the draw fails it without a warning
        named = re.escape(f"mu = {mu!r}, eig_spread = {eig_spread!r}")
        with pytest.raises(ValueError, match=named):
            make_synthetic_qp(8, 3, mu=mu, seed=12, eig_spread=eig_spread)


def test_an_a_norm_whose_square_overflows_is_refused():
    with pytest.raises(ValueError, match=r"square of \|\|A\|\| = 1e\+200 overflows"):
        make_synthetic_qp(8, 3, mu=0.5, seed=12, a_norm=1e200)


RECIPE_NUMBERS = [
    ("m", 0, "positive"), ("n", "8", "positive"), ("m", 2.0, "an integer"),
    ("seed", -1, "nonnegative"), ("seed", True, "an integer"),
    ("mu", float("nan"), "finite"), ("mu", -1.0, "nonnegative"),
    ("eig_spread", -5, "nonnegative"), ("a_norm", -1, "positive"), ("a_norm", 0, "positive"),
    ("a_norm", 10 ** 400, "finite"),
]


@pytest.mark.parametrize("field, value, rule", RECIPE_NUMBERS,
                         ids=[f"{field}={value!r:.8}" for field, value, _ in RECIPE_NUMBERS])
def test_recipe_numbers_are_checked_naming_the_field(field, value, rule):
    recipe = {"kind": "synthetic_qp", "m": 3, "n": 8, "seed": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be .*{rule}"):
        InstanceRecipe.from_dict(recipe)


def test_synthetic_qp_a_norm_rescaling():
    inst = make_synthetic_qp(9, 3, mu=1.0, seed=15, a_norm=1.0)
    assert np.linalg.norm(inst.A, 2) == pytest.approx(1.0, rel=1e-8)
    assert inst.metadata["a_norm"] == pytest.approx(1.0, rel=1e-8)


# ---------------------------------------------------------------------------
# recipes and serialization


def test_recipe_round_trip_and_generate():
    r = InstanceRecipe(kind="matrix_game", m=4, n=6, seed=17)
    r2 = InstanceRecipe.from_dict(json.loads(json.dumps(dataclasses.asdict(r))))
    assert r2 == r
    a = r.generate()
    b = r2.generate()
    assert np.allclose(a.metadata["P"], b.metadata["P"])


def test_recipe_rejects_bad_input():
    with pytest.raises(ValueError):
        InstanceRecipe.from_dict({"m": 3, "n": 4, "seed": 0})
    with pytest.raises(ValueError):
        InstanceRecipe.from_dict({"kind": "matrix_game", "m": 3, "n": 4, "seed": 0,
                                  "banana": 1})
    with pytest.raises(ValueError):
        InstanceRecipe(kind="lp", m=3, n=4, seed=0).generate()
    with pytest.raises(ValueError):
        InstanceRecipe(kind="basis_pursuit", m=3, n=9, seed=0).generate()
    # a field its kind does not read is rejected by name unless it holds its default
    unread = ({"kind": "basis_pursuit", "m": 3, "n": 9, "seed": 0, "sparsity": 2, "mu": 0.7},
              {"kind": "regularized_matrix_game", "m": 3, "n": 4, "seed": 0, "eps": 0.1,
               "geometry": "euclidean"})
    for d, name in zip(unread, ("mu", "geometry")):
        with pytest.raises(ValueError, match=f"'{name}'.* not read"):
            InstanceRecipe.from_dict(d)
    # JSON-shaped input: a kind that is not a string, a required field left out
    with pytest.raises(ValueError, match=r"unknown instance kind \['a'\]"):
        load_instance({"kind": ["a"]})
    for name in ("m", "n", "seed"):
        d = {"kind": "steiner", "m": 3, "n": 4, "seed": 0}
        del d[name]
        with pytest.raises(ValueError, match=f"recipe is missing the field '{name}'"):
            InstanceRecipe.from_dict(d)


def test_same_seed_reproduces_instance():
    a = make_matrix_game(5, 8, seed=42)
    b = make_matrix_game(5, 8, seed=42)
    c = make_matrix_game(5, 8, seed=43)
    assert np.array_equal(a.metadata["P"], b.metadata["P"])
    assert not np.array_equal(a.metadata["P"], c.metadata["P"])


@pytest.mark.parametrize("maker,args", [
    (make_matrix_game, dict(m=4, n=6, seed=18)),
    (make_regularized_matrix_game, dict(m=5, n=7, seed=19, eps=1e-2)),
    (make_steiner, dict(m=4, n=3, seed=20)),
    (make_basis_pursuit, dict(m=5, n=12, seed=21, sparsity=2)),
    (make_synthetic_qp, dict(n=7, m=3, mu=0.3, seed=22)),
])
def test_instance_json_round_trip(maker, args):
    inst = maker(**args)
    doc = json.loads(json.dumps(instance_to_dict(inst)))
    clone = instance_from_dict(doc)
    rng = np.random.default_rng(8)
    x = helpers.random_point(inst.geometry, rng)
    val0, g0 = inst.h(x)
    val1, g1 = clone.h(x)
    assert val1 == pytest.approx(val0, rel=1e-12)
    assert np.allclose(g0, g1, rtol=1e-12, atol=1e-12)
    assert clone.g_spec == inst.g_spec
    assert clone.mu == inst.mu
    assert clone.dual_dimension == inst.dual_dimension
    if inst.constrained:
        assert np.allclose(clone.A, inst.A) and np.allclose(clone.b, inst.b)
    if inst.known_saddle is not None:
        assert np.allclose(clone.known_saddle[0], inst.known_saddle[0])


def test_instance_from_dict_requires_kind():
    with pytest.raises(ValueError):
        instance_from_dict({"m": 3})


# ---------------------------------------------------------------------------
# instance kinds: recipes, documents and the loader

# One recipe per kind with the JSON document written for it by an earlier
# serializer: the document format must not change.
DOCUMENTS = json.loads(
    (Path(__file__).parent / "data" / "instance_documents.json").read_text(encoding="utf-8"))

STORED_FIELDS = {
    "matrix_game": ["P"],
    "regularized_matrix_game": ["P", "eps"],
    "steiner": ["anchors"],
    "basis_pursuit": ["A", "b", "x_true", "sparsity"],
    "synthetic_qp": ["H", "c", "A", "b", "x_star", "lam_star"],
}


def test_documents_cover_every_kind():
    assert sorted(e["recipe"]["kind"] for e in DOCUMENTS) == sorted(STORED_FIELDS)


@pytest.mark.parametrize("entry", DOCUMENTS, ids=lambda e: e["recipe"]["kind"])
def test_instance_to_dict_fields_per_kind(entry):
    doc = instance_to_dict(InstanceRecipe.from_dict(entry["recipe"]).generate())
    common = ["kind", "m", "n", "seed", "mu", "geometry"]
    assert list(doc) == common + STORED_FIELDS[entry["recipe"]["kind"]]


def _replay(instance):
    _, trace = solve(instance, SolverConfig(max_iterations=25))
    return [r._replace(wall_time_s=0.0) for r in trace]


@pytest.mark.parametrize("entry", DOCUMENTS, ids=lambda e: e["recipe"]["kind"])
def test_stored_document_is_rewritten_and_replays_its_instance(entry):
    inst = InstanceRecipe.from_dict(entry["recipe"]).generate()
    assert json.loads(json.dumps(instance_to_dict(inst))) == entry["document"]
    for load in (instance_from_dict, load_instance):
        assert _replay(load(entry["document"])) == _replay(inst)


def test_load_instance_builds_documents_from_their_data():
    doc = instance_to_dict(make_matrix_game(3, 4, seed=1))
    doc["seed"] = 2  # a document is not regenerated from its seed
    assert np.array_equal(load_instance(doc).metadata["P"], np.array(doc["P"]))
    recipe = {"kind": "matrix_game", "m": 3, "n": 4, "seed": 2}
    assert np.array_equal(load_instance(recipe).metadata["P"],
                          make_matrix_game(3, 4, seed=2).metadata["P"])


def test_unknown_kind_is_named():
    spec = {"kind": "lattice", "m": 2, "n": 3, "seed": 0}
    for load in (instance_from_dict, load_instance,
                 lambda d: InstanceRecipe.from_dict(d).generate()):
        with pytest.raises(ValueError, match="'lattice'"):
            load(spec)
    inst = make_steiner(2, 3, seed=0)
    inst.metadata["kind"] = "lattice"
    with pytest.raises(ValueError, match="'lattice'"):
        instance_to_dict(inst)


@pytest.mark.parametrize("kind,field", [("regularized_matrix_game", "eps"),
                                        ("basis_pursuit", "sparsity")])
def test_recipe_without_its_required_field_raises(kind, field):
    with pytest.raises(ValueError, match=field):
        load_instance({"kind": kind, "m": 3, "n": 5, "seed": 0})


def test_document_fields_its_kind_does_not_read_must_match_the_instance():
    bp = instance_to_dict(make_basis_pursuit(4, 9, seed=2, sparsity=2))
    steiner = instance_to_dict(make_steiner(3, 2, seed=0))
    game = instance_to_dict(make_matrix_game(3, 4, seed=1))
    for doc, name, value in ((bp, "mu", 0.7), (bp, "m", 5),
                             (steiner, "geometry", {"kind": "entropy", "dimension": 2,
                                                    "blocks": [2]}),
                             (game, "geometry", {"kind": "euclidean", "dimension": 8})):
        with pytest.raises(ValueError, match=f"'{name}'.* not read by kind"):
            instance_from_dict({**doc, name: value})
    # the written default of a field no kind but the QP reads, and a game's geometry
    assert instance_from_dict({**bp, "mu": 0}).mu == 0.0
    euclidean = {**game, "geometry": {"kind": "euclidean"}}
    assert instance_from_dict(euclidean).geometry.kind == "euclidean"
    with pytest.raises(ValueError, match="'geometry' must be a dict"):
        instance_from_dict({**game, "geometry": "euclidean"})
    with pytest.raises(ValueError, match=r"unknown instance document fields \['banana'\]"):
        instance_from_dict({**bp, "banana": 1})


def test_document_missing_a_stored_field_raises():
    doc = instance_to_dict(make_synthetic_qp(6, 2, mu=0.5, seed=3))
    del doc["lam_star"]
    with pytest.raises(ValueError, match="lam_star"):
        instance_from_dict(doc)


def test_recipes_call_the_generators_through_the_module(monkeypatch):
    # wrapping make_* in the module namespace (as bench/tracer.py does to
    # time instance builds) must reach every recipe
    built = []
    for name in ("make_matrix_game", "make_regularized_matrix_game", "make_steiner",
                 "make_basis_pursuit", "make_synthetic_qp"):
        def wrapped(*args, _make=getattr(problems, name), _name=name, **kwargs):
            built.append(_name)
            return _make(*args, **kwargs)
        monkeypatch.setattr(problems, name, wrapped)
    for entry in DOCUMENTS:
        InstanceRecipe.from_dict(entry["recipe"]).generate()
    assert sorted(built) == sorted("make_" + kind for kind in STORED_FIELDS)
