"""Geometry layer: divergences, mirror maps, and closed-form proxes."""

import numpy as np
import pytest

from uapd.geometry import (EntropyGeometry, EuclideanGeometry, _project_simplex, check_number,
                           _prox_squared_l1)

import helpers


def all_geometries():
    return [
        EuclideanGeometry(7),
        EuclideanGeometry(7, domain="nonneg"),
        EuclideanGeometry(7, domain="simplex", blocks=(3, 4)),
        EntropyGeometry(7, blocks=(3, 4)),
        EntropyGeometry(5),
    ]


# ---------------------------------------------------------------------------
# divergences and mirror maps


def test_euclidean_divergence_is_half_squared_distance():
    geom = EuclideanGeometry(4)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    y = np.array([0.0, 1.0, 0.5, -1.0])
    assert geom.divergence(x, y) == pytest.approx(0.5 * np.sum((x - y) ** 2), rel=1e-15)


def test_entropy_divergence_known_value():
    geom = EntropyGeometry(2)
    x = np.array([0.5, 0.5])
    y = np.array([0.25, 0.75])
    expected = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
    assert geom.divergence(x, y) == pytest.approx(expected, rel=1e-12)


def test_divergence_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(0)
    for geom in all_geometries():
        for _ in range(20):
            x = helpers.random_point(geom, rng)
            y = helpers.random_point(geom, rng)
            assert geom.divergence(x, y) >= 0.0
            assert geom.divergence(x, x) == pytest.approx(0.0, abs=1e-12)


def test_divergence_strong_convexity_lower_bound():
    # 1-strong convexity of phi: D(x, y) >= 0.5 ||x - y||^2 (l2 for
    # Euclidean; for entropy Pinsker gives it in l1, implying l2).
    rng = np.random.default_rng(1)
    for geom in all_geometries():
        for _ in range(20):
            x = helpers.random_point(geom, rng)
            y = helpers.random_point(geom, rng)
            assert geom.divergence(x, y) >= 0.5 * np.sum((x - y) ** 2) - 1e-12


def test_entropy_divergence_handles_zero_entries():
    geom = EntropyGeometry(3)
    x = np.array([0.0, 0.4, 0.6])
    y = np.ones(3) / 3
    val = geom.divergence(x, y)
    assert np.isfinite(val) and val > 0


def test_mirror_round_trip():
    rng = np.random.default_rng(2)
    for geom in [EntropyGeometry(6, blocks=(2, 4)), EuclideanGeometry(6)]:
        for _ in range(10):
            v = helpers.random_point(geom, rng)
            back = geom.grad_conj(geom.grad(v))
            assert np.max(np.abs(back - v)) < 1e-12


def test_entropy_grad_conj_is_blockwise_softmax():
    geom = EntropyGeometry(5, blocks=(2, 3))
    w = np.array([1.0, 2.0, -1.0, 0.0, 3.0])
    out = geom.grad_conj(w)
    for sl in [slice(0, 2), slice(2, 5)]:
        e = np.exp(w[sl])
        assert np.allclose(out[sl], e / e.sum(), rtol=1e-12)
        assert out[sl].sum() == pytest.approx(1.0, abs=1e-12)


def test_barycenter_is_feasible_reference_point():
    for geom in all_geometries():
        c = geom.barycenter()
        assert geom.contains(c)
    assert np.allclose(EntropyGeometry(4, blocks=(2, 2)).barycenter(), 0.5)
    assert np.allclose(EntropyGeometry(4).barycenter(), 0.25)
    assert np.allclose(EuclideanGeometry(3).barycenter(), 0.0)


def test_contains_rejects_bad_points():
    geom = EuclideanGeometry(3, domain="simplex")
    assert not geom.contains(np.array([0.5, 0.2, 0.2]))
    assert not geom.contains(np.array([-0.1, 0.6, 0.5]))
    assert not geom.contains(np.array([0.5, 0.5]))
    assert EuclideanGeometry(2, domain="nonneg").contains(np.array([0.0, 1.0]))
    assert not EuclideanGeometry(2, domain="nonneg").contains(np.array([-1e-9, 1.0]))


# ---------------------------------------------------------------------------
# three-point identity


def relative_three_term(geom, x, y, z):
    res = helpers.three_term_residual(geom, x, y, z)
    scale = max(1.0, abs(geom.divergence(z, x)), abs(geom.divergence(z, y)),
                abs(geom.divergence(y, x)))
    return abs(res) / scale


def test_three_term_identity_random_triples():
    rng = np.random.default_rng(3)
    for geom in all_geometries():
        worst = 0.0
        for _ in range(100):
            x = helpers.random_point(geom, rng)
            y = helpers.random_point(geom, rng)
            z = helpers.random_point(geom, rng)
            worst = max(worst, relative_three_term(geom, x, y, z))
        assert worst < 1e-10


# ---------------------------------------------------------------------------
# composite prox closed forms vs independent oracles


def test_euclidean_reals_prox_matches_one_step_solution():
    rng = np.random.default_rng(4)
    geom = EuclideanGeometry(6)
    for _ in range(20):
        q = helpers.random_query(geom, rng)
        got = geom.composite_prox(*q)
        want = helpers.euclidean_prox_pg(q, "reals", None)
        assert np.max(np.abs(got - want)) < 1e-10


def test_euclidean_nonneg_prox_matches_pg_oracle():
    rng = np.random.default_rng(5)
    geom = EuclideanGeometry(6, domain="nonneg")
    for _ in range(20):
        q = helpers.random_query(geom, rng)
        got = geom.composite_prox(*q)
        want = helpers.euclidean_prox_pg(q, "nonneg", None)
        assert np.max(np.abs(got - want)) < 1e-8


def test_euclidean_simplex_prox_matches_pg_oracle():
    rng = np.random.default_rng(6)
    geom = EuclideanGeometry(7, domain="simplex", blocks=(3, 4))
    for _ in range(20):
        q = helpers.random_query(geom, rng)
        got = geom.composite_prox(*q)
        want = helpers.euclidean_prox_pg(q, "simplex", (3, 4))
        assert np.max(np.abs(got - want)) < 1e-8
        assert geom.contains(got)


def test_entropy_prox_matches_multiplier_bisection():
    rng = np.random.default_rng(7)
    geom = EntropyGeometry(7, blocks=(3, 4))
    for _ in range(20):
        q = helpers.random_query(geom, rng)
        got = geom.composite_prox(*q)
        want = helpers.entropy_prox_bisect(q, (3, 4))
        assert np.max(np.abs(got - want)) < 1e-10
        assert geom.contains(got)


def test_prox_minimizes_objective_against_random_candidates():
    rng = np.random.default_rng(8)
    for geom in all_geometries():
        q = helpers.random_query(geom, rng)
        v_star = geom.composite_prox(*q)
        best = helpers.prox_objective(geom, q, v_star)
        for _ in range(50):
            cand = helpers.random_point(geom, rng)
            assert best <= helpers.prox_objective(geom, q, cand) + 1e-9


def test_squared_l1_prox_matches_threshold_bisection():
    rng = np.random.default_rng(9)
    geom = EuclideanGeometry(8)
    for _ in range(30):
        q = helpers.random_query(geom, rng, nonsmooth="squared_l1_half")
        got = geom.composite_prox(*q)
        want = helpers.squared_l1_prox_bisect(q)
        assert np.max(np.abs(got - want)) < 1e-9


def test_squared_l1_prox_one_dimensional_closed_form():
    geom = EuclideanGeometry(1)
    # minimize 0.5 v^2 + c v + (rho/2) v^2 -> z = -c/rho = 1.5, v = z/(1 + 1/rho)
    got = geom.composite_prox(np.array([-3.0]), np.zeros(1), 0.0, np.zeros(1), 2.0,
                              "squared_l1_half")
    assert got[0] == pytest.approx(1.5 / (1.0 + 0.5), rel=1e-12)


def test_squared_l1_prox_zero_input_gives_zero():
    geom = EuclideanGeometry(4)
    zero = np.zeros(4)
    assert np.all(geom.composite_prox(zero, zero, 1.0, zero, 1.0, "squared_l1_half") == 0.0)


def test_squared_l1_prox_sparsifies_small_entries():
    geom = EuclideanGeometry(3)
    out = geom.composite_prox(np.array([-10.0, -0.1, 0.1]), np.zeros(3), 0.0, np.zeros(3),
                              1.0, "squared_l1_half")
    assert out[0] > 0 and out[1] == 0.0 and out[2] == 0.0


# ---------------------------------------------------------------------------
# validation and serialization


def project_simplex(z):
    return _project_simplex(z, np.empty_like(z), np.arange(1.0, z.size + 1.0))


def prox_squared_l1(z, w):
    return _prox_squared_l1(z, w, np.arange(1.0, z.size + 1.0))


def threshold_outcome(threshold, z):
    """The output bytes of ``threshold(z)``, or the message of its ValueError."""
    try:
        with np.errstate(invalid="ignore"):
            return threshold(z).tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
def test_threshold_proxes_reject_non_finite_input(bad):
    # a linear term of -inf puts +inf into the point being thresholded
    simplex = EuclideanGeometry(4, domain="simplex", blocks=(2, 2))
    reals = EuclideanGeometry(4)
    for geom, nonsmooth in ((simplex, "zero"), (reals, "squared_l1_half")):
        for linear_term in (np.array([0.5, bad, -1.0, 2.0]), np.full(4, bad)):
            center = geom.barycenter()
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="non-finite input"):
                geom.composite_prox(linear_term, center, 0.0, center, 1.0, nonsmooth)
    # the routines themselves, with the NaN or +inf entry last or alone
    for z in (np.array([0.5, -1.0, 2.0, -bad]), np.array([-bad])):
        for threshold in (project_simplex, lambda z: prox_squared_l1(z, 1.0)):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="non-finite input"):
                threshold(z)
    # a -inf entry of the simplex projection is handled as the reference
    # handles it: zero next to finite entries, rejected when all are -inf
    for z in (np.array([0.5, bad, -1.0, 2.0]), np.array([0.5, -1.0, 2.0, bad]),
              np.full(4, bad)):
        assert (threshold_outcome(project_simplex, z)
                == threshold_outcome(helpers.reference_project_simplex, z))


def test_bad_constructor_arguments():
    with pytest.raises(ValueError):
        EuclideanGeometry(0)
    with pytest.raises(ValueError):
        EuclideanGeometry(3, domain="ball")
    with pytest.raises(ValueError):
        EuclideanGeometry(3, blocks=(3,))
    with pytest.raises(ValueError):
        EntropyGeometry(5, blocks=(2, 2))


@pytest.mark.parametrize("value, kwargs, message", [
    (True, {}, "x must be nonnegative and finite, got True"),
    ("1", {}, "x must be nonnegative and finite, got '1'"),
    (None, {"integer": True}, "x must be nonnegative and an integer, got None"),
    (2.0, {"integer": True}, "x must be nonnegative and an integer, got 2.0"),
    (float("inf"), {}, "x must be nonnegative and finite, got inf"),
    (10 ** 400, {}, "x must be nonnegative and finite, got 1" + "0" * 400),
    (0, {"positive": True}, "x must be positive and finite, got 0"),
    (6, {"high": 5, "positive": True, "integer": True},
     "x must be positive, at most 5 and an integer, got 6"),
])
def test_check_number_tests_the_type_then_finiteness_then_the_range(value, kwargs, message):
    with pytest.raises(ValueError) as err:
        check_number(value, "x", **kwargs)
    assert str(err.value) == message


def test_check_number_returns_what_it_accepts():
    # an int is finite in an integer field however large, and numpy scalars are numbers
    for value, kwargs in ((10 ** 400, {"integer": True}), (np.int64(3), {"integer": True}),
                          (np.float64(0.5), {"high": 1}), (0, {}), (1e308, {})):
        assert check_number(value, "x", **kwargs) is value
