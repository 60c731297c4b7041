"""Problem instances and benchmark generators.

An instance is the tuple the solver consumes: a first-order oracle for
the smooth part h, a tag for the simple nonsmooth part g, a geometry
describing the feasible set, and optionally an affine constraint
A x = b.  Generators for the benchmark families live here together
with JSON round-tripping (matrices stored dense, row-major) so runs
replay bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import BregmanGeometry, EntropyGeometry, EuclideanGeometry, check_number

__all__ = [
    "ProblemInstance",
    "InstanceRecipe",
    "operator_norm",
    "make_matrix_game",
    "make_regularized_matrix_game",
    "make_steiner",
    "make_basis_pursuit",
    "make_synthetic_qp",
    "instance_to_dict",
    "instance_from_dict",
    "load_instance",
]

# Distance below which a summand of the sum-of-norms objective is
# treated as exactly at its anchor and contributes a zero gradient.
STEINER_ZERO_DIST = 1e-12


def operator_norm(A):
    """Largest singular value of ``A``, exact to rounding.

    The square root of the largest eigenvalue of the smaller Gram
    matrix (A A^T when A has no more rows than columns, else A^T A),
    from one symmetric eigensolver call.  Power iteration would need a
    number of steps that grows without bound as sigma_2 / sigma_1
    approaches 1.  ``A`` is first scaled by the power of two 2^-e with
    2^(e-1) <= max|A_ij| < 2^e, which is exact, so the Gram matrix
    neither underflows nor overflows; the root is scaled back by 2^e.
    An empty or all-zero matrix returns 0; a norm beyond the float
    range raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0 or not np.any(A):
        return 0.0
    e = math.frexp(float(np.abs(A).max()))[1]
    A = np.ldexp(A, -e)
    gram = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    try:
        return math.ldexp(float(np.sqrt(np.linalg.eigvalsh(gram)[-1])), e)
    except OverflowError:
        raise ValueError("the operator norm overflows the float range") from None


@dataclass
class ProblemInstance:
    """Composite problem min h(x) + g(x) s.t. A x = b, x in the domain.

    ``h_oracle`` maps a point to ``(value, gradient)``; for nonsmooth h
    the gradient is a deterministic subgradient selection; None declares
    h = 0.  When h(x) = phi(x, K x) with K linear, ``K`` is the map
    x -> K x and ``h_oracle`` takes ``(x, K x)``, so a caller holding the
    image skips the product.  ``h_value_oracle``, when given with K, maps
    K x to h(x) alone, without building a gradient.
    ``g_spec`` names g and must be one of ``geometry.nonsmooth``, the
    g whose prox the geometry solves.  ``known_saddle`` is
    ``(x*, lam*)`` when available (lam* empty for unconstrained problems)
    and enables :meth:`lyapunov`; x* must be a point of the geometry's
    domain, and its f(x*) and A x* - b are formed once here, as
    ``objective_star`` and ``residual_star``.  ``known_optimum``
    is f(x*) when known.  ``a_norm`` is ||A||, computed once here (0.0
    when unconstrained) and also published as ``metadata["a_norm"]``;
    the solver squares it, so a square past the float range is refused.
    ``holder`` is h's Hoelder certificate ``(nu, M_nu)``, with
    ||grad h(x) - grad h(y)|| <= M_nu ||x - y||^nu in the Euclidean
    norm, or None when the instance declares none.  The instance owns the
    layout (x, K x, A x - b) that :meth:`lift` writes: the slices
    ``x_block``, ``image_block`` and ``residual_block`` (empty without A)
    read it back and, like ``constrained`` and ``dual_dimension``, are
    attributes set once here.
    """

    h_oracle: object
    g_spec: str
    geometry: BregmanGeometry
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    mu: float = 0.0
    known_saddle: tuple | None = None
    known_optimum: float | None = None
    holder: tuple | None = None
    metadata: dict = field(default_factory=dict)
    K: object = None
    h_value_oracle: object = None
    a_norm: float = field(init=False, default=0.0)
    objective_star: float | None = field(init=False, default=None)
    residual_star: np.ndarray | None = field(init=False, default=None)
    constrained: bool = field(init=False, default=False)
    dual_dimension: int = field(init=False, default=0)
    x_block: slice = field(init=False, default=None)
    image_block: slice = field(init=False, default=None)
    residual_block: slice = field(init=False, default=None)

    def __post_init__(self):
        check_number(self.mu, "mu")
        if self.holder is not None:
            try:
                nu, m_nu = self.holder
                check_number(nu, "nu", 1)
                check_number(m_nu, "M_nu")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"holder must be a pair (nu, M_nu): {exc}") from None
        if self.g_spec not in self.geometry.nonsmooth:
            raise ValueError(f"g_spec {self.g_spec!r} is not one of the nonsmooth terms "
                             f"{self.geometry.nonsmooth} that the geometry's prox solves")
        if (self.A is None) != (self.b is None):
            raise ValueError("A and b must both be given or both be absent")
        if self.A is not None:
            self.A = np.asarray(self.A, dtype=float)
            self.b = np.asarray(self.b, dtype=float)
            for name in ("A", "b"):
                if not np.isfinite(getattr(self, name)).all():
                    raise ValueError(f"{name} has non-finite entries")
            m, n = self.A.shape
            if n != self.geometry.dimension or self.b.shape != (m,):
                raise ValueError("constraint dimensions do not match the geometry")
            self.a_norm = operator_norm(self.A)
            if self.a_norm * self.a_norm == math.inf:  # the solver squares it
                raise ValueError(f"the square of ||A|| = {self.a_norm:g} overflows the float range")
            self.metadata["a_norm"] = self.a_norm
            self.constrained, self.dual_dimension = True, m
        n, m = self.geometry.dimension, self.dual_dimension
        end = -m if m else None  # K x is whatever lies between x and A x - b: no K product
        self.x_block, self.image_block = slice(n), slice(n, end)
        self.residual_block = slice(end, None) if m else slice(0)
        if self.known_saddle is not None:
            x_star, lam_star = (np.asarray(a, dtype=float) for a in self.known_saddle)
            want = ((self.geometry.dimension,), (self.dual_dimension,))
            if (x_star.shape, lam_star.shape) != want:
                raise ValueError(f"known_saddle has shapes {x_star.shape} and "
                                 f"{lam_star.shape}, expected {want[0]} and {want[1]}")
            if not self.geometry.contains(x_star):  # the geometry checks no point it is given
                raise ValueError(f"known_saddle's x* is not a finite point of the "
                                 f"{self.geometry.domain} domain")
            self.known_saddle = (x_star, lam_star)
            self.objective_star = self.objective(x_star)
            self.residual_star = self.residual(x_star)

    def h(self, x, image=None):
        """(h(x), gradient); ``image`` is K x when known, else formed here."""
        if self.h_oracle is None:
            return 0.0, np.zeros(self.geometry.dimension)
        if self.K is None:
            value, grad = self.h_oracle(x)
        else:
            value, grad = self.h_oracle(x, self.K(x) if image is None else image)
        return float(value), np.asarray(grad, dtype=float)

    def h_value(self, x, image):
        """h(x) alone at a point whose K image (ignored without K) the caller holds.

        0.0 without an oracle call when h = 0; otherwise the value oracle's
        result when the instance has one, else the value of ``h_oracle``.
        """
        if self.h_oracle is None:
            return 0.0
        if self.h_value_oracle is None:
            return self.h(x, image)[0]
        return float(self.h_value_oracle(image))

    def lift(self, x):
        """(x, K x, A x - b) stacked in one vector; absent parts are empty."""
        parts = [x] if self.K is None else [x, self.K(x)]
        if self.A is not None:
            parts.append(self.A @ x - self.b)
        return np.concatenate(parts)

    def g_value(self, x):
        if self.g_spec == "zero":
            return 0.0
        return 0.5 * float(np.abs(x).sum()) ** 2

    def objective(self, x):
        return self.h(x)[0] + self.g_value(x)

    def residual(self, x):
        """A x - b, or None when unconstrained."""
        return None if self.A is None else self.A @ x - self.b

    def feasibility(self, x):
        r = self.residual(x)
        return 0.0 if r is None else float(np.linalg.norm(r))

    def lyapunov(self, objective, residual, v, lam, gamma, beta):
        """L(x, lam*) - L(x*, lam) + gamma D(x*, v) + (beta / 2) ||lam - lam*||^2.

        ``objective`` and ``residual`` are f(x) and ``residual(x)`` at the
        primal point x.  Raises ValueError without a known saddle point.
        """
        if self.known_saddle is None:
            raise ValueError("the Lyapunov function needs an instance with a known saddle point")
        x_star, lam_star = self.known_saddle
        objective_star = self.objective_star
        if residual is not None:  # the Lagrangians L(x, lam*) and L(x*, lam)
            objective += float(lam_star @ residual)
            objective_star += float(lam @ self.residual_star)
        value = objective - objective_star + gamma * self.geometry.divergence(x_star, v)
        if np.size(lam_star):
            dl = lam - lam_star
            value += 0.5 * beta * float(dl @ dl)
        return float(value)


@dataclass
class InstanceRecipe:
    """Seeded description of a benchmark instance, JSON-serializable."""

    kind: str
    m: int
    n: int
    seed: int
    eps: float | None = None
    sparsity: int | None = None
    mu: float = 0.0
    geometry: str = "entropy"
    a_norm: float | None = None
    eig_spread: float = 9.0

    def __post_init__(self):
        for name in ("m", "n"):
            check_number(getattr(self, name), name, positive=True, integer=True)
        check_number(self.seed, "seed", integer=True)
        check_number(self.mu, "mu")
        check_number(self.eig_spread, "eig_spread")
        if self.a_norm is not None:
            check_number(self.a_norm, "a_norm", positive=True)

    def generate(self):
        """The instance of this recipe; its generator rejects a field it reads and lacks."""
        return _kind(self.kind).generate(self)

    @classmethod
    def from_dict(cls, d):
        """Recipe from a dict; a field its kind does not read must be absent or default."""
        for name in ("kind", "m", "n", "seed"):
            if name not in d:
                raise ValueError(f"recipe is missing the field '{name}'")
        fields = cls.__dataclass_fields__
        unknown = set(d) - set(fields)
        if unknown:
            raise ValueError(f"unknown recipe fields {sorted(unknown)}")
        row = _kind(d["kind"])
        unread = sorted(name for name, value in d.items()
                        if name not in ("kind", "m", "n", "seed", *row.reads)
                        and value != fields[name].default)
        if unread:
            raise ValueError(f"recipe fields {unread} are not read by kind {d['kind']!r}")
        return cls(**d)


# ---------------------------------------------------------------------------
# Matrix game: min over a product of simplices of
#   max_j <p_j, x>  -  min_i <r_i, y>,  r_i the rows of P.
# The optimal value is 0.


def _matrix_game_oracle(P):
    """(oracle, value, K) with K u = (P^T x, P y) for u = (x, y); P is the one copy.

    h(u) = max(P^T x) - min(P y), with the subgradient (P[:, j], -P[i])
    at the smallest extreme indices j and i (argmax and argmin both take
    the smallest, NaN first).  ``value`` is h alone from the image.
    """
    n, m = P.shape
    PT = P.T

    def K(u):
        return np.concatenate((PT @ u[:n], P @ u[n:]))

    def oracle(u, image):
        sx, ty = image[:m], image[m:]
        j = int(sx.argmax())
        i = int(ty.argmin())
        return float(sx[j] - ty[i]), np.concatenate((P[:, j], -P[i]))

    def value(image):
        sx, ty = image[:m], image[m:]
        return sx[sx.argmax()] - ty[ty.argmin()]

    return oracle, value, K


def _assemble_matrix_game(P, seed, geometry_kind):
    n, m = P.shape
    blocks = (n, m)
    if geometry_kind == "entropy":
        geom = EntropyGeometry(n + m, blocks=blocks)
    elif geometry_kind == "euclidean":
        geom = EuclideanGeometry(n + m, domain="simplex", blocks=blocks)
    else:
        raise ValueError(f"unknown matrix game geometry {geometry_kind!r}")
    col = np.linalg.norm(P, axis=0)
    row = np.linalg.norm(P, axis=1)
    diameter = 2.0 * float(np.sqrt(col.max() ** 2 + row.max() ** 2))
    oracle, value, K = _matrix_game_oracle(P)
    return ProblemInstance(
        h_oracle=oracle,
        h_value_oracle=value,
        K=K,
        g_spec="zero",
        geometry=geom,
        mu=0.0,
        known_optimum=0.0,
        holder=(0.0, diameter),
        metadata={"kind": "matrix_game", "m": m, "n": n, "seed": seed, "P": P},
    )


def make_matrix_game(m, n, seed, geometry="entropy"):
    """Random two-player zero-sum game on the product simplex."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n, m))
    return _assemble_matrix_game(P, seed, geometry)


# ---------------------------------------------------------------------------
# Smoothed matrix game: softmax smoothing of max_j <p_j, x> on the simplex.


def _regularized_game_oracle(P, sigma):
    def oracle(x, image):  # image = P^T x
        u = image / sigma
        umax = float(u.max())
        w = np.exp(u - umax)
        s = float(w.sum())
        value = sigma * (umax + np.log(s))
        grad = P @ (w / s)
        return value, grad

    return oracle


def _assemble_regularized_game(P, eps, seed):
    n, m = P.shape
    if m < 2:
        raise ValueError("the smoothed game needs at least two columns")
    check_number(eps, "eps", positive=True)
    sigma = eps / (2.0 * np.log(m))
    # z^T hess h z = Var_w(P^T z) / sigma <= (range of P^T z)^2 / (4 sigma)
    # (Popoviciu) <= max_j ||P[:, j]||^2 ||z||^2 / sigma
    lips = float(np.linalg.norm(P, axis=0).max() ** 2 / sigma)
    return ProblemInstance(
        h_oracle=_regularized_game_oracle(P, sigma),
        K=P.T.__matmul__,
        g_spec="zero",
        geometry=EntropyGeometry(n),
        mu=0.0,
        holder=(1.0, lips),
        metadata={
            "kind": "regularized_matrix_game",
            "m": m,
            "n": n,
            "seed": seed,
            "eps": eps,
            "sigma": float(sigma),
            "P": P,
        },
    )


def make_regularized_matrix_game(m, n, seed, eps):
    """Entropy-smoothed column player problem of the matrix game."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n, m))
    return _assemble_regularized_game(P, eps, seed)


# ---------------------------------------------------------------------------
# Steiner / continuous facility location: sum of distances to anchors
# over the nonnegative orthant.


def _steiner_oracle(anchors):
    def oracle(x):
        diffs = x[None, :] - anchors
        norms = np.linalg.norm(diffs, axis=1)
        value = float(norms.sum())
        mask = norms > STEINER_ZERO_DIST
        grad = (diffs[mask] / norms[mask, None]).sum(axis=0)
        return value, grad

    return oracle


def _assemble_steiner(anchors, seed):
    m, n = anchors.shape
    return ProblemInstance(
        h_oracle=_steiner_oracle(anchors),
        g_spec="zero",
        geometry=EuclideanGeometry(n, domain="nonneg"),
        mu=0.0,
        holder=(0.0, 2.0 * m),  # each summand's subgradient is a unit vector or 0
        metadata={"kind": "steiner", "m": m, "n": n, "seed": seed, "anchors": anchors},
    )


def make_steiner(m, n, seed):
    """Sum of Euclidean distances to random anchors on R^n_+."""
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((m, n))
    return _assemble_steiner(anchors, seed)


# ---------------------------------------------------------------------------
# Basis pursuit with the squared l1 objective: min 0.5||x||_1^2, Ax = b.
# h = 0, declared by the absent oracle.


def _assemble_basis_pursuit(A, b, x_true, seed, sparsity):
    """``x_true`` and ``sparsity`` may each be None, as a document allows."""
    m, n = A.shape
    if sparsity is not None:
        check_number(sparsity, "sparsity", m, positive=True, integer=True)
    return ProblemInstance(
        h_oracle=None,
        g_spec="squared_l1_half",
        geometry=EuclideanGeometry(n, domain="reals"),
        A=A,
        b=b,
        mu=0.0,
        metadata={
            "kind": "basis_pursuit",
            "m": m,
            "n": n,
            "seed": seed,
            "x_true": x_true,
            "sparsity": sparsity,
        },
    )


def make_basis_pursuit(m, n, seed, sparsity):
    """Random underdetermined system with a sparse planted solution."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    check_number(sparsity, "sparsity", m, positive=True, integer=True)  # the draw reads it
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    support = rng.choice(n, size=sparsity, replace=False)
    x_true = np.zeros(n)
    x_true[support] = rng.standard_normal(sparsity)
    b = A @ x_true
    return _assemble_basis_pursuit(A, b, x_true, seed, sparsity)


# ---------------------------------------------------------------------------
# Synthetic equality-constrained QP with a known saddle point.


def _qp_oracle(c):
    def oracle(x, Hx):
        return float(0.5 * (x @ Hx) + c @ x), Hx + c

    return oracle


def _assemble_synthetic_qp(H, c, A, b, saddle, mu, seed):
    n, eigs = H.shape[0], np.linalg.eigvalsh(H)
    # mu is h's strong-convexity modulus: at most lambda_min(H), up to rounding
    check_number(mu, "mu", float(eigs[0] + 1e-12 * abs(eigs[-1])))
    instance = ProblemInstance(
        h_oracle=_qp_oracle(c),
        K=H.__matmul__,
        g_spec="zero",
        geometry=EuclideanGeometry(n, domain="reals"),
        A=A,
        b=b,
        mu=float(mu),
        known_saddle=saddle,
        holder=(1.0, float(eigs[-1])),
        metadata={"kind": "synthetic_qp", "m": A.shape[0], "n": n, "seed": seed,
                  "H": H, "c": c},
    )
    instance.known_optimum = instance.objective_star
    return instance


def make_synthetic_qp(n, m, mu, seed, a_norm=None, eig_spread=9.0):
    """Strongly or weakly convex QP with equality constraints.

    H is symmetric with smallest eigenvalue exactly ``mu``; A has full
    row rank (rescaled to ``a_norm`` when given).  The saddle point is
    read off the KKT system, which is re-sampled on the rare singular
    draw; ValueError when 20 draws give no finite, nonsingular system.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = np.random.default_rng(seed)
    # overflow is not warned about: it fails the residual test or ProblemInstance's ||A|| check
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(20):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = mu + eig_spread * rng.uniform(size=n)
            eigs[0] = mu
            H = (Q * eigs) @ Q.T
            H = 0.5 * (H + H.T)
            A = rng.standard_normal((m, n))
            if a_norm is not None:
                A = A * (a_norm / operator_norm(A))
            c = rng.standard_normal(n)
            b = A @ rng.standard_normal(n)
            kkt = np.block([[H, A.T], [A, np.zeros((m, m))]])
            rhs = np.concatenate([-c, b])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            scale = 1.0 + float(np.linalg.norm(rhs))
            if float(np.linalg.norm(kkt @ sol - rhs)) <= 1e-10 * scale:
                break
        else:
            raise ValueError(f"20 draws gave no finite, nonsingular KKT system for mu = {mu!r}, "
                             f"eig_spread = {eig_spread!r} and a_norm = {a_norm!r}")
    return _assemble_synthetic_qp(H, c, A, b, (sol[:n], sol[n:]), mu, seed)


# ---------------------------------------------------------------------------
# One row per instance kind.  A JSON document stores kind/m/n/seed/mu/
# geometry and the row's stored fields (matrices as row-major nested
# lists); loading rebuilds the oracles from them, not from the seed.
# _assemble_* takes the float arrays that make_* draws or _stored_array checks.
# The lambdas look the builders up as module globals at call time, so
# wrapping make_* from outside (as bench/tracer.py does) takes effect.


class _Kind(NamedTuple):
    generate: object  # recipe -> instance
    reads: tuple  # recipe fields it reads, besides kind, m, n and seed
    load: object  # document, stored lists as arrays -> instance
    stored: dict  # document field -> its array's dimension names (None: any), or None for a scalar


_KINDS = {
    "matrix_game": _Kind(
        lambda r: make_matrix_game(r.m, r.n, r.seed, geometry=r.geometry), ("geometry",),
        lambda d: _assemble_matrix_game(d["P"], d.get("seed"),
                                        d.get("geometry", {}).get("kind", "entropy")),
        {"P": ("n", "m")}),
    "regularized_matrix_game": _Kind(
        lambda r: make_regularized_matrix_game(r.m, r.n, r.seed, r.eps), ("eps",),
        lambda d: _assemble_regularized_game(d["P"], d["eps"], d.get("seed")),
        {"P": ("n", "m"), "eps": None}),
    "steiner": _Kind(
        lambda r: make_steiner(r.m, r.n, r.seed), (),
        lambda d: _assemble_steiner(d["anchors"], d.get("seed")),
        {"anchors": ("m", "n")}),
    "basis_pursuit": _Kind(
        lambda r: make_basis_pursuit(r.m, r.n, r.seed, r.sparsity), ("sparsity",),
        lambda d: _assemble_basis_pursuit(d["A"], d["b"], d["x_true"], d.get("seed"),
                                          d["sparsity"]),
        {"A": ("m", "n"), "b": ("m",), "x_true": ("n",), "sparsity": None}),
    "synthetic_qp": _Kind(
        lambda r: make_synthetic_qp(r.n, r.m, r.mu, r.seed, a_norm=r.a_norm,
                                    eig_spread=r.eig_spread), ("mu", "a_norm", "eig_spread"),
        lambda d: _assemble_synthetic_qp(d["H"], d["c"], d["A"], d["b"],
                                         (d["x_star"], d["lam_star"]),
                                         d.get("mu", 0.0), d.get("seed")),
        # ProblemInstance checks the saddle point's lengths, as known_saddle
        {"H": ("n", "n"), "c": ("n",), "A": ("m", "n"), "b": ("m",), "x_star": (None,),
         "lam_star": (None,)}),
}


def _kind(kind):
    """The table row of ``kind``, or ValueError naming the unknown kind."""
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ValueError(f"unknown instance kind {kind!r}")
    return _KINDS[kind]


def _common_fields(instance):
    """The document fields every kind writes: kind, m, n, seed, mu and geometry."""
    meta = instance.metadata
    return {"kind": meta.get("kind"), "m": meta.get("m"), "n": meta.get("n"),
            "seed": meta.get("seed"), "mu": instance.mu,
            "geometry": instance.geometry.to_dict()}


def instance_to_dict(instance):
    d = _common_fields(instance)
    meta = instance.metadata
    for name in _kind(d["kind"]).stored:
        if name in ("A", "b"):
            value = getattr(instance, name)
        elif name in ("x_star", "lam_star"):
            value = instance.known_saddle[name == "lam_star"]
        else:
            value = meta[name]
        d[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return d


# Stored arrays a document may leave null: a basis pursuit without a planted solution.
_NULLABLE = ("x_true",)


def _stored_array(name, value, dims, sizes):
    """The stored field ``value`` as a finite float array whose shape ``dims`` names.

    ``sizes`` holds the length each dimension name took in the fields
    read before, and learns the new ones; a dimension named None may
    have any length.  ValueError naming the field for a value that is
    not a ``len(dims)``-D array of numbers, a length that disagrees with
    ``sizes``, or a non-finite entry.
    """
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf" or array.ndim != len(dims):
        raise ValueError(f"{name} must be a {len(dims)}-D array of numbers, got {value!r:.60}")
    want = tuple(length if dim is None else sizes.setdefault(dim, length)
                 for dim, length in zip(dims, array.shape))
    if want != array.shape:
        raise ValueError(f"{name} must have shape {want}, got {array.shape}")
    array = array.astype(float, copy=False)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has non-finite entries")
    return array


def instance_from_dict(d):
    """Instance from a document of :func:`instance_to_dict`, built from its stored data.

    Every field but the stored ones is one that :func:`instance_to_dict`
    writes for every kind.  One its kind does not read (``mu`` on basis
    pursuit, m and n, the geometry of a kind with a fixed one) must hold
    the value the loaded instance has; a geometry may give only some of
    its keys.
    """
    row = _kind(d.get("kind"))
    unknown = sorted(set(d) - {"kind", "m", "n", "seed", "mu", "geometry", *row.stored})
    if unknown:
        raise ValueError(f"unknown instance document fields {unknown}")
    if not isinstance(d.get("geometry", {}), dict):
        raise ValueError(f"document field 'geometry' must be a dict as instance_to_dict "
                         f"writes it, got {d['geometry']!r}")
    doc, sizes = dict(d), {}
    for name, dims in row.stored.items():
        if name not in d:
            raise ValueError(f"instance document is missing the field '{name}'")
        if dims is not None and not (d[name] is None and name in _NULLABLE):
            doc[name] = _stored_array(name, d[name], dims, sizes)
    instance = row.load(doc)
    written = _common_fields(instance)
    if "geometry" in d:  # a geometry may give some of its keys only, such as its kind
        written["geometry"] = {key: written["geometry"].get(key) for key in d["geometry"]}
    unread = [name for name in written if name in d and d[name] != written[name]]
    if unread:
        has = ", ".join(f"{name} = {written[name]!r}" for name in unread)
        raise ValueError(f"document fields {unread} are not read by kind {d['kind']!r} "
                         f"as given: the loaded instance has {has}")
    return instance


def load_instance(spec):
    """Instance from a recipe or from a document of ``instance_to_dict``.

    A spec is a document when it carries its kind's first stored field
    (``P``, ``anchors``, ``A`` or ``H``), and a recipe otherwise.
    """
    if next(iter(_kind(spec.get("kind")).stored)) in spec:
        return instance_from_dict(spec)
    return InstanceRecipe.from_dict(spec).generate()
