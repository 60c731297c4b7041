"""Bregman geometries and the composite prox subproblem.

A geometry bundles a 1-strongly convex prox-function ``phi`` with the
domain it is defined on: the half squared Euclidean norm on the full
space, the nonnegative orthant or a product of probability simplices,
and negative entropy on a product of probability simplices.  The solver
only touches geometries through the interface here: divergence values,
mirror maps, a reference starting point and the composite prox

    argmin_v  g(v) + <c, v> + mu * D(v, y) + rho * D(v, v_anchor)

which every geometry solves in closed form for each g that its
``nonsmooth`` attribute names; ``ProblemInstance`` checks g against it.
Only ``contains`` checks its argument: the other methods take the
float vectors of the domain that the library builds, and outside data
is checked once, where ``ProblemInstance`` takes it.

A Euclidean threshold call (simplex projection, squared-l1 prox) costs
one in-place sort of the negated vector and one forward accumulate, on
contiguous arrays: ascending -z is descending z, so no reversed view is
needed, and negation is exact, so thresholds keep the descending bits.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

__all__ = [
    "BregmanGeometry",
    "EuclideanGeometry",
    "EntropyGeometry",
    "check_number",
]

# Entries are floored at this value before taking logarithms so that
# iterates that underflowed to exact zero do not produce -inf.
LOG_FLOOR = 1e-300

# Block sums of simplex points may drift by this much before they are
# considered outside the domain; prox outputs are renormalized exactly.
SIMPLEX_SUM_TOL = 1e-9


def check_number(value, name, high=math.inf, *, positive=False, integer=False):
    """``value`` if it is a number in [0, high] (0 excluded if ``positive``), else ValueError.

    The type is checked first (a real number and no bool; an integer if
    ``integer``), then finiteness (in a float field; an int too large
    for a float is not finite), then the range.  The error names ``name``.
    """
    ok = (not isinstance(value, bool)
          and isinstance(value, numbers.Integral if integer else numbers.Real)
          and (integer or abs(value) <= sys.float_info.max))
    if not (ok and (value > 0 if positive else value >= 0) and value <= high):
        rule = "positive" if positive else "nonnegative"
        if high < math.inf:
            rule += f", at most {high}"
        kind = "an integer" if integer else "finite"
        raise ValueError(f"{name} must be {rule} and {kind}, got {value!r}")
    return value


def _xlogx(x):
    # 0 * log 0 = 0 convention.
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def _floored_log(x):
    return np.log(np.maximum(x, LOG_FLOOR))


def _project_simplex(z, out, counts):
    """Projection of ``z`` onto the probability simplex, into ``out``.

    ``counts`` holds 1.0, 2.0, ... and is at least as long as ``z``.
    """
    s = np.negative(z)
    s.sort()  # ascending -z is descending z, and contiguous
    if math.isnan(s[-1]) or math.isinf(s[0]):  # NaN sorts last; s[0] is -max(z)
        raise ValueError("non-finite input")
    css = np.add.accumulate(s)
    css += 1.0
    css /= counts[:s.shape[0]]  # -theta for each count
    valid = (s < css).nonzero()[0]
    if valid.size == 0:  # max(z) absorbed the 1: z - max(z) has the same projection
        return _project_simplex(z + s[0], out, counts)  # and passes at its index 0
    np.add(z, css[valid[-1]], out=out)
    return np.maximum(out, 0.0, out=out)


def _prox_squared_l1(z, w, counts):
    """argmin_v 0.5 * ||v - z||^2 + (w / 2) * ||v||_1^2 for w > 0.

    The minimizer is a soft threshold of ``z`` at the level ``tau``
    solving tau / w = sum_i max(|z_i| - tau, 0), found by scanning |z|
    in descending order; ``counts`` (1.0, 2.0, ...) numbers the entries
    scanned.  Coordinates with |z_i| equal to tau land exactly on zero.
    """
    u = np.abs(z)
    s = np.negative(u)
    s.sort()  # ascending -|z| is descending |z|, and contiguous
    if math.isnan(s[-1]) or math.isinf(s[0]):  # NaN sorts last, an infinity first
        raise ValueError("non-finite input")
    if s[0] == 0.0:
        return np.zeros_like(z)
    taus = np.add.accumulate(s)
    if -float(taus[-1]) * float(w) == math.inf:  # checked before numpy would warn
        raise ValueError(f"weight {w:g} times ||z||_1 = {-taus[-1]:g} past the float range")
    taus *= w
    taus /= counts * w + 1.0  # -tau for each count
    valid = (s < taus).nonzero()[0]
    if valid.size == 0:  # finite input has one unless 1 / w is below rounding (w ~ 2^52)
        raise ValueError(f"weight {w:g} past double precision")
    u += taus[valid[-1]]
    np.maximum(u, 0.0, out=u)
    return np.copysign(u, z, out=u)


class BregmanGeometry:
    """Interface shared by all geometries.

    Attributes
    ----------
    kind : str
        "euclidean" or "entropy".
    dimension : int
        Length of the vectors the geometry operates on.
    domain : str
        "reals", "nonneg" or "simplex" (a product of probability
        simplices, one per entry of ``blocks``).
    blocks : tuple of int or None
        Block sizes of the simplex product; None for the other domains.
    nonsmooth : tuple of str
        The g the composite prox solves: "zero" for g = 0 and
        "squared_l1_half" for g(v) = 0.5 * ||v||_1^2.
    """

    kind = "base"
    nonsmooth = ("zero",)

    def __init__(self, dimension, domain, blocks=None):
        dimension = int(dimension)
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.dimension = dimension
        self.domain = domain
        if domain == "simplex":
            blocks = tuple(int(b) for b in (blocks if blocks is not None else (dimension,)))
            if any(b <= 0 for b in blocks):
                raise ValueError(f"block sizes must be positive, got {blocks}")
            if sum(blocks) != dimension:
                raise ValueError(f"block sizes {blocks} do not sum to dimension {dimension}")
        elif blocks is not None:
            raise ValueError("blocks are only meaningful for the simplex domain")
        self.blocks = blocks
        self._slices, start = [], 0  # one slice per simplex block
        for b in blocks or ():
            self._slices.append(slice(start, start + b))
            start += b

    def grad(self, x):
        raise NotImplementedError

    def grad_conj(self, w):
        raise NotImplementedError

    def divergence(self, x, y):
        raise NotImplementedError

    def barycenter(self):
        """The uniform point of each simplex block; the origin otherwise."""
        out = np.zeros(self.dimension)
        for sl in self._slices:
            out[sl] = 1.0 / (sl.stop - sl.start)
        return out

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,) or not np.all(np.isfinite(x)):
            return False
        if self.domain != "reals" and np.any(x < 0.0):
            return False
        return all(abs(float(x[sl].sum()) - 1.0) <= SIMPLEX_SUM_TOL for sl in self._slices)

    def composite_prox(self, c, y, mu, v, rho, nonsmooth="zero"):
        """argmin_v g(v) + <c, v> + mu * D(v, y) + rho * D(v, v_anchor).

        Unchecked: the anchors ``y`` (weight ``mu >= 0``) and ``v``
        (weight ``rho > 0``) are points of the domain, and ``nonsmooth``,
        one of ``self.nonsmooth``, names g.  The Euclidean threshold
        proxes raise ValueError on a point that is not finite, and the
        squared-l1 prox on a weight 1 / (mu + rho) past double precision.
        """
        raise NotImplementedError

    def to_dict(self):
        raise NotImplementedError


class EuclideanGeometry(BregmanGeometry):
    """phi(x) = 0.5 * ||x||^2 on R^n, R^n_+ or a product of simplices.

    ``domain`` is one of "reals", "nonneg" or "simplex"; the simplex
    domain takes block sizes so product feasible sets are a single
    geometry.  The composite prox reduces to a projection of an affine
    expression; the squared-l1 nonsmooth term is supported on the full
    space only.
    """

    kind = "euclidean"

    def __init__(self, dimension, domain="reals", blocks=None):
        if domain not in ("reals", "nonneg", "simplex"):
            raise ValueError(f"unknown domain {domain!r}")
        super().__init__(dimension, domain, blocks)
        self._counts = np.arange(1.0, self.dimension + 1.0)  # for the threshold scans
        if domain == "reals":
            self.nonsmooth = ("zero", "squared_l1_half")

    def grad(self, x):
        return x.copy()

    def grad_conj(self, w):
        return w.copy() if self.domain == "reals" else self._project(w)

    def _project(self, z):
        """Euclidean projection of ``z`` onto the domain; ``z`` itself on R^n."""
        if self.domain == "reals":
            return z
        if self.domain == "nonneg":
            return np.maximum(z, 0.0)
        out = np.empty_like(z)
        for sl in self._slices:
            _project_simplex(z[sl], out[sl], self._counts)
        return out

    def divergence(self, x, y):
        d = x - y
        return 0.5 * float(d @ d)

    def composite_prox(self, c, y, mu, v, rho, nonsmooth="zero"):
        s = mu + rho
        # at mu = 0, mu * y would only add a signed zero
        z = rho * v if mu == 0 else mu * y + rho * v
        z -= c
        z /= s
        if nonsmooth == "squared_l1_half":
            # Rescale so the subproblem is 0.5||v - z||^2 + (w/2)||v||_1^2.
            return _prox_squared_l1(z, 1.0 / s, self._counts)
        return self._project(z)

    def to_dict(self):
        d = {"kind": self.kind, "dimension": self.dimension, "domain": self.domain}
        if self.blocks is not None:
            d["blocks"] = list(self.blocks)
        return d


class EntropyGeometry(BregmanGeometry):
    """Negative entropy phi(x) = sum_i x_i log x_i on a product of simplices.

    The divergence is the (generalized) Kullback-Leibler divergence.
    Entries below ``LOG_FLOOR`` are floored before logarithms so that
    components that underflowed to zero stay usable.  The prox with
    g = 0 is a per-block softmax of the weighted geometric mean of the
    anchors tilted by the linear term, computed in log space with a max
    shift.
    """

    kind = "entropy"

    def __init__(self, dimension, blocks=None):
        super().__init__(dimension, "simplex", blocks)

    def grad(self, x):
        return 1.0 + _floored_log(x)

    def _softmax(self, a):
        """Per-block softmax of ``a`` with a max shift, in place; returns ``a``."""
        for sl in self._slices:
            e = a[sl]
            e -= np.maximum.reduce(e)
            np.exp(e, out=e)
            e /= np.add.reduce(e)
        return a

    def grad_conj(self, w):
        return self._softmax(w.copy())

    def divergence(self, x, y):
        kl = _xlogx(x) - x * _floored_log(y)
        return float(kl.sum() - x.sum() + y.sum())

    def composite_prox(self, c, y, mu, v, rho, nonsmooth="zero"):
        s = mu + rho
        if mu == 0:
            # mu * log(y) would only add a signed zero here.
            a = (rho * _floored_log(v) - c) / s
        else:
            a = (mu * _floored_log(y) + rho * _floored_log(v) - c) / s
        return self._softmax(a)

    def to_dict(self):
        return {"kind": self.kind, "dimension": self.dimension, "blocks": list(self.blocks)}
