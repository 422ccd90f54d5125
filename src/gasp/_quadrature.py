"""Quadrature engines used across the package.

Three families cover every integral in the library:

* tanh-sinh (double-exponential) rules on a finite interval, robust to
  integrable endpoint singularities such as cos^alpha near pi/2;
* exp-sinh rules on a half line, for integrands with algebraic behaviour
  at the finite end and (at least) exponential decay at infinity;
* lobe-splitting with iterated averaging for oscillatory integrals
  (cosine/Bessel factors), where plain rules stall.

All integrators report an error estimate and raise QuadratureError instead
of silently returning garbage when they fail to converge.
"""

import math
from functools import lru_cache

import numpy as np

_HALF_PI = math.pi / 2.0


class QuadratureError(RuntimeError):
    """Raised when an integrator cannot meet the requested tolerance.

    Carries the best value and the achieved error estimate so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


# ---------------------------------------------------------------------------
# double-exponential refinement


def _de_params(h, t_max, level):
    """Abscissa parameters newly added at one refinement level.

    Level 0 takes every multiple of h in [-t_max, t_max]. At level k > 0
    the step has been halved k times and the new points are the odd
    multiples of the current step h, i.e. (j + 1/2) * 2h; the union over
    levels 0..k is the full grid at step h.
    """
    if level == 0:
        k = np.arange(-int(t_max / h), int(t_max / h) + 1)
        return k * h
    step = 2.0 * h
    t = (np.arange(-int(t_max / step) - 1, int(t_max / step) + 1) + 0.5) * step
    return t[np.abs(t) <= t_max]


def _de_refine(name, node_map, f, t_max, rel_tol, abs_tol, max_level):
    """Level loop shared by the double-exponential rules.

    node_map(t) -> (args, weights) turns parameters t into the arguments
    f is called with and the matching weights. Each level adds the points
    new at that step, so the running sum reweighted by h is the rule at h;
    two successive levels closer than the tolerance stop the loop.
    """
    total = 0.0
    prev = None
    err = math.inf
    for level in range(max_level + 1):
        h = 0.5 ** level
        args, w = node_map(_de_params(h, t_max, level))
        fv = f(*args)
        fv = np.where(np.isfinite(fv), fv, 0.0)
        total = total + np.sum(fv * w).item()
        value = total * h  # halving h reweights the accumulated sum
        if prev is not None and level >= 2:
            err = abs(value - prev)
            if err <= rel_tol * abs(value) + abs_tol:
                return value, err
        prev = value
    raise QuadratureError(
        "%s did not reach tol=%.1e (err estimate %.2e)" % (name, rel_tol, err),
        value=prev, error_estimate=err)


# ---------------------------------------------------------------------------
# tanh-sinh on [a, b]


def _tanh_sinh_xw(t, a, b):
    """Nodes, weights and endpoint distances for parameters t on [a, b]."""
    c = 0.5 * (b - a)
    w = _HALF_PI * np.sinh(t)
    e2 = np.exp(-2.0 * np.abs(w))
    # distance to the endpoint nearest each node, free of cancellation:
    # c * (1 - tanh|w|) = 2c e^{-2|w|} / (1 + e^{-2|w|})
    dist = 2.0 * c * e2 / (1.0 + e2)
    x = np.where(t >= 0, b - dist, a + dist)
    da = np.where(t >= 0, (b - a) - dist, dist)
    db = np.where(t >= 0, dist, (b - a) - dist)
    sech = 2.0 * np.exp(-np.abs(w)) / (1.0 + e2)
    weight = c * _HALF_PI * np.cosh(t) * sech * sech
    return x, weight, da, db


def tanh_sinh(f, a, b, rel_tol=1e-12, abs_tol=0.0, max_level=12,
              with_distances=False):
    """Integrate f over the finite interval [a, b].

    f must accept numpy arrays and may return complex values. With
    ``with_distances=True`` it is called as ``f(x, dist_a, dist_b)`` where
    the distances to the endpoints are computed free of cancellation;
    integrands singular at an endpoint (e.g. (b-x)^p with p > -1) should
    use them instead of forming b - x.

    Returns (value, error_estimate).
    """
    if not b > a:
        raise ValueError("need b > a")

    def node_map(t):
        x, w, da, db = _tanh_sinh_xw(t, a, b)
        return ((x, da, db) if with_distances else (x,)), w

    return _de_refine("tanh-sinh", node_map, f, 4.0, rel_tol, abs_tol,
                      max_level)


# ---------------------------------------------------------------------------
# exp-sinh on [a, inf)


def _exp_sinh_xw(t, a, scale):
    # for wide t spans the top nodes can overflow to inf; callers treat the
    # resulting non-finite integrand values as zero contribution
    with np.errstate(over="ignore"):
        w = _HALF_PI * np.sinh(t)
        g = np.exp(w)
        x = a + scale * g
        weight = scale * _HALF_PI * np.cosh(t) * g
    return x, weight


def exp_sinh(f, a=0.0, scale=1.0, rel_tol=1e-12, abs_tol=0.0, max_level=12):
    """Integrate f over [a, inf).

    Suited to integrands with algebraic behaviour at ``a`` and exponential
    (or faster) decay at infinity. ``scale`` shifts the node cluster; set
    it near the scale on which f varies. Returns (value, error_estimate).
    """

    def node_map(t):
        x, w = _exp_sinh_xw(t, a, scale)
        return (x,), w

    return _de_refine("exp-sinh", node_map, f, 4.8, rel_tol, abs_tol,
                      max_level)


# ---------------------------------------------------------------------------
# Gauss-Legendre panels and oscillatory lobe sums


@lru_cache(maxsize=16)
def gauss_legendre(order):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def panel_integrate(f, edges, order=16):
    """Composite Gauss-Legendre integral over the panels defined by edges.

    Returns the array of per-panel integrals (len(edges) - 1 entries);
    f is called once on the full node set.
    """
    edges = np.asarray(edges, dtype=float)
    nodes, weights = gauss_legendre(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + half[:, None] * nodes[None, :]
    fv = f(x.ravel()).reshape(x.shape)
    return half * (fv @ weights)


def _averaging_diagonal(partial_sums):
    """Iterated-averaging (Euler transform) limit estimate.

    Repeatedly averages adjacent partial sums; for an alternating tail the
    final entry converges far faster than the plain sequence. Operates on
    the last axis, so a matrix of per-row partial sums works too.
    """
    row = np.asarray(partial_sums)
    while row.shape[-1] > 1:
        row = 0.5 * (row[..., 1:] + row[..., :-1])
    return row[..., 0]


def lobe_edges(boundaries, feature):
    """Lobe boundaries for integrate_lobes_rows on [0, inf).

    boundaries yields the sign changes b1 < b2 < ... of the oscillatory
    factor. When the first lobe [0, b1) is much wider than the feature
    scale of the rest of the integrand, one Gauss panel cannot resolve its
    peak, so that lobe is first split geometrically from 0.25 * feature.
    """
    boundaries = iter(boundaries)
    first = next(boundaries)
    yield 0.0
    e = 0.25 * feature
    while e < 0.75 * first:
        yield e
        e *= 2.0
    yield first
    yield from boundaries


def integrate_lobes_rows(f, boundary_gen, rel_tol=1e-10, abs_tol=0.0,
                         max_lobes=512, order=32, block=16):
    """Integrate each row of f over [b0, inf), split at b0 < b1 < ...

    boundary_gen yields the lobe boundaries, which should bracket sign
    changes of the oscillatory factor (consecutive zeros); each lobe gets
    a Gauss-Legendre rule and each row's alternating lobe series is
    accelerated by iterated averaging. f(x) must return a matrix of shape
    (rows, x.size), possibly complex: many integrands sharing one set of
    lobe boundaries (e.g. an oscillatory inner integral evaluated for a
    whole batch of outer quadrature nodes), or one row for one integrand.
    Rows whose magnitude is far below the largest row are held to a
    proportionally absolute tolerance, since they cannot matter
    downstream. Returns (values, worst_error).
    """
    nodes, weights = gauss_legendre(order)
    last_edge = next(boundary_gen)
    lobes = None
    best = None
    err = math.inf
    for _ in range(max(1, max_lobes // block)):
        edges = [last_edge]
        for _ in range(block):
            edges.append(next(boundary_gen))
        last_edge = edges[-1]
        e = np.asarray(edges, dtype=float)
        mid = 0.5 * (e[1:] + e[:-1])
        half = 0.5 * (e[1:] - e[:-1])
        x = mid[:, None] + half[:, None] * nodes[None, :]
        fv = f(x.ravel())
        fv = fv.reshape(fv.shape[0], x.shape[0], order)
        vals = (fv @ weights) * half[None, :]
        lobes = vals if lobes is None else np.concatenate([lobes, vals],
                                                          axis=1)
        partial = np.cumsum(lobes, axis=1)
        tail = partial[:, max(0, partial.shape[1] - 24):]
        v_full = _averaging_diagonal(tail)
        v_drop = _averaging_diagonal(tail[:, :-1])
        err_rows = np.abs(v_full - v_drop)
        scale = np.max(np.abs(v_full)) if v_full.size else 0.0
        floor = np.maximum(np.abs(v_full), 1e-6 * scale)
        if lobes.shape[1] >= 2 * block \
                and np.all(err_rows <= rel_tol * floor + abs_tol):
            return v_full, float(np.max(err_rows))
        best = v_full
        err = float(np.max(err_rows))
    raise QuadratureError(
        "row lobe sums did not settle (worst err %.2e)" % err,
        value=best, error_estimate=err)
