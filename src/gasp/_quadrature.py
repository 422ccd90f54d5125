"""Quadrature engines used across the package.

Three families cover every integral in the library:

* tanh-sinh (double-exponential) rules on a finite interval, robust to
  integrable endpoint singularities such as cos^alpha near pi/2;
* exp-sinh rules on a half line, for integrands with algebraic behaviour
  at the finite end and (at least) exponential decay at infinity;
* the ray rule, a trapezoid rule in tau under t = exp(tau - e^{-tau}),
  for analytic integrands carried onto a ray t e^{i phi} in the complex
  plane, where an oscillatory factor such as e^{-ix xi} decays instead.

Composite Gauss-Legendre panels serve smooth integrands on given panels.
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
# Gauss-Legendre panels


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


# ---------------------------------------------------------------------------
# the ray rule on [0, inf)


def ray_nodes(lo, hi, step, level, denom):
    """Nodes t and weights dt/dtau of the ray rule new at ``level``.

    t = exp(tau - e^{-tau}) / denom on a tau-grid over [lo, hi]: the nodes
    thin out double exponentially towards 0 and exponentially towards inf.
    Level 0 takes the multiples of ``step`` between even multiples around
    [lo, hi], so its even nodes are the rule at twice the step; level k adds
    the odd multiples of step / 2^k. Callers sum weight * g(t e^{i phi})
    e^{i phi} times the step of the level.
    """
    k = np.arange(2 ** (level + 1) * math.floor(0.5 * lo / step),
                  2 ** (level + 1) * math.ceil(0.5 * hi / step) + 1)
    tau = step / 2 ** level * (k[k % 2 == 1] if level else k)
    t = np.exp(tau - np.exp(-tau)) / denom
    return t, t * (1.0 + np.exp(-tau))
