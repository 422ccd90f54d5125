"""The double-exponential rules, kept as a test oracle.

tanh-sinh on a finite interval and the exp-sinh nodes of a half line,
refined level by level until two levels agree. The library integrates on
Gauss panels and the ray rule instead; the tests hold its results against
these independent rules.
"""

import math

import numpy as np

from gasp._quadrature import QuadratureError

_HALF_PI = math.pi / 2.0


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
