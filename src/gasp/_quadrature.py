"""Quadrature engines used across the package.

Two engines cover every integral in the library:

* composite Gauss-Legendre panels, for smooth integrands on panels the
  caller lays out (geometric towards an endpoint singularity);
* the ray rule, a trapezoid rule in tau under t = exp(tau - e^{-tau}),
  for integrands on [0, inf), carried onto a ray t e^{i phi} in the
  complex plane where an oscillatory factor such as e^{-ix xi} decays
  instead; at phi = 0 it is a double-exponential rule at 0 and an
  exponential one at infinity.

Callers that check a tolerance estimate their error on the same panels or
nodes (a second Gauss order, or the rule at twice the step) and raise
QuadratureError instead of silently returning garbage when they miss it.
"""

import math
from functools import lru_cache

import numpy as np


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
