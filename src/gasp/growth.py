"""Hemisphere sup-scans for the o(r^{alpha+1}) growth order, and the
log-space bump-track ratios showing the exponents are sharp.

A scan samples a solution u on the upper half-sphere of radius r at angles
theta from the vertical axis (y = r cos theta, |x| = r sin theta), records

    M(r) = max_theta |u| * cos(theta)^{n+m} / r^{alpha+1},

and the growth statement is that M(r) -> 0 for extensions of weighted-L^1
data.  The counterexample track computes, for the sparse-bump data of
``sharpness_data``, a lower bound for the same scaled quantity along the
bump centres; it stays bounded away from zero, so the cosine power and the
r exponent cannot be improved.  Heights grow like e^{k(alpha+n+1)}, so the
track works entirely in logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import panel_integrate
from .boundary_data import (BoundaryData, case_exponents, radius_sq,
                            trapezoid_weights)
from .extension import _check_dims, _extend_points
from .kernel import ModelParams, _height, _integer, unit_sphere_area

_MAX_TRACK = 64  # log-space track: no materialized heights, so well past 12


@dataclass(frozen=True, eq=False)
class GrowthScan:
    """Per-radius hemisphere sup records."""

    r_values: tuple
    theta_count: int
    m: int
    sup_values: np.ndarray
    argmax_theta: np.ndarray

    def __post_init__(self):
        if not (len(self.r_values) == self.sup_values.size == self.argmax_theta.size):
            raise ValueError("record arrays must match r_values")
        self.sup_values.setflags(write=False)
        self.argmax_theta.setflags(write=False)


def _theta_grid(theta_count):
    # stop short of pi/2, where the cosine factor kills every evaluator
    return np.linspace(0.0, 0.5 * math.pi - math.pi / (4 * theta_count), theta_count)


def _scan(p, m, r_values, theta_count, evaluate) -> GrowthScan:
    """Check the scan inputs, evaluate u on the whole r x theta grid and
    keep each radius's sup and argmax.

    ``evaluate(x0, y)`` takes (radii, thetas) arrays of first coordinates
    and heights (the other coordinates are 0) and returns u there.
    """
    m, theta_count = _integer(m, "m", 0), _integer(theta_count, "theta_count", 16)
    rs = np.asarray(r_values, dtype=float)
    if rs.ndim != 1 or rs.size == 0 or not np.all(np.isfinite(rs)):
        raise ValueError("r_values must be a nonempty finite 1-D sequence")
    if rs[0] <= 0.0 or np.any(np.diff(rs) <= 0.0):
        raise ValueError("r_values must be positive and strictly increasing")

    thetas = _theta_grid(theta_count)
    vals = np.abs(evaluate(np.outer(rs, np.sin(thetas)),
                           np.outer(rs, np.cos(thetas))))
    vals *= np.cos(thetas) ** (p.n + m)
    k = np.argmax(vals, axis=1)
    return GrowthScan(
        r_values=tuple(float(r) for r in rs),
        theta_count=theta_count,
        m=m,
        sup_values=vals[np.arange(rs.size), k] / rs ** (p.alpha + 1.0),
        argmax_theta=thetas[k],
    )


def sphere_sup_scan(u, p: ModelParams, m, r_values, theta_count=64) -> GrowthScan:
    """Scan |u| cos^{n+m}(theta) / r^{alpha+1} over upper half-spheres.

    Parameters
    ----------
    u : callable
        Evaluator ``u(x, y) -> float`` with x an n-vector; called on every
        scan point.  For n >= 2 the scan fixes the direction x/|x| = e1,
        which loses nothing for data concentrated on that axis.
    p : ModelParams
    m : int
        Extra cosine power on top of the baseline n.
    r_values : increasing positive radii
    theta_count : int >= 16

    Returns
    -------
    GrowthScan
    """
    def evaluate(x0, y):
        out = np.empty(x0.shape)
        for idx in np.ndindex(x0.shape):
            x = np.zeros(p.n)
            x[0] = x0[idx]
            out[idx] = u(x, float(y[idx]))
        return out

    return _scan(p, m, r_values, theta_count, evaluate)


def l1_data_scan(data: BoundaryData, p: ModelParams, r_values,
                 theta_count=64) -> GrowthScan:
    """Hemisphere scan (m = 0) of the extension of function-type data.

    The same records as ``sphere_sup_scan`` over ``extend_point``, with
    every scan point of a term in one direct sum at per-point heights.
    """
    _check_dims(data, p)
    if any(term.beta.order > 0 for term in data.terms):
        raise ValueError("scan needs function-type data (all beta = 0)")

    def evaluate(x0, y):
        points = np.zeros((p.n, x0.size))
        points[0] = x0.ravel()
        return _extend_points(data, p, points, y.ravel()).reshape(x0.shape)

    return _scan(p, 0, r_values, theta_count, evaluate)


def far_field_integral(p: ModelParams, data: BoundaryData, r):
    """I(r) = int |f(eta)| (|eta|^2 + r^2)^{-(alpha+n+1)/2} d eta.

    The far-field envelope of the extension: for scan radii beyond twice
    the data support, M(r) <= c_norm * 8^{mu/2} * I(r), and I(r) -> 0.
    Trapezoid over each term grid, like the weighted norms.
    """
    r = _height(r, "r")
    if any(term.beta.order > 0 for term in data.terms):
        raise ValueError("far-field integral applies to function-type data")
    total = 0.0
    for term in data.terms:
        coords = term.grid.coords
        kern = (radius_sq(coords) + r * r) ** (-0.5 * p.mu)
        total += float(np.sum(np.abs(term.values_grid) * kern
                              * trapezoid_weights(coords)))
    return total


def u_tilde(p: ModelParams):
    """The unit-tent extension value at (0, 1): int K_{alpha,1}(eta)(1-|eta|)+ deta.

    Strictly positive; this is the constant that keeps the counterexample
    ratios away from zero.  At alpha = 0, n = 1 it equals (pi/2 - ln 2)/pi.
    The radial integral takes 32 Gauss panels of order 16, exact to
    rounding up to alpha = 1000.
    """
    pieces = panel_integrate(
        lambda t: (1.0 + t * t) ** (-0.5 * p.mu) * (1.0 - t) * t ** (p.n - 1),
        np.linspace(0.0, 1.0, 33),
    )
    return unit_sphere_area(p.n) * p.c_norm * float(np.sum(pieces))


def counterexample_track(p: ModelParams, case, k_max):
    """Lower bounds for the scaled growth quantity along the bump centres.

    For the sparse-bump data of ``sharpness_data``, evaluates at the k-th
    centre (a_k e1, rho_k) the single-bump lower bound of

        rho_k^gamma * u(a_k e1, rho_k) / (a_k^2 + rho_k^2)^{(beta+gamma)/2}.

    Dropping the other bumps is legitimate because the kernel is positive,
    and the kept bump contributes exactly f_k * u_tilde by scale invariance
    of the kernel.  Everything is assembled in logs: the heights e^{k mu}
    overflow doubles from k = 10 or so.

    Returns
    -------
    list of (k, ratio) pairs, k = 1..k_max.  A ratio past the double range
    comes back as math.inf.
    """
    if _integer(k_max, "k_max", 1) > _MAX_TRACK:
        raise ValueError(f"k_max must be between 1 and {_MAX_TRACK}")
    beta, gamma, rho_exp, height_extra = case_exponents(p, case)
    log_ut = math.log(u_tilde(p))
    out = []
    for k in range(1, k_max + 1):
        log_rho = -rho_exp * math.log(k)
        log_height = k * p.mu + height_extra * math.log(k)
        log_r_sq = 2.0 * k + math.log1p(math.exp(2.0 * (log_rho - k)))
        log_ratio = (
            gamma * log_rho
            + log_height
            + log_ut
            - 0.5 * (beta + gamma) * log_r_sq
        )
        out.append((k, math.exp(log_ratio) if log_ratio <= 709.0 else math.inf))
    return out
