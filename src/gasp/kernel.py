"""The weighted Poisson kernel K_{alpha,y} and the operator residual.

K_{alpha,y}(x) = c_norm * y^(alpha+1) / (|x|^2 + y^2)^((alpha+n+1)/2)

with c_norm = Gamma((alpha+n+1)/2) / (Gamma((alpha+1)/2) pi^(n/2)). The
kernel has unit mass on R^n for every y > 0 and solves D_alpha u = 0 on the
upper half-space, where

    D_alpha u = y^(-alpha) (Laplacian_x u + u_yy - (alpha/y) u_y).

This module keeps everything pointwise-exact: closed-form evaluation, the
exact recurrence for spatial derivatives, a one-dimensional quadrature for
the mass and a finite-difference residual for plugging arbitrary
evaluators into D_alpha. In the elevation angle s = atan2(y, |x|) the
kernel's mass below s is omega_{n-1} c_norm Int_0^s sin^alpha cos^(n-1),
free of y by scale invariance; _cone_mass integrates it on Gauss panels
for the total mass, the tail bound of the boundary convergence and the
boundary law's CDF alike.

K is completely monotone in |x|^2, so it is a Gamma mixture of Gaussians:

    K_{alpha,y}(x) = Int N(x; 0, (2 tau)^-1 I) Gamma(nu, rate y^2)(d tau),

the law of X = y N / sqrt(2 G), G ~ Gamma(nu, 1), that hbm_sim's
Dufresne completion samples. _kernel_mixture discretizes it, and each
term of the derivative table with it, by the trapezoid rule in log tau;
a Gaussian factors over the axes, which the extension's grid path uses.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._quadrature import QuadratureError, panel_integrate
from .special_functions import EvalAccuracy, _lgamma_ratio, gamma_fn

__all__ = [
    "ModelParams", "HalfSpacePoint", "MultiIndex", "unit_sphere_area",
    "poisson_kernel", "kernel_profile", "kernel_mass", "kernel_derivative",
    "kernel_deriv_eval", "dalpha_residual",
]


def _real(v, name, rule="a finite real number"):
    # v as a float: a finite real, never a bool or a string
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v):
        return float(v)
    raise ValueError("%s must be %s, got %r" % (name, rule, v))


def _integer(v, name, least):
    # v as an int >= least, never a bool or a float
    if isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least:
        return int(v)
    raise ValueError("%s must be an integer >= %d, got %r" % (name, least, v))


def _each(seq, rule, name, *args):
    # the rule applied to every entry of a sequence (a scalar is one entry)
    return tuple(rule(v, name, *args) for v in (seq if np.ndim(seq) else (seq,)))


def _height(v, name="y"):
    """The height rule: v as a float, a finite real > 0."""
    h = _real(v, name, "a finite real > 0")
    if h > 0.0:
        return h
    raise ValueError("%s must be a finite real > 0, got %r" % (name, v))


@dataclass(frozen=True)
class ModelParams:
    """Weight exponent, boundary dimension, and the derived constants.

    alpha > -1 is required: below that threshold the only admissible
    solution is identically zero and none of the kernel formulas apply.
    """

    alpha: float
    n: int
    c_norm: float = field(init=False)  # kernel normalization
    nu: float = field(init=False)  # Bessel order (alpha + 1) / 2
    mu: float = field(init=False)  # weight and growth exponent alpha + n + 1

    def __post_init__(self):
        alpha = _real(self.alpha, "alpha")
        n = _integer(self.n, "n", 1)
        if not alpha > -1.0:
            raise ValueError(
                "alpha = %r is outside the admissible range: alpha must be a "
                "finite number > -1. At alpha = -1 the kernel normalization "
                "diverges, and below it the weighted problem admits only the "
                "zero solution" % (self.alpha,))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n", n)
        try:
            c = gamma_fn(0.5 * (alpha + n + 1.0)) \
                / (gamma_fn(0.5 * (alpha + 1.0)) * math.pi ** (0.5 * n))
        except OverflowError:
            # Gamma overflows doubles from alpha of about 342 - n; the
            # quotient itself grows only like alpha^(n/2)
            c = math.exp(_lgamma_ratio(0.5 * (alpha + 1.0), 0.5 * n)
                         - 0.5 * n * math.log(math.pi))
        object.__setattr__(self, "c_norm", c)
        object.__setattr__(self, "nu", 0.5 * (alpha + 1.0))
        object.__setattr__(self, "mu", alpha + n + 1.0)


@dataclass(frozen=True)
class HalfSpacePoint:
    """A point (x, y) with x in R^n and y > 0."""

    x: tuple
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _each(self.x, _real, "x"))
        object.__setattr__(self, "y", _height(self.y))

    @property
    def n(self):
        return len(self.x)


@dataclass(frozen=True)
class MultiIndex:
    """Spatial derivative multi-index; total order capped at 4."""

    components: tuple

    def __post_init__(self):
        comps = _each(self.components, _integer, "beta", 0)
        if sum(comps) > 4:
            raise ValueError(
                "beta: derivative order %d unsupported (max 4)" % sum(comps))
        object.__setattr__(self, "components", comps)

    @property
    def order(self):
        return sum(self.components)


def unit_sphere_area(n):
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2).

    For n = 1 this is 2 (the two endpoints of the "sphere" in R^1), which is
    exactly the factor turning a radial integral into one over the line.
    """
    n = _integer(n, "n", 1)
    return 2.0 * math.pi ** (0.5 * n) / gamma_fn(0.5 * n)


def _check_point(p, pt):
    if pt.n != p.n:
        raise ValueError("point has dimension %d, params say %d"
                         % (pt.n, p.n))


def kernel_profile(p, r, y):
    """K_{alpha,y} as a function of the radius r = |x|; vectorized in r."""
    with np.errstate(over="ignore"):  # (r/y)^2 -> inf gives the right 0
        return kernel_deriv_eval(p, (0,) * p.n, (np.asarray(r, dtype=float),), _height(y))


def poisson_kernel(p, pt):
    """K_{alpha,y}(x) at a single half-space point."""
    return kernel_derivative(p, (0,) * p.n, pt)


def kernel_mass(p, y, acc=EvalAccuracy()):
    """Quadrature of K_{alpha,y} over R^n (exactly 1 for every y).

    The mass below the elevation angle pi/2, independent of y because the
    kernel family is scale invariant. Raises QuadratureError when its error
    estimate misses ``acc``.
    """
    return _mass_with_error(p, y, acc)[0]


def _mass_with_error(p, y, acc=EvalAccuracy()):
    """kernel_mass and its error estimate, the gap to order 6 on the same panels."""
    _height(y)  # participates only through the (exact) scale invariance
    mass = float(_cone_mass(p, 0.5 * math.pi))
    err = abs(mass - float(_cone_mass(p, 0.5 * math.pi, order=6)))
    if err > acc.rel_tol * mass + acc.abs_tol:
        raise QuadratureError("kernel mass missed rel_tol=%.1e (error estimate %.2e)"
                              % (acc.rel_tol, err), value=mass, error_estimate=err)
    return mass, err


def _union(a, b):
    """np.union1d(a, b), without the import of numpy.ma that np.unique makes."""
    v = np.sort(np.concatenate([np.ravel(a), np.ravel(b)]))
    return v[np.concatenate([[True], v[1:] != v[:-1]])]


_POLE_GAP = 1e-6  # below this elevation angle the series is exact to rounding
# _cone_mass's panels: geometric from _POLE_GAP to pi/2, never coarser than pi/512
_ANGLES = _union(np.geomspace(_POLE_GAP, 0.5 * math.pi, 129),
                 np.linspace(0.0, 0.5 * math.pi, 257)[1:])


def _pole_series(p, s):
    """Int_0^s sin(t)^alpha cos(t)^(n-1) dt for 0 <= s <= _POLE_GAP.

    From sin(t)^alpha cos(t)^(n-1) = t^alpha (1 - c2 t^2 + O(t^4)); the
    quadrature alone cannot resolve t^alpha near alpha = -1.
    """
    c2 = p.alpha / 6.0 + 0.5 * (p.n - 1)
    return (s ** (p.alpha + 1.0) / (p.alpha + 1.0)
            - c2 * s ** (p.alpha + 3.0) / (p.alpha + 3.0))


def _cone_mass(p, s, order=8):
    """Kernel mass below the elevation angle s = atan2(y, |x|) in [0, pi/2],
    omega_{n-1} c_norm Int_0^s sin(t)^alpha cos(t)^(n-1) dt; vectorized in s.

    Gauss panels of ``order`` between the query angles and _ANGLES are
    summed cumulatively from _POLE_GAP, below which the series takes over.
    Callers pass s itself, so no angle near the pole is formed by
    cancellation.
    """
    s = np.asarray(s, dtype=float)
    edges = _union(np.maximum(s, _POLE_GAP), _ANGLES)
    pieces = panel_integrate(lambda t: np.sin(t) ** p.alpha * np.cos(t) ** (p.n - 1),
                             edges, order=order)
    cum = _pole_series(p, _POLE_GAP) + np.concatenate([[0.0], np.cumsum(pieces)])
    m = np.array(cum[np.searchsorted(edges, s)])  # 0-d for a scalar query
    near = s < _POLE_GAP
    m[near] = _pole_series(p, s[near])
    # omega_{n-1} last: at n = 1 half the mass is c_norm m to the last bit
    return p.c_norm * m * unit_sphere_area(p.n)


@lru_cache(maxsize=None)
def _derivative_terms(n, s0, components):
    """Term table for (d/dx)^beta of (|x|^2 + y^2)^(-s0).

    Maps (expo, k) -> coef, representing coef * x^expo * S^(-(s0+k)) with
    S = |x|^2 + y^2. Differentiating maps a term to at most two others, so
    the closed form stays exact for any order.
    """
    zero = (0,) * n
    terms = {(zero, 0): 1.0}
    for axis, reps in enumerate(components):
        for _ in range(reps):
            new = {}
            for (expo, k), coef in terms.items():
                if expo[axis] > 0:
                    e = list(expo)
                    e[axis] -= 1
                    key = (tuple(e), k)
                    new[key] = new.get(key, 0.0) + coef * expo[axis]
                e = list(expo)
                e[axis] += 1
                key = (tuple(e), k + 1)
                new[key] = new.get(key, 0.0) - 2.0 * (s0 + k) * coef
            terms = new
    return terms


_LIFT = 2.0 ** 512  # prefactors past this may lift an underflowed power
_TINY = np.finfo(float).tiny


def _log_term(p, s, diffs, y):
    """c_norm y^(alpha+1) S^(-s), S = y^2 + |x|^2, through logs: S is taken
    over its largest part m, so it neither overflows nor underflows."""
    m = y
    for d in diffs:
        m = np.maximum(m, np.abs(d))
    t = (y / m) ** 2
    for d in diffs:
        t = t + (d / m) ** 2
    return np.exp(math.log(p.c_norm) + (p.alpha + 1.0) * np.log(y)
                  - s * (2.0 * np.log(m) + np.log(t)))


def kernel_deriv_eval(p, components, diffs, y):
    """(d/dx)^beta K_{alpha,y} at the offsets x = diffs; no input checks.

    ``diffs`` holds one offset per axis, as floats or broadcastable
    arrays; offsets that vary along different array axes give the kernel
    on their whole product lattice. For beta = 0 only the sum of their
    squares enters, so a radius may stand in for the whole offset. ``y``
    broadcasts with them too: a height per output point serves a scan
    over many heights in one call. The checked entry points
    (poisson_kernel, kernel_profile, kernel_derivative) and the extension
    all evaluate the kernel here.

    A term is c_norm y^(-n-2k) R^(-(s0+k)) with R = 1 + |x/y|^2, the form
    of y^(alpha+1) S^(-(s0+k)) that cannot overflow at large alpha.
    """
    s0 = 0.5 * (p.alpha + p.n + 1.0)
    table = _derivative_terms(p.n, s0, tuple(components))
    inv_y = 1.0 / y
    big_r = None
    for d in diffs:
        q = d * inv_y
        q *= q
        if big_r is None:  # in place: no pass or temporary beyond y^2 + |x|^2's
            q += 1.0
        big_r = q if big_r is None else big_r + q
    out = None
    cur_k = None
    cur_pow = None
    for (expo, k), coef in sorted(table.items(), key=lambda t: t[0][1]):
        if cur_k is None:
            # a complex power with an integral exponent turns to nan where
            # it underflows; through the log it underflows to 0
            cur_pow = np.exp(-(s0 + k) * np.log(big_r)) \
                if np.iscomplexobj(big_r) else big_r ** (-(s0 + k))
            try:
                pref = p.c_norm * inv_y ** (p.n + 2 * k)
            except OverflowError:  # a float height below about 1e-154
                pref = math.inf
            cur_k = k
        while cur_k < k:
            cur_pow = cur_pow / big_r
            pref = pref * (inv_y * inv_y)
            cur_k += 1
        big = pref > _LIFT
        if (big.any() if isinstance(big, np.ndarray) else big) \
                and not np.iscomplexobj(big_r):
            # tiny heights: where the prefactor overflows, or the power
            # underflows beneath it, the term comes from logs
            with np.errstate(invalid="ignore"):
                piece = pref * coef * cur_pow
            lost = ~np.isfinite(pref) | (cur_pow < _TINY)
            piece = np.where(lost, coef * _log_term(p, s0 + k, diffs, y), piece)
            if not np.all(np.isfinite(piece)):
                raise OverflowError("the kernel value overflows doubles")
        else:
            # the prefactor rides on the coefficient: no pass of its own
            piece = pref * coef * cur_pow
        for d, e in zip(diffs, expo):
            if e:
                piece = piece * d ** e
        out = piece if out is None else out + piece
    return out


_MIX_LOG_TOL = 37.0  # the rule's aliasing and its cut tails: e^-37 of the value


def _bisect(f, lo, hi):
    # the root of f, increasing from f(lo) < 0 to f(hi) > 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def _mixture_rule(s):
    """Step and tails of the trapezoid rule of Gamma(s) S^-s = Int exp(s v - S e^v) dv.

    The integrand peaks at v = log(s/S) and falls by e^-37 at the offsets
    where s (e^w - 1 - w) = 37. Poisson summation puts the relative error
    at |Gamma(s + it) / Gamma(s)|, t = 2 pi/h, which the product formula
    bounds by exp(-Int_s^inf log(1 + t^2/x^2) dx / 2), held to e^-37: h
    shrinks like 1/sqrt(s) at large s.
    """
    def fall(w):
        return s * (math.expm1(w) - w) - _MIX_LOG_TOL
    t = _bisect(lambda t: t * math.atan(t / s) - 0.5 * s * math.log1p((t / s) ** 2)
                - _MIX_LOG_TOL, 0.0, 100.0 + 10.0 * math.sqrt(s))
    return (2.0 * math.pi / t, _bisect(lambda w: -fall(w), -2.0 - _MIX_LOG_TOL / s, 0.0),
            _bisect(fall, 0.0, 10.0))


def _kernel_mixture(p, components, y, s_max):
    """(d/dx)^beta K_{alpha,y} as sums of Gaussians, for |x|^2 + y^2 <= s_max.

    Returns ``tau`` and, per term of the derivative table, (expo, sign,
    logw) with (d/dx)^beta K(x) = sum sign x^expo sum_m exp(logw_m - tau_m |x|^2),
    each term to about e^-37. The nodes cover the peak for every S in
    [y^2, s_max]; the weights are formed in logs of v = log(y^2 tau), where
    y^(alpha+1) and y^-2s cancel exactly.
    """
    s0 = 0.5 * (p.alpha + p.n + 1.0)
    table = _derivative_terms(p.n, s0, tuple(components))
    rules = {s0 + k: _mixture_rule(s0 + k) for _, k in table}
    lo = min(math.log(s / s_max) + 2.0 * math.log(y) + left
             for s, (_, left, _) in rules.items())
    hi = max(math.log(s) + right for s, (_, _, right) in rules.items())
    m = math.ceil((hi - lo) / min(h for h, _, _ in rules.values()))
    v = lo + (hi - lo) / m * np.arange(m + 1)
    t = np.exp(v)
    log_c = math.log(p.c_norm * (hi - lo) / m)
    terms = [(expo, math.copysign(1.0, coef),
              log_c + math.log(abs(coef)) - (p.n + 2 * k) * math.log(y)
              - math.lgamma(s0 + k) + (s0 + k) * v - t)
             for (expo, k), coef in table.items()]
    return t / (y * y), terms


def kernel_derivative(p, beta, pt):
    """Exact spatial derivative (d/dx)^beta K_{alpha,y}(x).

    The public contract caps |beta| at 4 (enforced by MultiIndex).
    """
    _check_point(p, pt)
    if not isinstance(beta, MultiIndex):
        beta = MultiIndex(tuple(beta))
    if len(beta.components) != p.n:
        raise ValueError("multi-index has length %d, expected %d"
                         % (len(beta.components), p.n))
    # one-element arrays: the bits of an array call at the same point
    with np.errstate(over="ignore"):
        return float(kernel_deriv_eval(p, beta.components, np.array(pt.x)[:, None], pt.y)[0])


def dalpha_residual(u, p, pt, h=None):
    """Central-difference evaluation of D_alpha u at pt.

    Second-order accurate: for exact solutions the result decays like h^2.
    The default step y/100 keeps the stencil far inside the half-space; any
    h must stay below y/4 so the y-stencil cannot cross the boundary.
    """
    _check_point(p, pt)
    y = pt.y
    h = y / 100.0 if h is None else _height(h, "h")
    if not h < y / 4.0:
        raise ValueError("need 0 < h < y/4 = %g to keep the stencil in the "
                         "half-space, got h = %g" % (y / 4.0, h))
    x = np.asarray(pt.x)
    center = u(HalfSpacePoint(tuple(x), y))
    lap = 0.0
    for i in range(p.n):
        step = np.zeros(p.n)
        step[i] = h
        up = u(HalfSpacePoint(tuple(x + step), y))
        dn = u(HalfSpacePoint(tuple(x - step), y))
        lap += (up - 2.0 * center + dn) / (h * h)
    y_up = u(HalfSpacePoint(tuple(x), y + h))
    y_dn = u(HalfSpacePoint(tuple(x), y - h))
    u_yy = (y_up - 2.0 * center + y_dn) / (h * h)
    u_y = (y_up - y_dn) / (2.0 * h)
    return y ** (-p.alpha) * (lap + u_yy - (p.alpha / y) * u_y)
