"""Gamma and Bessel-family evaluation (log K_nu, phi_nu).

Everything downstream (kernel transforms, hitting quotients, the hitting
density's inversion) reduces to these evaluators, so their accuracy
targets are stricter than anything built on top:

* gamma_fn          math.gamma: within 7e-16 of mpmath on [1e-3, 171.6]; raises
                    OverflowError beyond s = 171.62. _lgamma_ratio, Stirling's
                    series differenced term by term, serves past that.
* log_bessel_k      log K_nu(z) from K_nu(z) = Int_0^inf e^{-z cosh t}
                    cosh(nu t) dt by a trapezoid rule on fixed nodes, which
                    converges exponentially for this entire integrand; one
                    code path for every nu > 0, integer orders included.
                    Real z: matches scipy.special.kve to 1e-14 relative to
                    max(1, |log K|) over nu in (0, 30], z in [1e-300, 1e18];
                    finite down to z = 5e-324. The rule at twice the step
                    (the even nodes) is the error estimate: a relative gap
                    above 1e-4 raises QuadratureError. e^z K_nu(z) is free.
                    Complex z, Re z > 0, 1e-300 <= |z|, |ph z| <= 1.5: at
                    mu = nu - round(nu), Temme's series up to |z| = 2 and
                    the same rule beyond (its strip narrows to pi/2 -
                    |ph z|), then the recurrence in the order; within
                    2e-13 of kve for nu <= 30, |ph z| <= 3 pi/8.
* _k_scaled         z^-m K_|m|(z) for integer and half-integer m (the
                    hitting density's Hankel rows), with or without the
                    Laurent terms of Y_m: within 6e-15 of mpmath for |m|
                    up to 3, |z| in [1e-6, 50], ph z = 0 and -pi/4.
* phi_nu            the normalized profile 2^(1-nu) r^nu K_nu(r) / Gamma(nu),
                    continuous at r = 0 with phi_nu(0) = 1.

K_nu is deliberately not routed through the (I_{-nu} - I_nu)/sin(nu pi)
formula, which has removable singularities at integer nu; the tests keep
that route as an independent cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import QuadratureError

__all__ = ["EvalAccuracy", "gamma_fn", "log_bessel_k", "phi_nu"]


@dataclass(frozen=True)
class EvalAccuracy:
    """Accuracy request: relative tolerance in (0, 1e-4], absolute >= 0."""

    rel_tol: float = 1e-10
    abs_tol: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-4):
            raise ValueError("rel_tol must lie in (0, 1e-4], got %r"
                             % (self.rel_tol,))
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0.0):
            raise ValueError("abs_tol must be finite and >= 0, got %r"
                             % (self.abs_tol,))


# ---------------------------------------------------------------------------
# Gamma

def gamma_fn(s):
    """Gamma function for real s > 0; OverflowError past s = 171.62."""
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError("gamma_fn requires finite s > 0, got %r" % (s,))
    return math.gamma(s)


# B_2k / (2k (2k - 1)), k = 1..6: the coefficients of Stirling's series
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _lgamma_ratio(s, a):
    """log(Gamma(s + a) / Gamma(s)) for s > 0 and a >= 0.

    Stirling's series for the two log-gammas, each about s log s, differenced
    term by term, so the result keeps full relative accuracy where their
    difference would lose eps * s log s.
    """
    if s < 10.0:  # Gamma(s + 1) = s Gamma(s) lifts s to the series
        return _lgamma_ratio(s + 1.0, a) - math.log1p(a / s)
    return (s - 0.5) * math.log1p(a / s) + a * math.log(s + a) - a + sum(
        c * ((s + a) ** (1 - 2 * k) - s ** (1 - 2 * k))
        for k, c in enumerate(_STIRLING, start=1))


# ---------------------------------------------------------------------------
# K_nu


# Trapezoid step h <= min(_K_STEP_NU/(38 + 4 nu), 0.6/sqrt(z)): the error
# falls like e^{-2 pi d/h} with d the half-width of the strip where the
# entire integrand stays small, which cosh(nu t) narrows as nu grows and
# e^{-z cosh t} as z grows. The rule stops where z(cosh t - 1) exceeds its
# value at the peak t* = asinh(nu/z) by 45 + 6 nu, e^-45 of the peak.
_K_STEP_NU = math.pi ** 2
_LOG2 = math.log(2.0)


def _log_k_trapezoid(nu, z_arr, top=None):
    """log of Int_0^inf e^{-z(cosh t - 1)} cosh(nu t) dt, elementwise in z.

    Each row's step and power-of-two node count depend on (nu, z) alone,
    so an array call is bit-identical to its scalar calls; rows with the
    same count are summed together. The even nodes give the rule at 2h;
    a relative gap above 1e-4 raises QuadratureError. Off the real axis
    (Re z > 0) the strip of analyticity narrows to pi/2 - |ph z|, which
    enters the step, and Re z takes the place of z in the node range and
    the 0.6/sqrt(z) step bound. Given ``top`` (>= nu, which it replaces in
    the range and the step), the same nodes also give the integral at
    order top, returned as its ratio to the first.
    """
    wide = nu if top is None else top
    c = 45.0 + 6.0 * wide
    x = z_arr.real
    rho = np.abs(z_arr)
    with np.errstate(over="ignore", divide="ignore"):
        log_z = np.log(z_arr)
        # t_max solves cosh t - 1 = (cosh t* - 1) + c/z; below z = 1e-100 in
        # the log form log(2 eps), with nu/z bounding cosh t* - 1
        tiny = x < 1e-100
        x_safe = np.where(tiny, 1.0, x)
        eps = (np.hypot(1.0, wide / x_safe) - 1.0) + c / x_safe
        t_max = np.where(tiny, _LOG2 + math.log(c + wide) - np.log(x),
                         2.0 * np.arcsinh(np.sqrt(0.5 * eps)))
        narrow = 1.0 - np.abs(np.angle(z_arr)) / (0.5 * math.pi)
        h_max = np.minimum(_K_STEP_NU * narrow / (38.0 + 4.0 * wide / narrow),
                           0.6 / np.sqrt(rho) * np.sqrt(x / rho))
        nodes = np.exp2(np.maximum(np.ceil(np.log2(t_max / h_max)), 3.0))
    h = t_max / nodes
    out = np.empty_like(z_arr)
    ratio = np.empty_like(z_arr)
    gap = np.empty_like(x)
    for count in np.unique(nodes):
        rows = np.nonzero(nodes == count)[0]
        t = h[rows, None] * np.arange(int(count) + 1)
        # z(cosh t - 1) = exp(log(z/2) + 2 log(2 sinh(t/2))) neither cancels
        # near z = 1e18 nor overflows near z = 5e-324 (the product form
        # suffices for the complex calls, |z| > 2); log cosh(nu t) too
        with np.errstate(divide="ignore"):
            lc = np.log1p(np.exp(-2.0 * nu * t))
            lf = nu * t + lc - (
                np.exp((log_z[rows, None] - _LOG2) + t + 2.0 * np.log(-np.expm1(-t)))
                if top is None else z_arr[rows, None] * (2.0 * np.sinh(0.5 * t) ** 2))
        peak = np.max(lf, axis=1)
        f = np.exp(lf - peak[:, None])
        f[:, 0] *= 0.5
        total = np.sum(f, axis=1)
        out[rows] = peak - _LOG2 + np.log(h[rows] * total)
        gap[rows] = np.abs(2.0 * np.sum(f[:, ::2], axis=1) / total - 1.0)
        if top is not None:
            # cosh(top t) / cosh(nu t) turns the sum into the one at top
            f *= np.exp((top - nu) * t + np.log1p(np.exp(-2.0 * top * t)) - lc)
            upper = np.sum(f, axis=1)
            ratio[rows] = upper / total
            gap[rows] = np.maximum(gap[rows], np.abs(
                2.0 * np.sum(f[:, ::2], axis=1) / upper - 1.0))
    if np.max(gap) > 1e-4:
        raise QuadratureError("K_nu trapezoid rule did not converge",
                              value=out, error_estimate=float(np.max(gap)))
    return out if top is None else (out, ratio)


# Odd Taylor coefficients of 1/Gamma(1 + x) at x = 0 (mpmath, 17 digits):
# -gamma1(mu) of Temme's series, to double precision for |mu| <= 1/2
_RGAMMA_ODD = (
    0.57721566490153286, -0.042002635034095236, -0.042197734555544337,
    0.0072189432466630995, -0.00021524167411495097, -2.0134854780788239e-05,
    1.1330272319816959e-06, 6.1160951044814158e-09, -1.1812745704870201e-09,
    7.7822634399050713e-12, 5.100370287454476e-13,
)


def _temme(mu, z_arr):
    """log(e^z K_mu(z)) and K_{mu+1}(z) / K_mu(z), |mu| <= 1/2, |z| <= 2.

    Temme's series (J. Comput. Phys. 19, 1975; Numerical Recipes 6.7) in
    powers of z^2/4, with the removable singularity at mu = 0 taken out
    through 1/Gamma(1 +- mu); 16 terms reach double precision.
    """
    odd = sum(a * mu ** (2 * k) for k, a in enumerate(_RGAMMA_ODD))
    plus, minus = math.gamma(1.0 + mu), math.gamma(1.0 - mu)
    d = -np.log(0.5 * z_arr)
    e = mu * d
    with np.errstate(invalid="ignore", divide="ignore"):
        sinhc = np.where(np.abs(e) < 1e-8, 1.0, np.sinh(e) / e)
    ff = (math.pi * mu / math.sin(math.pi * mu) if mu else 1.0) \
        * (0.5 * (1.0 / plus + 1.0 / minus) * sinhc * d - odd * np.cosh(e))
    p, q = 0.5 * np.exp(e) * plus, 0.5 * np.exp(-e) * minus
    c, total, upper = 1.0, ff, p
    for i in range(1, 17):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c = c * (0.25 * z_arr * z_arr) / i
        p, q = p / (i - mu), q / (i + mu)
        total = total + c * ff
        upper = upper + c * (p - i * ff)
    return np.log(total) + z_arr, 2.0 * upper / (z_arr * total)


def _log_k_complex(nu, z_arr):
    """log of e^z K_nu(z) for Re z > 0, elementwise.

    At mu = nu - m in [-1/2, 1/2), m = round(nu), log K_mu and the ratio
    K_{mu+1} / K_mu come from Temme's series up to |z| = 2, beyond from
    the trapezoid rule at the orders |mu| and mu + 1. The stable forward
    recurrence K_{mu+1} / K_mu = K_{mu-1} / K_mu + 2 mu / z climbs the
    rest: the rule at order nu itself would lose (cos ph z)^nu to
    cancellation.
    """
    m = math.floor(nu + 0.5)
    mu = nu - m
    out = np.empty_like(z_arr)
    ratio = np.empty_like(z_arr)
    small = np.abs(z_arr) <= 2.0
    if np.any(small):
        out[small], ratio[small] = _temme(mu, z_arr[small])
    if not np.all(small):
        out[~small], ratio[~small] = _log_k_trapezoid(abs(mu), z_arr[~small],
                                                      mu + 1.0)
    for j in range(m):
        out += np.log(ratio)
        ratio = 1.0 / ratio + 2.0 * (mu + j + 1.0) / z_arr
    return out


def _k_scaled(m, z_arr, drop=False):
    """z^-m K_|m|(z) for integer or half-integer m and Re z > 0, elementwise.

    Half-integer orders in closed form (DLMF 10.49.12), integer ones through
    _log_k_complex. Where ``drop`` (broadcast against z; m > 0) is set, K
    leaves out its Laurent terms 1/2 (-1)^k Gamma(m-k)/k! (z/2)^(2k-m),
    k < m: up to |z| = 2 as the power series of the rest, beyond as the
    plain difference, which does not cancel there.
    """
    drop = np.broadcast_to(drop, z_arr.shape)
    near = drop & (np.abs(z_arr) <= 2.0)
    z, out, l = z_arr[~near], np.empty_like(z_arr), int(abs(m))
    if m % 1:
        # sqrt(pi/2) z^(-m-1/2) e^-z sum_j (l+j)! / (j! (l-j)!) (2z)^-j
        out[~near] = math.sqrt(0.5 * math.pi) * z ** (-m - 0.5) * np.exp(-z) * sum(
            math.factorial(l + j) // (math.factorial(j) * math.factorial(l - j))
            * (2.0 * z) ** -j for j in range(l + 1))
    else:
        out[~near] = np.exp(_log_k_complex(l, z) - z - m * np.log(z))
    if not np.any(drop):
        return out
    out[~near] -= np.where(drop[~near], sum(
        0.5 * (-1) ** k * math.gamma(m - k) / math.factorial(k)
        * 2.0 ** (m - 2 * k) * z ** (2 * k - 2 * m) for k in range(math.ceil(m))), 0.0)
    # 2^-m times, at half-integer m (DLMF 10.27.4), (-1)^l pi/2 [sum_{k>l}
    # (z/2)^(2k-2m) / (k! Gamma(k-m+1)) - sum_k (z/2)^2k / (k! Gamma(k+m+1))]
    # (2(l+1) - 2m = 1), at integer m (DLMF 10.31.1) (-1)^(m+1) sum_k
    # (z/2)^2k / (k! (m+k)!) [log(z/2) - h_k], h_k = (psi(k+1) + psi(m+k+1))/2
    w = z_arr[near]
    q, log_half = 0.25 * w * w, np.log(0.5 * w)
    term, total = 2.0 ** -m / math.gamma(m + 1.0), 0.0
    late = 2.0 ** -m / (math.factorial(l + 1) * math.gamma(1.5)) * 0.5 * w
    h = -0.5772156649015329 + 0.5 * sum(1.0 / j for j in range(1, l + 1))
    for k in range(18):
        total = total + (late - term if m % 1 else term * (log_half - h))
        term = term * q / ((k + 1) * (k + 1 + m))
        late = late * q / ((k + l + 2) * (k + 1.5))
        h += 0.5 / (k + 1) + 0.5 / (k + 1 + m)
    out[near] = (-1) ** l * (0.5 * math.pi if m % 1 else -1.0) * total
    return out


def log_bessel_k(order, z):
    """log K_nu(z) for nu > 0 and z > 0, or complex z with Re z > 0.

    Scalar or array in z. This is the workhorse behind phi_nu and the
    hitting-kernel quotient (which needs differences of log K at arguments
    large enough that the plain values underflow). For complex z the
    imaginary part is ph K_nu(z) up to a multiple of 2 pi.
    """
    nu = float(order)
    if not (nu > 0.0 and math.isfinite(nu)):
        raise ValueError("log_bessel_k needs nu > 0, got %r" % (nu,))
    if np.iscomplexobj(z):
        z_arr = np.asarray(z, dtype=complex)
        if np.any(z_arr.real <= 0) or not np.all(np.isfinite(z_arr)):
            raise ValueError("log_bessel_k needs finite z with Re z > 0")
        if np.any(np.abs(z_arr) < 1e-300) or np.any(np.abs(np.angle(z_arr)) > 1.5):
            raise QuadratureError("log_bessel_k: complex z below |z| = 1e-300 "
                                  "or past |ph z| = 1.5 is out of reach")
        flat = z_arr.ravel()
        out = (_log_k_complex(nu, flat) - flat).reshape(z_arr.shape)
        return complex(out) if z_arr.ndim == 0 else out
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0) or not np.all(np.isfinite(z_arr)):
        raise ValueError("log_bessel_k needs finite z > 0")
    flat = z_arr.ravel()
    out = (_log_k_trapezoid(nu, flat) - flat).reshape(z_arr.shape)
    return float(out) if z_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# The normalized transform profile


def phi_nu(order, r):
    """phi_nu(r) = 2^(1-nu) r^nu K_nu(r) / Gamma(nu), with phi_nu(0) = 1.

    Strictly decreasing on r >= 0 with values in (0, 1]; at nu = 1/2 it
    reduces to e^{-r}. Scalar or array r.
    """
    nu = float(order)
    if not (nu > 0.0):
        raise ValueError("phi_nu needs nu > 0, got %r" % (nu,))
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0) or not np.all(np.isfinite(r_arr)):
        raise ValueError("phi_nu needs finite r >= 0")
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr).astype(float)
    out = np.ones_like(r_arr)
    pos = r_arr > 0
    if np.any(pos):
        rp = r_arr[pos]
        log_phi = ((1.0 - nu) * math.log(2.0) + nu * np.log(rp)
                   + log_bessel_k(nu, rp) - math.lgamma(nu))
        out[pos] = np.exp(np.minimum(log_phi, 0.0))
    return float(out[0]) if scalar else out
