"""Gamma and Bessel-family evaluation (J_nu, log K_nu).

Everything downstream (kernel transforms, hitting quotients, the hitting
density's inversion) reduces to these evaluators, so their accuracy
targets are stricter than anything built on top:

* gamma_fn          Lanczos approximation, rel err ~1e-15 on (0, 50]
* bessel_j          ascending series, Hankel asymptotics past the crossover
* log_bessel_k      log K_nu(z) from K_nu(z) = Int_0^inf e^{-z cosh t}
                    cosh(nu t) dt by a trapezoid rule on fixed nodes, which
                    converges exponentially for this entire integrand; one
                    code path for every nu > 0, integer orders included.
                    Matches scipy.special.kve to 1e-14 relative to
                    max(1, |log K|) over nu in (0, 30], z in [1e-300, 1e18];
                    finite down to z = 5e-324. The rule at twice the step
                    (the even nodes) is the error estimate: a relative gap
                    above 1e-4 raises QuadratureError. e^z K_nu(z) is free.
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

__all__ = ["EvalAccuracy", "gamma_fn", "bessel_j", "log_bessel_k", "phi_nu"]


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

# Lanczos g = 7, 9 terms; the standard double-precision coefficient set.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(s):
    """Gamma function for real s > 0.

    Relative error ~1e-15 on (0, 50]. Raises ValueError outside the domain.
    """
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError("gamma_fn requires finite s > 0, got %r" % (s,))
    if s < 0.5:
        # reflection keeps the Lanczos sum in its accurate half-plane
        return math.pi / (math.sin(math.pi * s) * gamma_fn(1.0 - s))
    z = s - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def _lgamma_pos(s):
    """log Gamma(s) for s > 0 through the same Lanczos data."""
    s = float(s)
    if s >= 10.0:
        z = s - 1.0
        acc = _LANCZOS[0]
        for i, c in enumerate(_LANCZOS[1:], start=1):
            acc += c / (z + i)
        t = z + _LANCZOS_G + 0.5
        return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t \
            + math.log(acc)
    return math.log(gamma_fn(s))


# ---------------------------------------------------------------------------
# J_nu

# Series/asymptotic crossover. The ascending series is alternating; past
# z ~ 14 it cancels away more digits than the 1e-10 contract allows, while
# the Hankel expansion's optimal-truncation error e^{-2z} is already below
# 1e-12 there. Small orders never push the crossover higher.
_J_SERIES_CAP = 14.0


def _bessel_j_series(nu, z):
    z = np.asarray(z, dtype=float)
    half = 0.5 * z
    with np.errstate(divide="ignore", invalid="ignore"):
        pref = half ** nu * math.exp(-_lgamma_pos(nu + 1.0))
        term = pref.copy()
        out = pref.copy()
        zz = half * half
        for m in range(1, 90):
            term = -term * zz / (m * (nu + m))
            out += term
            if np.all(np.abs(term) <= 1e-18 * (np.abs(out) + 1e-300)):
                break
    # z = 0 takes the exact limit (the Lanczos round-trip in pref is only
    # good to ~2e-16, and the loop arithmetic would turn inf cases into nan)
    if np.any(half == 0.0):
        limit = 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else np.inf)
        out = np.where(half == 0.0, limit, out)
    return out


def _bessel_j_asym(nu, z):
    # Hankel's expansion: J = sqrt(2/(pi z)) (P cos(chi) - Q sin(chi)) with
    # P = 1 - a2/z^2 + a4/z^4 - ..., Q = a1/z - a3/z^3 + ...,
    # a_k = prod_{j<=k} (4nu^2 - (2j-1)^2) / (k! 8^k). Terms shrink until
    # k ~ 2z; stop at the smallest one (error below its magnitude).
    z = np.asarray(z, dtype=float)
    mu = 4.0 * nu * nu
    p = np.ones_like(z)
    q = np.zeros_like(z)
    c = np.ones_like(z)
    for k in range(1, 34):
        c = c * (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * z)
        s = -1.0 if (k // 2) % 2 == 1 else 1.0
        if k % 2 == 1:
            q = q + s * c
        else:
            p = p + s * c
        if np.all(np.abs(c) < 1e-18):
            break
    chi = z - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * z)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j(order, z):
    """Bessel function of the first kind, order nu >= -1/2, z >= 0.

    Accepts scalars or arrays in z. For nu < 0 the value at z = 0 is +inf
    (the (z/2)^nu prefactor); callers needing the nu = -1/2 cosine kernel
    should use its elementary form directly.
    """
    nu = float(order)
    if nu < -0.5 or not math.isfinite(nu):
        raise ValueError("bessel_j needs nu >= -1/2, got %r" % (nu,))
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0) or not np.all(np.isfinite(z_arr)):
        raise ValueError("bessel_j needs finite z >= 0")
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    cap = min(12.0 * (1.0 + nu), _J_SERIES_CAP)
    out = np.empty_like(z_arr)
    small = z_arr <= cap
    if np.any(small):
        with np.errstate(divide="ignore"):
            out[small] = _bessel_j_series(nu, z_arr[small])
    if np.any(~small):
        out[~small] = _bessel_j_asym(nu, z_arr[~small])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# K_nu


# Trapezoid step h <= min(_K_STEP_NU/(38 + 4 nu), 0.6/sqrt(z)): the error
# falls like e^{-2 pi d/h} with d the half-width of the strip where the
# entire integrand stays small, which cosh(nu t) narrows as nu grows and
# e^{-z cosh t} as z grows. The rule stops where z(cosh t - 1) exceeds its
# value at the peak t* = asinh(nu/z) by 45 + 6 nu, e^-45 of the peak.
_K_STEP_NU = math.pi ** 2
_LOG2 = math.log(2.0)


def _log_k_trapezoid(nu, z_arr):
    """log of Int_0^inf e^{-z(cosh t - 1)} cosh(nu t) dt, elementwise in z.

    Each row's step and power-of-two node count depend on (nu, z) alone,
    so an array call is bit-identical to its scalar calls; rows with the
    same count are summed together. The even nodes give the rule at 2h;
    a relative gap above 1e-4 raises QuadratureError.
    """
    c = 45.0 + 6.0 * nu
    with np.errstate(over="ignore", divide="ignore"):
        log_z = np.log(z_arr)
        # t_max solves cosh t - 1 = (cosh t* - 1) + c/z; below z = 1e-100 in
        # the log form log(2 eps), with nu/z bounding cosh t* - 1
        tiny = z_arr < 1e-100
        z_safe = np.where(tiny, 1.0, z_arr)
        eps = (np.hypot(1.0, nu / z_safe) - 1.0) + c / z_safe
        t_max = np.where(tiny, _LOG2 + math.log(c + nu) - log_z,
                         2.0 * np.arcsinh(np.sqrt(0.5 * eps)))
        h_max = np.minimum(_K_STEP_NU / (38.0 + 4.0 * nu), 0.6 / np.sqrt(z_arr))
        nodes = np.exp2(np.maximum(np.ceil(np.log2(t_max / h_max)), 3.0))
    h = t_max / nodes
    out = np.empty_like(z_arr)
    gap = np.empty_like(z_arr)
    for count in np.unique(nodes):
        rows = np.nonzero(nodes == count)[0]
        t = h[rows, None] * np.arange(int(count) + 1)
        # z(cosh t - 1) = exp(log(z/2) + 2 log(2 sinh(t/2))) neither cancels
        # near z = 1e18 nor overflows near z = 5e-324; log cosh(nu t) too
        with np.errstate(divide="ignore"):
            lf = (nu * t + np.log1p(np.exp(-2.0 * nu * t))
                  - np.exp((log_z[rows, None] - _LOG2) + t
                           + 2.0 * np.log(-np.expm1(-t))))
        peak = np.max(lf, axis=1)
        f = np.exp(lf - peak[:, None])
        f[:, 0] *= 0.5
        total = np.sum(f, axis=1)
        out[rows] = peak - _LOG2 + np.log(h[rows] * total)
        gap[rows] = np.abs(2.0 * np.sum(f[:, ::2], axis=1) / total - 1.0)
    if np.max(gap) > 1e-4:
        raise QuadratureError("K_nu trapezoid rule did not converge",
                              value=out, error_estimate=float(np.max(gap)))
    return out


def log_bessel_k(order, z):
    """log K_nu(z) for nu > 0, z > 0; scalar or array in z.

    This is the workhorse behind phi_nu and the hitting-kernel quotient
    (which needs differences of log K at arguments large enough that the
    plain values underflow).
    """
    nu = float(order)
    if not (nu > 0.0 and math.isfinite(nu)):
        raise ValueError("log_bessel_k needs nu > 0, got %r" % (nu,))
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
                   + log_bessel_k(nu, rp) - _lgamma_pos(nu))
        out[pos] = np.exp(np.minimum(log_phi, 0.0))
    return float(out[0]) if scalar else out
