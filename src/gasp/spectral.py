"""Radial Fourier analysis of the kernel.

The Fourier transform of K_{alpha,y} is radial and has three independent
evaluation routes, kept deliberately separate so they can cross-validate
each other:

* ft_closed_form    phi_nu(nu, y|xi|) with nu = (alpha+1)/2, the scaled
                    Bessel-K profile, exact up to the K_nu evaluator;
* ft_integral_rep   the one-dimensional Laplace-type integral
                    (y|xi|)^{alpha+1}/Gamma(alpha+1) *
                        Int_1^inf e^{-y|xi| t} (t^2-1)^{alpha/2} dt;
* ft_direct         brute-force quadrature of
                    Int e^{-i<x,xi>} K_{alpha,y}(x) dx over R^n (n <= 2)
                    along rays turned into the complex plane, where the
                    oscillation decays; it never touches Bessel-K at all.

profile_ode_residual checks the closed-form profile against the reduced
ODE it solves.
"""

import math

import numpy as np

from ._quadrature import QuadratureError, ray_nodes
from .kernel import _height, kernel_deriv_eval, kernel_mass
from .special_functions import EvalAccuracy, phi_nu

__all__ = [
    "ft_closed_form", "ft_integral_rep", "ft_direct", "profile_ode_residual",
]


def ft_closed_form(p, y, xi_norm):
    """Fourier transform of K_{alpha,y} at |xi| = xi_norm, via phi_nu."""
    y = _height(y)
    xi_norm = np.asarray(xi_norm, dtype=float)
    if np.any(xi_norm < 0.0):
        raise ValueError("xi_norm must be >= 0")
    return phi_nu(p.nu, y * xi_norm)


def ft_integral_rep(p, y, xi_norm, acc=EvalAccuracy()):
    """Fourier transform via the Laplace-type integral representation.

    After u = y|xi|(t-1) the integral becomes
        b^{alpha/2} e^{-b} / Gamma(alpha+1) *
            Int_0^inf e^{-u} u^{alpha/2} (2 + u/b)^{alpha/2} du,  b = y|xi|,
    summed by the ray rule at phase 0 (_quadrature.ray_nodes). Its double
    exponential end sits at u ~ min(b, 1), where (2 + u/b)^{alpha/2} turns,
    or at the foot of the peak u* (alpha > 0) of width sigma, and its top
    at u* + 12 sigma + 60; the step resolves the peak's width sigma/u* in
    log u. Level 0 compares with its own even nodes, each later level with
    the one before. The integrand is formed in logs, less its value at the
    peak, and the prefactor through lgamma, so neither overflows at large
    alpha.
    """
    b = _height(y) * float(xi_norm)
    if not (b > 0.0 and math.isfinite(b)):
        raise ValueError("need y * xi_norm > 0, got %r" % (b,))
    a2 = 0.5 * p.alpha
    peak = u_star = 0.0
    width = 1.0
    if a2 > 0.0:
        # u* solves u^2 + 2 (b - a2) u = 2 a2 b; the root without cancellation
        d = a2 - b
        root = math.hypot(d, math.sqrt(2.0 * a2 * b))
        u_star = d + root if d > 0.0 else 2.0 * a2 * b / (root - d)
        peak = a2 * (math.log(u_star) + math.log(2.0 + u_star / b)) - u_star
        width = (a2 / u_star ** 2 + a2 / (2.0 * b + u_star) ** 2) ** -0.5
    low = max(min(b, 1.0), u_star - 12.0 * width)
    top = math.log((u_star + 12.0 * width + 60.0) / low)
    hi = top + math.exp(-top)  # past the root of tau - e^{-tau} = top
    step = min(0.5, 0.5 * width / max(u_star, 1.0))
    tol = 0.1 * min(acc.rel_tol, 1e-9)
    total = 0.0
    for level in range(4):  # level 2 suffices from alpha = -0.999 to 1000
        u, du = ray_nodes(-4.5, hi, step, level, 1.0 / low)
        terms = du * np.exp(a2 * (np.log(u) + np.log(2.0 + u / b)) - u - peak)
        total += np.sum(terms).item()
        old = 2.0 * step * np.sum(terms[::2]) if not level else value
        value = step / 2 ** level * total
        if abs(value - old) <= tol * value:
            break
    else:
        raise QuadratureError("ft_integral_rep did not reach tol=%.1e" % tol,
                              value=value, error_estimate=abs(value - old))
    return math.exp(a2 * math.log(b) - b + peak
                    - math.lgamma(p.alpha + 1.0)) * value


# ft_direct's ray rule (_quadrature.ray_nodes): t = w exp(tau - e^{-tau})
# with w = min(y, 1/|xi|), from t ~ w e^{-94} to where the slowest decay
# along the rays, e^{-|xi_j| t sin(pi/8)}, is e^{-60}. That is below 1e-9
# of the transform wherever the rounding floor is below 1e-6 of it (else
# the call raises), however small e^{-y|xi|} is. Level 0 compares with its
# own even nodes.
_FT_STEP = 1.0 / 16.0
_FT_LEVELS = 2


def ft_direct(p, y, xi, acc=EvalAccuracy()):
    """Brute-force Fourier transform of K_{alpha,y} at the vector xi.

    Supported for n <= 2 only. This is the oracle route: it integrates
    e^{-i<x,xi>} K_{alpha,y}(x) over each of the 2^n orthants of R^n with
    no Bessel-K and no use of rotation symmetry, then checks that the
    imaginary part cancelled. In the orthant of signs sigma, u_j = sigma_j
    x_j runs along the ray t e^{-i sigma_j sgn(xi_j) pi/8}, where the factor
    e^{-i sigma_j xi_j u_j} decays like e^{-|xi_j| t sin(pi/8)}. There
    Re(|u|^2 + y^2) >= y^2, so the kernel stays analytic, and its phase
    stays O(1) across its bump at any alpha; pi/4 turns the bump of large
    alpha into a chirp, and on both axes leaves a ridge along t_1 = t_2.
    The orthants are the product of the ray rule in every u_j, summed
    pairwise as one array of terms (a dot product rounds ~10x worse). A
    level is accepted when its gap to the rule at twice the step is within
    tol |F| plus the rounding bound 8 eps sum |terms|, the floor where
    F ~ e^{-y|xi|} cancels, and that floor is within 1e-6 |F| (up to
    y|xi| ~ 22 at small alpha); QuadratureError when no level is accepted.
    """
    y = _height(y)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size != p.n:
        raise ValueError("xi has length %d, params say n = %d"
                         % (xi.size, p.n))
    if p.n > 2:
        raise ValueError("ft_direct supports n <= 2 (oracle route only)")
    tol = max(acc.rel_tol, 1e-9)
    norm = math.hypot(*xi)
    if norm == 0.0:
        return kernel_mass(p, y, acc)

    n = p.n
    rate = math.sin(math.pi / 8.0) * np.min(np.abs(xi[xi != 0.0])) / norm
    hi = math.log(60.0 / (rate * min(y * norm, 1.0)))
    sigma = np.array([[1.0], [-1.0]])
    rot = np.exp(-0.125j * math.pi * sigma * np.sign(xi))  # column j: axis j
    t = dt = np.empty(0)
    for level in range(_FT_LEVELS):
        t_new, dt_new = ray_nodes(-4.5, hi, _FT_STEP, level, max(1.0 / y, norm))
        t, dt = np.append(t, t_new), np.append(dt, dt_new)
        if (2 * t.size) ** n > 2 ** 21:  # 32 MB of terms
            raise QuadratureError("ft_direct at |xi| = %g needs %d ray nodes per axis"
                                  % (norm, t.size))
        # axis j of the terms holds u_j at the nodes of sign +1, then of -1
        u, weight = [], []
        for j in range(n):
            shape = (-1,) + (1,) * (n - 1 - j)
            uj = t * rot[:, j:j + 1]
            u.append(uj.reshape(shape))
            weight.append((dt * rot[:, j:j + 1] * np.exp(-1j * sigma * xi[j] * uj))
                          .reshape(shape))
        terms = kernel_deriv_eval(p, (0,) * n, u, y)
        for w in weight:
            terms = terms * w
        h = _FT_STEP / 2 ** level
        even = np.tile(np.arange(t.size) % 2 == 0, 2)
        old = prev if level else (2.0 * h) ** n * np.sum(terms[np.ix_(*[even] * n)])
        prev = value = h ** n * np.sum(terms)
        bound = 8.0 * np.finfo(float).eps * h ** n * np.sum(np.abs(terms))
        gap = abs(value - old)
        if gap <= tol * abs(value) + bound and bound <= 1e-6 * abs(value):
            break
    else:
        raise QuadratureError(
            "ft_direct did not reach tol=%.1e: gap %.2e, rounding floor %.2e, |F| %.2e"
            % (tol, gap, bound, abs(value)), value=value.real, error_estimate=gap + bound)
    if abs(value.imag) > tol * abs(value.real) + bound:
        raise QuadratureError(
            "imaginary part %.2e did not cancel in ft_direct" % value.imag,
            value=value, error_estimate=abs(value.imag))
    return value.real


def profile_ode_residual(p, t, h=1e-3):
    """Central-difference residual of F'' - (alpha/t) F' - F at t.

    F(t) = ft_closed_form at y|xi| = t solves this reduced equation
    exactly, so the residual decays like h^2.
    """
    t = float(t)
    h = float(h)
    if not (0.0 < h < t):
        raise ValueError("need 0 < h < t")
    f0 = phi_nu(p.nu, t)
    fp = phi_nu(p.nu, t + h)
    fm = phi_nu(p.nu, t - h)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = (fp - fm) / (2.0 * h)
    return d2 - (p.alpha / t) * d1 - f0
