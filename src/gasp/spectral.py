"""Radial Fourier analysis of the kernel.

The Fourier transform of K_{alpha,y} is radial and has three independent
evaluation routes, kept deliberately separate so they can cross-validate
each other:

* ft_closed_form    phi_nu(nu, y|xi|) with nu = (alpha+1)/2, the scaled
                    Bessel-K profile, exact up to the K_nu evaluator;
* ft_integral_rep   the one-dimensional Laplace-type integral
                    (y|xi|)^{alpha+1}/Gamma(alpha+1) *
                        Int_1^inf e^{-y|xi| t} (t^2-1)^{alpha/2} dt;
* ft_direct         brute-force oscillatory quadrature of
                    Int e^{-i<x,xi>} K_{alpha,y}(x) dx over R^n (n <= 2),
                    which never touches the Bessel-K machinery at all.

profile_ode_residual checks the closed-form profile against the reduced
ODE it solves.
"""

import itertools
import math

import numpy as np

from ._quadrature import (QuadratureError, exp_sinh, integrate_lobes_rows,
                          lobe_edges, tanh_sinh)
from .kernel import kernel_deriv_eval, kernel_mass, kernel_profile
from .special_functions import EvalAccuracy, phi_nu

__all__ = [
    "ft_closed_form", "ft_integral_rep", "ft_direct", "profile_ode_residual",
]


def ft_closed_form(p, y, xi_norm):
    """Fourier transform of K_{alpha,y} at |xi| = xi_norm, via phi_nu."""
    y = float(y)
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("y must be finite and > 0, got %r" % (y,))
    xi_norm = np.asarray(xi_norm, dtype=float)
    if np.any(xi_norm < 0.0):
        raise ValueError("xi_norm must be >= 0")
    return phi_nu(p.nu, y * xi_norm)


def ft_integral_rep(p, y, xi_norm, acc=EvalAccuracy()):
    """Fourier transform via the Laplace-type integral representation.

    After u = y|xi|(t-1) the integral becomes
        b^{alpha/2} e^{-b} / Gamma(alpha+1) *
            Int_0^inf e^{-u} u^{alpha/2} (2 + u/b)^{alpha/2} du,  b = y|xi|,
    whose integrand exp-sinh nodes handle uniformly in b (the u^{alpha/2}
    endpoint is integrable for every alpha > -1). The integrand is formed
    in logs, less its value at the peak u* (alpha > 0), and the prefactor
    through lgamma, so neither overflows at large alpha.
    """
    b = float(y) * float(xi_norm)
    if not (b > 0.0 and math.isfinite(b)):
        raise ValueError("need y * xi_norm > 0, got %r" % (b,))
    a2 = 0.5 * p.alpha
    peak = 0.0
    if a2 > 0.0:
        # u* solves u^2 + 2 (b - a2) u = 2 a2 b; the root without cancellation
        d = a2 - b
        root = math.hypot(d, math.sqrt(2.0 * a2 * b))
        u_star = d + root if d > 0.0 else 2.0 * a2 * b / (root - d)
        peak = a2 * (math.log(u_star) + math.log(2.0 + u_star / b)) - u_star

    def f(u):
        return np.exp(a2 * (np.log(u) + np.log(2.0 + u / b)) - u - peak)

    value, _err = exp_sinh(f, a=0.0, scale=max(1.0, p.alpha),
                           rel_tol=0.1 * min(acc.rel_tol, 1e-9))
    return math.exp(a2 * math.log(b) - b + peak
                    - math.lgamma(p.alpha + 1.0)) * value


def _half_line_complex(profile_vec, freq, tol, feature=1.0):
    """Int_0^inf e^{-i s freq} g(s) ds by half-period complex lobes.

    profile_vec(s) -> (rows, s.size); returns (rows,) complex values.
    Half-period boundaries flip the sign of the whole complex exponential,
    so the lobe series alternates componentwise and accelerates cleanly.
    """
    width = math.pi / abs(freq)

    def f(s):
        return profile_vec(s) * np.exp(-1j * freq * s)[None, :]

    edges = lobe_edges((k * width for k in itertools.count(1)), feature)
    vals, _err = integrate_lobes_rows(f, edges, rel_tol=tol)
    return vals


def _inner_over_x2(p, y, x1, xi2, tol):
    """g(x1) = Int_R e^{-i x2 xi2} K_{alpha}(sqrt(x1^2+x2^2), y) dx2.

    Vectorized over a batch of x1 values. With xi2 = 0 the x2 integral
    factorizes under x2 = sqrt(x1^2+y^2) tan(theta) into a single theta
    integral times (x1^2+y^2)^{-(s0-1/2)}, evaluated numerically once.
    """
    x1 = np.asarray(x1, dtype=float)
    s0 = 0.5 * (p.alpha + p.n + 1.0)
    if xi2 == 0.0:
        theta_int, _ = tanh_sinh(
            lambda th: np.cos(th) ** (2.0 * s0 - 2.0),
            -0.5 * math.pi, 0.5 * math.pi, rel_tol=0.1 * tol)
        w2 = x1 * x1 + y * y
        return p.c_norm * y ** (p.alpha + 1.0) * theta_int \
            * w2 ** (0.5 - s0) + 0.0j

    def prof(x2):
        return kernel_deriv_eval(p, (0,) * p.n, (x1[:, None], x2[None, :]), y)

    plus = _half_line_complex(prof, xi2, tol, feature=y)
    minus = _half_line_complex(prof, -xi2, tol, feature=y)
    return plus + minus


def ft_direct(p, y, xi, acc=EvalAccuracy()):
    """Brute-force Fourier transform of K_{alpha,y} at the vector xi.

    Supported for n <= 2 only; this is the oracle route, so it integrates
    the complex exponential over the full space without exploiting any
    symmetry, then checks that the imaginary part actually cancelled.
    """
    y = float(y)
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("y must be finite and > 0, got %r" % (y,))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size != p.n:
        raise ValueError("xi has length %d, params say n = %d"
                         % (xi.size, p.n))
    if p.n > 2:
        raise ValueError("ft_direct supports n <= 2 (oracle route only)")
    tol = max(acc.rel_tol, 1e-9)
    if float(np.dot(xi, xi)) == 0.0:
        return kernel_mass(p, y, acc)

    if p.n == 1:
        freq = float(xi[0])

        def prof(s):
            return kernel_profile(p, s, y)[None, :]

        value = (_half_line_complex(prof, freq, tol, feature=y)
                 + _half_line_complex(prof, -freq, tol, feature=y))[0]
    else:
        xi1, xi2 = float(xi[0]), float(xi[1])
        g = lambda x1: _inner_over_x2(p, y, x1, xi2, tol)
        if xi1 == 0.0:
            # no outer oscillation: fold the polynomial tail with x1=y tan(t)
            def f(th):
                c = np.cos(th)
                return g(y * np.tan(th)) * (y / (c * c))

            value, _err = tanh_sinh(f, -0.5 * math.pi, 0.5 * math.pi,
                                    rel_tol=tol)
        else:
            gg = lambda s: g(s)[None, :]
            value = (_half_line_complex(gg, xi1, tol, feature=y)
                     + _half_line_complex(gg, -xi1, tol, feature=y))[0]

    value = complex(value)
    if abs(value.imag) > 1e-8:
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
