"""First-passage distributions between horizontal levels.

For the process generated by the weighted operator, started on the level
``y`` and stopped on first contact with a lower level ``eta``, the hitting
position has a density ``G`` on R^n whose Fourier transform is the quotient

    Q(s) = (y/eta)^nu K_nu(y s) / K_nu(eta s),   s = |xi|,   nu = (alpha+1)/2.

The quotient is evaluated in log space so that both Bessel factors can be
taken far past the range where K_nu itself underflows.  K_nu has no zeros
in Re s > 0, so Q is analytic there, and the density inverts it along the
ray s = t e^{i pi/4}, where nothing oscillates: one evaluation of Q serves
every radius of a call.  The Bessel factor J_m(rs), m = n/2 - 1, of the
Hankel transform is Re H_m^(1)(rs) on the real axis, and H_m^(1)(x) =
2/(pi i) e^{-i m pi/2} K_|m|(-ix) decays on the ray: each radius is one ray
transform of Q(s) s^{n/2} K_|m|(-irs), in every dimension (at n = 1, G(r) =
(1/pi) Re Int Q(s) e^{irs} ds).
For alpha >= 0 the ray carries Q minus phi_nu(c s), the transform of the
closed-form kernel at the height c = (y^{2 nu} - eta^{2 nu})^{1/(2 nu)}, which
shares the s^{2 nu} term behind the algebraic tail of G and is added back
in closed form (at alpha = 0, c = y - eta and it is all of G).  The
semigroup property G_{y,eta1} = G_{y,eta2} * G_{eta2,eta1} is checked by
discrete convolution on a user-supplied grid.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._quadrature import QuadratureError, ray_nodes
from .boundary_data import Grid, radius_sq
from .extension import _lattice_convolution
from .kernel import ModelParams, _real, kernel_profile, unit_sphere_area
from .special_functions import EvalAccuracy, _k_scaled, log_bessel_k


@dataclass(frozen=True)
class LevelPair:
    """Ordered pair of horizontal levels: start at ``y``, stop at ``eta``."""

    y: float
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "y", _real(self.y, "y"))
        object.__setattr__(self, "eta", _real(self.eta, "eta"))
        if not 0.0 < self.eta < self.y:
            raise ValueError(
                f"levels must satisfy y > eta > 0, got y={self.y}, eta={self.eta}"
            )

    @property
    def gap(self):
        return self.y - self.eta


def hitting_ft(p: ModelParams, levels: LevelPair, xi_norm):
    """Fourier transform of the hitting density at frequency radius |xi|.

    Parameters
    ----------
    p : ModelParams
        Operator parameters; only ``nu`` enters.
    levels : LevelPair
        Start and stop levels.
    xi_norm : float or array_like
        Nonnegative frequency radii.

    Returns
    -------
    float or ndarray
        ``(y/eta)^nu K_nu(y s) / K_nu(eta s)`` at ``s = xi_norm``, with the
        limit value 1 at ``s = 0``.  Always in [0, 1].

    Notes
    -----
    Past the log-space difference -745 the result underflows to an exact
    0.0, the correct rounding; where ``eta s`` falls below the normal
    double range the two-term small-argument form of K_nu takes over, so
    subnormal ``s`` stays in (0, 1] as well.
    """
    xi = np.asarray(xi_norm, dtype=float)
    if xi.size and (not np.all(np.isfinite(xi)) or np.any(xi < 0)):
        raise ValueError("xi_norm must be finite and nonnegative")
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)

    out = np.ones_like(xi)
    # below the normal range eta*s loses bits to rounding, down to an exact 0
    # that log_bessel_k rejects; there the small-argument form is exact
    tiny = (xi > 0) & (levels.eta * xi < np.finfo(float).tiny)
    if np.any(tiny):
        out[tiny] = _small_arg_ft(p.nu, levels, xi[tiny])
    mask = (xi > 0) & ~tiny
    if np.any(mask):
        s = xi[mask]
        log_k = log_bessel_k(p.nu, np.concatenate([levels.y * s, levels.eta * s]))
        lg = (
            p.nu * (math.log(levels.y) - math.log(levels.eta))
            + log_k[: s.size]
            - log_k[s.size :]
        )
        with np.errstate(under="ignore"):
            # the quotient is mathematically <= 1; log-space roundoff can
            # push exp(lg) a few ulp above it at tiny arguments
            out[mask] = np.minimum(np.exp(lg), 1.0)
    return out.item() if scalar else out


def _small_arg_ft(nu, levels, s):
    # For z below 1e-150, K_nu(z) = Gamma(nu)/2 (z/2)^-nu (1 - r(z)) to double
    # precision, r(z) = Gamma(1-nu)/Gamma(1+nu) (z/2)^{2nu} for nu < 1 and
    # r = 0 for nu >= 1. The (y/eta)^nu prefactor cancels the leading powers,
    # leaving the quotient (1 - r(ys)) / (1 - r(eta s)).
    if nu >= 1.0:
        return np.ones_like(s)
    c = math.lgamma(1.0 - nu) - math.lgamma(1.0 + nu)
    log_half_s = np.log(s) - math.log(2.0)
    one_minus_r_y = -np.expm1(c + 2.0 * nu * (math.log(levels.y) + log_half_s))
    one_minus_r_eta = -np.expm1(c + 2.0 * nu * (math.log(levels.eta) + log_half_s))
    return np.minimum(one_minus_r_y / one_minus_r_eta, 1.0)


# The ray rule (_quadrature.ray_nodes) with t = exp(tau - e^{-tau}) /
# (3 w cos phi), w = gap (or c/3 if larger). tau runs from t w cos phi ~
# 3e-8 (3e-22 without the far field, whose remainder falls like s^2) to
# where Q <= (y/eta)^{nu-1/2} e^{-gap s} (sqrt(z) e^z K_nu(z) falls for
# nu > 1/2) is below e^{-44}; the scale packs nodes inside the decay length
# of Q, where the tails of large radii live. Level 0 compares with its own
# even nodes.
_RAY = cmath.exp(0.25j * math.pi)
_STEP = 1.0 / 24.0
_LEVELS = 3


def _ray_quotient(p, levels, level):
    """Ray nodes s new at ``level``, ds / d tau, and Q(s) minus the far field.

    Returns the height c of the far-field kernel too (None for alpha < 0,
    where c < gap and phi_nu(c s) would outlast Q on the ray).
    """
    nu, far, c = p.nu, p.nu >= 0.5, None
    width = levels.gap
    if far:
        c = levels.y * math.exp(
            math.log1p(-(levels.eta / levels.y) ** (2.0 * nu)) / (2.0 * nu))
        # phi_nu(c s) decays on the scale 1/c, which the nodes must resolve
        width = max(width, c / 3.0)
    hi = math.log(3.0 * width / levels.gap * (
        44.0 + max(nu - 0.5, 0.0) * math.log(levels.y / levels.eta))) + 0.01
    t, dt = ray_nodes(-2.6 if far else -3.8, hi, _STEP, level,
                      3.0 * width * _RAY.real)
    s = t * _RAY
    ds = dt * _RAY
    m = t.size
    args = [levels.y * s, levels.eta * s] + ([c * s] if far else [])
    log_k = log_bessel_k(nu, np.concatenate(args))
    q = np.exp(nu * (math.log(levels.y) - math.log(levels.eta))
               + log_k[:m] - log_k[m:2 * m])
    if far:
        q -= np.exp((1.0 - nu) * math.log(2.0) + nu * np.log(c * s)
                    + log_k[2 * m:] - math.lgamma(nu))
    return s, ds, q, c


def _invert(p, levels, radii, acc):
    """Density and error estimate at each radius (1-D array).

    G(r > 0) is Re of coef times the ray transform of Q(s) s^{n-1} z^{-m}
    K_|m|(z), z = -irs, at phase -pi/4. Inside one gap at n >= 3 K drops its
    Laurent terms, which feed only Y_m, so no term blows up as r -> 0.
    G(0) is the moment omega_{n-1} (2 pi)^{-n} Int Q s^{n-1} ds. The
    estimate adds the gap to the ray rule at twice the step, the rounding
    bound eps * sum |terms| and, for alpha < 0, a bound on the ray's head.
    Each radius takes the first level whose estimate meets ``acc``, so its
    bits do not depend on the others.
    """
    m = 0.5 * p.n - 1.0
    zero = radii == 0.0
    coef = np.where(zero, unit_sphere_area(p.n) / (2.0 * math.pi) ** p.n,
                    (2.0 * math.pi) ** (-0.5 * p.n) * 2.0 / (math.pi * 1j)
                    * cmath.exp(-1j * math.pi * m))
    drop = (radii < levels.gap) & (m > 0.0)
    # G is even and smooth in r: below 1e-150 gaps a floor keeps rs off 0
    iz = -1j * np.maximum(radii, 1e-150 * levels.gap)
    sums = np.zeros((3, radii.size))
    value, error = np.zeros(radii.size), np.full(radii.size, np.inf)
    for level in range(_LEVELS):
        s, ds, q, c = _ray_quotient(p, levels, level)
        if not level:
            # alpha < 0: the head below s_0 is at most |s_0| times the s -> 0
            # form of the row (|Q| <= 1), at r = gap if r = 0 or Laurent-free
            t, w = abs(s[0]), np.where(zero | drop, levels.gap, -iz.imag)
            head = 0.0 if c is not None else np.abs(coef) * t * (
                math.sqrt(0.5 * math.pi) if m < 0
                else t * (np.abs(np.log(0.5 * w * t)) + 2.0) if m == 0
                else math.gamma(m) * 2.0 ** (m - 1.0) * w ** (-2.0 * m) * t)
        base = q * ds * s ** (p.n - 1)
        # blocks of about 4096 z: the integer orders' Bessel rule takes 2^5 to
        # 2^7 nodes per value, so the block, not the radius count, bounds memory
        size = max(4096 // s.size, 1)
        for lo in range(0, radii.size, size):
            rows = slice(lo, lo + size)
            pos = ~zero[rows]
            f = np.ones((pos.size, s.size), dtype=complex)
            f[pos] = _k_scaled(m, iz[rows][pos, None] * s, drop[rows][pos, None])
            terms = coef[rows, None] * base * f
            sums[0, rows] += np.sum(terms.real, axis=1)
            sums[1, rows] = np.sum(terms.real[:, ::2], axis=1)
            sums[2, rows] += np.sum(np.abs(terms), axis=1)
        step = _STEP / 2 ** level
        fine = step * sums[0]
        old = 2.0 * step * sums[1] if not level else prev
        prev = fine
        far = kernel_profile(p, radii, c) if c is not None else 0.0
        new = np.abs(fine - old) + 8.0 * np.finfo(float).eps * step * sums[2] + head
        take = (error > acc.rel_tol * np.abs(value) + acc.abs_tol) \
            & ((new <= acc.rel_tol * np.abs(fine + far) + acc.abs_tol)
               | (level == _LEVELS - 1))
        value[take], error[take] = (fine + far)[take], new[take]
        if not np.any(error > acc.rel_tol * np.abs(value) + acc.abs_tol):
            break
    return value, error


def hitting_kernel(p: ModelParams, levels: LevelPair, x_norm, acc=EvalAccuracy()):
    """Hitting density at the radii ``x_norm``, by inversion along a ray.

    Parameters
    ----------
    p : ModelParams
    levels : LevelPair
    x_norm : float or array_like
        Nonnegative spatial radii. An array call evaluates the quotient
        once for all of them and returns the bits of the scalar calls.
    acc : EvalAccuracy
        Error target per radius: rel_tol * |G| + abs_tol. ``acc.abs_tol``
        also bounds how much negative undershoot may be clipped to zero.

    Returns
    -------
    float or ndarray
        Density values. A radius whose error estimate misses the target
        raises QuadratureError: tail densities far below the quotient's
        scale (alpha = 10 at r = 16 gaps, say) cannot be resolved in double
        precision. Small negative results (within ``max(acc.abs_tol,
        1e-12)``) are clipped to 0.0 and reported through a RuntimeWarning,
        one per radius.
    """
    r = np.asarray(x_norm, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(r >= 0.0)):
        raise ValueError(f"x_norm must be finite and nonnegative, got {x_norm!r}")
    if not r.size:
        return np.empty(r.shape)
    value, error = _invert(p, levels, r.ravel(), acc)
    miss = error > acc.rel_tol * np.abs(value) + acc.abs_tol
    if np.any(miss):
        i = int(np.argmax(miss))
        raise QuadratureError(
            "hitting density at r=%g: error estimate %.2e misses rel_tol=%.1e"
            % (r.ravel()[i], error[i], acc.rel_tol),
            value=value[i], error_estimate=float(error[i]))
    clip = (value < 0.0) & (value >= -max(acc.abs_tol, 1e-12))
    for i in np.nonzero(clip)[0]:
        warnings.warn(
            f"clipped negative hitting density {value[i]:.3e} at r={r.ravel()[i]:g} to 0",
            RuntimeWarning,
            stacklevel=2,
        )
    value[clip] = 0.0
    return float(value[0]) if r.ndim == 0 else value.reshape(r.shape)


def _radial_table(p, levels, radii, acc):
    """Evaluate the hitting density on a set of radii, once per distinct one."""
    flat = np.asarray(radii, dtype=float).ravel()
    uniq, inverse = np.unique(flat, return_inverse=True)
    return hitting_kernel(p, levels, uniq, acc)[inverse].reshape(np.shape(radii))


def semigroup_check(
    p: ModelParams, y, eta2, eta1, grid: Grid, acc=EvalAccuracy(rel_tol=1e-8)
):
    """Largest pointwise violation of the two-step hitting identity.

    Compares ``G_{y,eta1}`` against the discrete convolution
    ``G_{y,eta2} * G_{eta2,eta1}`` on ``grid`` (trapezoid weights absorbed
    into the lattice volume element), and returns the maximum absolute
    deviation over the grid points.

    Parameters
    ----------
    p : ModelParams
    y, eta2, eta1 : float
        Levels with ``y > eta2 > eta1 > 0``.
    grid : Grid
        Evaluation lattice; should cover the bulk of both factors, since
        mass outside the grid turns into deviation.
    acc : EvalAccuracy
        Accuracy for the kernel evaluations feeding the comparison.

    Returns
    -------
    float
        ``max |G_direct - G_convolved|`` over the grid.
    """
    if grid.n != p.n:
        raise ValueError(f"grid is {grid.n}-dimensional, expected n={p.n}")
    if not (_real(y, "y") > _real(eta2, "eta2") > _real(eta1, "eta1") > 0.0):
        raise ValueError(
            f"levels must satisfy y > eta2 > eta1 > 0, got {(y, eta2, eta1)}"
        )
    full = LevelPair(y=y, eta=eta1)
    upper = LevelPair(y=y, eta=eta2)
    lower = LevelPair(y=eta2, eta=eta1)

    radii = np.sqrt(radius_sq(grid.coords))
    direct = _radial_table(p, full, radii, acc)
    lower_vals = _radial_table(p, lower, radii, acc)

    # Upper factor on the difference lattice of the grid with itself.
    diff_axes = [
        grid.spacing * np.arange(-(m - 1), m, dtype=float) for m in grid.shape
    ]
    upper_vals = _radial_table(p, upper, np.sqrt(radius_sq(diff_axes)), acc)

    # entry m - 1 of the convolution aligns the difference lattice's zero
    # with the first grid point
    convolved = _lattice_convolution(lower_vals, upper_vals, 1, grid.shape) \
        * grid.spacing**grid.n
    return float(np.max(np.abs(direct - convolved)))
