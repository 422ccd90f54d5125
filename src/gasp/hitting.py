"""First-passage distributions between horizontal levels.

For the process generated by the weighted operator, started on the level
``y`` and stopped on first contact with a lower level ``eta``, the hitting
position has a density ``G`` on R^n whose Fourier transform is the quotient

    Q(s) = (y/eta)^nu K_nu(y s) / K_nu(eta s),   s = |xi|,   nu = (alpha+1)/2.

The quotient is evaluated in log space so that both Bessel factors can be
taken far past the range where K_nu itself underflows.  K_nu has no zeros
in Re s > 0, so Q is analytic there, and the density inverts it along the
ray s = t e^{i pi/4}, where nothing oscillates: one evaluation of Q serves
every radius of a call.  At odd n the Bessel factor J_{n/2-1}(rs) is Re of
e^{irs} times a polynomial in 1/(rs) (at n = 1, G(r) = (1/pi) Re Int Q(s)
e^{irs} ds); at even n Poisson's integral J_m(z) ~ z^m Int_0^pi sin^{2m}th
cos(z cos th) dth (DLMF 10.9.4) makes each radius the ray transform of
Q s^{n-1} at the frequencies r cos th_j, summed by the trapezoid rule in th.
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
from .special_functions import EvalAccuracy, _lgamma_pos, log_bessel_k


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
        limit value 1 at ``s = 0``.  Always in (0, 1].

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
# 3e-8 (1e-16 without the far field, whose remainder falls like s^2) to
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
    t, dt = ray_nodes(-2.6 if far else -3.5, hi, _STEP, level,
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
                    + log_k[2 * m:] - _lgamma_pos(nu))
    return s, ds, q, c


def _rows(n, radii, gap):
    """Ray transforms whose real parts sum to the density at each radius.

    Row i stands for coef_i Re Int Q(s) s^{power_i} E_i(freq_i s) ds, with
    E(x) = e^{ix} minus its Taylor polynomial of degree ``degree_i`` (none
    at -1); ``owner`` maps rows to radii, and ``coarse`` reweights rows
    into the rule in theta at twice the step (even n).
    """
    blocks = []
    for i, r in enumerate(radii):
        if r == 0.0:
            blocks.append((0.0, unit_sphere_area(n) / (2.0 * math.pi) ** n,
                           n - 1, 1.0, -1))
        elif n % 2:
            # J_{l+1/2}(x) = Re sqrt(2x/pi) e^{ix} sum_j i^{j-l-1} a_j x^{-j-1}
            # (DLMF 10.49.6), a_j = (l+j)! / (2^j j! (l-j)!); n = 1 is
            # J_{-1/2}(x) = Re sqrt(2/(pi x)) e^{ix}. Inside one gap the rows
            # drop the Taylor terms of e^{ix} that carry the negative powers
            # of r, which cancel across j: no row then blows up as r -> 0.
            l = (n - 3) // 2
            j = np.arange(max(l, 0) + 1)
            a = np.array([math.factorial(l + k) / math.factorial(l - k)
                          / math.factorial(k) for k in j]) if n > 1 else 1.0
            blocks.append((r, (2.0 * math.pi) ** (-0.5 * n) * math.sqrt(2.0 / math.pi)
                           * a * 0.5 ** j * 1j ** (j - l - 1) * r ** (-l - 1.0 - j),
                           l + 1 - j, 1.0, np.where(r < gap, l + j, -1)))
        else:
            # theta_j = j pi / N on [0, pi/2], folded from [0, pi]; the
            # integrand varies on the scale gap / r in theta
            count = 4 * math.ceil(16.0 * max(r / gap, 0.5))
            j = np.arange(count // 2 + 1)
            th = j * math.pi / count
            w = np.where((j > 0) & (j < count // 2), 2.0, 1.0) * math.pi / count
            blocks.append((r * np.cos(th), (2.0 * math.pi) ** (-0.5 * n)
                           * 2.0 ** (1.0 - 0.5 * n) * w * np.sin(th) ** (n - 2)
                           / (math.gamma(0.5 * (n - 1)) * math.sqrt(math.pi)),
                           n - 1, np.where(j % 2, 0.0, 2.0), -1))
    rows = [np.broadcast_arrays(i, *b) for i, b in enumerate(blocks)]
    return (np.concatenate([np.ravel(v[k]) for v in rows]) for k in range(6))


def _exp_tail(x, degree):
    """e^{ix} minus its Taylor polynomial of the given degree (-1: none)."""
    ix, out = 1j * x, np.exp(1j * x)
    if np.any(degree >= 0):
        term, series = np.ones_like(ix), np.zeros_like(ix)
        for q in range(int(np.max(degree)) + 31):
            out = out - np.where(q <= degree, term, 0.0)
            series = series + np.where((q > degree) & (q <= degree + 30), term, 0.0)
            term = term * ix / (q + 1)
        # below |x| = 1 the tail's own series, free of cancellation
        out = np.where((np.abs(x) < 1.0) & (degree >= 0), series, out)
    return out


def _invert(p, levels, radii, acc):
    """Density and error estimate at each radius (1-D array).

    The estimate adds the gap to the ray rule at twice the step, the gap to
    the theta rule at twice the step (even n) and the rounding bound
    eps * sum |terms| of the ray sums. Each radius takes the first level
    whose estimate meets ``acc``, so its bits do not depend on the others.
    """
    owner, freq, coef, power, coarse, degree = _rows(p.n, radii, levels.gap)

    def per_radius(v):
        return np.bincount(owner, weights=v, minlength=radii.size)

    sums = np.zeros((3, freq.size))
    value, error = np.zeros(radii.size), np.full(radii.size, np.inf)
    for level in range(_LEVELS):
        s, ds, q, c = _ray_quotient(p, levels, level)
        base = np.array([q * ds * s ** j for j in range(p.n)])
        for lo in range(0, freq.size, 2048):
            rows = slice(lo, lo + 2048)
            terms = (coef[rows, None] * base[power[rows]]
                     * _exp_tail(freq[rows, None] * s, degree[rows, None]))
            sums[0, rows] += np.sum(terms.real, axis=1)
            sums[1, rows] = np.sum(terms.real[:, ::2], axis=1)
            sums[2, rows] += np.sum(np.abs(terms), axis=1)
        step = _STEP / 2 ** level
        fine = per_radius(step * sums[0])
        old = per_radius(2.0 * step * sums[1]) if not level else prev
        prev = fine
        far = kernel_profile(p, radii, c) if c is not None else 0.0
        new = (np.abs(fine - old) + np.abs(fine - per_radius(coarse * step * sums[0]))
               + 8.0 * np.finfo(float).eps * per_radius(step * sums[2]))
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
        precision, nor can even n far out, where Poisson's integral
        cancels (n = 4 from about 10 gaps). Small negative results (within
        ``max(acc.abs_tol, 1e-12)``) are clipped to 0.0 and reported
        through a RuntimeWarning, one per radius.
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
