"""First-passage distributions between horizontal levels.

For the process generated by the weighted operator, started on the level
``y`` and stopped on first contact with a lower level ``eta``, the hitting
position has a density ``G`` on R^n whose Fourier transform is the quotient

    G^(xi) = (y/eta)^nu K_nu(y|xi|) / K_nu(eta|xi|),      nu = (alpha+1)/2.

The quotient is evaluated in log space so that both Bessel factors can be
taken far past the range where K_nu itself underflows.  The physical
density comes from Hankel inversion of the quotient, one lobe sum between
the zeros of the Bessel factor (an exp-sinh rule at r = 0), and the
semigroup property G_{y,eta1} = G_{y,eta2} * G_{eta2,eta1} is checked by
discrete convolution on a user-supplied grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._quadrature import exp_sinh, integrate_lobes_rows, lobe_edges
from .boundary_data import Grid, radius_sq
from .kernel import ModelParams, unit_sphere_area
from .special_functions import EvalAccuracy, bessel_j, log_bessel_k


@dataclass(frozen=True)
class LevelPair:
    """Ordered pair of horizontal levels: start at ``y``, stop at ``eta``."""

    y: float
    eta: float

    def __post_init__(self):
        for name in ("y", "eta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
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
    Both Bessel factors are evaluated through their logarithms, so the
    quotient survives arguments far beyond the underflow point of K_nu
    itself.  For ``s`` so large that even the log-space difference drops
    below -745 the result underflows to an exact 0.0, which is the correct
    double rounding of the true value.  At the other end, where ``eta s``
    falls below the normal double range, the two-term small-argument form
    of K_nu is used instead, so subnormal ``s`` stays in (0, 1] as well.
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


def _bessel_zero_gen(nu):
    """McMahon zeros of J_nu, from the first.

    Lobe boundaries only need to straddle sign changes, so the three-term
    McMahon expansion (error O(k^-5)) is plenty.
    """
    mu = 4.0 * nu * nu
    k = 1
    while True:
        beta = (k + 0.5 * nu - 0.25) * math.pi
        yield beta - (mu - 1.0) / (8.0 * beta) \
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
        k += 1


def _invert_ft(p, levels, r, acc):
    """(2 pi)^{n/2} r^{(2-n)/2} Int_0^inf Q(s) s^{n/2} J_{(n-2)/2}(rs) ds.

    The radial inverse Fourier transform of the quotient Q = hitting_ft,
    times (2 pi)^n, at r > 0. Lobes end at the zeros of the Bessel factor;
    Q falls like e^{-gap s}, so the first lobe is graded at scale 1/gap.
    """
    nu_j = 0.5 * (p.n - 2.0)

    def integrand(s):
        return (hitting_ft(p, levels, s) * s ** (0.5 * p.n)
                * bessel_j(nu_j, r * s))[None, :]

    edges = lobe_edges((z / r for z in _bessel_zero_gen(nu_j)), 1.0 / levels.gap)
    value, _err = integrate_lobes_rows(integrand, edges, rel_tol=0.1 * acc.rel_tol)
    return (2.0 * math.pi) ** (0.5 * p.n) * r ** (0.5 * (2.0 - p.n)) * value[0]


def hitting_kernel(p: ModelParams, levels: LevelPair, x_norm, acc=EvalAccuracy()):
    """Hitting density at radius ``x_norm`` via Hankel inversion.

    Parameters
    ----------
    p : ModelParams
    levels : LevelPair
    x_norm : float
        Nonnegative spatial radius.
    acc : EvalAccuracy
        Quadrature targets; ``acc.abs_tol`` also bounds how much negative
        undershoot from the oscillatory inversion may be clipped to zero.

    Returns
    -------
    float
        Density value, nonnegative up to quadrature noise.  Small negative
        results (within ``max(acc.abs_tol, 1e-12)``) are clipped to 0.0 and
        reported through a RuntimeWarning.  At r > 0 the value can miss
        ``acc.rel_tol`` by orders of magnitude when alpha is small: at
        n = 1, levels 2 -> 1 and r in {0.5, 2, 6} the relative error is up
        to 3.2e-5 at alpha = -0.9, 5.3e-6 at alpha = -0.5 and 9.5e-9 at
        alpha = 0.5, most likely because the first Gauss panel does not
        resolve the s^(2 nu) cusp of the quotient at s = 0.  Tail densities
        at large alpha miss it too (2.3e-10 at alpha = 30, r = 2).
    """
    r = float(x_norm)
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"x_norm must be finite and nonnegative, got {x_norm!r}")

    if r == 0.0:
        # No oscillation at the origin: (2 pi)^{-n} omega_{n-1} int ft s^{n-1} ds.
        radial, _ = exp_sinh(
            lambda s: hitting_ft(p, levels, s) * s ** (p.n - 1),
            scale=1.0 / levels.gap,
            rel_tol=acc.rel_tol,
        )
        return unit_sphere_area(p.n) * radial / (2.0 * math.pi) ** p.n

    value = _invert_ft(p, levels, r, acc) / (2.0 * math.pi) ** p.n
    if value < 0.0:
        clip = max(acc.abs_tol, 1e-12)
        if -value <= clip:
            warnings.warn(
                f"clipped negative hitting density {value:.3e} at r={r:g} to 0",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0.0
    return value


def _radial_table(p, levels, radii, acc):
    """Evaluate the hitting density on a set of radii, caching duplicates."""
    flat = np.asarray(radii, dtype=float).ravel()
    uniq, inverse = np.unique(flat, return_inverse=True)
    vals = np.array([hitting_kernel(p, levels, r, acc) for r in uniq])
    return vals[inverse].reshape(np.shape(radii))


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
    if not (y > eta2 > eta1 > 0.0):
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

    n = grid.n
    conv_shape = tuple(g + d - 1 for g, d in zip(grid.shape, upper_vals.shape))
    axes = tuple(range(n))
    spec = np.fft.rfftn(lower_vals, conv_shape, axes=axes) * np.fft.rfftn(
        upper_vals, conv_shape, axes=axes
    )
    conv = np.fft.irfftn(spec, conv_shape, axes=axes)
    center = tuple(
        slice(m - 1, m - 1 + m) for m in grid.shape
    )  # offset (m-1) aligns diff lattice zero with each grid point
    convolved = conv[center] * grid.spacing**n

    return float(np.max(np.abs(direct - convolved)))
