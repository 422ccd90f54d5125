"""Reference values computed apart from gasp.

Everything here is written from the closed forms of the paper (the
weighted Poisson kernel, the Fourier quotient of the hitting law, the
Student-t and F laws of the stopped diffusion) with NumPy and SciPy only.
Nothing imports gasp, so a fault in the program cannot leak into the
values it is checked against. SciPy is imported lazily: the timed runs
never load it.
"""

import math

import numpy as np


def kernel_constant(alpha, n):
    """c_norm = Gamma((alpha+n+1)/2) / (Gamma((alpha+1)/2) pi^(n/2))."""
    return math.exp(math.lgamma(0.5 * (alpha + n + 1.0))
                    - math.lgamma(0.5 * (alpha + 1.0))) / math.pi ** (0.5 * n)


def kernel(alpha, n, diff_sq, y):
    """K_{alpha,y} at points with |x|^2 = diff_sq."""
    return (kernel_constant(alpha, n) * y ** (alpha + 1.0)
            * (diff_sq + y * y) ** (-0.5 * (alpha + n + 1.0)))


def trapezoid_weights(shape, spacing):
    """Tensor-product trapezoid weights of a uniform grid."""
    w = np.ones(shape) * spacing ** len(shape)
    for axis, m in enumerate(shape):
        edge = np.ones(m)
        edge[[0, -1]] = 0.5
        dims = [1] * len(shape)
        dims[axis] = m
        w = w * edge.reshape(dims)
    return w


def direct_sum(alpha, n, nodes, weighted_values, points, y):
    """sum_j K_{alpha,y}(x - eta_j) w_j f_j at each row of ``points``."""
    diff_sq = np.zeros((points.shape[0], nodes.shape[0]))
    for axis in range(n):
        d = points[:, axis:axis + 1] - nodes[None, :, axis]
        diff_sq += d * d
    return kernel(alpha, n, diff_sq, y) @ weighted_values


def tent_poisson_1d(x, y, centre, width, height):
    """Classical Poisson integral (alpha = 0, n = 1) of a tent, in closed form.

    On a piece where f(t) = a + b t, with s = t - x,
        int y / (pi (s^2 + y^2)) f ds
          = [(a + b x) atan(s / y) + (b y / 2) log(s^2 + y^2)] / pi.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for lo, hi, slope in ((centre - width, centre, 1.0),
                          (centre, centre + width, -1.0)):
        b = slope * height / width
        a = height - b * centre
        s_lo, s_hi = lo - x, hi - x
        total += ((a + b * x) * (np.arctan(s_hi / y) - np.arctan(s_lo / y))
                  + 0.5 * b * y * (np.log(s_hi ** 2 + y * y)
                                   - np.log(s_lo ** 2 + y * y)))
    return total / math.pi


def tent_trapezoid_error(y, width, height, spacing):
    """Bound on the trapezoid error of the tent's Poisson integral.

    The integrand K_y(x - t) f(t) is smooth on each of the tent's two
    pieces, whose ends sit on grid nodes, so the composite rule errs by at
    most (length h^2 / 12) max |g''| with g'' = K'' f + 2 K' f'. For the
    Cauchy kernel |K''| <= 2 / (pi y^3) and |K'| <= 3 sqrt(3) / (8 pi y^2).
    """
    g2 = (2.0 / (math.pi * y ** 3)) * height \
        + 2.0 * (3.0 * math.sqrt(3.0) / (8.0 * math.pi * y * y)) * height / width
    return 2.0 * width * spacing ** 2 / 12.0 * g2


def poisson_law_density(n, scale, r):
    """Classical Poisson (multivariate Cauchy) density of scale a in R^n."""
    c = math.exp(math.lgamma(0.5 * (n + 1.0))) / math.pi ** (0.5 * (n + 1.0))
    r = np.asarray(r, dtype=float)
    return c * scale / (r * r + scale * scale) ** (0.5 * (n + 1.0))


def _quotient(alpha, y, eta):
    """G^(s) = (y/eta)^nu K_nu(y s) / K_nu(eta s), built on scipy's kve."""
    from scipy.special import kve

    nu = 0.5 * (alpha + 1.0)
    lead = (y / eta) ** nu

    def q(s):
        if s <= 0.0:
            return 1.0
        return lead * kve(nu, y * s) / kve(nu, eta * s) * math.exp(-(y - eta) * s)

    return q


def _quotient_cutoff(y, eta):
    # G^(s) <= e^{-(y - eta) s}, so past 45 gaps it is below 1e-19
    return 45.0 / (y - eta)


def hitting_density(alpha, n, y, eta, r):
    """Hitting density at radius r by inverting the Fourier quotient.

    n = 1: (1/pi) int_0^inf G^(s) cos(r s) ds;
    n = 2: (1/(2 pi)) int_0^inf G^(s) J_0(r s) s ds.
    """
    from scipy.integrate import quad
    from scipy.special import j0

    q = _quotient(alpha, y, eta)
    top = _quotient_cutoff(y, eta)
    if n == 1:
        if r == 0.0:
            val, _ = quad(q, 0.0, top, limit=400, epsabs=1e-14, epsrel=1e-12)
        else:
            val, _ = quad(q, 0.0, top, weight="cos", wvar=r, limit=400,
                          epsabs=1e-14, epsrel=1e-12)
        return val / math.pi
    if n == 2:
        val, _ = quad(lambda s: q(s) * j0(r * s) * s, 0.0, top, limit=1000,
                      epsabs=1e-14, epsrel=1e-12)
        return val / (2.0 * math.pi)
    raise ValueError("reference inversion covers n = 1 and n = 2")


def hitting_cdf(alpha, y, eta, x):
    """CDF of the n = 1 hitting law: 1/2 + (1/pi) int G^(s) sin(x s) / s ds."""
    from scipy.integrate import quad

    q = _quotient(alpha, y, eta)
    if x == 0.0:
        return 0.5
    val, _ = quad(lambda s: q(s) / s if s > 0.0 else x, 0.0,
                  _quotient_cutoff(y, eta), weight="sin", wvar=x, limit=400,
                  epsabs=1e-13, epsrel=1e-12)
    return 0.5 + val / math.pi


def ks_threshold(n_paths):
    """KS acceptance level used for every Monte Carlo law check."""
    return 1.95 / math.sqrt(n_paths) + 5e-3


def ks_student_t(x, alpha, y):
    """KS distance of boundary-mode n = 1 samples to their Student-t law.

    The boundary kernel at height y is the law of y T / sqrt(alpha + 1)
    with T Student-t on alpha + 1 degrees of freedom.
    """
    from scipy import stats

    t = np.asarray(x) * math.sqrt(alpha + 1.0) / y
    return stats.kstest(t, stats.t(df=alpha + 1.0).cdf).statistic


def ks_f_law(samples, alpha, y):
    """KS distance of |X|^2 (alpha+1) / (n y^2) to F(n, alpha+1)."""
    from scipy import stats

    n = samples.shape[1]
    v = np.sum(samples ** 2, axis=1) * (alpha + 1.0) / (n * y * y)
    return stats.kstest(v, stats.f(n, alpha + 1.0).cdf).statistic


def ks_cauchy(x, scale):
    """KS distance to the Cauchy law of the given scale (alpha = 0 levels)."""
    from scipy import stats

    return stats.kstest(np.asarray(x), stats.cauchy(scale=scale).cdf).statistic


def kernel_fourier(alpha, y, xi):
    """phi_nu(y xi) = 2^(1-nu) / Gamma(nu) (y xi)^nu K_nu(y xi)."""
    from scipy.special import kv

    nu = 0.5 * (alpha + 1.0)
    z = y * xi
    return 2.0 ** (1.0 - nu) / math.gamma(nu) * z ** nu * kv(nu, z)
