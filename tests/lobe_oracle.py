"""The lobe route for the hitting density, kept as a test oracle.

Bessel J_nu by its ascending series and Hankel's expansion, the McMahon
zeros of J_nu, Gauss-Legendre lobe sums with iterated averaging, and the
Hankel inversion of the quotient as one alternating lobe sum per radius
between those zeros. The library inverts the quotient along a rotated ray
instead; the tests hold the two routes against each other and against
frozen mpmath values.
"""

import math

import numpy as np

from gasp._quadrature import QuadratureError, gauss_legendre
from gasp.hitting import hitting_ft


# Series/asymptotic crossover. The ascending series is alternating; past
# z ~ 14 it cancels away more digits than the 1e-10 contract allows, while
# the Hankel expansion's optimal-truncation error e^{-2z} is already below
# 1e-12 there. Small orders never push the crossover higher.
_J_SERIES_CAP = 14.0


def _bessel_j_series(nu, z):
    z = np.asarray(z, dtype=float)
    half = 0.5 * z
    with np.errstate(divide="ignore", invalid="ignore"):
        pref = half ** nu * math.exp(-math.lgamma(nu + 1.0))
        term = pref.copy()
        out = pref.copy()
        zz = half * half
        for m in range(1, 90):
            term = -term * zz / (m * (nu + m))
            out += term
            if np.all(np.abs(term) <= 1e-18 * (np.abs(out) + 1e-300)):
                break
    # z = 0 takes the exact limit (the log-gamma round-trip in pref is only
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


def bessel_zero_gen(nu):
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


def _averaging_diagonal(partial_sums):
    """Iterated-averaging (Euler transform) limit estimate.

    Repeatedly averages adjacent partial sums; for an alternating tail the
    final entry converges far faster than the plain sequence. Operates on
    the last axis, so a matrix of per-row partial sums works too.
    """
    row = np.asarray(partial_sums)
    while row.shape[-1] > 1:
        row = 0.5 * (row[..., 1:] + row[..., :-1])
    return row[..., 0]


def lobe_edges(boundaries, feature):
    """Lobe boundaries for integrate_lobes_rows on [0, inf).

    boundaries yields the sign changes b1 < b2 < ... of the oscillatory
    factor. When the first lobe [0, b1) is much wider than the feature
    scale of the rest of the integrand, one Gauss panel cannot resolve its
    peak, so that lobe is first split geometrically from 0.25 * feature.
    """
    boundaries = iter(boundaries)
    first = next(boundaries)
    yield 0.0
    e = 0.25 * feature
    while e < 0.75 * first:
        yield e
        e *= 2.0
    yield first
    yield from boundaries


def integrate_lobes_rows(f, boundary_gen, rel_tol=1e-10, abs_tol=0.0,
                         max_lobes=512, order=32, block=16):
    """Integrate each row of f over [b0, inf), split at b0 < b1 < ...

    boundary_gen yields the lobe boundaries, which should bracket sign
    changes of the oscillatory factor (consecutive zeros); each lobe gets
    a Gauss-Legendre rule and each row's alternating lobe series is
    accelerated by iterated averaging. f(x) must return a matrix of shape
    (rows, x.size), possibly complex: many integrands sharing one set of
    lobe boundaries (e.g. an oscillatory inner integral evaluated for a
    whole batch of outer quadrature nodes), or one row for one integrand.
    Rows whose magnitude is far below the largest row are held to a
    proportionally absolute tolerance, since they cannot matter
    downstream. Returns (values, worst_error).
    """
    nodes, weights = gauss_legendre(order)
    last_edge = next(boundary_gen)
    lobes = None
    best = None
    err = math.inf
    for _ in range(max(1, max_lobes // block)):
        edges = [last_edge]
        for _ in range(block):
            edges.append(next(boundary_gen))
        last_edge = edges[-1]
        e = np.asarray(edges, dtype=float)
        mid = 0.5 * (e[1:] + e[:-1])
        half = 0.5 * (e[1:] - e[:-1])
        x = mid[:, None] + half[:, None] * nodes[None, :]
        fv = f(x.ravel())
        fv = fv.reshape(fv.shape[0], x.shape[0], order)
        vals = (fv @ weights) * half[None, :]
        lobes = vals if lobes is None else np.concatenate([lobes, vals],
                                                          axis=1)
        partial = np.cumsum(lobes, axis=1)
        tail = partial[:, max(0, partial.shape[1] - 24):]
        v_full = _averaging_diagonal(tail)
        v_drop = _averaging_diagonal(tail[:, :-1])
        err_rows = np.abs(v_full - v_drop)
        scale = np.max(np.abs(v_full)) if v_full.size else 0.0
        floor = np.maximum(np.abs(v_full), 1e-6 * scale)
        if lobes.shape[1] >= 2 * block \
                and np.all(err_rows <= rel_tol * floor + abs_tol):
            return v_full, float(np.max(err_rows))
        best = v_full
        err = float(np.max(err_rows))
    raise QuadratureError(
        "row lobe sums did not settle (worst err %.2e)" % err,
        value=best, error_estimate=err)


def lobe_density(p, levels, r, rel_tol=1e-10):
    """Hitting density at r > 0: (2 pi)^{-n/2} r^{(2-n)/2} times
    Int_0^inf Q(s) s^{n/2} J_{(n-2)/2}(rs) ds, one lobe between zeros.

    Its error is absolute, about 1e-16 of the integral's scale, so tail
    densities and small alpha miss rel_tol.
    """
    nu_j = 0.5 * (p.n - 2.0)

    def integrand(s):
        return (hitting_ft(p, levels, s) * s ** (0.5 * p.n)
                * bessel_j(nu_j, r * s))[None, :]

    edges = lobe_edges((z / r for z in bessel_zero_gen(nu_j)), 1.0 / levels.gap)
    value, _err = integrate_lobes_rows(integrand, edges, rel_tol=0.1 * rel_tol)
    return (2.0 * math.pi) ** (-0.5 * p.n) * r ** (0.5 * (2.0 - p.n)) * value[0]
