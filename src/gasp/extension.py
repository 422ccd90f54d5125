"""The Poisson integral of gridded boundary data.

u(x, y) is computed as sum over terms of
    int (d^beta K_{alpha,y})(x - eta) f_beta(eta) deta,
with every derivative moved onto the kernel: the sign from integration by
parts and the sign from the inner-argument chain rule cancel, so d^beta is
applied in the kernel's own argument. Each term integral is trapezoidal
quadrature over the term's grid; the kernel is smooth for y > 0, so the
data grid doubles as the quadrature grid. Results degrade once the data
spacing exceeds the kernel scale (about y/4) and that condition is flagged
in the result notes.

A grid takes one of three paths per term. FFT: when the output lattice
sits on the data lattice (equal origin offsets, integer spacing ratio) the
term is a discrete convolution, each axis zero-padded to a 7-smooth
length. Gaussian mixture, at n >= 2 on other lattices: the kernel is a sum
of Gaussians, each a product over the axes, so the lattice sum is a few
matrix products per Gaussian. Direct: each output point is summed over the
data lattice in cache-sized blocks, one height per point if need be; this
serves scattered points, n = 1, grids below _FFT_MIN_WORK kernel values,
and the mixtures that a measured cost model finds dearer or whose clipped
factors could cost accuracy.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .boundary_data import (BoundaryData, Grid, WeightedTerm, grid_points,
                            radius_sq, trapezoid_weights)
from .kernel import (MultiIndex, _check_point, _cone_mass, _height, _kernel_mixture,
                     kernel_deriv_eval)

__all__ = [
    "ExtensionResult",
    "extend_point",
    "extend_grid",
    "boundary_convergence",
    "derivative_commutation_check",
]

# below this many kernel evaluations the direct path beats the FFT set-up
# (7-smooth lengths: measured crossover 0.9e4 to 1.8e4 at n = 1, 1.5e4 to
# 2.1e4 at n = 2) and the mixture's (1.6e4 to 2.7e4 at n = 2), whose set-up
# costs about as much again (2-vCPU Xeon, NumPy 2.4)
_FFT_MIN_WORK = 1 << 14
# kernel values per block of the direct path: 256 KiB of doubles, so the
# squared distances, their power and the product stay in L2
_DENSE_BLOCK = 1 << 15
# mixture factors are clipped at exp(-_MIX_FLOOR / (n + 1)), so products
# stay normal doubles: a subnormal makes exp ~100x and a matrix product
# ~80x slower; chunks of nodes hold _MIX_BLOCK doubles of factors and
# intermediates; a factor entry and a multiply-add cost these many direct
# kernel values, which picked the faster path (or one within 7%) in 13
# shapes from 1 x 41 lines to 101 x 101 grids over 161 x 5 to 161 x 161 nodes
_MIX_FLOOR = 600.0
_MIX_BLOCK = 1 << 16
_MIX_EXP_COST, _MIX_FMA_COST = 0.4, 0.012
_ESTIMATE_SAMPLES = 32


@dataclass(frozen=True, eq=False)
class ExtensionResult:
    """Extension values on an output grid plus an error estimate.

    ``quadrature_error_estimate`` compares the data-grid trapezoid rule
    against its half-resolution counterpart (Richardson factor 1/3) on a
    sample of output points; it is always finite and always reported.
    ``notes`` carries non-fatal diagnostics (undersampled kernel,
    incommensurate-grid fallback, estimate sampling).
    """

    at: Grid
    values: np.ndarray
    quadrature_error_estimate: float
    notes: tuple = ()


def _term_dense(p, components, y, points, in_axes, wf):
    """Direct path: per output point, quadrature sum over the data lattice.

    ``points`` is an (n, N) array of output points, one coordinate per
    row as grid_points gives them, ``y`` their height, one for all or one
    per point, and ``wf`` the data samples times their quadrature weights
    on the lattice of ``in_axes``. The points go in blocks of about
    _DENSE_BLOCK kernel values; axis i enters as its own offsets, shaped
    (points, 1, ..., B_i, ..., 1), so the squared distance is formed at
    full size once.
    """
    n = len(in_axes)
    axes = [np.reshape(a, (1,) * (i + 1) + (-1,) + (1,) * (n - 1 - i))
            for i, a in enumerate(in_axes)]
    wf = wf.reshape(-1)
    out = np.empty(points.shape[1])
    step = max(1, _DENSE_BLOCK // max(wf.size, 1))
    with np.errstate(over="ignore"):  # once for all blocks: |x/y|^2 -> inf gives 0
        for s in range(0, points.shape[1], step):
            block = points[:, s:s + step]
            diffs = [block[i].reshape((-1,) + (1,) * n) - axes[i]
                     for i in range(n)]
            # a scalar height stays scalar: broadcasting it costs a pass
            kv = kernel_deriv_eval(p, components, diffs, y if np.ndim(y) == 0
                                   else y[s:s + step].reshape((-1,) + (1,) * n))
            out[s:s + step] = kv.reshape(block.shape[1], -1) @ wf
    return out


def _contraction(a, b, order):
    # multiply-adds and the largest intermediate per node, axes in ``order``
    flops = peak = 0
    size = math.prod(b)
    for j, i in enumerate(order):
        peak = max(peak, size if j else 0)
        flops += size * a[i]
        size = size // b[i] * a[i]
    return flops, peak


def _term_mixture(p, components, y, out_axes, in_axes, wf):
    """Grid path at n >= 2 through kernel._kernel_mixture, or None.

    Node m of a table term is the product over the axes of
    d^e_i exp(-tau_m d^2) at the offsets d = x_i - eta_i, so the lattice
    sum is one matrix product per axis and chunk of nodes: the first
    axis for the whole chunk at once, the last summed over its nodes too.
    None where the direct path costs less, or where the clipped factors
    could move a value by e^-30 of the sum of its summands' magnitudes.
    """
    n = len(in_axes)
    a, b = [o.size for o in out_axes], [e.size for e in in_axes]
    d = [o[:, None] - e for o, e in zip(out_axes, in_axes)]
    sq = [x * x for x in d]
    s_max = y * y + sum(float(x.max()) for x in sq)
    floor = _MIX_FLOOR / (n + 1)
    sigma = 0.5 * (p.alpha + n + 1.0) + sum(components)
    if not sigma * (math.log(s_max) - 2.0 * math.log(y)) <= floor - 30.0:
        return None
    tau, terms = _kernel_mixture(p, components, y, s_max)
    (flops, peak), order = min((_contraction(a, b, o), o)
                               for o in itertools.permutations(range(n)))
    factors = sum(map(math.prod, zip(a, b)))
    cost = tau.size * (_MIX_EXP_COST * factors + _MIX_FMA_COST * len(terms) * flops)
    if cost + _FFT_MIN_WORK >= len(terms) * math.prod(a) * math.prod(b):
        return None

    first, *middle, last = order
    chunk = max(1, _MIX_BLOCK // (factors + max(a) * max(b) + 2 * peak))
    wf = np.transpose(wf, order).reshape(b[first], -1)
    top = max(float(logw.max()) for _, _, logw in terms)
    total = 0.0
    for s in range(0, tau.size, chunk):
        t = -tau[s:s + chunk]
        m = t.size
        # first axis (a, m, b), middle ones (m, a, b), last (m, b, a)
        gauss = {i: t[:, None, None] * sq[i] for i in middle}
        gauss[first] = t[:, None] * sq[first][:, None, :]
        gauss[last] = t[:, None, None] * sq[last].T
        for g in gauss.values():
            np.exp(np.maximum(g, -floor, out=g), out=g)
        for expo, sign, logw in terms:
            f = gauss[first] * (sign * np.exp(logw[s:s + m] - top))[:, None]
            if expo[first]:
                f *= d[first][:, None, :] ** expo[first]
            acc = np.matmul(f.reshape(-1, b[first]), wf).reshape(a[first], m, -1)
            for i in middle:
                f = gauss[i] * d[i] ** expo[i] if expo[i] else gauss[i]
                acc = np.matmul(f, acc.reshape(acc.shape[0], m, b[i], -1))
                acc = acc.swapaxes(1, 2).reshape(-1, m, acc.shape[-1])
            f = gauss[last] * d[last].T ** expo[last] if expo[last] else gauss[last]
            total = total + np.matmul(acc.reshape(acc.shape[0], -1),
                                      f.reshape(-1, a[last]))
    return (total * math.exp(top)).reshape([a[i] for i in order]) \
        .transpose(np.argsort(order))


def _lattice_match(out_grid, in_grid):
    # integer spacing ratio and lattice-aligned origins, or None
    ratio = out_grid.spacing / in_grid.spacing
    m = round(ratio)
    if m < 1 or abs(ratio - m) > 1e-12 * ratio:
        return None
    q = []
    for i in range(in_grid.n):
        qi = (out_grid.origin[i] - in_grid.origin[i]) / in_grid.spacing
        qr = round(qi)
        if abs(qi - qr) > 1e-9 * max(1.0, abs(qr)):
            return None
        q.append(int(qr))
    return m, tuple(q)


def _smooth_len(size):
    """The least 2^a 3^b 5^c 7^d >= size, where pocketfft is fastest."""
    while True:
        rest = size
        for f in (2, 3, 5, 7):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return size
        size += 1


def _lattice_convolution(a, b, m, out_shape):
    """The linear convolution of the arrays a and b at every m-th entry
    from a.shape - 1 on, out_shape entries per axis.

    Each axis is transformed at the 7-smooth length next above the linear
    convolution's; the zero padding leaves the entries read back unchanged.
    """
    axes = tuple(range(a.ndim))
    shape = tuple(_smooth_len(i + j - 1) for i, j in zip(a.shape, b.shape))
    spec = np.fft.rfftn(a, shape, axes)
    spec *= np.fft.rfftn(b, shape, axes)
    conv = np.fft.irfftn(spec, shape, axes)
    return conv[tuple(slice(i - 1, i - 1 + m * k, m) for i, k in zip(a.shape, out_shape))]


def _term_fft(p, term, y, out_grid, m, q, wf_grid):
    """Fast path: discrete convolution on the shared lattice, whose kernel
    table covers every offset between a data node and an output point."""
    n = term.n
    si = term.grid.spacing
    offs = []
    for i in range(n):
        a_i = out_grid.shape[i]
        b_i = term.grid.shape[i]
        t_min = q[i] - (b_i - 1)
        length = (b_i - 1) + m * (a_i - 1) + 1
        offs.append(si * np.arange(t_min, t_min + length))
    table = kernel_deriv_eval(p, term.beta.components, np.ix_(*offs), y)
    return _lattice_convolution(wf_grid, table, m, out_grid.shape)


def _term_weighted(term):
    # the term's lattice and its samples times the trapezoid weights
    coords = term.grid.coords
    return coords, term.values_grid * trapezoid_weights(coords)


def _coarse_weighted(term):
    # every other sample, endpoint kept; exact halving when shapes are odd
    picks = [list(range(0, b - 1, 2)) + [b - 1] for b in term.grid.shape]
    coords = [c[idx] for c, idx in zip(term.grid.coords, picks)]
    return coords, term.values_grid[np.ix_(*picks)] * trapezoid_weights(coords)


def _check_dims(data, p):
    if data.params_hint.n != p.n:
        raise ValueError("data is %d-dimensional, params say n=%d"
                         % (data.params_hint.n, p.n))


def extend_point(data, p, pt):
    """The extension u(pt) = sum_beta int (d^beta K_{alpha,y})(x-eta) f_beta(eta) deta.

    Each term is integrated by the trapezoid rule over its own grid. The
    result is smooth in pt for y > 0; derivative orders are capped at 4
    by the multi-index type itself.

    Parameters
    ----------
    data : BoundaryData
    p : ModelParams
    pt : HalfSpacePoint

    Returns
    -------
    float
    """
    _check_dims(data, p)
    _check_point(p, pt)
    return float(_extend_points(data, p, np.array(pt.x)[:, None], pt.y)[0])


def _extend_points(data, p, points, y):
    # the extension at the (n, N) points, at height y or one height each
    total = np.zeros(points.shape[1])
    for term in data.terms:
        total += _term_dense(p, term.beta.components, y, points,
                             *_term_weighted(term))
    return total


def extend_grid(data, p, y, out_grid):
    """Evaluate the extension at height y on every point of a grid.

    Uses the FFT discrete-convolution path for terms whose lattice is
    commensurate with ``out_grid`` (integer spacing ratio, aligned
    origins) when the work is large enough to pay for it; other terms go
    through the Gaussian mixture or the direct sum (see the module notes),
    and the result notes name the path each incommensurate term took.

    Parameters
    ----------
    data : BoundaryData
    p : ModelParams
    y : float
        Height, > 0.
    out_grid : Grid
        Output lattice; singleton axes are fine.

    Returns
    -------
    ExtensionResult
    """
    _check_dims(data, p)
    if out_grid.n != p.n:
        raise ValueError("output grid is %d-dimensional, params say n=%d"
                         % (out_grid.n, p.n))
    y = _height(y)

    out_pts = grid_points(out_grid.coords)
    n_out = out_pts.shape[1]
    values = np.zeros(out_grid.shape)
    notes = []
    for i, term in enumerate(data.terms):
        if term.grid.spacing > 0.25 * y:
            notes.append("terms[%d]: spacing %.4g exceeds y/4 = %.4g, "
                         "kernel undersampled" % (i, term.grid.spacing,
                                                  0.25 * y))
        match = _lattice_match(out_grid, term.grid)
        work = n_out * term.values.size
        coords, wf = _term_weighted(term)
        if match is not None and work >= _FFT_MIN_WORK:
            values += _term_fft(p, term, y, out_grid, *match, wf)
            continue
        mixed = _term_mixture(p, term.beta.components, y, out_grid.coords, coords,
                              wf) if p.n > 1 and work >= _FFT_MIN_WORK else None
        if match is None and work >= _FFT_MIN_WORK:
            notes.append("terms[%d]: output grid incommensurate with data grid, %s "
                         "path" % (i, "direct" if mixed is None else "Gaussian-mixture"))
        values += mixed if mixed is not None else _term_dense(
            p, term.beta.components, y, out_pts, coords, wf).reshape(out_grid.shape)

    # Richardson-style estimate against the half-resolution data lattice,
    # on a sample of output points when the grid is large
    if n_out > _ESTIMATE_SAMPLES:
        flat_idx = np.unique(np.linspace(0, n_out - 1, _ESTIMATE_SAMPLES,
                                         dtype=int))
        notes.append("error estimate sampled at %d of %d output points"
                     % (flat_idx.size, n_out))
    else:
        flat_idx = np.arange(n_out)
    coarse = np.zeros(flat_idx.size)
    for term in data.terms:
        coarse += _term_dense(p, term.beta.components, y, out_pts[:, flat_idx],
                              *_coarse_weighted(term))
    fine = values.reshape(-1)[flat_idx]
    estimate = float(np.max(np.abs(fine - coarse))) / 3.0 if data.terms \
        else 0.0
    return ExtensionResult(at=out_grid, values=values,
                           quadrature_error_estimate=estimate,
                           notes=tuple(notes))


def _interp_term(term, axes):
    """Multilinear interpolation of the samples onto a target lattice.

    Zero outside the grid support, matching the compact-support reading
    of the data.
    """
    vals = term.values_grid.astype(float)
    n = term.n
    for axis in range(n):
        c0 = term.grid.origin[axis]
        h = term.grid.spacing
        b = term.grid.shape[axis]
        pos = (axes[axis] - c0) / h
        inside = (pos >= 0.0) & (pos <= b - 1)
        idx = np.clip(np.floor(pos).astype(int), 0, b - 2)
        frac = np.clip(pos - idx, 0.0, 1.0)
        lo = np.take(vals, idx, axis=axis)
        hi = np.take(vals, idx + 1, axis=axis)
        dims = [1] * n
        dims[axis] = pos.size
        frac = frac.reshape(dims)
        vals = (lo * (1.0 - frac) + hi * frac) * inside.reshape(dims)
    return vals


def boundary_convergence(data, p, y_list):
    """Weighted-L1 distance between the extension at height y and the data.

    For each y the quantity e(y) = int |u_y(x) - f(x)| / w_alpha(x) dx is
    measured by trapezoidal quadrature on an evaluation lattice covering
    every term's support plus a margin of 8 * max(y); the tail outside
    that window is bounded analytically (kernel tail mass times the
    weight supremum times the data mass) and added, so each e(y) is an
    upper bound. For continuous data of finite weighted mass, e(y) -> 0
    as y -> 0.

    Function-type data only (every term must carry beta = 0); derivative
    terms converge only distributionally and are rejected. For the
    measurement to mean anything at the smallest y the data spacing
    should not exceed y/4.

    Parameters
    ----------
    data : BoundaryData
    p : ModelParams
    y_list : sequence of float
        Strictly decreasing positive heights.

    Returns
    -------
    list of float
    """
    _check_dims(data, p)
    for i, term in enumerate(data.terms):
        if term.beta.order != 0:
            raise ValueError("terms[%d] carries derivative order %d; "
                             "boundary convergence needs beta = 0"
                             % (i, term.beta.order))
    ys = [_height(v, "y_list entry") for v in y_list]
    if not ys:
        return []
    if any(b >= a for a, b in zip(ys, ys[1:])):
        raise ValueError("heights must be strictly decreasing")
    if not data.terms:
        return [0.0 for _ in ys]

    margin = 8.0 * ys[0]
    spacing = min(t.grid.spacing for t in data.terms)
    lo = []
    shape = []
    for axis in range(p.n):
        a = min(t.grid.origin[axis] for t in data.terms)
        b = max(t.grid.origin[axis]
                + t.grid.spacing * (t.grid.shape[axis] - 1)
                for t in data.terms)
        # snap the window onto the data lattice so the FFT path engages
        k_lo = math.ceil(margin / spacing)
        lo.append(a - k_lo * spacing)
        shape.append(int(math.ceil((b + margin - lo[-1]) / spacing)) + 1)
    eval_grid = Grid(origin=tuple(lo), spacing=spacing, shape=tuple(shape))
    axes = eval_grid.coords

    f_vals = np.zeros(eval_grid.shape)
    for term in data.terms:
        f_vals += _interp_term(term, axes)
    w_inv = (1.0 + radius_sq(axes)) ** (-0.5 * p.mu)
    trap = trapezoid_weights(axes)

    # analytic tail pieces: sup of w^-1 outside the window, total data mass
    d_min = math.inf
    for axis in range(p.n):
        hi = lo[axis] + spacing * (shape[axis] - 1)
        if lo[axis] <= 0.0 <= hi:
            d_min = min(d_min, min(-lo[axis], hi))
        else:
            d_min = 0.0
    w_sup = (1.0 + d_min * d_min) ** (-0.5 * p.mu)
    mass = sum(float(np.sum(np.abs(t.values_grid)
                            * trapezoid_weights(t.grid.coords)))
               for t in data.terms)

    out = []
    for y in ys:
        u = extend_grid(data, p, y, eval_grid).values
        err = float(np.sum(np.abs(u - f_vals) * w_inv * trap))
        tail = float(_cone_mass(p, math.atan2(y, margin))) * w_sup * mass
        out.append(err + tail)
    return out


_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((-1.0, -0.5), (1.0, 0.5)),
    2: ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)),
}


def derivative_commutation_check(data, p, beta, pt, h):
    """Compare d^beta u against the extension of d^beta f.

    The first entry is a central finite difference (step h) of
    extend_point in the x variables; the second moves the multi-index
    onto the data terms, which the extension then applies to the kernel.
    The two agree up to O(h^2) plus quadrature error.

    Parameters
    ----------
    data : BoundaryData
        Function-type data (all terms beta = 0).
    p : ModelParams
    beta : MultiIndex
        Total order at most 2.
    pt : HalfSpacePoint
    h : float
        Finite-difference step, > 0.

    Returns
    -------
    (float, float)
    """
    if not isinstance(beta, MultiIndex):
        beta = MultiIndex(tuple(beta))
    if beta.order > 2:
        raise ValueError("finite-difference side supports order <= 2, "
                         "got %d" % beta.order)
    if len(beta.components) != p.n:
        raise ValueError("multi-index has length %d, expected %d"
                         % (len(beta.components), p.n))
    for i, term in enumerate(data.terms):
        if term.beta.order != 0:
            raise ValueError("terms[%d] already carries derivatives" % i)
    h = _height(h, "h")

    # tensor product of per-axis central stencils
    combos = [((), 1.0)]
    for axis, order in enumerate(beta.components):
        scale = h ** -order if order else 1.0
        combos = [(offs + (mult * h,), coef * w * scale)
                  for offs, coef in combos
                  for mult, w in _STENCILS[order]]
    fd = 0.0
    for offs, coef in combos:
        shifted = pt.__class__(x=tuple(xi + oi for xi, oi in
                                       zip(pt.x, offs)), y=pt.y)
        fd += coef * extend_point(data, p, shifted)

    promoted = BoundaryData(
        params_hint=data.params_hint,
        terms=tuple(WeightedTerm(beta=beta, grid=t.grid, values=t.values)
                    for t in data.terms))
    exact = extend_point(promoted, p, pt)
    return fd, exact
