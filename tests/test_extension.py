import math

import numpy as np
import pytest

import gasp
from gasp import extension
from gasp.boundary_data import (
    BoundaryData,
    Grid,
    SubcriticalCase,
    WeightedTerm,
    sharpness_data,
)
from gasp.extension import (
    boundary_convergence,
    derivative_commutation_check,
    extend_grid,
    extend_point,
)
from gasp.boundary_data import grid_points
from gasp.kernel import (
    HalfSpacePoint,
    ModelParams,
    MultiIndex,
    _kernel_mixture,
    dalpha_residual,
    poisson_kernel,
)


def tent_data(alpha, n, m):
    """Radial tent max(0, 1 - |x|) sampled on [-1, 1]^n."""
    g = Grid(origin=(-1.0,) * n, spacing=2.0 / (m - 1), shape=(m,) * n)
    r2 = np.zeros(g.shape)
    for i in range(n):
        dims = [1] * n
        dims[i] = g.shape[i]
        a = g.axis_coords(i)
        r2 = r2 + (a * a).reshape(dims)
    vals = np.maximum(0.0, 1.0 - np.sqrt(r2))
    p = ModelParams(alpha, n)
    data = BoundaryData(p, (WeightedTerm(MultiIndex((0,) * n), g,
                                         vals.reshape(-1)),))
    return data, p


def tent_poisson_exact(x, y):
    # alpha = 0, n = 1: the classical Poisson integral of the tent has an
    # arctan/log antiderivative on each linear piece
    def piece(a, b, lo, hi):
        def anti(t):
            return (a + b * x) * math.atan(t / y) \
                + 0.5 * b * y * math.log(t * t + y * y)
        return anti(hi - x) - anti(lo - x)

    return (piece(1.0, 1.0, -1.0, 0.0) + piece(1.0, -1.0, 0.0, 1.0)) / math.pi


# ---------------------------------------------------------------------------
# extend_point


def test_empty_data_extends_to_zero():
    p = ModelParams(0.5, 1)
    data = BoundaryData(p, ())
    assert extend_point(data, p, HalfSpacePoint((0.3,), 1.0)) == 0.0


def test_point_matches_closed_form_poisson():
    data, p = tent_data(0.0, 1, 513)
    for x in (-2.0, -0.5, 0.0, 0.7, 1.5, 4.0):
        got = extend_point(data, p, HalfSpacePoint((x,), 1.0))
        assert got == pytest.approx(tent_poisson_exact(x, 1.0), abs=5e-7)


def test_point_far_field_is_mass_times_kernel():
    # u(0, y) ~ (int f) K_{alpha,y}(0) for y much larger than the support
    for alpha, n, tol in [(0.0, 1, 5e-4), (2.0, 2, 1e-3)]:
        data, p = tent_data(alpha, n, 129)
        y = 50.0
        u = extend_point(data, p, HalfSpacePoint((0.0,) * n, y))
        t = data.terms[0]
        w = np.ones(t.grid.shape)
        for i in range(n):
            dims = [1] * n
            dims[i] = t.grid.shape[i]
            aw = np.full(t.grid.shape[i], t.grid.spacing)
            aw[0] *= 0.5
            aw[-1] *= 0.5
            w = w * aw.reshape(dims)
        mass = float(np.sum(t.values_grid * w))
        k0 = poisson_kernel(p, HalfSpacePoint((0.0,) * n, y))
        assert u / (mass * k0) == pytest.approx(1.0, abs=tol)


def test_sharpness_bump_lower_bound():
    # u(a_k e1, rho_k) >= f_k * u~(0, 1) with
    # u~(0, 1) = int K_{alpha,1}(eta) max(0, 1 - |eta|) deta, which for
    # alpha = 0, n = 1 is (pi/2 - ln 2)/pi
    p = ModelParams(0.0, 1)
    data, points = sharpness_data(p, SubcriticalCase(0.0, 0.0), 3)
    u_tilde = (math.pi / 2 - math.log(2.0)) / math.pi
    for k in (1, 2):
        single = BoundaryData(p, (data.terms[k],))
        u = extend_point(single, p, points[k])
        f_k = data.terms[k].values.max()
        assert u >= f_k * u_tilde * (1.0 - 1e-3)
        # scaling maps the bump to the unit tent, so this is near equality
        assert u / (f_k * u_tilde) == pytest.approx(1.0, abs=5e-3)


def test_point_dimension_validation():
    data, p = tent_data(0.0, 1, 65)
    with pytest.raises(ValueError):
        extend_point(data, ModelParams(0.0, 2), HalfSpacePoint((0.0, 0.0), 1.0))
    with pytest.raises(ValueError):
        extend_point(data, p, HalfSpacePoint((0.0, 0.0), 1.0))


# ---------------------------------------------------------------------------
# extend_grid


def test_single_point_grid_equals_extend_point():
    cases = [(tent_data(1.0, 1, 129), (0.7,), 0.8)]
    for beta in ((0, 0), (1, 1)):
        cases.append((skewed_data(2.0, beta, (-1.0, -0.8), (41, 33)),
                      (0.37, -0.52), 0.6))
    for (data, p), x, y in cases:
        out = Grid(origin=x, spacing=1.0, shape=(1,) * len(x))
        res = extend_grid(data, p, y, out)
        want = extend_point(data, p, HalfSpacePoint(x, y))
        assert res.values.shape == (1,) * len(x)
        assert res.values.reshape(-1)[0] == want


def test_fast_path_agrees_with_direct():
    # out lattice commensurate with the data lattice engages the FFT path;
    # extend_point always takes the direct path
    data, p = tent_data(0.0, 1, 513)
    out = Grid(origin=(-3.0,), spacing=2.0 / 512, shape=(1537,))
    res = extend_grid(data, p, 1.0, out)
    assert not any("incommensurate" in s for s in res.notes)
    xs = out.axis_coords(0)
    for j in (0, 511, 768, 1536):
        direct = extend_point(data, p, HalfSpacePoint((float(xs[j]),), 1.0))
        assert res.values[j] == pytest.approx(direct, abs=1e-10)


def test_grid_matches_closed_form_and_estimate_tracks_error():
    data, p = tent_data(0.0, 1, 513)
    out = Grid(origin=(-3.0,), spacing=2.0 / 512, shape=(1537,))
    res = extend_grid(data, p, 1.0, out)
    xs = out.axis_coords(0)
    exact = np.array([tent_poisson_exact(float(x), 1.0) for x in xs])
    err = float(np.max(np.abs(res.values - exact)))
    assert err < 1e-6
    est = res.quadrature_error_estimate
    assert math.isfinite(est) and est > 0.0
    assert err < 30.0 * est


def test_incommensurate_grid_flagged():
    data, p = tent_data(0.0, 1, 513)
    out = Grid(origin=(-3.0,), spacing=0.013, shape=(463,))
    res = extend_grid(data, p, 1.0, out)
    assert any("incommensurate" in s for s in res.notes)


def test_undersampled_kernel_flagged():
    data, p = tent_data(0.0, 1, 65)
    out = Grid(origin=(-2.0,), spacing=0.5, shape=(9,))
    res = extend_grid(data, p, 0.01, out)
    assert any("undersampled" in s for s in res.notes)


def test_linearity():
    _, p = tent_data(0.0, 1, 129)
    g = Grid(origin=(-1.0,), spacing=2.0 / 128, shape=(129,))
    x = g.axis_coords(0)
    f1 = np.maximum(0.0, 1.0 - np.abs(x))
    f2 = np.cos(2.0 * x) ** 2
    mk = lambda v: BoundaryData(p, (WeightedTerm(MultiIndex((0,)), g, v),))
    out = Grid(origin=(-2.0,), spacing=0.25, shape=(17,))
    a = extend_grid(mk(f1), p, 0.7, out).values
    b = extend_grid(mk(f2), p, 0.7, out).values
    ab = extend_grid(mk(f1 + f2), p, 0.7, out).values
    assert np.max(np.abs(ab - (a + b))) < 1e-12


def test_positivity_and_max_principle():
    data, p = tent_data(2.0, 1, 129)
    out = Grid(origin=(-5.0,), spacing=1.0 / 64, shape=(641,))
    res = extend_grid(data, p, 0.5, out)
    assert np.all(res.values >= 0.0)
    assert res.values.max() <= 1.0 + 1e-4


def test_mass_transport():
    # int u_y dx = int f dx; the tent has unit mass (f_k rho = 1)
    data, p = tent_data(2.0, 1, 129)
    out = Grid(origin=(-5.0,), spacing=1.0 / 64, shape=(641,))
    for y, tol in ((0.5, 1e-3), (0.125, 1e-4)):
        res = extend_grid(data, p, y, out)
        mass = float(np.trapezoid(res.values, dx=1.0 / 64))
        assert mass == pytest.approx(1.0, abs=tol)


def test_extension_solves_the_pde():
    data, p = tent_data(1.0, 1, 513)
    u = lambda pt: extend_point(data, p, pt)
    for pt in (HalfSpacePoint((0.3,), 0.8), HalfSpacePoint((-1.5,), 0.5)):
        assert abs(dalpha_residual(u, p, pt)) < 5e-4


def test_grid_validation():
    data, p = tent_data(0.0, 1, 65)
    out = Grid(origin=(0.0,), spacing=0.5, shape=(3,))
    with pytest.raises(ValueError):
        extend_grid(data, p, 0.0, out)
    with pytest.raises(ValueError):
        extend_grid(data, p, 1.0, Grid(origin=(0.0, 0.0), spacing=0.5,
                                       shape=(3, 3)))


# ---------------------------------------------------------------------------
# the direct path, against NumPy sums of the closed-form kernel


def closed_form_terms(alpha, beta, x, y):
    """(d/dx)^beta K_{alpha,y} at the rows of x, for |beta| <= 2 with at
    most one repeated axis, written out by hand."""
    n = x.shape[-1]
    s0 = 0.5 * (alpha + n + 1.0)
    c = math.gamma(s0) / (math.gamma(0.5 * (alpha + 1.0)) * math.pi ** (0.5 * n))
    big_s = y * y + np.sum(x * x, axis=-1)
    pre = c * y ** (alpha + 1.0)
    axes = [i for i, b in enumerate(beta) for _ in range(b)]
    if not axes:
        return pre * big_s ** -s0
    if len(axes) == 1:
        return -2.0 * s0 * x[..., axes[0]] * pre * big_s ** (-s0 - 1.0)
    i, j = axes
    mixed = 4.0 * s0 * (s0 + 1.0) * x[..., i] * x[..., j] \
        * pre * big_s ** (-s0 - 2.0)
    if i != j:
        return mixed
    return mixed - 2.0 * s0 * pre * big_s ** (-s0 - 1.0)


def reference_sum(term, alpha, y, pts):
    """The trapezoid sum of one term at the rows of pts, and the sum of
    the magnitudes of its summands (the scale its rounding is measured in)."""
    g = term.grid
    weights = np.array(1.0)
    for b in g.shape:
        w = np.full(b, g.spacing)
        w[[0, -1]] *= 0.5
        weights = np.multiply.outer(weights, w)
    wf = (term.values_grid * weights).reshape(-1)
    nodes = grid_rows(g)
    value = np.empty(len(pts))
    scale = np.empty(len(pts))
    for s in range(0, len(pts), 64):
        t = closed_form_terms(alpha, term.beta.components,
                              pts[s:s + 64, None, :] - nodes, y) * wf
        value[s:s + 64] = t.sum(axis=1)
        scale[s:s + 64] = np.abs(t).sum(axis=1)
    return value, scale


def grid_rows(grid):
    return np.stack([m.ravel() for m in np.meshgrid(*grid.coords,
                                                     indexing="ij")], axis=-1)


def skewed_data(alpha, beta, origin, shape):
    """A smooth bump with no symmetry between axes, on a lattice of
    spacing 0.05 (n = 2) or 0.25 (n = 3) whose axes differ in length."""
    n = len(shape)
    g = Grid(origin=origin, spacing=0.05 if n == 2 else 0.25, shape=shape)
    xs = np.ix_(*g.coords)
    r2 = sum((k + 1) * (x - 0.1 * k) ** 2 for k, x in enumerate(xs))
    vals = np.exp(-r2) * (1.2 + xs[0] - 0.4 * xs[-1])
    p = ModelParams(alpha, n)
    return BoundaryData(p, (WeightedTerm(MultiIndex(beta), g,
                                         vals.reshape(-1)),)), p


@pytest.mark.parametrize("beta", [(0, 0), (1, 0), (0, 2), (1, 1)])
def test_direct_path_matches_closed_form_sum_n2(beta):
    data, p = skewed_data(2.0, beta, (-1.0, -0.8), (41, 33))
    out = Grid(origin=(-2.01, -1.97), spacing=0.1003, shape=(23, 21))
    res = extend_grid(data, p, 0.5, out)
    assert any("incommensurate" in s and "Gaussian-mixture path" in s
               for s in res.notes)
    want, scale = reference_sum(data.terms[0], 2.0, 0.5, grid_rows(out))
    assert np.all(np.abs(res.values.reshape(-1) - want) <= 1e-12 * scale)


@pytest.mark.parametrize("beta", [(0, 0), (1, 0), (0, 2), (1, 1)])
def test_dense_path_matches_closed_form_sum_n2(beta):
    # the same points, scattered: 483 points in blocks of 24, several
    # blocks and a short last one
    data, p = skewed_data(2.0, beta, (-1.0, -0.8), (41, 33))
    out = Grid(origin=(-2.01, -1.97), spacing=0.1003, shape=(23, 21))
    got = extension._extend_points(data, p, grid_points(out.coords), 0.5)
    want, scale = reference_sum(data.terms[0], 2.0, 0.5, grid_rows(out))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("beta", [(1, 0), (0, 2), (1, 1)])
def test_direct_path_matches_fft_path_n2(beta):
    data, p = skewed_data(2.0, beta, (-1.0, -0.8), (41, 33))
    # on the data lattice, so extend_grid convolves by FFT
    out = Grid(origin=(-1.5, -1.3), spacing=0.05, shape=(31, 29))
    res = extend_grid(data, p, 0.5, out)
    assert not any("incommensurate" in s for s in res.notes)
    term = data.terms[0]
    direct = extension._term_dense(p, beta, 0.5, extension.grid_points(
        out.coords), *extension._term_weighted(term))
    _, scale = reference_sum(term, 2.0, 0.5, grid_rows(out))
    assert np.all(np.abs(res.values.reshape(-1) - direct) <= 1e-12 * scale)


@pytest.mark.parametrize("beta", [(0, 0, 0), (1, 0, 1)])
def test_direct_path_matches_closed_form_sum_n3(beta):
    data, p = skewed_data(1.0, beta, (-1.0, -0.75, -1.25), (9, 7, 11))
    out = Grid(origin=(-1.13, -0.91, -1.07), spacing=0.37, shape=(5, 4, 3))
    res = extend_grid(data, p, 0.7, out)
    want, scale = reference_sum(data.terms[0], 1.0, 0.7, grid_rows(out))
    assert np.all(np.abs(res.values.reshape(-1) - want) <= 1e-12 * scale)


@pytest.mark.parametrize("beta", [(0, 0, 0), (1, 0, 1)])
def test_dense_path_matches_closed_form_sum_n3(beta):
    data, p = skewed_data(1.0, beta, (-1.0, -0.75, -1.25), (9, 7, 11))
    out = Grid(origin=(-1.13, -0.91, -1.07), spacing=0.37, shape=(5, 4, 3))
    got = extension._extend_points(data, p, grid_points(out.coords), 0.7)
    want, scale = reference_sum(data.terms[0], 1.0, 0.7, grid_rows(out))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("alpha", [-0.999, -0.5, 0.0, 2.0, 50.0])
def test_mixture_path_matches_closed_form_sum_across_the_envelope(alpha):
    # where the clipped Gaussian factors could cost accuracy (large alpha
    # at small y) the grid takes the direct path instead; either way the
    # grid is within 1e-12 of the magnitudes' sum
    paths = []
    for y in (0.05, 0.5, 10.0):
        for beta in ((0, 0), (1, 1), (0, 2)):
            data, p = skewed_data(alpha, beta, (-1.0, -0.8), (41, 33))
            out = Grid(origin=(-2.01, -1.97), spacing=0.1003, shape=(23, 21))
            res = extend_grid(data, p, y, out)
            paths += [s.rsplit(", ", 1)[1] for s in res.notes
                      if "incommensurate" in s]
            want, scale = reference_sum(data.terms[0], alpha, y, grid_rows(out))
            assert np.all(np.abs(res.values.reshape(-1) - want) <= 1e-12 * scale), \
                (y, beta)
    assert len(paths) == 9
    assert paths.count("Gaussian-mixture path") >= (6 if alpha == 50.0 else 9)


def test_direct_path_with_a_short_last_block():
    data, p = tent_data(0.0, 1, 385)
    out = Grid(origin=(-4.01,), spacing=0.0173, shape=(401,))
    per_block = extension._DENSE_BLOCK // data.terms[0].values.size
    assert 1 < per_block < 401 and 401 % per_block
    res = extend_grid(data, p, 0.5, out)
    want, scale = reference_sum(data.terms[0], 0.0, 0.5, grid_rows(out))
    assert np.all(np.abs(res.values - want) <= 1e-12 * scale)


def test_direct_path_blocks_stay_cache_sized(monkeypatch):
    # every kernel block of the direct path fits a share of L2, and each
    # axis enters as its own offsets, never as a full-lattice copy
    calls = []
    evaluate = extension.kernel_deriv_eval

    def spy(p, components, diffs, y):
        kv = evaluate(p, components, diffs, y)
        calls.append(([np.shape(d) for d in diffs], np.shape(kv)))
        return kv

    monkeypatch.setattr(extension, "kernel_deriv_eval", spy)
    data, p = tent_data(2.0, 2, 81)
    term = data.terms[0]
    scattered = np.random.default_rng(3).uniform(-3.0, 1.0, size=(2, 1681))
    extension._extend_points(data, p, scattered, 0.5)
    extend_point(data, p, HalfSpacePoint((0.3, -0.2), 0.5))
    assert extension._DENSE_BLOCK * 8 <= 1 << 20  # a quarter of a 4 MiB L2
    assert len(calls) > 2
    for shapes, kv_shape in calls:
        assert math.prod(kv_shape) <= max(extension._DENSE_BLOCK,
                                          term.values.size)
        for i, shape in enumerate(shapes):
            assert shape[0] == kv_shape[0]
            assert math.prod(shape) <= kv_shape[0] * term.grid.shape[i]


def test_mixture_path_stays_within_its_memory_block(monkeypatch):
    # a 401 x 401 grid over 161 x 161 nodes: the Gaussian factors and the
    # intermediates go in chunks of nodes, so no array holds all nodes'
    # (401, 161) factors at once
    sizes = []
    for name in ("exp", "matmul"):
        def spy(*args, _f=getattr(np, name), **kwargs):
            result = _f(*args, **kwargs)
            sizes.extend(np.size(a) for a in args + (result,))
            return result
        monkeypatch.setattr(np, name, spy)
    data, p = tent_data(2.0, 2, 161)
    out = Grid((-4.01, -4.01), 0.02003, (401, 401))
    res = extend_grid(data, p, 0.5, out)
    assert any("Gaussian-mixture path" in s for s in res.notes)
    assert max(sizes) <= max(extension._MIX_BLOCK, 401 * 401)
    nodes = _kernel_mixture(p, (0, 0), 0.5, 0.25 + 2 * (4.01 + 1.0) ** 2)[0]
    assert nodes.size > 100 and len(sizes) > 3 * nodes.size


def test_line_grids_take_the_cheaper_path():
    # a row across square data: per node, factors of 1 x 81 and 41 x 81
    # beat 41 x 6561 kernel values
    data, p = tent_data(2.0, 2, 81)
    out = Grid((-1.51, 0.013), 0.0497, (1, 41))
    res = extend_grid(data, p, 0.5, out)
    assert any("Gaussian-mixture path" in s for s in res.notes)
    want, scale = reference_sum(data.terms[0], 2.0, 0.5, grid_rows(out))
    assert np.all(np.abs(res.values.reshape(-1) - want) <= 1e-12 * scale)
    # a column along a thin strip: every node would pay 101 x 301 factor
    # entries for 903 data nodes per point, so the direct path stays
    g = Grid((-7.5, -0.05), 0.05, (301, 3))
    strip = BoundaryData(p, (WeightedTerm(MultiIndex((0, 0)), g,
                                          np.ones(g.shape).reshape(-1)),))
    out = Grid((-5.01, 0.013), 0.0997, (101, 1))
    res = extend_grid(strip, p, 0.5, out)
    assert any("direct path" in s for s in res.notes)
    direct = extension._term_dense(p, (0, 0), 0.5, grid_points(out.coords),
                                   *extension._term_weighted(strip.terms[0]))
    assert np.array_equal(res.values.reshape(-1), direct)


def seven_smooth(k):
    for f in (2, 3, 5, 7):
        while k % f == 0:
            k //= f
    return k == 1


def test_smooth_len_is_the_least_7_smooth_length():
    smooth = [k for k in range(1, 5200) if seven_smooth(k)]
    for size in range(1, 5001):
        assert extension._smooth_len(size) == next(k for k in smooth
                                                   if k >= size), size


# the benchmark's FFT-path sizes: linear convolutions of prime length 353
# (81 x 81 nodes, 97 x 97 points at twice the spacing) and 1793 = 11 * 163
# (385 nodes, 513 points). A transform spreads its rounding over every
# output, so far from the data the gap is measured against the largest
# sum of |summands|, not the point's own (1e-5 of it at the corners).
@pytest.mark.parametrize("beta", [(0, 0), (1, 0), (0, 2), (1, 1)])
def test_fft_path_matches_direct_path_at_prime_length_n2(beta):
    data, p = skewed_data(2.0, beta, (-2.0, -1.9), (81, 81))
    out = Grid(origin=(-4.0, -3.9), spacing=0.1, shape=(97, 97))
    res = extend_grid(data, p, 0.5, out)
    assert not any("incommensurate" in s for s in res.notes)
    pts = grid_rows(out)[::7]
    term = data.terms[0]
    direct = extension._term_dense(p, beta, 0.5, pts.T,
                                   *extension._term_weighted(term))
    _, scale = reference_sum(term, 2.0, 0.5, pts)
    assert np.max(np.abs(res.values.reshape(-1)[::7] - direct)) \
        <= 1e-12 * np.max(scale)


def test_fft_path_matches_direct_path_at_composite_length_n1():
    data, p = tent_data(0.0, 1, 385)
    out = Grid(origin=(-4.0,), spacing=2.0 / 384 * 2, shape=(513,))
    res = extend_grid(data, p, 0.25, out)
    assert not any("incommensurate" in s for s in res.notes)
    term = data.terms[0]
    pts = grid_rows(out)
    direct = extension._term_dense(p, (0,), 0.25, pts.T,
                                   *extension._term_weighted(term))
    _, scale = reference_sum(term, 0.0, 0.25, pts)
    assert np.max(np.abs(res.values - direct)) <= 1e-12 * np.max(scale)


def test_fft_path_transforms_at_7_smooth_lengths(monkeypatch):
    lengths = []
    for name in ("rfftn", "irfftn"):
        def spy(a, s, axes, _fft=getattr(np.fft, name)):
            lengths.extend(s)
            return _fft(a, s, axes)
        monkeypatch.setattr(np.fft, name, spy)
    data, p = tent_data(2.0, 2, 81)
    extend_grid(data, p, 0.5, Grid((-3.0, -3.0), 0.05, (97, 97)))
    data, p = tent_data(0.0, 1, 385)
    extend_grid(data, p, 0.5, Grid((-4.0,), 2.0 / 192, (513,)))
    assert len(lengths) == 3 * (2 + 1)
    assert min(lengths) >= 353 and all(seven_smooth(k) for k in lengths)


@pytest.mark.parametrize("height", [None, True, 0.0, -1.0, math.inf, "1"])
@pytest.mark.parametrize("call", [
    lambda d, p, h: gasp.kernel_profile(p, 1.0, h),
    lambda d, p, h: gasp.kernel_mass(p, h),
    lambda d, p, h: extend_grid(d, p, h, d.terms[0].grid),
    lambda d, p, h: boundary_convergence(d, p, [2.0, h]),
    lambda d, p, h: derivative_commutation_check(d, p, (1,), HalfSpacePoint((0.0,), 1.0),
                                                 h),
    lambda d, p, h: gasp.ft_closed_form(p, h, 1.0),
    lambda d, p, h: gasp.ft_direct(p, h, (1.0,)),
    lambda d, p, h: gasp.boundary_kernel_cdf(p, h),
    lambda d, p, h: gasp.far_field_integral(p, d, h),
], ids=lambda _: "")
def test_every_bare_height_goes_through_the_height_rule(call, height):
    data, p = tent_data(0.0, 1, 17)
    with pytest.raises(ValueError, match="must be a finite real > 0"):
        call(data, p, height)


# ---------------------------------------------------------------------------
# boundary convergence


def test_convergence_tent_n1():
    data, p = tent_data(0.0, 1, 513)
    e = boundary_convergence(data, p, [1.0, 0.25, 1.0 / 16, 1.0 / 64])
    assert all(v > 0.0 for v in e)
    for a, b in zip(e, e[1:]):
        assert b <= 1.05 * a
    assert e[-1] < e[0] / 4.0


def test_convergence_tent_n2():
    data, p = tent_data(2.0, 2, 129)
    e = boundary_convergence(data, p, [1.0, 0.25, 1.0 / 16])
    for a, b in zip(e, e[1:]):
        assert b <= 1.05 * a
    assert e[-1] < e[0] / 4.0


def test_convergence_zero_data():
    p = ModelParams(0.0, 1)
    assert boundary_convergence(BoundaryData(p, ()), p, [1.0, 0.5]) \
        == [0.0, 0.0]


def test_convergence_validation():
    data, p = tent_data(0.0, 1, 65)
    with pytest.raises(ValueError):
        boundary_convergence(data, p, [0.25, 1.0])  # increasing
    with pytest.raises(ValueError):
        boundary_convergence(data, p, [1.0, -0.5])
    deriv = BoundaryData(p, (WeightedTerm(MultiIndex((1,)),
                                          data.terms[0].grid,
                                          data.terms[0].values),))
    with pytest.raises(ValueError):
        boundary_convergence(deriv, p, [1.0, 0.5])


# ---------------------------------------------------------------------------
# derivative commutation


def test_commutation_zero_order_identical():
    data, p = tent_data(1.0, 1, 129)
    fd, exact = derivative_commutation_check(
        data, p, MultiIndex((0,)), HalfSpacePoint((0.3,), 1.0), 1e-3)
    assert fd == exact


def test_commutation_first_order():
    data, p = tent_data(1.0, 1, 513)
    fd, exact = derivative_commutation_check(
        data, p, MultiIndex((1,)), HalfSpacePoint((0.3,), 1.0), 1e-3)
    assert abs(fd - exact) < 1e-4


def test_commutation_second_order():
    data, p = tent_data(1.0, 1, 513)
    fd, exact = derivative_commutation_check(
        data, p, MultiIndex((2,)), HalfSpacePoint((0.3,), 1.0), 1e-3)
    assert abs(fd - exact) < 1e-3


def test_commutation_mixed_n2():
    data, p = tent_data(0.0, 2, 65)
    fd, exact = derivative_commutation_check(
        data, p, MultiIndex((1, 1)), HalfSpacePoint((0.2, -0.1), 1.0), 1e-3)
    assert abs(fd - exact) < 1e-3


def test_commutation_validation():
    data, p = tent_data(1.0, 1, 65)
    pt = HalfSpacePoint((0.0,), 1.0)
    with pytest.raises(ValueError):
        derivative_commutation_check(data, p, MultiIndex((3,)), pt, 1e-3)
    with pytest.raises(ValueError):
        derivative_commutation_check(data, p, MultiIndex((1,)), pt, 0.0)
    deriv = BoundaryData(p, (WeightedTerm(MultiIndex((1,)),
                                          data.terms[0].grid,
                                          data.terms[0].values),))
    with pytest.raises(ValueError):
        derivative_commutation_check(deriv, p, MultiIndex((1,)), pt, 1e-3)
