import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasp.kernel import (
    HalfSpacePoint,
    ModelParams,
    MultiIndex,
    _POLE_GAP,
    _cone_mass,
    _derivative_terms,
    _kernel_mixture,
    _mass_with_error,
    _pole_series,
    dalpha_residual,
    kernel_deriv_eval,
    kernel_derivative,
    kernel_mass,
    kernel_profile,
    poisson_kernel,
    unit_sphere_area,
)
from gasp.special_functions import EvalAccuracy, _lgamma_ratio, gamma_fn
from de_oracle import tanh_sinh


# ---------------------------------------------------------------------------
# parameter and point types


def test_model_params_constants():
    p = ModelParams(0.0, 1)
    assert p.c_norm == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert p.nu == 0.5
    assert p.mu == 2.0
    p = ModelParams(3.0, 2)
    assert p.nu == 2.0
    assert p.mu == 6.0
    # Gamma((3+2+1)/2) / (Gamma(2) pi) = Gamma(3)/pi = 2/pi
    assert p.c_norm == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_model_params_c_norm_past_gamma_overflow():
    # Gamma((alpha+n+1)/2) overflows doubles from alpha of about 342 - n;
    # the quotient is mpmath at 40 digits
    for n, want in ((1, 7.9838339400288955), (2, 63.82113217985003),
                    (3, 510.80798782493744)):
        assert ModelParams(400.0, n).c_norm == pytest.approx(want, rel=1e-14)
    # where both routes are finite they agree
    for alpha in (20.0, 150.5, 279.0):
        for n in (1, 2, 3):
            s = 0.5 * (alpha + 1.0)
            quotient = gamma_fn(s + 0.5 * n) / gamma_fn(s)
            assert math.exp(_lgamma_ratio(s, 0.5 * n)) == pytest.approx(
                quotient, rel=1e-14)


def test_model_params_c_norm_where_gamma_nears_overflow():
    # alpha = 283.5 - n: Gamma((alpha+n+1)/2) = Gamma(142.25) is finite, and
    # c_norm too; mpmath at 20 digits
    want = (6.7112531760195426995, 44.961271423460432355, 300.67834652127084002,
            2007.2043108245994829, 13375.317413711473981, 88968.63186987227159,
            590727.53720374196062, 3915184.0204219794134)
    for n, c in enumerate(want, start=1):
        assert ModelParams(283.5 - n, n).c_norm == pytest.approx(c, rel=1e-14)


def test_model_params_c_norm_at_large_n():
    # Gamma((alpha+n+1)/2) overflows while (alpha+1)/2 is below 10, and
    # c_norm is near 1e230 or beyond: the log route carries log c of up to
    # 630, so about 630 eps of relative error; mpmath at 40 digits
    for alpha, n, want in ((0.0, 400, 1.1682955790072692809e+274),
                           (10.0, 340, 4.9519425026890314891e+230),
                           (9.0, 334, 4.8925821170838294771e+224),
                           (8.0, 335, 5.6954779678493380248e+224)):
        assert ModelParams(alpha, n).c_norm == pytest.approx(want, rel=4e-13)


def test_model_params_domain():
    with pytest.raises(ValueError):
        ModelParams(-1.0, 1)
    with pytest.raises(ValueError):
        ModelParams(-1.5, 2)
    with pytest.raises(ValueError):
        ModelParams(0.0, 0)


def test_half_space_point_domain():
    with pytest.raises(ValueError):
        HalfSpacePoint((0.0,), 0.0)
    with pytest.raises(ValueError):
        HalfSpacePoint((0.0,), -1.0)
    with pytest.raises(ValueError):
        HalfSpacePoint((math.inf,), 1.0)


def test_multi_index_order_cap():
    assert MultiIndex((2, 2)).order == 4
    with pytest.raises(ValueError):
        MultiIndex((3, 2))
    with pytest.raises(ValueError):
        MultiIndex((-1, 0))


def test_unit_sphere_area():
    assert unit_sphere_area(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# pointwise kernel values


def test_poisson_kernel_classical_values():
    assert poisson_kernel(ModelParams(0.0, 1), HalfSpacePoint((0.0,), 1.0)) \
        == pytest.approx(1.0 / math.pi, rel=1e-13)
    assert poisson_kernel(ModelParams(0.0, 2),
                          HalfSpacePoint((0.0, 0.0), 1.0)) \
        == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)
    # alpha = n - 1 is the hyperbolic-space kernel
    assert poisson_kernel(ModelParams(1.0, 2),
                          HalfSpacePoint((0.0, 0.0), 1.0)) \
        == pytest.approx(1.0 / math.pi, rel=1e-13)


def test_poisson_kernel_classical_profile():
    # alpha = 0, n = 1: K(x, y) = y / (pi (x^2 + y^2))
    for x, y in ((0.5, 1.0), (2.0, 0.25), (-3.0, 4.0)):
        want = y / (math.pi * (x * x + y * y))
        got = poisson_kernel(ModelParams(0.0, 1), HalfSpacePoint((x,), y))
        assert got == pytest.approx(want, rel=1e-14)


def test_kernel_profile_matches_pointwise():
    p = ModelParams(1.7, 3)
    r = np.array([0.0, 0.3, 2.0, 11.0])
    prof = kernel_profile(p, r, 0.6)
    for ri, vi in zip(r, prof):
        pt = HalfSpacePoint((float(ri), 0.0, 0.0), 0.6)
        assert vi == pytest.approx(poisson_kernel(p, pt), rel=1e-14)


def test_poisson_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        poisson_kernel(ModelParams(0.0, 2), HalfSpacePoint((0.0,), 1.0))


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(-0.95, 5.0), y=st.floats(0.01, 50.0),
       x=st.floats(-20.0, 20.0), r=st.floats(0.02, 40.0))
def test_scaling_identity(alpha, y, x, r):
    # K_{alpha,y}(x) = y^{-n} K_{alpha,1}(x/y), and rescaling (x,y) by r
    # only moves the evaluation point
    p = ModelParams(alpha, 1)
    a = poisson_kernel(p, HalfSpacePoint((x,), y))
    b = y ** (-1.0) * poisson_kernel(p, HalfSpacePoint((x / y,), 1.0))
    assert a == pytest.approx(b, rel=5e-13)
    del r


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(-0.9, 4.0), y=st.floats(0.1, 10.0),
       r0=st.floats(0.0, 10.0), dr=st.floats(0.01, 5.0))
def test_radial_monotone_decreasing(alpha, y, r0, dr):
    p = ModelParams(alpha, 2)
    near = poisson_kernel(p, HalfSpacePoint((r0, 0.0), y))
    far = poisson_kernel(p, HalfSpacePoint((r0 + dr, 0.0), y))
    assert 0.0 < far < near


def test_y_monotonicity_threshold():
    # y -> K_{alpha,y}(x) rises until y = |x| sqrt(alpha+1)/sqrt(n), then falls
    for alpha, n in ((0.0, 1), (2.0, 2), (-0.5, 3)):
        p = ModelParams(alpha, n)
        x = np.zeros(n)
        x[0] = 1.5
        y_star = 1.5 * math.sqrt(alpha + 1.0) / math.sqrt(n)
        dy = 1e-4
        for y in (0.3 * y_star, 0.8 * y_star):
            lo = poisson_kernel(p, HalfSpacePoint(tuple(x), y - dy))
            hi = poisson_kernel(p, HalfSpacePoint(tuple(x), y + dy))
            assert hi > lo
        for y in (1.2 * y_star, 3.0 * y_star):
            lo = poisson_kernel(p, HalfSpacePoint(tuple(x), y - dy))
            hi = poisson_kernel(p, HalfSpacePoint(tuple(x), y + dy))
            assert hi < lo


# ---------------------------------------------------------------------------
# mass


# alpha = 400 is past the overflow of Gamma((alpha+n+1)/2)
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5, 3.7, 400.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_mass_is_one(alpha, n):
    for y in (0.1, 1.0, 10.0):
        m = kernel_mass(ModelParams(alpha, n), y, EvalAccuracy(rel_tol=1e-10))
        assert abs(m - 1.0) <= 1e-10


def test_kernel_mass_classical_case():
    # alpha = 0, n = 1 is the arctan integral, exactly 1
    m = kernel_mass(ModelParams(0.0, 1), 1.0, EvalAccuracy(rel_tol=1e-12))
    assert abs(m - 1.0) <= 1e-12


def test_kernel_mass_domain():
    for y in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            kernel_mass(ModelParams(0.0, 1), y)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 1.5, 0.5 * math.pi - 1e-4,
                                   0.5 * math.pi - 1e-7, 0.5 * math.pi])
def test_cone_mass_cauchy_closed_form(theta):
    # alpha = 0, n = 1: the Cauchy kernel puts 1 - 2 theta / pi beyond
    # |x| = y tan(theta); the last two angles lie inside the series' reach
    got = _cone_mass(ModelParams(0.0, 1), 0.5 * math.pi - theta)
    assert got == pytest.approx(1.0 - 2.0 * theta / math.pi, rel=1e-12, abs=1e-16)


@pytest.mark.parametrize("alpha", [-0.999, -0.99, -0.9])
def test_cone_mass_near_alpha_minus_one(alpha):
    # Gauss panels alone cannot resolve sin^alpha at the pole here, the
    # series below _POLE_GAP does; the mass stays in (0, 1) and decreases
    # in theta
    p = ModelParams(alpha, 1)
    masses = [_cone_mass(p, 0.5 * math.pi - t) for t in (0.0, 0.5, 1.0, 1.5, 1.57)]
    assert masses[0] == pytest.approx(1.0, abs=1e-10)
    assert all(1.0 > b > 0.0 and b < a for a, b in zip(masses, masses[1:]))


_ANGLE_ALPHAS = [-0.999, -0.5, 0.0, 1.5, 100.0, 400.0, 1000.0]
_ANGLE_NS = [1, 2, 3, 5, 8]


@pytest.mark.parametrize("n", _ANGLE_NS)
@pytest.mark.parametrize("alpha", _ANGLE_ALPHAS)
def test_cone_mass_total_is_one(alpha, n):
    assert abs(float(_cone_mass(ModelParams(alpha, n), 0.5 * math.pi)) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", _ANGLE_NS)
@pytest.mark.parametrize("alpha", _ANGLE_ALPHAS)
def test_cone_mass_interior_angles_match_tanh_sinh(alpha, n):
    # the oracle is the double-exponential route: tanh-sinh from the
    # series' reach up to s, plus the series below it; masses are in [0, 1],
    # so the tolerance is absolute
    p = ModelParams(alpha, n)
    s = np.array([1e-7, 1e-3, 0.1, 0.7, 1.2, 1.5, 1.57])
    got = _cone_mass(p, s)
    for si, gi in zip(s, got):
        tail = _pole_series(p, min(si, _POLE_GAP))
        if si > _POLE_GAP:
            tail += tanh_sinh(lambda t: np.sin(t) ** alpha * np.cos(t) ** (n - 1),
                              _POLE_GAP, si, rel_tol=1e-14)[0]
        want = unit_sphere_area(n) * p.c_norm * tail
        assert abs(gi - want) <= 1e-12, (si, gi, want)


@pytest.mark.parametrize("n, closed", [(1, lambda s: 2.0 * s / math.pi), (2, np.sin)])
def test_cone_mass_alpha0_closed_forms(n, closed):
    # alpha = 0: the Cauchy law puts 2 s / pi below the elevation s at
    # n = 1, and the n = 2 kernel puts sin s there
    s = np.concatenate([[0.0, 1e-9, 1e-6], np.linspace(0.01, 0.5 * math.pi, 40)])
    got = _cone_mass(ModelParams(0.0, n), s)
    assert np.all(np.abs(got - closed(s)) <= 1.1e-15)


def test_kernel_mass_error_estimate_is_rounding_sized():
    # the gap to order 6 on the same panels; order 8 is exact to rounding
    for alpha, n in ((-0.999, 1), (1.5, 2), (1000.0, 8)):
        p = ModelParams(alpha, n)
        m, err = _mass_with_error(p, 1.0)
        assert m == kernel_mass(p, 1.0) and 0.0 <= err <= 1e-14


# ---------------------------------------------------------------------------
# derivatives


def _fd_nested(p, comps, pt, h):
    # fourth-order five-point first-derivative stencils, nested per component
    def ev(x):
        return poisson_kernel(p, HalfSpacePoint(tuple(x), pt.y))

    def diff(f, axis, step):
        def g(x):
            e = np.zeros(len(x))
            e[axis] = 1.0
            return (-f(x + 2 * step * e) + 8 * f(x + step * e)
                    - 8 * f(x - step * e) + f(x - 2 * step * e)) / (12 * step)
        return g

    fs = ev
    for axis, reps in enumerate(comps):
        for _ in range(reps):
            fs = diff(fs, axis, h)
    return fs(np.asarray(pt.x))


def _fd_oracle(p, comps, pt, h):
    # one Richardson pass removes the h^4 truncation term; without it the
    # order-4 nested stencils cannot reach six digits in double precision
    a = _fd_nested(p, comps, pt, h)
    b = _fd_nested(p, comps, pt, 0.5 * h)
    return (16.0 * b - a) / 15.0


def test_kernel_derivative_zeroth_is_kernel():
    p = ModelParams(0.8, 2)
    pt = HalfSpacePoint((0.4, -1.1), 0.9)
    assert kernel_derivative(p, MultiIndex((0, 0)), pt) \
        == poisson_kernel(p, pt)


def test_kernel_derivative_odd_vanishes_at_origin():
    p = ModelParams(1.3, 1)
    assert kernel_derivative(p, MultiIndex((1,)),
                             HalfSpacePoint((0.0,), 1.0)) == 0.0
    p = ModelParams(0.5, 2)
    assert kernel_derivative(p, MultiIndex((1, 2)),
                             HalfSpacePoint((0.0, 0.0), 2.0)) == 0.0


def test_kernel_derivative_first_order_closed_form():
    # d/dx K = -c (alpha+n+1) y^{alpha+1} x (x^2+y^2)^{-(alpha+n+3)/2}
    p = ModelParams(1.0, 1)
    x, y = 1.0, 1.0
    want = -p.c_norm * (p.alpha + p.n + 1.0) * y ** (p.alpha + 1.0) * x \
        * (x * x + y * y) ** (-0.5 * (p.alpha + p.n + 3.0))
    got = kernel_derivative(p, MultiIndex((1,)), HalfSpacePoint((x,), y))
    assert got == pytest.approx(want, rel=1e-14)


def test_kernel_derivative_matches_finite_differences():
    rng = np.random.default_rng(42)
    steps = {0: 1e-4, 1: 1e-4, 2: 1e-3, 3: 1e-2, 4: 2.5e-2}
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, 3))
        p = ModelParams(rng.uniform(-0.5, 3.0), n)
        pt = HalfSpacePoint(tuple(rng.normal(size=n)), rng.uniform(0.5, 2.0))
        comps = rng.multinomial(int(rng.integers(1, 5)), np.ones(n) / n)
        beta = MultiIndex(tuple(int(c) for c in comps))
        exact = kernel_derivative(p, beta, pt)
        approx = _fd_oracle(p, beta.components, pt, steps[beta.order])
        assert exact == pytest.approx(approx, rel=5e-6, abs=1e-12), \
            (p.alpha, n, beta.components, pt)
        checked += 1


def test_kernel_derivative_validation():
    p = ModelParams(0.0, 2)
    pt = HalfSpacePoint((0.1, 0.2), 1.0)
    with pytest.raises(ValueError):
        kernel_derivative(p, MultiIndex((5, 0)), pt)
    with pytest.raises(ValueError):
        kernel_derivative(p, MultiIndex((1,)), pt)


def test_kernel_deriv_eval_complex_offsets_underflow_to_zero():
    # s0 = 51 is an integer, where a complex ** turns to nan once it
    # underflows; far out on the rays the kernel is 0, near them it is the
    # real kernel's analytic continuation
    p = ModelParams(100.0, 1)
    y = 0.5
    t = np.geomspace(1e-3, 1e4, 200) * y
    for phase in (math.pi / 8, math.pi / 4):
        v = kernel_deriv_eval(p, (0,), (t * np.exp(1j * phase),), y)
        assert np.all(np.isfinite(v)) and v[-1] == 0.0
    real = kernel_deriv_eval(p, (0,), (t,), y)
    on_axis = kernel_deriv_eval(p, (0,), (t + 0j,), y)
    big = real > 1e-300
    assert np.all(np.abs(on_axis[big] - real[big]) <= 1e-12 * real[big])


@pytest.mark.parametrize("y", [1e-3, 10.0])
def test_kernel_deriv_eval_large_alpha_is_finite_and_bitwise_scalar(y):
    # y^(alpha+1) and S^-s over- and underflow apart at alpha = 400 (their
    # product is 0 * inf); c_norm y^(-n-2k) R^-(s+k), R = 1 + |x/y|^2, is not
    p = ModelParams(400.0, 2)
    d1 = np.array([0.0, 1e-3])
    arr = kernel_deriv_eval(p, (0, 0), (d1, np.zeros(2)), y)
    assert np.all(np.isfinite(arr))
    assert arr[0] == pytest.approx(p.c_norm / y ** 2, rel=1e-15)
    for i in range(d1.size):
        assert arr[i] == kernel_deriv_eval(p, (0, 0), (float(d1[i]), 0.0), y)
    # the derivative terms take their powers of 1/y on the coefficient
    assert np.all(np.isfinite(kernel_deriv_eval(p, (2, 1), (d1 + 0.3 * y, -0.1 * y), y)))


@pytest.mark.parametrize("alpha, x, y, beta, want", [
    # mpmath at 40 digits of c_norm y^(alpha+1) S^-s0 and its x_1 derivative;
    # the prefactor c_norm y^-n overflows at the first two, and at the
    # last two R^-s0 underflows to 0 beneath a finite prefactor
    (0.0, (1e-5, 0.0), 1e-160, (0, 0), 1.5915494309189529e-146),
    (0.0, (1e-5, 0.0), 1e-160, (1, 0), -4.7746482927568585e-141),
    (0.0, (1e-5, 0.0), 1e-150, (0, 0), 1.5915494309189530e-136),
    (-0.5, (3e-7,), 1e-300, (0,), 1.1605020234090245e-141),
])
def test_kernel_at_small_heights(alpha, x, y, beta, want):
    got = kernel_derivative(ModelParams(alpha, len(x)), MultiIndex(beta),
                            HalfSpacePoint(x, y))
    assert got == pytest.approx(want, rel=1e-13)


def test_kernel_past_overflow_at_small_height_raises():
    # K = c_norm y^-2 at x = 0 is about 1.6e309: no double holds it
    with pytest.raises(OverflowError):
        poisson_kernel(ModelParams(0.0, 2), HalfSpacePoint((0.0, 0.0), 1e-155))
    with pytest.raises(OverflowError):
        kernel_profile(ModelParams(0.0, 2), np.array([0.0, 1e-5]), 1e-160)


def test_scalar_calls_are_bitwise_the_array_call():
    # NumPy's vectorized ** and Python's float ** round apart in about 5%
    # of cases; the point entry points evaluate through one-element arrays
    p = ModelParams(2.0, 2)
    xs = np.random.default_rng(7).uniform(-1.0, 1.0, size=(2, 1000))
    arr = kernel_deriv_eval(p, (0, 0), tuple(xs), 0.7)
    d1 = kernel_deriv_eval(p, (1, 0), tuple(xs), 0.7)
    for i in range(xs.shape[1]):
        pt = HalfSpacePoint(tuple(xs[:, i]), 0.7)
        assert poisson_kernel(p, pt) == arr[i]
        assert kernel_derivative(p, (1, 0), pt) == d1[i]


@pytest.mark.parametrize("make", [
    lambda: ModelParams(0.0, 1.5),
    lambda: ModelParams(0.0, True),
    lambda: ModelParams("0.5", 1),
    lambda: ModelParams(math.nan, 1),
    lambda: MultiIndex((1.9,)),
    lambda: MultiIndex((True, 0)),
    lambda: HalfSpacePoint(("0.5",), 1.0),
    lambda: HalfSpacePoint((0.5, True), 1.0),
    lambda: HalfSpacePoint((0.0,), None),
    lambda: HalfSpacePoint((0.0,), "1"),
    lambda: HalfSpacePoint([[0.0]], 1.0),
], ids=lambda _: "")
def test_value_types_raise_value_error_and_never_coerce(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# the kernel as a mixture of Gaussians

_MIX_BETAS = {2: [(0, 0), (1, 0), (0, 2), (1, 1), (3, 1), (0, 4)],
              3: [(0, 0, 0), (0, 1, 0), (1, 0, 1), (2, 0, 1), (1, 1, 2),
                  (0, 0, 4)]}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("alpha", [-0.999, -0.5, 0.0, 2.0, 50.0, 400.0])
def test_kernel_mixture_matches_kernel_deriv_eval(alpha, n):
    # sum sign x^e sum_m exp(logw_m - tau_m |x|^2) against the closed form,
    # within 1e-12 of the sum of the table terms' magnitudes (a derivative
    # cancels between them). The closed form is taken at height 1, by
    # (d/dx)^beta K_{alpha,y}(x) = y^(-n-|beta|) (d^beta K_{alpha,1})(x/y),
    # where its powers stay normal doubles; the points fill |x|^2 <= 30
    # unless the kernel falls below e^-500 of its peak first
    p = ModelParams(alpha, n)
    s0 = 0.5 * (alpha + n + 1.0)
    rng = np.random.default_rng(7)
    for y in (1e-3, 0.5, 10.0):
        s_max = y * y + 30.0
        r2 = min(30.0, y * y * math.expm1(500.0 / (s0 + 4.0))) \
            * np.append(rng.uniform(0.0, 1.0, 63), 1.0)
        x = rng.normal(size=(r2.size, n))
        x *= np.sqrt(r2 / np.sum(x * x, axis=1))[:, None]
        for beta in _MIX_BETAS[n]:
            tau, terms = _kernel_mixture(p, beta, y, s_max)
            got = sum(sign * np.prod(x ** np.array(expo), axis=1)
                      * np.exp(logw - tau * r2[:, None]).sum(axis=1)
                      for expo, sign, logw in terms)
            unit = y ** (-n - sum(beta))
            want = kernel_deriv_eval(p, beta, list((x / y).T), 1.0) * unit
            scale = sum(abs(coef) * np.prod(np.abs(x / y) ** np.array(expo), axis=1)
                        * (1.0 + r2 / (y * y)) ** -(s0 + k)
                        for (expo, k), coef in _derivative_terms(n, s0, beta).items())
            scale = scale * p.c_norm * unit
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (y, beta)


# ---------------------------------------------------------------------------
# the operator residual


def test_dalpha_residual_kernel_is_second_order():
    p = ModelParams(1.5, 2)
    pt = HalfSpacePoint((0.3, -0.2), 0.8)
    u = lambda q: poisson_kernel(p, q)
    res = [abs(dalpha_residual(u, p, pt, h)) for h in (1e-2, 5e-3, 2.5e-3)]
    for a, b in zip(res, res[1:]):
        order = math.log2(a / b)
        assert 1.8 <= order <= 2.2


def test_dalpha_residual_null_solution():
    # y^{alpha+1} solves the equation exactly; the stencil sees only its own
    # truncation error
    for alpha in (0.5, 2.0):
        p = ModelParams(alpha, 1)
        pt = HalfSpacePoint((0.7,), 1.3)
        u = lambda q: q.y ** (alpha + 1.0)
        assert abs(dalpha_residual(u, p, pt, 1e-3)) < 1e-5


def test_dalpha_residual_linear_y():
    # u = y is not a solution unless alpha = 0: D_alpha y = -alpha y^{-alpha-1}
    p = ModelParams(1.2, 1)
    pt = HalfSpacePoint((0.0,), 0.9)
    got = dalpha_residual(lambda q: q.y, p, pt, 1e-4)
    want = -p.alpha * pt.y ** (-p.alpha - 1.0)
    assert got == pytest.approx(want, rel=1e-6)


def test_dalpha_residual_step_validation():
    p = ModelParams(0.0, 1)
    pt = HalfSpacePoint((0.0,), 0.4)
    u = lambda q: q.y
    with pytest.raises(ValueError):
        dalpha_residual(u, p, pt, 0.1)   # = y/4, not strictly inside
    with pytest.raises(ValueError):
        dalpha_residual(u, p, pt, -0.01)


def test_dalpha_residual_scaling_covariance():
    # v(x, y) = u(rx + t, ry) pulls the residual back exactly:
    # stencil of v at (pt, h) = r^{alpha+2} * stencil of u at (r pt + t, r h)
    # power-of-two geometry makes both evaluation paths hit u at bitwise
    # identical arguments, so the identity holds to rounding of the final
    # scalar factors
    p = ModelParams(0.7, 1)
    u = lambda q: poisson_kernel(p, q)
    r, t = 2.0, 0.75
    v = lambda q: u(HalfSpacePoint((r * q.x[0] + t,), r * q.y))
    pt = HalfSpacePoint((0.25,), 1.0)
    mapped = HalfSpacePoint((r * 0.25 + t,), r * 1.0)
    h = 2.0 ** -10
    lhs = dalpha_residual(v, p, pt, h)
    rhs = r ** (p.alpha + 2.0) * dalpha_residual(u, p, mapped, r * h)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-16)
