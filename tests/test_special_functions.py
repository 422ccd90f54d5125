"""Gamma/Bessel evaluator tests.

Reference values were produced with mpmath at 50 significant digits and are
frozen here as literals; the library itself never imports mpmath.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasp import special_functions
from gasp._quadrature import QuadratureError
from gasp.special_functions import (
    EvalAccuracy,
    gamma_fn,
    log_bessel_k,
    phi_nu,
)
from de_oracle import _de_params, _exp_sinh_xw
from lobe_oracle import bessel_j


def rel(a, b):
    return abs(a - b) / abs(b)


def bessel_k(nu, z):
    return math.exp(log_bessel_k(nu, z))


def bessel_i(nu, z):
    """Modified Bessel function of the first kind, ascending series.

    An oracle for bessel_k_via_i. For nu >= 0 every term is positive: no
    cancellation, accuracy is rounding-limited for z <= ~60. Negative
    orders pick up sign flips from the Gamma continuation in the first
    ceil(-nu) terms only, which stay O(1) relative to the sum.
    """
    nu = float(nu)
    if nu < -0.5 and abs(nu - round(nu)) < 1e-15:
        raise ValueError("bessel_i series needs non-pole order, got %r" % (nu,))
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0) or not np.all(np.isfinite(z_arr)):
        raise ValueError("bessel_i needs finite z >= 0")
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    half = 0.5 * z_arr
    with np.errstate(divide="ignore", invalid="ignore"):
        # Gamma(nu+1) may sit left of the positive axis for nu in (-1, -1/2)
        # or lower; math.gamma covers the analytic continuation.
        pref = np.exp(nu * np.log(half)) / math.gamma(nu + 1.0)
        term = pref.copy()
        out = pref.copy()
        zz = half * half
        for m in range(1, 160):
            term = term * zz / (m * (nu + m))
            out += term
            if np.all(np.abs(term) <= 1e-18 * (np.abs(out) + 1e-300)):
                break
    if np.any(half == 0.0):
        limit = 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else np.inf)
        out = np.where(half == 0.0, limit, out)
    return float(out[0]) if scalar else out


def bessel_k_via_i(nu, z):
    """K_nu through (pi/2)(I_{-nu} - I_nu)/sin(nu pi), non-integer nu only.

    An independent cross-check of the integral route; the removable
    singularity at integer nu is exactly why it is not the primary path.
    The difference is conditioned like e^{2z} (both I's grow like e^z while
    K decays like e^{-z}), so in double precision the result carries about
    16 - 2z/ln(10) correct digits: fine below z ~ 9, meaningless by z ~ 18.
    """
    nu = float(nu)
    z = float(z)
    if abs(nu - round(nu)) < 1e-8:
        raise ValueError("the I-difference route needs non-integer nu")
    if not (0.0 < nu):
        raise ValueError("bessel_k_via_i needs nu > 0")
    return (math.pi / 2.0) * (bessel_i(-nu, z) - bessel_i(nu, z)) \
        / math.sin(nu * math.pi)


# ---------------------------------------------------------------------------
# gamma


@pytest.mark.parametrize("s,want", [
    (0.1, 9.5135076986687313),
    (7.7, 2769.8303623273146),
    (23.4, 3.9191215305399872e+21),
    (49.5, 8.6676018431352723e+61),
])
def test_gamma_frozen(s, want):
    assert rel(gamma_fn(s), want) < 5e-14


def test_gamma_classical():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-3.0)


# mpmath at 20 digits, up to s = 171.5 just below the overflow of doubles
@pytest.mark.parametrize("s,want", [
    (0.01, 99.432585119150601632),
    (0.5, 1.7724538509055160273),
    (7.7, 2769.830362327314632),
    (23.4, 3.919121530539987172e+21),
    (49.5, 8.6676018431352723453e+61),
    (100.25, 2.94846628183876997e+156),
    (140.75, 3.9109956341628217865e+240),
    (171.5, 9.4833675668247993363e+307),
])
def test_gamma_to_two_ulp(s, want):
    assert rel(gamma_fn(s), want) < 2e-15


def test_gamma_raises_past_overflow():
    # never inf: the kernel normalization turns to its log route on this
    with pytest.raises(OverflowError):
        gamma_fn(171.7)


# log(Gamma(s + a) / Gamma(s)), mpmath at 40 digits
@pytest.mark.parametrize("s,a,want", [
    (10.0, 0.5, 1.138797739322294022), (10.0, 2.0, 4.7004803657924162281),
    (1e3, 0.5, 3.4537526394962768578), (1e3, 2.0, 13.816510058297357637),
    (1e6, 0.5, 6.9077551539821370521), (1e6, 2.0, 27.631022115928048209),
    (1e12, 0.5, 13.815510557964149104), (1e12, 2.0, 55.262042231858096416),
    # below s = 10, where the recurrence lifts s to the series
    (0.005, 0.5, -4.7328430702431880758), (0.5, 200.0, 860.00983856685779185),
    (2.5, 2.0, 2.1690537003695230609), (9.9, 0.5, 1.1336464674003989678),
    (9.9, 4.0, 9.7150632578607525173),
])
def test_lgamma_ratio_frozen(s, a, want):
    assert rel(special_functions._lgamma_ratio(s, a), want) < 1e-14


# ---------------------------------------------------------------------------
# J


J_CASES = [
    (-0.5, 1.0, 0.43109886801837608),
    (0.0, 0.5, 0.9384698072408129),
    (0.0, 5.0, -0.1775967713143383),
    # straddle the series/asymptotic switch at z = 14
    (0.0, 13.9, 0.18357985545786963),
    (0.0, 14.1, 0.15695287703260123),
    (0.5, 3.0, 0.065008182877375778),
    (1.5, 7.3, -0.12095301097363061),
    (1.0, 12.0, -0.22344710449062761),
    (0.0, 30.0, -0.086367983581040211),
    (0.0, 50.0, 0.055812327669251815),
    (0.0, 120.0, 0.071823415829156128),
    (1.5, 30.0, -0.027267945711177688),
    (-0.5, 20.0, 0.072806904785061849),
    (2.5, 9.0, -0.024772919406788785),
]


@pytest.mark.parametrize("nu,z,want", J_CASES)
def test_bessel_j_frozen(nu, z, want):
    assert rel(bessel_j(nu, z), want) < 1e-10


def test_bessel_j_at_zero():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.0, 0.0) == 0.0
    assert bessel_j(0.5, 0.0) == 0.0


def test_bessel_j_half_integer_closed_forms():
    z = np.linspace(0.1, 30.0, 47)
    plus = np.sqrt(2.0 / (math.pi * z)) * np.sin(z)
    minus = np.sqrt(2.0 / (math.pi * z)) * np.cos(z)
    got_p = bessel_j(0.5, z)
    got_m = bessel_j(-0.5, z)
    assert np.max(np.abs(got_p - plus) / np.maximum(np.abs(plus), 1e-3)) < 1e-10
    assert np.max(np.abs(got_m - minus) / np.maximum(np.abs(minus), 1e-3)) < 1e-10


def test_bessel_j_array_matches_scalar():
    z = np.array([0.0, 0.5, 5.0, 13.9, 14.1, 50.0])
    arr = bessel_j(1.5, z)
    for i, zi in enumerate(z):
        assert arr[i] == pytest.approx(bessel_j(1.5, float(zi)), rel=1e-14,
                                       abs=1e-300)


def test_bessel_j_domain():
    with pytest.raises(ValueError):
        bessel_j(-0.6, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.0, -1.0)


# ---------------------------------------------------------------------------
# I


I_CASES = [
    (0.5, 1.0, 0.93767488824548765),
    (0.0, 3.7, 8.7386175241693969),
    (2.5, 10.0, 2028.5127573919357),
    (1.0, 0.3, 0.15169384000359277),
    (4.5, 20.0, 25969200.25552837),
    (-0.7, 2.0, 1.9441106120020015),
    # orders below -1: the Gamma continuation flips early term signs
    (-2.5, 0.5, 13.013106895650544),
    (-4.7, 1.0, 96.61900824947972),
]


@pytest.mark.parametrize("nu,z,want", I_CASES)
def test_bessel_i_frozen(nu, z, want):
    assert rel(bessel_i(nu, z), want) < 1e-12


def test_bessel_i_at_zero():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(1.0, 0.0) == 0.0


def test_bessel_i_half_integer_closed_form():
    z = np.linspace(0.1, 30.0, 31)
    want = np.sqrt(2.0 / (math.pi * z)) * np.sinh(z)
    assert np.max(np.abs(bessel_i(0.5, z) / want - 1.0)) < 1e-12


def test_bessel_i_domain():
    with pytest.raises(ValueError):
        bessel_i(0.5, -0.1)


# ---------------------------------------------------------------------------
# K


K_CASES = [
    (0.5, 1.0, 0.46106850444789456),
    (0.5, 2.0, 0.11993777196806145),
    (1.0, 1.0, 0.60190723019723457),
    (1.5, 2.0, 0.17990665795209217),
    (2.0, 1.0, 1.6248388986351775),
    (3.0, 1e-5, 7999999999899998.0),
    (0.5, 1e-6, 1253.3128840019896),
    (10.0, 1e-6, 1.8579455999999492e+68),
    (2.7, 0.004, 14963326.806446211),
    (5.0, 100.0, 5.2732561132929499e-45),
    (0.25, 0.5, 0.96031632493188602),
    (9.99, 55.0, 5.3727495643228427e-25),
]


@pytest.mark.parametrize("nu,z,want", K_CASES)
def test_bessel_k_frozen(nu, z, want):
    assert rel(bessel_k(nu, z), want) < 1e-10


def test_bessel_k_half_integer_closed_form():
    z = np.linspace(0.1, 30.0, 31)
    for zi in z:
        want = math.sqrt(math.pi / (2.0 * zi)) * math.exp(-zi)
        assert rel(bessel_k(0.5, zi), want) < 1e-10


def test_bessel_k_integer_orders_no_special_case():
    # the integral route must sail through integer nu; spot-check continuity
    # against nearby non-integer orders as well
    for k in (1, 2, 3):
        for z in (0.5, 2.0, 10.0):
            center = bessel_k(float(k), z)
            lo = bessel_k(k - 1e-6, z)
            hi = bessel_k(k + 1e-6, z)
            assert rel(lo, center) < 1e-4
            assert rel(hi, center) < 1e-4


def test_bessel_k_via_i_cross_route():
    # the difference formula loses ~2z/ln(10) digits to cancellation, so the
    # comparison is meaningful only below z ~ 8; larger z is covered by the
    # transform-identity tests which validate K through an oscillatory route.
    for nu in (0.3, 0.75, 1.5, 2.5, 3.3, 4.7):
        for z in (0.5, 1.0, 2.0, 5.0, 8.0):
            a = bessel_k(nu, z)
            b = bessel_k_via_i(nu, z)
            assert rel(a, b) < 1e-8, (nu, z)


def test_bessel_k_via_i_rejects_integer_order():
    with pytest.raises(ValueError):
        bessel_k_via_i(2.0, 1.0)


def test_log_bessel_k_deep_tail():
    # K_1(700) ~ 4.7e-306 still fits in a double
    assert abs(log_bessel_k(1.0, 700.0) - (-703.04921348276688)) < 1e-11
    assert rel(bessel_k(1.0, 700.0), 4.6731107967079661e-306) < 1e-10


def test_log_bessel_k_array_matches_scalar():
    z = np.array([0.5, 1.0, 2.0, 50.0])
    arr = np.exp(log_bessel_k(1.5, z))
    for i, zi in enumerate(z):
        assert arr[i] == pytest.approx(bessel_k(1.5, float(zi)), rel=1e-12)


def _log_k_integral(nu, z_arr, rel_tol=1e-13, max_level=10):
    """log of Int_0^inf e^{-u} (u(u+2z))^{nu-1/2} du, elementwise in z.

    The double-exponential route log K_nu was once computed by, kept as an
    independent oracle: the representation Int_1^inf e^{-zt}(t^2-1)^{nu-1/2}
    dt after u = z(t-1), with e^{-z} z^{-2nu} z factored out, on exp-sinh
    nodes refined level by level. Valid for z in [1e-6, 1e3], nu in (0, 10].
    """
    z_col = z_arr[:, None]
    scale = max(1.0, 2.0 * nu - 1.0)
    p = nu - 0.5
    # the truncated u -> 0 tail is ~u_min^{2nu}/(2nu); keep it below 1e-17
    reach = (20.0 / min(1.0, nu) + math.log(scale)) * (2.0 / math.pi)
    t_max = max(4.8, math.asinh(reach))
    log_acc = np.full(z_arr.shape, -np.inf)
    prev = None
    for level in range(max_level + 1):
        h = 0.5 ** level
        t = _de_params(h, t_max, level)
        u, w = _exp_sinh_xw(t, 0.0, scale)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lf = (-u + np.log(w))[None, :] \
                + p * (np.log(u)[None, :] + np.log(u[None, :] + 2.0 * z_col))
        lf = np.where(np.isfinite(lf), lf, -np.inf)
        m = np.maximum(log_acc, np.max(lf, axis=1))
        m = np.where(np.isfinite(m), m, 0.0)
        level_sum = np.sum(np.exp(lf - m[:, None]), axis=1)
        log_acc = m + np.log(np.exp(log_acc - m) + level_sum)
        value = log_acc + math.log(h)
        if prev is not None and level >= 3:
            if np.all(np.abs(value - prev) <= rel_tol):
                return value
        prev = value
    raise QuadratureError("oracle quadrature did not stabilize")


def log_bessel_k_via_de(nu, z):
    z = np.asarray(z, dtype=float)
    return (0.5 * math.log(math.pi) - nu * math.log(2.0) - nu * np.log(z)
            - math.lgamma(nu + 0.5) - z + _log_k_integral(nu, z))


def _log_rel(got, want):
    return np.abs(got - want) / np.maximum(1.0, np.abs(want))


def test_log_bessel_k_matches_double_exponential_oracle():
    z = np.geomspace(1e-6, 1e3, 46)
    for nu in np.concatenate([np.linspace(0.05, 10.0, 19), [1.0, 2.0, 3.0]]):
        err = _log_rel(log_bessel_k(nu, z), log_bessel_k_via_de(nu, z))
        assert np.max(err) < 1e-13, nu


def test_log_bessel_k_matches_scipy_kve():
    special = pytest.importorskip("scipy.special")
    z = np.geomspace(1e-300, 1e18, 100)
    checked = 0
    for nu in np.concatenate([np.geomspace(1e-3, 0.5, 6),
                              np.linspace(0.75, 30.0, 40)]):
        with np.errstate(divide="ignore", over="ignore"):
            want = np.log(special.kve(nu, z)) - z
        ok = np.isfinite(want)  # kve overflows at small z once nu > ~1
        got = log_bessel_k(nu, z)
        assert np.max(_log_rel(got[ok], want[ok])) < 1e-14, nu
        checked += int(np.sum(ok))
    assert checked > 1000


def test_log_bessel_k_small_argument_limit():
    # K_nu(z) = Gamma(nu)/2 (2/z)^nu (1 + O(z^2)) for nu > 1, past the
    # overflow point of K itself
    z = np.array([5e-324, 1e-300, 1e-200, 1e-120])
    for nu in (1.5, 4.0, 15.5, 30.0):
        want = math.lgamma(nu) + (nu - 1.0) * math.log(2.0) - nu * np.log(z)
        assert np.max(_log_rel(log_bessel_k(nu, z), want)) < 1e-15, nu


def test_log_bessel_k_array_is_bitwise_its_scalar_calls():
    # each row's nodes depend on (nu, z) alone, so mixing magnitudes (and
    # node counts) in one call changes no bit of any row
    z = np.concatenate([np.geomspace(1e-300, 1e18, 37),
                        [5e-324, 0.37, 2.0, 55.0, 5.5e18, 1e-7]])
    for nu in (0.01, 0.5, 1.25, 2.0, 7.3, 15.5, 30.0):
        arr = log_bessel_k(nu, z)
        assert arr.tolist() == [log_bessel_k(nu, float(v)) for v in z], nu
        assert np.array_equal(log_bessel_k(nu, z[:42].reshape(6, 7)),
                              arr[:42].reshape(6, 7))


@pytest.mark.parametrize("nu", [0.25, 1.25, 5.5, 15.5])
def test_complex_log_bessel_k_matches_scipy_kve(nu):
    # off the real axis the rule's strip narrows to pi/2 - |ph z|, and
    # above nu = 3/2 the order recurrence carries the value
    special = pytest.importorskip("scipy.special")
    rho = np.geomspace(1e-12, 1e3, 40)
    for ph in np.pi * np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]) / 8.0:
        z = rho * np.exp(1j * ph)
        got = log_bessel_k(nu, z)
        want = np.log(special.kve(nu, z)) - z
        assert np.max(np.abs(np.expm1(got - want))) < 5e-13, ph


def test_complex_log_bessel_k_on_the_real_axis_is_the_real_one():
    z = np.geomspace(1e-8, 1e3, 23)
    for nu in (0.3, 1.0, 2.5, 9.0):
        got = log_bessel_k(nu, z + 0j)
        assert np.max(np.abs(got.imag)) < 1e-12
        assert np.max(_log_rel(got.real, log_bessel_k(nu, z))) < 1e-14, nu


def test_complex_log_bessel_k_array_is_bitwise_its_scalar_calls():
    z = np.geomspace(1e-9, 300.0, 19) * np.exp(0.25j * np.pi)
    z = np.concatenate([z, [1e-3 + 2e-3j, 7.0 - 5.0j, 40.0 + 1j]])
    for nu in (0.5, 1.25, 4.0, 15.5):
        arr = log_bessel_k(nu, z)
        assert arr.tolist() == [log_bessel_k(nu, complex(v)) for v in z], nu


def test_complex_log_bessel_k_domain():
    for z in (-1.0 + 1.0j, 0.0 + 1.0j, complex(math.inf, 0.0)):
        with pytest.raises(ValueError):
            log_bessel_k(1.0, z)


@pytest.mark.parametrize("m", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
def test_scaled_k_matches_scipy_kve(m):
    # the hitting density's Hankel rows sit at phase -pi/4; half-integer
    # orders come in closed form, integer ones through _log_k_complex
    special = pytest.importorskip("scipy.special")
    z = np.geomspace(1e-6, 50.0, 37) * np.exp(-0.25j * np.pi)
    got = special_functions._k_scaled(m, z) * z ** m * np.exp(z)
    want = special.kve(abs(m), z)
    assert np.max(np.abs(got / want - 1.0)) < 1e-13


# z^-m times K_|m|(z) less its Laurent terms 1/2 (-1)^k Gamma(m-k)/k!
# (z/2)^(2k-m), k < m, at z = |z| e^{-i pi/4}: mpmath at 80 digits
_DROPPED = {
    (0.5, 0.3): complex(-1.1212954915151356, -0.11512851751401493),
    (0.5, 1.9): complex(-0.55758625399668255, -0.32043295392537394),
    (0.5, 2.1): complex(-0.50905593295925107, -0.31857214491593281),
    (0.5, 5.0): complex(-0.1800325460220595, -0.18399789883218074),
    (1.0, 0.3): complex(-0.91430699577232566, -0.3782269325979863),
    (1.0, 1.9): complex(-0.12371878432261157, -0.20641452702152708),
    (1.0, 2.1): complex(-0.097518893504790072, -0.18731766961438032),
    (1.0, 5.0): complex(0.00016399730872615789, -0.043438680765678623),
    (1.5, 0.3): complex(0.38469232483651464, 0.029639380626306351),
    (1.5, 1.9): complex(0.23372088378095076, 0.09917510366339497),
    (1.5, 2.1): complex(0.2191057647063748, 0.1010955739531045),
    (1.5, 5.0): complex(0.096543394070929804, 0.080072276974055669),
    (2.0, 0.3): complex(0.25946614334565558, 0.095607177614729118),
    (2.0, 1.9): complex(0.051990808657906976, 0.061745436126716716),
    (2.0, 2.1): complex(0.043869091927131033, 0.057563653661266408),
    (2.0, 5.0): complex(0.0039225979216490754, 0.019552650696718466),
}


@pytest.mark.parametrize("m,rho", sorted(_DROPPED))
def test_scaled_k_dropped_form_frozen(m, rho):
    # the power series up to |z| = 2, the plain difference beyond
    z = np.array([rho * np.exp(-0.25j * np.pi)])
    got = special_functions._k_scaled(m, z, drop=True)[0]
    assert abs(got - _DROPPED[m, rho]) <= 1e-14 * abs(_DROPPED[m, rho])


def test_log_bessel_k_extreme_arguments_are_finite():
    # 5e-324: the smallest double (phi_nu at r = 5e-324); 5.5e18: the
    # exp-sinh nodes of the hitting density at r = 0
    for nu in (0.01, 0.5, 2.0, 15.5, 30.0):
        vals = log_bessel_k(nu, np.array([5e-324, 5.5e18]))
        assert np.all(np.isfinite(vals)), nu
        assert vals[1] == pytest.approx(
            -5.5e18 + 0.5 * math.log(math.pi / 1.1e19), rel=1e-15)


def test_log_bessel_k_coarse_rule_raises(monkeypatch):
    # the rule at twice the step is the error estimate; a step far too
    # coarse for the integrand must raise instead of returning its sum
    monkeypatch.setattr(special_functions, "_K_STEP_NU", 40.0)
    with pytest.raises(QuadratureError):
        log_bessel_k(2.0, 1e-3)


def test_bessel_k_domain():
    with pytest.raises(ValueError):
        log_bessel_k(0.0, 1.0)
    with pytest.raises(ValueError):
        log_bessel_k(-1.0, 1.0)
    with pytest.raises(ValueError):
        log_bessel_k(1.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.05, 10.0),
       z0=st.floats(0.01, 80.0),
       step=st.floats(0.05, 10.0))
def test_bessel_k_decreasing_in_z(nu, z0, step):
    assert log_bessel_k(nu, z0 + step) < log_bessel_k(nu, z0)


# ---------------------------------------------------------------------------
# phi_nu


PHI_CASES = [
    (1.0, 1.0, 0.60190723019723457),
    (2.0, 1.0, 0.81241944931758874),
    (0.35, 2.2, 0.074214393547086579),
    (1.5, 0.8, 0.80879213541099885),
    (2.35, 17.0, 3.7161742708502173e-6),
]


@pytest.mark.parametrize("nu,r,want", PHI_CASES)
def test_phi_nu_frozen(nu, r, want):
    assert rel(phi_nu(nu, r), want) < 1e-10


def test_phi_nu_at_zero_and_poisson_case():
    assert phi_nu(2.2, 0.0) == 1.0
    for r in (0.1, 1.0, 5.0, 30.0):
        assert rel(phi_nu(0.5, r), math.exp(-r)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.05, 10.0), r=st.floats(0.0, 60.0))
def test_phi_nu_in_unit_interval(nu, r):
    v = phi_nu(nu, r)
    assert 0.0 < v <= 1.0


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.05, 8.0), r0=st.floats(0.0, 30.0),
       step=st.floats(0.01, 10.0))
def test_phi_nu_strictly_decreasing(nu, r0, step):
    assert phi_nu(nu, r0 + step) < phi_nu(nu, r0)


def test_phi_nu_array():
    r = np.array([0.0, 0.5, 1.0, 4.0, 40.0])
    vals = phi_nu(1.3, r)
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# config types


def test_eval_accuracy_validation():
    acc = EvalAccuracy()
    assert 0.0 < acc.rel_tol <= 1e-4
    with pytest.raises(ValueError):
        EvalAccuracy(rel_tol=1e-3)
    with pytest.raises(ValueError):
        EvalAccuracy(rel_tol=0.0)
    with pytest.raises(ValueError):
        EvalAccuracy(abs_tol=-1.0)
