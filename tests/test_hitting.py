import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasp.hitting as hitting_mod
from gasp._quadrature import QuadratureError, gauss_legendre
from gasp.boundary_data import Grid
from gasp.hitting import LevelPair, hitting_ft, hitting_kernel, semigroup_check
from gasp.kernel import HalfSpacePoint, ModelParams, kernel_profile, poisson_kernel
from gasp.special_functions import EvalAccuracy
from lobe_oracle import lobe_density


# ---------------------------------------------------------------- LevelPair


def test_level_pair_basics():
    lv = LevelPair(y=2.0, eta=0.5)
    assert lv.gap == 1.5


@pytest.mark.parametrize("y,eta", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.0),
                                   (2.0, -1.0), (-1.0, -2.0)])
def test_level_pair_rejects_bad_order(y, eta):
    with pytest.raises(ValueError, match="y > eta > 0"):
        LevelPair(y=y, eta=eta)


@pytest.mark.parametrize("y,eta", [(True, 0.5), (2.0, "1"), (None, 1.0)])
def test_level_pair_rejects_what_is_no_real_number(y, eta):
    with pytest.raises(ValueError, match="must be a finite real number"):
        LevelPair(y=y, eta=eta)


def test_level_pair_rejects_non_finite():
    with pytest.raises(ValueError):
        LevelPair(y=math.inf, eta=1.0)
    with pytest.raises(ValueError):
        LevelPair(y=2.0, eta=math.nan)


# --------------------------------------------------------------- hitting_ft


def test_ft_is_one_at_zero():
    p = ModelParams(alpha=1.3, n=2)
    assert hitting_ft(p, LevelPair(3.0, 1.0), 0.0) == 1.0


def test_ft_alpha_zero_is_exponential():
    # K_{1/2} closed form collapses the quotient to e^{-(y-eta)|xi|}
    p = ModelParams(alpha=0.0, n=1)
    lv = LevelPair(y=2.0, eta=0.5)
    xi = np.array([0.01, 0.1, 1.0, 5.0, 40.0, 100.0])
    got = hitting_ft(p, lv, xi)
    want = np.exp(-lv.gap * xi)
    assert np.max(np.abs(got - want) / want) < 1e-12


def test_ft_bessel_quotient_value():
    # oracle: 2^{3/2} K_{3/2}(2) / K_{3/2}(1) by extended-precision Bessel
    p = ModelParams(alpha=2.0, n=1)
    v = hitting_ft(p, LevelPair(2.0, 1.0), 1.0)
    assert v == pytest.approx(0.5518191617571635, rel=1e-13)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 2.0, 3.7, 10.0])
def test_ft_exponential_tail_bound(alpha):
    # (y/eta)^{alpha+1} e^{-(y-eta)|xi|} dominates on [1, 40]
    p = ModelParams(alpha=alpha, n=1)
    lv = LevelPair(y=2.0, eta=0.5)
    xi = np.linspace(1.0, 40.0, 40)
    f = hitting_ft(p, lv, xi)
    bound = (lv.y / lv.eta) ** (alpha + 1.0) * np.exp(-lv.gap * xi)
    assert np.all(f > 0.0)
    assert np.all(f <= bound)
    # the sharp form at every s: sqrt(x) e^x K_nu(x) decreases for
    # nu >= 1/2, so Q <= (y/eta)^{nu-1/2} e^{-gap s}; for nu < 1/2 the
    # factor is 1. The lobe inversion's e^{-gap s} grading relies on it.
    s = np.linspace(0.0, 128.0, 2049)
    for y, eta in ((2.0, 1.0), (4.0, 0.1), (1.01, 1.0)):
        lv = LevelPair(y=y, eta=eta)
        amp = (y / eta) ** max(p.nu - 0.5, 0.0)
        bound = amp * np.exp(-lv.gap * s) * (1.0 + 1e-12)
        assert np.all(hitting_ft(p, lv, s) <= bound), (y, eta)


def test_ft_survives_huge_arguments():
    # direct K_nu evaluation underflows near z ~ 745; the log-space quotient
    # keeps going as long as the quotient itself is representable
    p = ModelParams(alpha=2.0, n=1)
    lv = LevelPair(y=1.01, eta=1.0)
    s = 5000.0
    v = hitting_ft(p, lv, s)
    asym = math.sqrt(lv.eta / lv.y) * (lv.y / lv.eta) ** p.nu * math.exp(-lv.gap * s)
    assert 0.0 < v < 1.0
    assert v == pytest.approx(asym, rel=1e-3)


def test_ft_strictly_decreasing_in_xi():
    p = ModelParams(alpha=1.5, n=2)
    xi = np.linspace(0.01, 30.0, 200)
    f = hitting_ft(p, LevelPair(2.0, 0.5), xi)
    assert np.all(np.diff(f) < 0.0)


def test_ft_strictly_decreasing_in_y():
    p = ModelParams(alpha=1.5, n=2)
    vals = [hitting_ft(p, LevelPair(y, 0.5), 2.0)
            for y in np.linspace(0.6, 5.0, 30)]
    assert np.all(np.diff(vals) < 0.0)


def test_ft_matches_scalar_loop():
    p = ModelParams(alpha=0.7, n=1)
    lv = LevelPair(3.0, 1.2)
    xi = np.array([0.0, 0.3, 2.0, 11.0])
    vec = hitting_ft(p, lv, xi)
    assert vec.tolist() == [hitting_ft(p, lv, float(s)) for s in xi]


def test_ft_rejects_bad_frequency():
    p = ModelParams(alpha=0.0, n=1)
    lv = LevelPair(2.0, 1.0)
    with pytest.raises(ValueError):
        hitting_ft(p, lv, -1.0)
    with pytest.raises(ValueError):
        hitting_ft(p, lv, math.nan)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-0.9, 6.0),
    eta=st.floats(0.1, 3.0),
    gap=st.floats(0.05, 4.0),
    xi=st.floats(0.0, 50.0),
)
def test_ft_in_unit_interval(alpha, eta, gap, xi):
    p = ModelParams(alpha=alpha, n=1)
    v = hitting_ft(p, LevelPair(eta + gap, eta), xi)
    assert 0.0 < v <= 1.0


@pytest.mark.parametrize("alpha", [-0.999, -0.9, 0.0, 1.0, 3.0])
def test_ft_subnormal_frequency(alpha):
    # eta*s underflows (to 0 at s = 5e-324); the value must stay in (0, 1]
    # and join the normal-range values continuously
    p = ModelParams(alpha=alpha, n=1)
    lv = LevelPair(4.0, 0.1)
    xi = np.array([5e-324, 1e-320, 2e-307, 1e-300])
    v = hitting_ft(p, lv, xi)
    assert np.all((v > 0.0) & (v <= 1.0))
    assert np.all(np.diff(v) <= 0.0)
    assert abs(v[2] - v[3]) < 1e-3


def test_fourier_side_semigroup_identity():
    # quotient structure makes the two-step product cancel exactly
    p = ModelParams(alpha=3.0, n=1)
    xi = np.concatenate([np.linspace(0.0, 10.0, 40), [50.0, 200.0]])
    full = hitting_ft(p, LevelPair(3.0, 1.0), xi)
    two_step = hitting_ft(p, LevelPair(3.0, 2.0), xi) * hitting_ft(
        p, LevelPair(2.0, 1.0), xi
    )
    pos = full > 0
    assert np.max(np.abs(full[pos] - two_step[pos]) / full[pos]) < 1e-12


# ----------------------------------------------------------- hitting_kernel


def test_kernel_alpha_zero_is_cauchy():
    # at alpha = 0 the hitting law is the classical Poisson kernel at height
    # gap, in every dimension; there the far-field kernel is all of G and
    # the ray carries only rounding
    lv = LevelPair(y=2.0, eta=0.5)
    for n in (1, 2, 3):
        p = ModelParams(alpha=0.0, n=n)
        for x in (0.0, 0.3, 1.0, 3.0):
            got = hitting_kernel(p, lv, x)
            want = poisson_kernel(p, HalfSpacePoint(x=(x,) + (0.0,) * (n - 1),
                                                    y=lv.gap))
            assert got == pytest.approx(want, rel=1e-10), (n, x)


def test_kernel_continuous_at_origin():
    # r = 0 is one moment of the quotient, r > 0 a Hankel row on the ray
    # (without its Laurent terms at n = 3): routes that must meet
    lv = LevelPair(y=2.0, eta=0.5)
    for alpha in (0.0, 1.5, 3.0):
        for n in (1, 2, 3):
            p = ModelParams(alpha=alpha, n=n)
            at_zero = hitting_kernel(p, lv, 0.0)
            near = hitting_kernel(p, lv, 1e-6 * lv.gap)
            assert near == pytest.approx(at_zero, rel=1e-9), (alpha, n)


def test_kernel_radial_decreasing():
    p = ModelParams(alpha=1.5, n=2)
    lv = LevelPair(2.0, 0.5)
    vals = [hitting_kernel(p, lv, r) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_kernel_mass_is_one():
    # omega_1 * int_0^inf G(r) r dr, geometric panels plus a fitted
    # power-law tail beyond the last edge
    p = ModelParams(alpha=1.5, n=2)
    lv = LevelPair(y=2.0, eta=0.5)
    edges = np.array([0.0, 0.75, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0])
    nodes, wts = gauss_legendre(20)
    bulk = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        g = np.array([hitting_kernel(p, lv, float(t)) for t in r])
        bulk += 0.5 * (b - a) * float(np.sum(wts * g * r))
    g36 = hitting_kernel(p, lv, 36.0)
    g48 = hitting_kernel(p, lv, 48.0)
    pexp = math.log(g36 / g48) / math.log(48.0 / 36.0)
    tail = g48 * 48.0**2 / (pexp - 2.0)  # int_48^inf C r^{1-p} dr, C = g48*48^p
    mass = 2.0 * math.pi * (bulk + tail)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_kernel_reconstructs_boundary_kernel():
    # G_{y,eta} * K_eta = K_y, checked at 5 points by quadrature on a
    # shared node table
    p = ModelParams(alpha=1.5, n=1)
    lv = LevelPair(y=2.0, eta=0.75)
    edges = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    edges = np.concatenate([-edges[::-1], edges[1:]])
    nodes, wts = gauss_legendre(12)
    t = np.concatenate(
        [0.5 * (b - a) * nodes + 0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
    )
    w = np.concatenate([0.5 * (b - a) * wts for a, b in zip(edges[:-1], edges[1:])])
    g_tab = np.array([hitting_kernel(p, lv, abs(tt)) for tt in t])
    for x in (0.0, 0.4, 1.0, 2.0, 3.5):
        k_eta = np.array(
            [poisson_kernel(p, HalfSpacePoint(x=(x - tt,), y=lv.eta)) for tt in t]
        )
        conv = float(np.sum(w * g_tab * k_eta))
        direct = poisson_kernel(p, HalfSpacePoint(x=(x,), y=lv.y))
        assert conv == pytest.approx(direct, abs=1e-4)


def test_kernel_rejects_bad_radius():
    p = ModelParams(alpha=0.0, n=1)
    lv = LevelPair(2.0, 1.0)
    with pytest.raises(ValueError):
        hitting_kernel(p, lv, -0.5)
    with pytest.raises(ValueError):
        hitting_kernel(p, lv, math.inf)


def test_kernel_clips_small_negative(monkeypatch):
    # the clip branch is hard to hit on demand; substitute an inversion
    # that undershoots by less than the clip threshold
    p = ModelParams(alpha=0.0, n=1)
    lv = LevelPair(2.0, 1.0)
    monkeypatch.setattr(hitting_mod, "_invert", lambda p, lv, r, acc: (
        np.full(r.shape, -5e-13), np.zeros(r.shape)))
    with pytest.warns(RuntimeWarning, match="clipped negative"):
        v = hitting_kernel(p, lv, 1.0)
    assert v == 0.0


def test_kernel_leaves_large_negative_alone(monkeypatch):
    # a violation bigger than the threshold is a real failure signal and
    # must reach the caller unmodified
    p = ModelParams(alpha=0.0, n=1)
    lv = LevelPair(2.0, 1.0)
    monkeypatch.setattr(hitting_mod, "_invert", lambda p, lv, r, acc: (
        np.full(r.shape, -0.5), np.zeros(r.shape)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = hitting_kernel(p, lv, 1.0)
    assert v == -0.5


def test_kernel_accepts_accuracy():
    p = ModelParams(alpha=0.0, n=1)
    lv = LevelPair(2.0, 1.0)
    v = hitting_kernel(p, lv, 0.7, acc=EvalAccuracy(rel_tol=1e-8))
    want = lv.gap / (math.pi * (0.49 + lv.gap**2))
    assert v == pytest.approx(want, rel=1e-7)


def test_kernel_array_is_bitwise_its_scalar_calls():
    # one quotient evaluation serves the array; each radius keeps its own
    # row and row sums, so no bit depends on the other radii
    lv = LevelPair(2.0, 0.75)
    radii = np.array([0.0, 1e-7, 0.3, 0.3, 1.0, 2.5, 4.0, 7.0])
    for alpha, n in ((0.0, 1), (1.5, 1), (3.0, 2), (-0.5, 3), (1.5, 4), (0.5, 5)):
        p = ModelParams(alpha, n)
        arr = hitting_kernel(p, lv, radii)
        assert arr.tolist() == [hitting_kernel(p, lv, float(r)) for r in radii]
        assert np.array_equal(hitting_kernel(p, lv, radii.reshape(2, 4)),
                              arr.reshape(2, 4))


def test_kernel_blocks_of_radii_keep_the_bits_of_scalar_calls():
    # a long array runs in several blocks of radii at every level
    p, lv = ModelParams(1.5, 4), LevelPair(2.0, 0.75)
    radii = np.linspace(0.0, 20.0, 61)
    arr = hitting_kernel(p, lv, radii)
    assert arr.tolist() == [hitting_kernel(p, lv, float(r)) for r in radii]


def test_kernel_clips_per_radius(monkeypatch):
    p = ModelParams(alpha=0.0, n=1)
    lv = LevelPair(2.0, 1.0)
    monkeypatch.setattr(hitting_mod, "_invert", lambda p, lv, r, acc: (
        np.array([-5e-13, 0.1, -0.5, -2e-13]), np.zeros(r.shape)))
    with pytest.warns(RuntimeWarning, match="clipped negative") as caught:
        v = hitting_kernel(p, lv, [1.0, 2.0, 3.0, 4.0])
    assert v.tolist() == [0.0, 0.1, -0.5, 0.0]
    assert sorted(str(w.message).split("r=")[1] for w in caught) \
        == ["1 to 0", "4 to 0"]


# Large-alpha densities at levels 2 -> 1, n = 1, from mpmath (the quotient
# along the ray at 40 digits, and with the far-field kernel split off at
# 60); the lobe route missed alpha = 30 by 2.3e-10
_FROZEN = {(10.0, 6.0): 5.30998745771988e-7, (30.0, 2.0): 5.28296442552213e-6}


@pytest.mark.parametrize("alpha,r", sorted(_FROZEN))
def test_kernel_frozen_values(alpha, r):
    got = hitting_kernel(ModelParams(alpha, 1), LevelPair(2.0, 1.0), r)
    assert abs(got - _FROZEN[alpha, r]) <= 1e-10 * _FROZEN[alpha, r]


# Levels 2 -> 1 at r = 0, 0.5, 2, 6, 16, from mpmath at 32-40 digits: the
# quotient along the ray, inverted with hankel1 (or with the far-field
# kernel split off, which gave the same 17 digits). The lobe route missed
# alpha = -0.9, -0.5 and 0.5 at n = 1 by up to 3.2e-5.
_MPMATH = {
    (-0.9, 1): (0.24777938065807764, 0.20006618619439553, 0.054498857414449875,
               0.0093010680988445039, 0.0019208589753281496),
    (-0.9, 2): (0.12033277142207934, 0.086601874882391746, 0.011476915443086651,
               0.00068389359816433927, 5.0949069592922865e-5),
    (-0.9, 3): (0.075788420329897328, 0.048708966180748907, 0.0031846225821860988,
               6.7813451780673751e-5, 1.860619285087266e-6),
    (-0.5, 1): (0.28015420028155788, 0.22566057924762483, 0.060096392641839636,
               0.0096345014335407172, 0.0018020462737841221),
    (-0.5, 2): (0.13712833254752682, 0.098547626644907702, 0.012870026833014963,
               0.00073217648548808146, 5.0298921263050474e-5),
    (-0.5, 3): (0.08660046117827882, 0.055600386294728727, 0.0035949718600656547,
               7.3664892045710165e-5, 1.88111170763133e-6),
    (0.0, 1): (0.31830988618379067, 0.25464790894703254, 0.063661977236758134,
               0.0086029698968592073, 0.001238559868419419),
    (0.0, 2): (0.15915494309189534, 0.11388200694674833, 0.014235250868343541,
               0.00070715976943106387, 3.8629620946294633e-5),
    (0.0, 3): (0.10132118364233777, 0.064845557531096174, 0.0040528473456935109,
               7.4011091046265721e-5, 1.5340305476591284e-6),
    (0.5, 1): (0.35375676229943497, 0.28021556208669526, 0.063991441356196321,
               0.0068068983428781305, 0.00068809686563380892),
    (0.5, 2): (0.18205126425529337, 0.12938161175019532, 0.015113238410173524,
               0.0006125376111736372, 2.4098470881556729e-5),
    (0.5, 3): (0.11732561596527054, 0.074704843884040576, 0.0044230542236089618,
               6.7562895052538026e-5, 1.0288041320151747e-6),
    (1.5, 1): (0.41768122849049339, 0.32250049890553204, 0.058473817994024241,
               0.0034228932277144111, 0.0001490457852068938),
    (1.5, 2): (0.22964061512063747, 0.16007304323661321, 0.015486040067121084,
               0.00036487790871706456, 6.3395212602685367e-6),
    (1.5, 3): (0.15293859981682307, 0.095904304388319174, 0.0048490679425184937,
               4.5101970699507113e-5, 3.1079354958208672e-7),
    (3.0, 1): (0.50058544844760903, 0.36908125269640131, 0.044311911732190198,
               0.00091157922834741671, 9.9391964384047343e-6),
    (3.0, 2): (0.30376629203161127, 0.2037224189717427, 0.013674706533339787,
               0.00011861435879972829, 5.193005570039379e-7),
    (3.0, 3): (0.21453248859754915, 0.13022942413219754, 0.0047617036631926543,
               1.7094420359068758e-5, 2.9967996907470787e-8),
}


@pytest.mark.parametrize("alpha", sorted({a for a, _ in _MPMATH}))
def test_kernel_matches_mpmath_grid(alpha):
    lv = LevelPair(2.0, 1.0)
    for n in (1, 2, 3):
        got = hitting_kernel(ModelParams(alpha, n), lv,
                             np.array([0.0, 0.5, 2.0, 6.0, 16.0]))
        assert np.max(np.abs(got / np.array(_MPMATH[alpha, n]) - 1.0)) <= 1e-10, n


def test_kernel_far_tail_meets_rel_tol_or_raises():
    # 8.2935167565567e-12 (mpmath): 16 gaps out at alpha = 10 the density
    # sits far below the quotient's scale; the lobe route returned it 1.4e-5
    # off without a word
    try:
        got = hitting_kernel(ModelParams(10.0, 1), LevelPair(2.0, 1.0), 16.0)
    except QuadratureError:
        return
    assert abs(got - 8.2935167565567e-12) <= 1e-10 * 8.2935167565567e-12


# Levels 2 -> 0.75, out where the density falls far below the quotient's
# scale (n = 4 at 9.6, 20 and 30 gaps, n = 2 at 24 and 80), from mpmath at
# 40 digits: the quotient along the ray, inverted with hankel1 (the n = 4
# values at 20 and 30 gaps agree to 20 digits at 55)
_FAR = {
    (1.5, 4, 12.0): 1.1924780701044370153e-7,
    (1.5, 4, 25.0): 1.1486344029182532087e-9,
    (1.5, 4, 37.5): 8.4508584959147304142e-11,
    (3.0, 2, 30.0): 1.3425591573989230049e-8,
    (1.5, 2, 30.0): 4.5218970633534571721e-7,
    (1.5, 2, 100.0): 2.0518169100587688131e-9,
}


@pytest.mark.parametrize("alpha,n,r", sorted(_FAR))
def test_kernel_frozen_values_far_out(alpha, n, r):
    got = hitting_kernel(ModelParams(alpha, n), LevelPair(2.0, 0.75), r)
    assert abs(got - _FAR[alpha, n, r]) <= 1e-10 * _FAR[alpha, n, r]


def test_kernel_cauchy_tail_thousands_of_gaps_out():
    # at alpha = 0 the far-field kernel is all of G, the Poisson kernel at
    # height gap; nothing in the inversion is sized by the radius
    got = hitting_kernel(ModelParams(0.0, 2), LevelPair(2.0, 1.0), 3000.0)
    want = 1.0 / (2.0 * math.pi * (3000.0**2 + 1.0) ** 1.5)
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("alpha", [-0.5, -0.9])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_far_out_below_alpha_zero_raises_not_zero(alpha, n):
    # no far-field kernel carries the algebraic tail r^-(n+alpha+1) here,
    # and every ray node's term underflows; the ray's head below its first
    # node keeps the estimate above zero, so the call raises. At n = 4 and
    # r = 1e150 that bound and G (about 1e-615) both lie below the smallest
    # subnormal, and 0.0 is the rounded value
    p, lv = ModelParams(alpha, n), LevelPair(2.0, 1.0)
    for r in (1e20, 1e50, 1e150):
        if n == 4 and r == 1e150:
            assert hitting_kernel(p, lv, r) == 0.0
            continue
        with pytest.raises(QuadratureError):
            hitting_kernel(p, lv, r)


@pytest.mark.parametrize("alpha,r,want", [
    (-0.5, 1e4, 8.020213881352351475e-8),
    (-0.5, 1e5, 2.5098517714578092754e-9),
    (-0.9, 1e5, 2.1608939026588338253e-8),
])
def test_kernel_below_alpha_zero_thousands_of_gaps_out(alpha, r, want):
    # the ray starts low enough that the bound on its head stays below
    # rel_tol G here; mpmath at 30 digits on the same pi/4 ray
    got = hitting_kernel(ModelParams(alpha, 1), LevelPair(2.0, 1.0), r)
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_far_tail_approaches_the_far_field_kernel(alpha, n):
    # G / K_{alpha,c} - 1 falls with r; a radius the ray cannot resolve
    # raises instead
    p, lv = ModelParams(alpha, n), LevelPair(2.0, 1.0)
    c = (lv.y ** (2.0 * p.nu) - lv.eta ** (2.0 * p.nu)) ** (0.5 / p.nu)
    dev = {}
    for r in (100.0, 1000.0):
        try:
            dev[r] = hitting_kernel(p, lv, r) / kernel_profile(p, r, c) - 1.0
        except QuadratureError:
            pass
    if len(dev) == 2:
        assert abs(dev[1000.0]) <= 0.1 * abs(dev[100.0]), dev


@pytest.mark.parametrize("alpha,n", [(1.5, 1), (3.0, 1), (1.5, 2), (3.0, 2)])
def test_kernel_matches_lobe_route(alpha, n):
    # the old Hankel inversion between the zeros of J, independent of the
    # ray, complex Bessel-K and the far-field kernel
    p, lv = ModelParams(alpha, n), LevelPair(2.0, 0.75)
    for r in (0.4, 1.5, 3.0):
        assert hitting_kernel(p, lv, r) == pytest.approx(
            lobe_density(p, lv, r), rel=1e-9), r


# ---------------------------------------------------------- semigroup_check


def test_semigroup_cauchy_scales_add():
    # alpha=0 convolution of Cauchy(1) with Cauchy(1) is Cauchy(2); any
    # deviation is pure lattice truncation/discretization
    p = ModelParams(alpha=0.0, n=1)
    grid = Grid(origin=(-30.0,), spacing=0.5, shape=(121,))
    dev = semigroup_check(p, 3.0, 2.0, 1.0, grid)
    assert dev <= 1e-3


def test_semigroup_alpha_three():
    p = ModelParams(alpha=3.0, n=1)
    grid = Grid(origin=(-20.0,), spacing=0.5, shape=(81,))
    dev = semigroup_check(p, 3.0, 2.0, 1.0, grid)
    assert dev <= 1e-3


def test_semigroup_validates_levels_and_grid():
    p = ModelParams(alpha=0.0, n=1)
    grid = Grid(origin=(-5.0,), spacing=0.5, shape=(21,))
    with pytest.raises(ValueError, match="y > eta2 > eta1"):
        semigroup_check(p, 1.0, 2.0, 3.0, grid)
    with pytest.raises(ValueError, match="grid is"):
        semigroup_check(
            ModelParams(alpha=0.0, n=2), 3.0, 2.0, 1.0, grid)
