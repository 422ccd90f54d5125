import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasp._quadrature import QuadratureError
from gasp.kernel import ModelParams
from gasp.spectral import (
    ft_closed_form,
    ft_direct,
    ft_integral_rep,
    profile_ode_residual,
)


# ---------------------------------------------------------------------------
# closed form


def test_ft_closed_form_poisson_case():
    p = ModelParams(0.0, 1)
    assert ft_closed_form(p, 2.0, 0.5) == pytest.approx(math.exp(-1.0),
                                                        rel=1e-12)
    assert ft_closed_form(p, 1.0, 0.0) == 1.0


def test_ft_closed_form_k1_value():
    p = ModelParams(1.0, 1)
    assert ft_closed_form(p, 1.0, 1.0) \
        == pytest.approx(0.60190723019723457, rel=1e-10)


def test_ft_closed_form_scale_invariance():
    p = ModelParams(2.3, 2)
    assert ft_closed_form(p, 2.0, 1.5) \
        == pytest.approx(ft_closed_form(p, 1.0, 3.0), rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-0.9, 5.0), y=st.floats(0.1, 5.0),
       xi=st.floats(0.0, 10.0), dxi=st.floats(0.05, 5.0))
def test_ft_closed_form_bounds_and_monotone(alpha, y, xi, dxi):
    p = ModelParams(alpha, 1)
    a = ft_closed_form(p, y, xi)
    b = ft_closed_form(p, y, xi + dxi)
    assert 0.0 < b < a <= 1.0


# ---------------------------------------------------------------------------
# integral representation


def test_ft_integral_rep_alpha0_is_exponential():
    p = ModelParams(0.0, 1)
    for b in (0.3, 1.0, 7.0):
        assert ft_integral_rep(p, 1.0, b) == pytest.approx(math.exp(-b),
                                                           rel=1e-11)


@pytest.mark.parametrize("alpha", [-0.5, 1.0, 2.0, 3.7])
def test_ft_integral_rep_matches_closed_form(alpha):
    p = ModelParams(alpha, 1)
    for b in (0.1, 1.0, 20.0):
        a = ft_integral_rep(p, 1.0, b)
        c = ft_closed_form(p, 1.0, b)
        assert abs(a - c) <= 1e-9 * c


def test_ft_integral_rep_large_argument_scaled_agreement():
    # at y|xi| = 30 both routes are ~1e-11 in absolute size; the relative
    # agreement is what matters
    p = ModelParams(3.7, 2)
    a = ft_integral_rep(p, 1.0, 30.0)
    c = ft_closed_form(p, 1.0, 30.0)
    assert abs(a - c) <= 1e-8 * c


@pytest.mark.parametrize("alpha", [-0.5, 1.0, 30.0, 60.0, 150.0, 200.0, 1000.0])
def test_ft_integral_rep_large_alpha_in_logs(alpha):
    # in plain floats the integrand u^{alpha/2} (2 + u/b)^{alpha/2} warned of
    # overflow from alpha = 30, and Gamma(alpha + 1) overflowed from 170
    p = ModelParams(alpha, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y, xi in ((1.0, 0.5), (1.0, 1e-3), (2.0, 3.0), (1.0, 30.0), (1.0, 1e-6),
                      (1.0, 100.0)):
            a = ft_integral_rep(p, y, xi)
            c = float(ft_closed_form(p, y, xi))
            assert abs(a - c) <= 1e-10 * c, (y, xi)


def test_ft_integral_rep_domain():
    p = ModelParams(1.0, 1)
    with pytest.raises(ValueError):
        ft_integral_rep(p, 1.0, 0.0)


# ---------------------------------------------------------------------------
# direct transform


def test_ft_direct_zero_frequency_is_mass():
    p = ModelParams(1.5, 1)
    assert ft_direct(p, 0.7, [0.0]) == pytest.approx(1.0, abs=1e-9)


def test_ft_direct_poisson_n1():
    p = ModelParams(0.0, 1)
    got = ft_direct(p, 1.0, [2.0])
    assert got == pytest.approx(math.exp(-2.0), rel=1e-7)


def test_ft_direct_alpha3_matches_closed():
    p = ModelParams(3.0, 1)
    got = ft_direct(p, 1.0, [1.0])
    assert got == pytest.approx(ft_closed_form(p, 1.0, 1.0), rel=1e-7)


def test_ft_direct_negative_frequency_symmetry():
    p = ModelParams(1.0, 1)
    assert ft_direct(p, 1.0, [-1.5]) \
        == pytest.approx(ft_direct(p, 1.0, [1.5]), rel=1e-10)


def test_ft_direct_n2_axis_and_diagonal():
    p = ModelParams(2.0, 2)
    c = ft_closed_form(p, 1.0, 1.5)
    axis = ft_direct(p, 1.0, [1.5, 0.0])
    r = 1.5 / math.sqrt(2.0)
    diag = ft_direct(p, 1.0, [r, r])
    swapped = ft_direct(p, 1.0, [0.0, 1.5])
    assert axis == pytest.approx(c, rel=1e-6)
    assert diag == pytest.approx(c, rel=1e-6)
    assert swapped == pytest.approx(c, rel=1e-6)


def test_ft_direct_scale_invariance():
    p = ModelParams(0.5, 1)
    a = ft_direct(p, 2.0, [1.5])
    b = ft_direct(p, 1.0, [3.0])
    assert a == pytest.approx(b, rel=1e-8)


def test_ft_direct_three_way_sample():
    for alpha, n, y, b in [(-0.5, 1, 0.25, 0.1), (2.0, 2, 4.0, 5.0),
                           (3.7, 2, 0.25, 20.0), (0.0, 2, 1.0, 1.0)]:
        p = ModelParams(alpha, n)
        xi_norm = b / y
        xi = [xi_norm] + [0.0] * (n - 1)
        c = ft_closed_form(p, y, xi_norm)
        i = ft_integral_rep(p, y, xi_norm)
        d = ft_direct(p, y, xi)
        assert abs(i - c) <= 1e-8 * c
        assert abs(d - c) <= 1e-5 * c


# criterion 03's grid, with xi along each axis and off them at n = 2
_DIRECTIONS = [(1.0,), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.6, 0.8),
               (-0.6, 0.8), (0.8, -0.6)]


@pytest.mark.parametrize("direction", _DIRECTIONS)
def test_ft_direct_matches_closed_form_on_criterion_grid(direction):
    unit = np.array(direction) / np.linalg.norm(direction)
    worst = 0.0
    for alpha in (-0.5, 0.0, 1.0, 2.0, 3.7):
        p = ModelParams(alpha, unit.size)
        for y in (0.25, 1.0, 4.0):
            for b in (0.1, 1.0, 5.0, 20.0):
                closed = float(ft_closed_form(p, y, b / y))
                direct = ft_direct(p, y, b / y * unit)
                worst = max(worst, abs(direct - closed) / closed)
    assert worst <= 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_ft_direct_at_large_alpha(n):
    # the kernel is a narrow bump there; a steeper ray turns it into a chirp.
    # At y = 1e-4, y^(alpha+1) underflows and S^-s overflows on their own
    for alpha in (30.0, 300.0):
        p = ModelParams(alpha, n)
        for y in (1.0, 1e-4):
            for b in (0.5, 5.0):
                xi = [b / y] + [0.0] * (n - 1)
                assert ft_direct(p, y, xi) \
                    == pytest.approx(float(ft_closed_form(p, y, b / y)), rel=1e-8)


def test_ft_direct_calls_no_bessel_code(monkeypatch):
    import gasp.special_functions
    import gasp.spectral

    def refuse(*args, **kwargs):
        raise AssertionError("ft_direct reached Bessel code")

    monkeypatch.setattr(gasp.special_functions, "log_bessel_k", refuse)
    monkeypatch.setattr(gasp.spectral, "phi_nu", refuse)
    assert ft_direct(ModelParams(0.0, 1), 1.0, [2.0]) \
        == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert ft_direct(ModelParams(0.0, 2), 1.0, [0.6, -0.8]) \
        == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert ft_direct(ModelParams(1.5, 2), 1.0, [0.0, 0.0]) \
        == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, xi", [(1, [2.0]), (2, [1.0, 1.0]), (2, [2.0, 0.0])])
def test_ft_direct_too_coarse_rule_raises(n, xi, monkeypatch):
    import gasp.spectral

    monkeypatch.setattr(gasp.spectral, "_FT_STEP", 0.5)
    monkeypatch.setattr(gasp.spectral, "_FT_LEVELS", 1)
    with pytest.raises(QuadratureError):
        ft_direct(ModelParams(0.0, n), 1.0, xi)


def test_ft_direct_raises_below_its_rounding_floor():
    # e^{-40} = 4e-18 lies below the rounding floor of the terms
    with pytest.raises(QuadratureError):
        ft_direct(ModelParams(0.0, 1), 1.0, [40.0])


def test_ft_direct_validation():
    with pytest.raises(ValueError):
        ft_direct(ModelParams(0.0, 3), 1.0, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ft_direct(ModelParams(0.0, 2), 1.0, [1.0])
    with pytest.raises(ValueError):
        ft_direct(ModelParams(0.0, 1), 0.0, [1.0])


# ---------------------------------------------------------------------------
# the reduced ODE


def test_profile_ode_residual_second_order():
    p = ModelParams(1.3, 1)
    for t in (0.5, 2.0, 10.0):
        r1 = profile_ode_residual(p, t, h=1e-2)
        r2 = profile_ode_residual(p, t, h=5e-3)
        # the residual itself is O(h^2); successive halving divides it by ~4
        assert abs(r1) < 1e-4
        order = math.log2(abs(r1) / abs(r2))
        assert 1.8 <= order <= 2.2


def test_profile_ode_residual_domain():
    p = ModelParams(1.0, 1)
    with pytest.raises(ValueError):
        profile_ode_residual(p, 0.5, h=0.5)
