import math

import numpy as np
import pytest

from gasp.boundary_data import (
    BoundaryData,
    CriticalCase,
    Grid,
    SubcriticalCase,
    WeightedTerm,
    sharpness_data,
)
from gasp.extension import extend_point
from gasp.growth import (
    GrowthScan,
    counterexample_track,
    far_field_integral,
    l1_data_scan,
    sphere_sup_scan,
    u_tilde,
)
from gasp.kernel import HalfSpacePoint, ModelParams, MultiIndex


def tent_data(alpha, n, m=65, center=0.0, sign=1.0):
    g = Grid(origin=(center - 1.0,) + (-1.0,) * (n - 1),
             spacing=2.0 / (m - 1), shape=(m,) * n)
    rsq = np.zeros(g.shape)
    for axis in range(n):
        dims = [1] * n
        dims[axis] = m
        c = g.axis_coords(axis) - (center if axis == 0 else 0.0)
        rsq = rsq + (c * c).reshape(dims)
    vals = sign * np.maximum(0.0, 1.0 - np.sqrt(rsq))
    return BoundaryData(
        params_hint=ModelParams(alpha=alpha, n=n),
        terms=(WeightedTerm(beta=MultiIndex((0,) * n), grid=g,
                            values=vals.ravel()),),
    )


def merge(a, b):
    return BoundaryData(params_hint=a.params_hint, terms=a.terms + b.terms)


# ------------------------------------------------------------------ u_tilde


def test_u_tilde_closed_form_alpha0():
    got = u_tilde(ModelParams(alpha=0.0, n=1))
    assert got == pytest.approx((math.pi / 2 - math.log(2)) / math.pi, rel=1e-12)


def test_u_tilde_quadrature_oracle():
    # 30-digit reference for a nonclassical parameter pair
    got = u_tilde(ModelParams(alpha=2.5, n=2))
    assert got == pytest.approx(0.32663222293878048733, rel=1e-10)


def test_u_tilde_positive():
    for alpha, n in [(-0.5, 1), (0.0, 3), (4.0, 2)]:
        assert u_tilde(ModelParams(alpha=alpha, n=n)) > 0.0


# ----------------------------------------------------------- sphere_sup_scan


def test_null_solution_gives_constant_one():
    p = ModelParams(alpha=1.5, n=1)
    scan = sphere_sup_scan(
        lambda x, y: y ** (p.alpha + 1.0), p, 0, [1.0, 10.0, 100.0],
        theta_count=32)
    assert np.max(np.abs(scan.sup_values - 1.0)) < 1e-10
    assert np.all(scan.argmax_theta == 0.0)


def test_zero_evaluator_gives_zeros():
    p = ModelParams(alpha=0.0, n=2)
    scan = sphere_sup_scan(lambda x, y: 0.0, p, 3, [2.0, 4.0], theta_count=16)
    assert np.all(scan.sup_values == 0.0)


def test_theta_grid_stays_short_of_the_pole():
    p = ModelParams(alpha=0.0, n=1)
    scan = sphere_sup_scan(lambda x, y: 1.0 / max(y, 1e-300), p, 0, [1.0],
                           theta_count=16)
    assert np.all(scan.argmax_theta < 0.5 * math.pi)


def test_scan_resolution_stable():
    # doubling theta_count moves M(r) by well under 1% for smooth u
    p = ModelParams(alpha=0.0, n=1)
    data = tent_data(0.0, 1)
    coarse = l1_data_scan(data, p, [6.0, 24.0], theta_count=32)
    fine = l1_data_scan(data, p, [6.0, 24.0], theta_count=64)
    rel = np.abs(fine.sup_values - coarse.sup_values) / fine.sup_values
    assert np.max(rel) <= 0.01


def test_scan_validation():
    p = ModelParams(alpha=0.0, n=1)
    u = lambda x, y: 1.0
    with pytest.raises(ValueError, match="m must be"):
        sphere_sup_scan(u, p, -1, [1.0])
    with pytest.raises(ValueError, match="m must be"):
        sphere_sup_scan(u, p, 1.5, [1.0])
    with pytest.raises(ValueError, match="theta_count"):
        sphere_sup_scan(u, p, 0, [1.0], theta_count=8)
    with pytest.raises(ValueError, match="increasing"):
        sphere_sup_scan(u, p, 0, [2.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        sphere_sup_scan(u, p, 0, [-1.0, 1.0])
    with pytest.raises(ValueError, match="nonempty"):
        sphere_sup_scan(u, p, 0, [])


def test_scan_records_are_read_only():
    p = ModelParams(alpha=0.0, n=1)
    scan = sphere_sup_scan(lambda x, y: 1.0, p, 0, [1.0], theta_count=16)
    with pytest.raises(ValueError):
        scan.sup_values[0] = 7.0


def test_growth_scan_shape_mismatch():
    with pytest.raises(ValueError, match="match r_values"):
        GrowthScan(r_values=(1.0, 2.0), theta_count=16, m=0,
                   sup_values=np.zeros(3), argmax_theta=np.zeros(3))


# -------------------------------------------------------------- l1_data_scan


def test_tent_scan_decays_alpha0():
    p = ModelParams(alpha=0.0, n=1)
    rs = [4.0, 6.3, 10.0, 16.0, 25.0, 40.0]
    scan = l1_data_scan(tent_data(0.0, 1), p, rs)
    assert np.all(np.diff(scan.sup_values) < 0.0)
    # one decade, 4 -> 40
    assert scan.sup_values[-1] / scan.sup_values[0] <= 0.2


def test_tent_scan_decays_alpha25_n2():
    p = ModelParams(alpha=2.5, n=2)
    scan = l1_data_scan(tent_data(2.5, 2, m=33), p, [4.0, 8.0, 16.0, 32.0],
                        theta_count=16)
    assert np.all(np.diff(scan.sup_values) < 0.0)


def test_zero_mass_dipole_decays_faster():
    p = ModelParams(alpha=0.0, n=1)
    tent = tent_data(0.0, 1)
    dipole = merge(tent, tent_data(0.0, 1, center=0.5, sign=-1.0))
    r = 128.0
    m_tent = l1_data_scan(tent, p, [r], theta_count=32).sup_values[0]
    m_dip = l1_data_scan(dipole, p, [r], theta_count=32).sup_values[0]
    assert m_dip < 0.1 * m_tent


@pytest.mark.parametrize("case", ["n1", "n2", "two_terms"])
def test_l1_scan_is_the_sphere_scan_of_extend_point(case):
    # the batched direct sum keeps the records of the per-point route
    if case == "n1":
        data, rs = tent_data(0.0, 1), [2.0, 8.0, 32.0]
    elif case == "n2":
        data, rs = tent_data(2.5, 2, m=33), [1.5, 4.0, 16.0]
    else:
        data = merge(tent_data(1.0, 1), tent_data(1.0, 1, center=0.5,
                                                  sign=-1.0))
        rs = [1.0, 3.0, 12.0]
    p = data.params_hint
    scan = l1_data_scan(data, p, rs, theta_count=32)
    want = sphere_sup_scan(
        lambda x, y: extend_point(data, p, HalfSpacePoint(tuple(x), y)),
        p, 0, rs, theta_count=32)
    assert scan.r_values == want.r_values
    assert np.all(np.abs(scan.sup_values / want.sup_values - 1.0) <= 1e-13)
    assert np.array_equal(scan.argmax_theta, want.argmax_theta)


def test_scan_rejects_derivative_data():
    p = ModelParams(alpha=0.0, n=1)
    g = Grid(origin=(-1.0,), spacing=0.5, shape=(5,))
    term = WeightedTerm(beta=MultiIndex((1,)), grid=g, values=np.ones(5))
    data = BoundaryData(params_hint=p, terms=(term,))
    with pytest.raises(ValueError, match="function-type"):
        l1_data_scan(data, p, [4.0])
    with pytest.raises(ValueError, match="function-type"):
        far_field_integral(p, data, 4.0)


# -------------------------------------------------------- far-field envelope


def test_far_field_envelope_bounds_scan():
    p = ModelParams(alpha=0.0, n=1)
    data = tent_data(0.0, 1)
    rs = [4.0, 16.0, 64.0]
    scan = l1_data_scan(data, p, rs)
    cap = p.c_norm * 8.0 ** (0.5 * p.mu)
    for i, r in enumerate(rs):
        assert scan.sup_values[i] <= cap * far_field_integral(p, data, r)


def test_far_field_integral_decreases():
    p = ModelParams(alpha=1.0, n=1)
    data = tent_data(1.0, 1)
    vals = [far_field_integral(p, data, r) for r in (4.0, 8.0, 16.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_far_field_integral_validation():
    p = ModelParams(alpha=0.0, n=1)
    data = tent_data(0.0, 1)
    with pytest.raises(ValueError):
        far_field_integral(p, data, 0.0)
    with pytest.raises(ValueError):
        far_field_integral(p, data, math.inf)


# ------------------------------------------------------ counterexample_track


def test_track_case_a_stays_above_half_u_tilde():
    p = ModelParams(alpha=0.0, n=1)
    ut = u_tilde(p)
    track = counterexample_track(p, SubcriticalCase(beta=0.0, gamma=0.0), 10)
    assert [k for k, _ in track] == list(range(1, 11))
    assert all(v >= 0.5 * ut for k, v in track if k >= 4)
    # subcritical: the scaled quantity actually diverges
    vals = [v for _, v in track]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_track_case_a_with_weights():
    p = ModelParams(alpha=1.0, n=1)
    track = counterexample_track(p, SubcriticalCase(beta=0.3, gamma=0.4), 8)
    assert all(v > 0.0 for _, v in track)


def test_track_case_b_converges_to_u_tilde():
    p = ModelParams(alpha=1.0, n=1)
    ut = u_tilde(p)
    track = counterexample_track(p, CriticalCase(gamma=0.5), 12)
    tail = [v for _, v in track[-3:]]
    assert all(v == pytest.approx(ut, rel=1e-3) for v in tail)
    assert all(v >= 0.5 * ut for k, v in track if k >= 4)


def test_track_matches_direct_extension_at_small_k():
    # the single-bump bound should agree with extending the full bump data:
    # the dropped bumps contribute a vanishing relative amount
    p = ModelParams(alpha=0.0, n=1)
    case = SubcriticalCase(beta=0.0, gamma=0.0)
    data, points = sharpness_data(p, case, 4)
    track = counterexample_track(p, case, 4)
    for k in (2, 3):
        pt = points[k - 1]
        direct = extend_point(data, p, pt)  # beta=gamma=0: ratio is u itself
        assert direct == pytest.approx(track[k - 1][1], rel=1e-2)


def test_track_overflow_reports_inf():
    p = ModelParams(alpha=60.0, n=1)
    track = counterexample_track(p, SubcriticalCase(beta=0.0, gamma=0.0), 20)
    assert math.isinf(track[-1][1])
    assert track[0][1] > 0.0 and math.isfinite(track[0][1])


def test_track_validation():
    p = ModelParams(alpha=0.0, n=1)
    with pytest.raises(ValueError, match="k_max"):
        counterexample_track(p, SubcriticalCase(beta=0.0, gamma=0.0), 0)
    with pytest.raises(ValueError, match="k_max"):
        counterexample_track(p, SubcriticalCase(beta=0.0, gamma=0.0), 65)
    with pytest.raises(ValueError, match="subcritical"):
        counterexample_track(p, SubcriticalCase(beta=1.0, gamma=1.0), 4)
    with pytest.raises(ValueError, match="critical"):
        counterexample_track(p, CriticalCase(gamma=1.0), 4)
    with pytest.raises(TypeError):
        counterexample_track(p, "case A", 4)
