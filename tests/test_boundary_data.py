import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasp.boundary_data import (
    BoundaryData,
    CriticalCase,
    Grid,
    SchemaError,
    SubcriticalCase,
    WeightedTerm,
    load_data,
    save_data,
    sharpness_data,
    weight_alpha,
    weighted_l1_norm,
)
from gasp.kernel import ModelParams, MultiIndex


def tent_term(m=257):
    g = Grid(origin=(-1.0,), spacing=2.0 / (m - 1), shape=(m,))
    x = g.axis_coords(0)
    return WeightedTerm(MultiIndex((0,)), g, np.maximum(0.0, 1.0 - np.abs(x)))


# ---------------------------------------------------------------------------
# types


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(origin=(0.0,), spacing=0.0, shape=(3,))
    with pytest.raises(ValueError):
        Grid(origin=(0.0,), spacing=-1.0, shape=(3,))
    with pytest.raises(ValueError):
        Grid(origin=(0.0, 0.0), spacing=0.1, shape=(3,))
    with pytest.raises(ValueError):
        Grid(origin=(0.0,), spacing=0.1, shape=(0,))
    with pytest.raises(ValueError):
        Grid(origin=(math.inf,), spacing=0.1, shape=(3,))


def test_weighted_term_validation():
    g = Grid(origin=(0.0,), spacing=0.1, shape=(3,))
    with pytest.raises(ValueError):
        WeightedTerm(MultiIndex((0, 0)), g, np.zeros(3))
    with pytest.raises(ValueError):
        WeightedTerm(MultiIndex((0,)), g, np.zeros(4))
    with pytest.raises(ValueError):
        WeightedTerm(MultiIndex((0,)), g, np.array([0.0, np.nan, 0.0]))
    single = Grid(origin=(0.0,), spacing=0.1, shape=(1,))
    with pytest.raises(ValueError):
        WeightedTerm(MultiIndex((0,)), single, np.zeros(1))


def test_term_values_are_read_only():
    t = tent_term()
    with pytest.raises(ValueError):
        t.values[0] = 7.0


def test_boundary_data_dimension_check():
    t = tent_term()
    BoundaryData(ModelParams(0.0, 1), (t,))
    with pytest.raises(ValueError):
        BoundaryData(ModelParams(0.0, 2), (t,))


def test_empty_boundary_data_is_valid():
    d = BoundaryData(ModelParams(1.0, 2), ())
    assert d.terms == ()


# ---------------------------------------------------------------------------
# weight function


def test_weight_basics():
    p = ModelParams(0.0, 1)
    assert weight_alpha(p, 0.0) == 1.0
    # alpha = 0, n = 1: w(x) = 1 + x^2
    assert weight_alpha(p, 3.0) == pytest.approx(10.0, rel=1e-14)
    p2 = ModelParams(0.0, 2)
    assert weight_alpha(p2, [3.0, 4.0]) == pytest.approx(26.0 ** 1.5, rel=1e-14)
    with pytest.raises(ValueError):
        weight_alpha(p2, [1.0, 2.0, 3.0])


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-20.0, 20.0), alpha=st.floats(-0.9, 4.0))
def test_weight_at_least_one(x, alpha):
    assert weight_alpha(ModelParams(alpha, 1), x) >= 1.0


# ---------------------------------------------------------------------------
# weighted norm


def test_norm_zero_iff_zero():
    g = Grid(origin=(-1.0,), spacing=0.25, shape=(9,))
    z = WeightedTerm(MultiIndex((0,)), g, np.zeros(9))
    assert weighted_l1_norm(z, ModelParams(0.0, 1)) == 0.0
    one_sample = np.zeros(9)
    one_sample[0] = 1e-12
    t = WeightedTerm(MultiIndex((0,)), g, one_sample)
    assert weighted_l1_norm(t, ModelParams(0.0, 1)) > 0.0


def test_norm_tent_against_fine_grid_oracle():
    # int_{-1}^{1} (1-|x|) (1+x^2)^{-1} dx, oracle: 1e6-point trapezoid
    # (agrees with the closed form pi/2 - ln 2 to 3e-13)
    want = 0.8776491462349513
    got = weighted_l1_norm(tent_term(m=4097), ModelParams(0.0, 1))
    assert got == pytest.approx(want, rel=1e-6)


def test_norm_second_order_in_spacing():
    want = 0.8776491462349513
    p = ModelParams(0.0, 1)
    e1 = abs(weighted_l1_norm(tent_term(m=257), p) - want)
    e2 = abs(weighted_l1_norm(tent_term(m=513), p) - want)
    assert 3.0 <= e1 / e2 <= 5.0


def test_norm_small_block_is_volume():
    # height-1 block on [0, h]^n has norm ~ h^n since w(0) = 1
    h = 1.0 / 64
    for n in (1, 2):
        p = ModelParams(0.5, n)
        g = Grid(origin=(0.0,) * n, spacing=h / 16, shape=(17,) * n)
        t = WeightedTerm(MultiIndex((0,) * n), g, np.ones(17 ** n))
        assert weighted_l1_norm(t, p) == pytest.approx(h ** n, rel=1e-3)


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        weighted_l1_norm(tent_term(), ModelParams(0.0, 2))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-100.0, 100.0))
def test_norm_scaling(c):
    t = tent_term(m=65)
    scaled = WeightedTerm(t.beta, t.grid, c * t.values)
    p = ModelParams(1.0, 1)
    base = weighted_l1_norm(t, p)
    assert weighted_l1_norm(scaled, p) \
        == pytest.approx(abs(c) * base, rel=1e-13, abs=1e-300)


def test_norm_nonincreasing_in_alpha():
    t = tent_term(m=129)
    norms = [weighted_l1_norm(t, ModelParams(a, 1))
             for a in (-0.5, 0.0, 1.0, 2.5, 4.0)]
    assert all(b <= a for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# sharpness construction


def test_sharpness_subcritical_choices():
    p = ModelParams(0.0, 1)
    data, points = sharpness_data(p, SubcriticalCase(0.0, 0.0), 3)
    assert len(data.terms) == len(points) == 3
    for k, (term, pt) in enumerate(zip(data.terms, points), start=1):
        assert pt.x[0] == pytest.approx(math.exp(k), rel=1e-15)
        assert pt.y == pytest.approx(k ** -2.0, rel=1e-15)
        assert term.beta.order == 0
        # peak sample sits at the centre, height e^{k(alpha+n+1)}
        assert term.values.max() == pytest.approx(math.exp(2.0 * k), rel=1e-12)
        # grid spans the support ball
        lo = term.grid.origin[0]
        hi = lo + term.grid.spacing * (term.grid.shape[0] - 1)
        assert lo == pytest.approx(pt.x[0] - pt.y, rel=1e-14)
        assert hi == pytest.approx(pt.x[0] + pt.y, rel=1e-14)


def test_sharpness_series_terms():
    # f_k rho_k^n / a_k^{alpha+n+1} = k^{-2n}, summable
    p = ModelParams(1.0, 1)
    data, points = sharpness_data(p, SubcriticalCase(0.5, 0.5), 5)
    for k, (term, pt) in enumerate(zip(data.terms, points), start=1):
        f_k = term.values.max()
        got = f_k * pt.y / pt.x[0] ** p.mu
        assert got == pytest.approx(k ** -2.0, rel=1e-11)


def test_sharpness_bump_mass():
    # tent integral in one dimension is f_k * rho_k, and trapezoid is
    # exact for a piecewise-linear function with on-grid kinks
    p = ModelParams(0.0, 1)
    data, points = sharpness_data(p, SubcriticalCase(0.0, 0.0), 4)
    for term, pt in zip(data.terms, points):
        mass = np.trapezoid(term.values, dx=term.grid.spacing)
        assert mass == pytest.approx(term.values.max() * pt.y, rel=1e-12)


def test_sharpness_balls_disjoint():
    p = ModelParams(0.0, 1)
    _, points = sharpness_data(p, SubcriticalCase(0.0, 0.0), 6)
    for a, b in zip(points, points[1:]):
        assert a.x[0] + a.y < b.x[0] - b.y


def test_sharpness_critical_height_identity():
    # on the critical line rho_k^gamma f_k = e^{k(alpha+n+1)} exactly
    p = ModelParams(0.0, 1)
    gamma = 0.5
    data, points = sharpness_data(p, CriticalCase(gamma), 4)
    for k, (term, pt) in enumerate(zip(data.terms, points), start=1):
        eps = p.n - gamma
        assert pt.y == pytest.approx(k ** -((1.0 + eps) / eps), rel=1e-15)
        got = pt.y ** gamma * term.values.max()
        assert got == pytest.approx(math.exp(k * p.mu), rel=1e-12)


def test_sharpness_n2_geometry():
    p = ModelParams(0.0, 2)
    data, points = sharpness_data(p, SubcriticalCase(1.0, 0.5), 2)
    assert data.terms[0].grid.shape == (65, 65)
    assert points[0].x == (math.exp(1), 0.0)
    # weighted norm of the whole data is finite and positive
    total = sum(weighted_l1_norm(t, p) for t in data.terms)
    assert 0.0 < total < math.inf


def test_sharpness_validation():
    p = ModelParams(0.0, 1)
    with pytest.raises(ValueError):
        sharpness_data(p, SubcriticalCase(1.5, 0.5), 3)  # beta+gamma = mu
    with pytest.raises(ValueError):
        sharpness_data(p, CriticalCase(1.0), 3)  # gamma = n
    with pytest.raises(ValueError):
        sharpness_data(p, SubcriticalCase(0.0, 0.0), 0)
    with pytest.raises(ValueError):
        sharpness_data(p, SubcriticalCase(0.0, 0.0), 13)
    with pytest.raises(TypeError):
        sharpness_data(p, "subcritical", 3)


def test_sharpness_overflow_guard():
    # alpha + n + 1 = 62 at k = 12 exceeds the double range
    p = ModelParams(60.0, 1)
    with pytest.raises(ValueError):
        sharpness_data(p, SubcriticalCase(0.0, 0.0), 12)


# ---------------------------------------------------------------------------
# file I/O


def test_round_trip_bit_exact(tmp_path):
    p = ModelParams(0.3, 1)
    data, _ = sharpness_data(p, SubcriticalCase(0.0, 0.0), 3)
    path = tmp_path / "data.json"
    save_data(data, path)
    back = load_data(path)
    assert back.params_hint == p
    assert len(back.terms) == 3
    for a, b in zip(data.terms, back.terms):
        assert a.beta == b.beta
        assert a.grid == b.grid
        assert np.array_equal(a.values, b.values)


def test_round_trip_empty(tmp_path):
    path = tmp_path / "zero.json"
    save_data(BoundaryData(ModelParams(0.0, 2), ()), path)
    back = load_data(path)
    assert back.terms == ()
    assert back.params_hint.n == 2


def _write(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    return path


TERM = ('{"beta": [0], "origin": [0.0], "spacing": 0.1, "shape": [2], '
        '"values": [1.0, 2.0]}')


@pytest.mark.parametrize("doc,needle", [
    ('[1, 2]', "expected an object"),
    ('{"alpha": 0.0, "n": 1}', "missing field 'terms'"),
    ('{"alpha": 0.0, "n": 1, "terms": [], "extra": 1}', "unknown field 'extra'"),
    ('{"alpha": true, "n": 1, "terms": []}', "alpha"),
    ('{"alpha": -2.0, "n": 1, "terms": []}', "alpha"),
    ('{"alpha": 0.0, "n": 1.5, "terms": []}', "n"),
    ('{"alpha": 0.0, "n": 1, "terms": 3}', "terms"),
    ('{"alpha": 0.0, "n": 1, "terms": [5]}', "terms[0]"),
    ('{"alpha": 0.0, "n": 1, "terms": [' + TERM.replace('"spacing"', '"gap"')
     + ']}', "terms[0]"),
    ('{"alpha": 0.0, "n": 1, "terms": [' + TERM.replace('[1.0, 2.0]',
                                                        '[1.0, 2.0, 3.0]')
     + ']}', "terms[0].values"),
    ('{"alpha": 0.0, "n": 2, "terms": [' + TERM + ']}', "does not match n=2"),
    ('{"alpha": 0.0, "n": 1, "terms": [' + TERM.replace('[0]', '[9]')
     + ']}', "order 9"),
    ('{"alpha": 0.0, "n": 1, "terms": [' + TERM.replace('0.1', '-0.1')
     + ']}', "spacing"),
    ('not json at all', "not valid JSON"),
] + [
    # lists hold flat number tokens; the value types take no bool, string,
    # null or float where an integer belongs, and never truncate
    ('{"alpha": 0.0, "n": 1, "terms": [' + TERM.replace(old, new) + ']}',
     "terms[0]." + field)
    for field, old, new in [
        ("origin", '[0.0]', '["1.5"]'), ("origin", '[0.0]', '[null]'),
        ("values", '[1.0, 2.0]', '[1.0, true]'),
        ("values", '[1.0, 2.0]', '[[1.0], [2.0]]'),
        ("values", '[1.0, 2.0]', '"1.0, 2.0"'),
        ("shape", '[2]', '[2.0]'), ("shape", '[2]', '[true]'),
        ("beta", '[0]', '[0.0]'),
        ("spacing", '0.1', 'null'), ("spacing", '0.1', '"0.1"')]
])
def test_schema_errors(tmp_path, doc, needle):
    with pytest.raises(SchemaError) as err:
        load_data(_write(tmp_path, doc))
    assert needle in str(err.value)


@pytest.mark.parametrize("make", [
    lambda: Grid((0.0,), 0.1, (2.7,)),
    lambda: Grid((0.0,), 0.1, (2.0,)),
    lambda: Grid(("1.5",), 0.1, (2,)),
    lambda: Grid((0.0,), None, (2,)),
    lambda: Grid((0.0,), True, (2,)),
    lambda: Grid(((0.0, 1.0),), 0.1, (2,)),
    lambda: WeightedTerm(MultiIndex((0,)), Grid((0.0,), 0.1, (2,)), ["1.0", "2.0"]),
    lambda: WeightedTerm(MultiIndex((0,)), Grid((0.0,), 0.1, (2,)), [["1.0"], [True]]),
    lambda: WeightedTerm(MultiIndex((0,)), Grid((0.0,), 0.1, (2,)), [True, False]),
    lambda: WeightedTerm(MultiIndex((0,)), Grid((0.0,), 0.1, (2,)), [1.0, None]),
    lambda: SubcriticalCase(-math.inf, 0.0),
    lambda: SubcriticalCase("0.5", 0.0),
    lambda: CriticalCase(math.nan),
    lambda: sharpness_data(ModelParams(0.0, 1), SubcriticalCase(0.0, 0.0), 2.7),
], ids=lambda _: "")
def test_grid_and_term_raise_value_error_and_never_coerce(make):
    with pytest.raises(ValueError):
        make()
