import math

import numpy as np
import pytest

from gasp import hbm_sim
from gasp.hbm_sim import (
    HitSampleSet,
    SimConfig,
    boundary_kernel_cdf,
    hitting_cdf,
    ks_statistic,
    simulate_paths,
    validate_boundary_law,
    validate_hitting_law,
)
from gasp.hitting import LevelPair, hitting_kernel
from gasp.kernel import HalfSpacePoint, ModelParams


def make_cfg(**kw):
    base = dict(
        p=ModelParams(alpha=0.0, n=1),
        start=HalfSpacePoint(x=(0.0,), y=1.0),
        dt=1e-2,
        y_stop=0.0,
        n_paths=100,
        master_seed=42,
    )
    base.update(kw)
    return SimConfig(**base)


# ------------------------------------------------------------- SimConfig


def test_config_defaults_floor_in_boundary_mode():
    cfg = make_cfg(start=HalfSpacePoint(x=(0.0,), y=2.0))
    assert cfg.boundary_mode
    assert cfg.y_floor == pytest.approx(2e-4)
    assert cfg.stop_level == cfg.y_floor


def test_config_drift_is_nu():
    cfg = make_cfg(p=ModelParams(alpha=3.0, n=1))
    assert cfg.mu == 2.0


@pytest.mark.parametrize("bad", [0.0, -1e-3, 2e-2, math.nan])
def test_config_rejects_bad_dt(bad):
    with pytest.raises(ValueError):
        make_cfg(dt=bad)


def test_config_rejects_bad_paths_and_seed():
    with pytest.raises(ValueError):
        make_cfg(n_paths=0)
    with pytest.raises(ValueError):
        make_cfg(n_paths=2.5)
    with pytest.raises(ValueError):
        make_cfg(master_seed=-1)
    with pytest.raises(ValueError):
        make_cfg(master_seed=2**64)


@pytest.mark.parametrize("field,value", [
    ("dt", None), ("dt", "0.01"), ("n_paths", True), ("master_seed", 1.0),
    ("y_stop", None), ("y_stop", math.nan), ("y_floor", "0.01"), ("y_floor", True)])
def test_config_takes_no_bool_string_or_none_for_a_number(field, value):
    with pytest.raises(ValueError, match=field):
        make_cfg(**{field: value})


def test_config_level_mode_rules():
    cfg = make_cfg(start=HalfSpacePoint(x=(0.0,), y=2.0), y_stop=1.0)
    assert not cfg.boundary_mode and cfg.stop_level == 1.0 and cfg.y_floor is None
    with pytest.raises(ValueError, match="y_stop < start.y"):
        make_cfg(y_stop=1.0)
    with pytest.raises(ValueError, match="boundary mode only"):
        make_cfg(start=HalfSpacePoint(x=(0.0,), y=2.0), y_stop=1.0, y_floor=1e-3)


def test_config_floor_range():
    with pytest.raises(ValueError, match="y_floor"):
        make_cfg(y_floor=0.02)  # above start.y/100
    with pytest.raises(ValueError, match="y_floor"):
        make_cfg(y_floor=0.0)
    assert make_cfg(y_floor=0.01).y_floor == 0.01


def test_config_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensional"):
        make_cfg(p=ModelParams(alpha=0.0, n=2))


# ------------------------------------------------------- determinism


def test_rerun_is_bit_identical():
    cfg = make_cfg(n_paths=150, y_floor=1e-2)
    r1 = simulate_paths(cfg)
    r2 = simulate_paths(cfg)
    assert np.array_equal(r1.samples, r2.samples)
    assert np.array_equal(r1.stop_times, r2.stop_times)


def test_worker_split_is_invisible():
    cfg = make_cfg(n_paths=150, y_floor=1e-2)
    whole = simulate_paths(cfg)
    parts = [simulate_paths(cfg, path_range=(0, 41)),
             simulate_paths(cfg, path_range=(41, 150))]
    assert np.array_equal(
        whole.samples, np.concatenate([q.samples for q in parts]))
    assert np.array_equal(
        whole.stop_times, np.concatenate([q.stop_times for q in parts]))
    assert parts[1].seed_provenance[1][0] == 41


def test_bad_path_range_rejected():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        simulate_paths(cfg, path_range=(50, 200))


def test_samples_are_read_only():
    r = simulate_paths(make_cfg(n_paths=10, y_floor=1e-2))
    with pytest.raises(ValueError):
        r.samples[0] = 0.0


def test_worker_pool_is_invisible():
    # the thread pool gives each worker its own re-keyed generator
    for cfg in (make_cfg(p=ModelParams(alpha=1.0, n=2),
                         start=HalfSpacePoint(x=(0.5, -1.0), y=1.0),
                         n_paths=61, y_floor=1e-2),
                make_cfg(start=HalfSpacePoint(x=(0.0,), y=2.0), y_stop=1.0,
                         n_paths=61)):
        one = simulate_paths(cfg, workers=1)
        two = simulate_paths(cfg, workers=2)
        assert np.array_equal(one.samples, two.samples)
        assert np.array_equal(one.stop_times, two.stop_times)


def _fresh_walk(key):
    """A fresh SFC64 Generator on the first three words of Philox ``key`` at
    counter 0, counter 1, as the layout documents it."""
    sfc = np.random.SFC64()
    state = sfc.state
    words = np.random.Philox(key=key).random_raw(4)
    words[3] = 1
    state["state"]["state"] = words
    sfc.state = state
    return np.random.Generator(sfc)


@pytest.mark.parametrize("seed", [0, 314, 2**64 - 1])
def test_rekeyed_stream_is_a_fresh_philox(seed):
    # block 1 is a fresh Philox at counter 2**192, block 0 a fresh SFC64
    # seeded from the same key's stream at counter 0
    stream = hbm_sim._path_streams(seed)
    for i in (0, 1, 5, 2**40 + 3):
        # a key list goes through float64 at 2**63 and above; the
        # integer key sets the same two words exactly
        key = [seed, i] if seed < 2**63 else seed + (i << 64)
        for block in (0, 1):
            rng = stream(i, block)
            got = (rng.standard_normal(3), rng.integers(2**32, dtype=np.uint32),
                   rng.standard_gamma(0.5), rng.bit_generator.random_raw(5))
            fresh = (np.random.Generator(np.random.Philox(key=key, counter=2**192))
                     if block else _fresh_walk(key))
            want = (fresh.standard_normal(3), fresh.integers(2**32, dtype=np.uint32),
                    fresh.standard_gamma(0.5), fresh.bit_generator.random_raw(5))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


def test_stream_layout_is_documented_one():
    # rebuild each path from fresh streams: one normal per step from the
    # SFC64 walk drives log Y (linear interpolation in log Y at the
    # crossing); from Philox counter 2**192 one G ~ Gamma(mu) below the
    # floor (boundary mode only), then the n normals of X ~ N(start.x, V)
    for n, level in ((1, False), (2, False), (1, True), (2, True)):
        start = HalfSpacePoint(x=(0.25,) * n, y=2.0 if level else 1.0)
        cfg = make_cfg(p=ModelParams(alpha=0.0, n=n), start=start, n_paths=3,
                       master_seed=314, dt=8e-3,
                       **({"y_stop": 1.0} if level else {"y_floor": 1e-2}))
        got = simulate_paths(cfg)
        sq, log_stop = math.sqrt(cfg.dt), math.log(cfg.stop_level)
        for i in range(cfg.n_paths):
            walk = _fresh_walk([314, i])
            logs = math.log(start.y) + np.cumsum(
                walk.standard_normal(8192) * sq - cfg.mu * cfg.dt)
            starts = np.concatenate([[math.log(start.y)], logs[:-1]])
            k = int(np.argmax(logs <= log_stop))
            assert logs[k] <= log_stop
            theta = (starts[k] - log_stop) / (starts[k] - logs[k])
            y2 = np.exp(2.0 * starts[: k + 1])
            v = cfg.dt * (y2[:k].sum() + theta * theta * y2[k])
            tail = np.random.Generator(
                np.random.Philox(key=[314, i], counter=2**192))
            if not level:
                v += cfg.y_floor**2 / (2.0 * tail.standard_gamma(cfg.mu))
            x = np.asarray(start.x) + math.sqrt(v) * tail.standard_normal(n)
            np.testing.assert_allclose(got.samples[i], x, rtol=1e-14, atol=0.0)
            assert got.stop_times[i] == (k + theta) * cfg.dt


def test_neighbouring_walks_are_uncorrelated():
    # every path's walk has its own SFC64 words: a state set under the
    # wrong names would leave one stream for all paths, and correlation 1
    stream = hbm_sim._path_streams(2026)
    z = np.array([stream(i).standard_normal(1000) for i in range(400)])
    assert not np.any(np.all(z[1:] == z[:-1], axis=1))
    z -= z.mean(axis=1, keepdims=True)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    corr = np.sum(z[1:] * z[:-1], axis=1)
    assert np.max(np.abs(corr)) <= 4.0 / math.sqrt(z.shape[1])


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.0, 3.0])
def test_floor_completion_is_the_boundary_kernel(alpha):
    # Dufresne: started at height 1 the rest of a path, N / sqrt(2 G) with
    # G ~ Gamma(mu), has the boundary-kernel law; a wrong Gamma shape or
    # scale moves KS by 0.03 or more, which the 1e-4 floor of a walk hides
    p = ModelParams(alpha=alpha, n=1)
    rng = np.random.Generator(np.random.Philox(key=[2026, 0]))
    g = rng.standard_gamma(p.nu, 200_000)
    xs = np.sort(rng.standard_normal(200_000) / np.sqrt(2.0 * g))
    ks = ks_statistic(xs, boundary_kernel_cdf(p, 1.0))
    assert ks <= 1.95 / math.sqrt(xs.size) + 5e-3


@pytest.mark.parametrize("alpha, n", [(2.0, 3), (-0.5, 2)])
def test_boundary_law_in_several_dimensions(alpha, n):
    # the boundary kernel is a multivariate t law with alpha+1 degrees of
    # freedom, so |X|^2 (alpha+1) / (n y^2) follows F(n, alpha+1)
    stats = pytest.importorskip("scipy.stats")
    cfg = SimConfig(p=ModelParams(alpha=alpha, n=n),
                    start=HalfSpacePoint(x=(0.0,) * n, y=1.0), dt=1e-2,
                    y_stop=0.0, n_paths=20000, master_seed=8, y_floor=1e-2)
    x = simulate_paths(cfg).samples
    f = np.sum(x**2, axis=1) * (alpha + 1.0) / n
    ks = stats.kstest(f, stats.f(n, alpha + 1.0).cdf).statistic
    assert ks <= 1.95 / math.sqrt(cfg.n_paths) + 5e-3


# ---------------------------------------------------- stopped-law moments


@pytest.fixture(scope="module")
def alpha3_boundary_run():
    cfg = SimConfig(
        p=ModelParams(alpha=3.0, n=1),
        start=HalfSpacePoint(x=(0.0,), y=1.0),
        dt=5e-3,
        y_stop=0.0,
        n_paths=20000,
        master_seed=12,
    )
    return simulate_paths(cfg)


def test_stopped_x_is_centered(alpha3_boundary_run):
    x = alpha3_boundary_run.samples[:, 0]
    se = float(np.std(x)) / math.sqrt(x.size)
    assert abs(float(np.mean(x))) <= 4.0 * se


def test_stopped_x_variance_matches_kernel_moment(alpha3_boundary_run):
    # y0^2/(alpha-1) = 0.5, which is also the quadrature value of the
    # kernel second moment int x^2 K_{3,1}(x) dx
    x = alpha3_boundary_run.samples[:, 0]
    var = float(np.mean(x**2))
    se = float(np.std(x**2)) / math.sqrt(x.size)
    assert var == pytest.approx(0.5, abs=4.0 * se)


def test_level_mode_stop_times_positive():
    cfg = make_cfg(start=HalfSpacePoint(x=(0.0,), y=2.0), y_stop=1.0,
                   n_paths=300)
    r = simulate_paths(cfg)
    assert np.all(r.stop_times > 0.0)
    assert np.all(np.isfinite(r.samples))


def y_marginal_samples(cfg, t_final):
    """Y at fixed time t_final (no stopping), one value per path.

    The stepped log-space update has no discretization bias, so these
    must be exactly lognormal: log Y_T ~ Normal(log y0 - mu T, T).  Each
    path reads the normals that drive its walk in simulate_paths.
    """
    steps = int(round(t_final / cfg.dt))
    if steps < 1:
        raise ValueError("t_final must be at least one step")
    sqrt_dt = math.sqrt(cfg.dt)
    drift = cfg.mu * cfg.dt
    log_y0 = math.log(cfg.start.y)
    stream = hbm_sim._path_streams(cfg.master_seed)
    out = np.empty(cfg.n_paths)
    for i in range(cfg.n_paths):
        z = stream(i).standard_normal(steps)
        out[i] = log_y0 + float(np.sum(z)) * sqrt_dt - drift * steps
    return np.exp(out)


def test_y_marginal_is_exactly_lognormal():
    cfg = SimConfig(
        p=ModelParams(alpha=2.0, n=1),
        start=HalfSpacePoint(x=(0.0,), y=1.0),
        dt=1e-2,
        y_stop=0.0,
        n_paths=4000,
        master_seed=11,
    )
    t_final = 1.0
    logs = np.sort(np.log(y_marginal_samples(cfg, t_final)))
    m = math.log(cfg.start.y) - cfg.mu * t_final

    def cdf(x):
        u = (np.asarray(x) - m) / math.sqrt(2.0 * t_final)
        return 0.5 * (1.0 + np.array([math.erf(v) for v in u]))

    assert ks_statistic(logs, cdf) <= 1.95 / math.sqrt(cfg.n_paths)


def test_y_marginal_needs_a_step():
    with pytest.raises(ValueError):
        y_marginal_samples(make_cfg(), 1e-9)


# ------------------------------------------------------------ ks_statistic


def test_ks_single_sample_at_median():
    assert ks_statistic(
        [0.0], lambda x: np.full(np.shape(x), 0.5)) == 0.5


def test_ks_far_tail_approaches_one():
    xs = np.array([-1e8, -1e8 + 1.0, -1e8 + 2.0])
    cauchy = lambda x: 0.5 + np.arctan(np.asarray(x)) / math.pi
    assert ks_statistic(xs, cauchy) > 0.999


def test_ks_null_distribution_scale():
    # inverse-transform Cauchy samples against their own CDF
    rng = np.random.Generator(np.random.Philox(key=[2024, 0]))
    u = np.sort(rng.uniform(size=5000))
    xs = np.tan(math.pi * (u - 0.5))
    cauchy = lambda x: 0.5 + np.arctan(np.asarray(x)) / math.pi
    assert ks_statistic(xs, cauchy) <= 1.63 / math.sqrt(5000)


def test_ks_input_validation():
    cdf = lambda x: np.full(np.shape(x), 0.5)
    with pytest.raises(ValueError, match="sorted"):
        ks_statistic([1.0, 0.0], cdf)
    with pytest.raises(ValueError, match="nonempty"):
        ks_statistic([], cdf)
    with pytest.raises(ValueError, match="one value per sample"):
        ks_statistic([0.0, 1.0], lambda x: np.array([0.5]))
    with pytest.raises(ValueError, match="nondecreasing"):
        ks_statistic([0.0, 1.0], lambda x: np.array([0.7, 0.2]))


# ------------------------------------------------------------- model CDFs


def test_boundary_cdf_cauchy_closed_form():
    cdf = boundary_kernel_cdf(ModelParams(alpha=0.0, n=1), 1.0)
    xs = np.array([-20.0, -2.0, -0.3, 0.0, 0.3, 2.0, 20.0])
    want = 0.5 + np.arctan(xs) / math.pi
    assert np.max(np.abs(cdf(xs) - want)) < 1e-12


@pytest.mark.parametrize("alpha", [-0.999, -0.95, -0.9, -0.5, 0.0, 0.5, 1.7, 3.0, 30.0])
def test_boundary_cdf_is_student_t(alpha):
    # the n = 1 kernel is Student's t with alpha + 1 degrees of freedom and
    # scale y / sqrt(alpha + 1); far tails and alpha near -1 are the hard cases
    stats = pytest.importorskip("scipy.stats")
    y = 1.3
    xs = np.array([-1e12, -1e6, -100.0, -10.0, -1.0, 0.0, 0.7, 1.0, 10.0,
                   100.0, 1e6, 1e12])
    want = stats.t(df=alpha + 1.0, scale=y / math.sqrt(alpha + 1.0)).cdf(xs)
    got = boundary_kernel_cdf(ModelParams(alpha=alpha, n=1), y)(xs)
    assert np.max(np.abs(got - want)) < 1e-10


def test_boundary_cdf_symmetry_and_range():
    cdf = boundary_kernel_cdf(ModelParams(alpha=1.7, n=1), 0.8)
    vals = cdf(np.array([-50.0, 0.0, 50.0]))
    assert vals[1] == pytest.approx(0.5, abs=1e-10)
    assert vals[0] == pytest.approx(0.0, abs=1e-3)
    assert vals[2] == pytest.approx(1.0, abs=1e-3)


def test_boundary_cdf_validation():
    with pytest.raises(ValueError):
        boundary_kernel_cdf(ModelParams(alpha=0.0, n=2), 1.0)
    with pytest.raises(ValueError):
        boundary_kernel_cdf(ModelParams(alpha=0.0, n=1), 0.0)


def test_hitting_cdf_matches_cauchy():
    p = ModelParams(alpha=0.0, n=1)
    lv = LevelPair(2.0, 1.0)
    cdf = hitting_cdf(p, lv)
    xs = np.array([-150.0, -20.0, -3.0, -0.5, 0.0, 0.5, 3.0, 20.0, 150.0])
    want = 0.5 + np.arctan(xs / lv.gap) / math.pi
    assert np.max(np.abs(cdf(xs) - want)) < 2e-3


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5, 3.0])
def test_hitting_cdf_tail_exponent_matches_two_sample_fit(alpha):
    # hitting_cdf takes the tail exponent alpha + 2 from theory; a fit of
    # the density between half the table reach and its end agrees with it
    p = ModelParams(alpha=alpha, n=1)
    lv = LevelPair(2.0, 1.0)
    r_max = 60.0 * lv.gap
    fit = math.log(hitting_kernel(p, lv, r_max / 2.0)
                   / hitting_kernel(p, lv, r_max)) / math.log(2.0)
    assert abs(fit - (alpha + 2.0)) < 0.12


def test_hitting_cdf_needs_one_dimension():
    with pytest.raises(ValueError):
        hitting_cdf(ModelParams(alpha=0.0, n=2), LevelPair(2.0, 1.0))


# -------------------------------------------------------------- validators


def test_boundary_law_alpha2_passes():
    cfg = SimConfig(
        p=ModelParams(alpha=2.0, n=1),
        start=HalfSpacePoint(x=(0.0,), y=1.0),
        dt=2e-3,
        y_stop=0.0,
        n_paths=4000,
        master_seed=3,
    )
    rep = validate_boundary_law(cfg)
    assert rep["passed"]
    assert rep["ks"] <= rep["threshold"]
    assert rep["law"] == "boundary"
    assert rep["floor_allowance"] == 0.0
    assert set(rep) >= {"alpha", "dt", "y_floor", "n_paths", "master_seed",
                        "ks", "threshold", "passed"}


def test_boundary_law_has_no_floor_allowance(monkeypatch):
    # the completion leaves no floor bias to allow for: the threshold is the
    # bare KS level, each path is simulated once, and given samples not at all
    calls = []
    real = hbm_sim.simulate_paths
    monkeypatch.setattr(hbm_sim, "simulate_paths",
                        lambda c, **kw: calls.append(c) or real(c, **kw))
    for alpha in (0.0, 2.0):
        cfg = make_cfg(p=ModelParams(alpha=alpha, n=1), n_paths=1500,
                       master_seed=21, y_floor=1e-2)
        rep = validate_boundary_law(cfg)
        assert calls == [cfg]
        assert rep == validate_boundary_law(cfg, samples=real(cfg))
        assert calls == [cfg]
        assert rep["passed"]
        assert rep["floor_allowance"] == 0.0
        assert rep["threshold"] == 1.95 / math.sqrt(1500) + 5e-3
        calls.clear()


def test_boundary_law_validation_errors():
    with pytest.raises(ValueError, match="one-dimensional"):
        validate_boundary_law(
            make_cfg(p=ModelParams(alpha=0.0, n=2),
                     start=HalfSpacePoint(x=(0.0, 0.0), y=1.0)))
    with pytest.raises(ValueError, match="y_stop = 0"):
        validate_boundary_law(
            make_cfg(start=HalfSpacePoint(x=(0.0,), y=2.0), y_stop=1.0))


def test_hitting_law_alpha0_passes():
    cfg = SimConfig(
        p=ModelParams(alpha=0.0, n=1),
        start=HalfSpacePoint(x=(0.0,), y=2.0),
        dt=5e-3,
        y_stop=1.0,
        n_paths=2000,
        master_seed=5,
    )
    rep = validate_hitting_law(cfg, LevelPair(2.0, 1.0))
    assert rep["passed"]
    assert rep["law"] == "hitting"


def test_hitting_law_validation_errors():
    cfg = SimConfig(
        p=ModelParams(alpha=0.0, n=1),
        start=HalfSpacePoint(x=(0.0,), y=2.0),
        dt=5e-3,
        y_stop=1.0,
        n_paths=10,
        master_seed=5,
    )
    with pytest.raises(ValueError, match="disagrees"):
        validate_hitting_law(cfg, LevelPair(2.0, 0.5))
    with pytest.raises(ValueError, match="level mode"):
        validate_hitting_law(make_cfg(), LevelPair(2.0, 1.0))


def test_boundary_ks_stable_under_dt_halving():
    # weak-order-1 bias control: the statistic moves less than the
    # statistical noise floor when dt halves
    reps = []
    for dt in (1e-2, 5e-3):
        cfg = SimConfig(
            p=ModelParams(alpha=2.0, n=1),
            start=HalfSpacePoint(x=(0.0,), y=1.0),
            dt=dt,
            y_stop=0.0,
            n_paths=2000,
            master_seed=77,
        )
        reps.append(validate_boundary_law(cfg)["ks"])
    assert abs(reps[0] - reps[1]) <= 2.0 * 1.63 / math.sqrt(2000)
