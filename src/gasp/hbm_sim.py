"""Monte Carlo simulation of the half-space diffusion driven by the
weighted operator.

The planar process is dX = Y dW (n independent coordinates) and
dY = Y dB - (mu - 1/2) Y dt with drift mu = (alpha+1)/2 > 0, so Y drifts
to the boundary.  The log of Y is exact geometric motion,

    log Y_{k+1} = log Y_k + dB_k - mu dt,

which is simulated without any discretization bias.  X takes Euler steps,
so given the log-Y path each stopped coordinate is exactly N(0, V) with
V = dt sum_{k<K} Y_k^2 + theta^2 dt Y_K^2 (theta: the crossing fraction of
the last step); the walk draws one normal per step, X one n-vector per
path.  Paths stop on first contact with a level: ``y_stop`` itself in
level mode, or a floor ``y_floor`` in boundary mode, where an exact
completion starts: by Dufresne's identity int_0^inf exp(2(B_t - mu t)) dt
has the law of 1/(2 G), G ~ Gamma(mu, 1), so the rest of the path adds
y_floor^2 / (2 G) to V; stop times stay floor times.  The stopped X samples
are the Monte Carlo oracle for the boundary and hitting laws.

Every path owns a counter-based RNG stream keyed by (master_seed,
path_index): the walk reads it from counter 0, then G (boundary mode only)
and the n normals of X from counter 2**192.  So results are bit-identical
however the paths are split across workers, reassembled in path order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._quadrature import panel_integrate, tanh_sinh
from .hitting import LevelPair, hitting_kernel
from .kernel import HalfSpacePoint, ModelParams
from .special_functions import EvalAccuracy

_MAX_CHUNK = 8192  # most steps drawn per RNG call


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup.

    ``y_stop > 0`` selects level mode (absorb at that height); ``y_stop = 0``
    selects boundary mode, where the walk stops at ``y_floor`` (default
    ``1e-4 * start.y``) and the exact completion takes X on to the boundary;
    stop times are floor times.
    """

    p: ModelParams
    start: HalfSpacePoint
    dt: float
    y_stop: float
    n_paths: int
    master_seed: int
    y_floor: float = None

    def __post_init__(self):
        if self.p.n != self.start.n:
            raise ValueError(
                f"start point is {self.start.n}-dimensional, expected n={self.p.n}"
            )
        if not (0.0 < self.dt <= 1e-2):
            raise ValueError(f"dt must be in (0, 1e-2], got {self.dt}")
        if not (isinstance(self.n_paths, int) and self.n_paths >= 1):
            raise ValueError(f"n_paths must be a positive integer, got {self.n_paths}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if not (math.isfinite(self.y_stop) and self.y_stop >= 0.0):
            raise ValueError(f"y_stop must be finite and >= 0, got {self.y_stop}")
        if self.y_stop > 0.0:
            if self.y_floor is not None:
                raise ValueError("y_floor applies to boundary mode only (y_stop = 0)")
            if self.y_stop >= self.start.y:
                raise ValueError("level mode needs y_stop < start.y")
        else:
            floor = 1e-4 * self.start.y if self.y_floor is None else float(self.y_floor)
            if not (0.0 < floor <= self.start.y / 100.0):
                raise ValueError(
                    f"y_floor must lie in (0, start.y/100], got {floor}"
                )
            object.__setattr__(self, "y_floor", floor)

    @property
    def boundary_mode(self):
        return self.y_stop == 0.0

    @property
    def stop_level(self):
        return self.y_floor if self.boundary_mode else self.y_stop

    @property
    def mu(self):
        """Drift of -log Y; equals (alpha+1)/2."""
        return self.p.nu


@dataclass(frozen=True, eq=False)
class HitSampleSet:
    """Stopped samples: X positions, stop times, and stream bookkeeping.

    ``seed_provenance`` is (master_seed, stream_ids); stream id i fed path i.
    """

    samples: np.ndarray
    stop_times: np.ndarray
    seed_provenance: tuple

    def __post_init__(self):
        for arr in (self.samples, self.stop_times):
            arr.setflags(write=False)

    @property
    def n_paths(self):
        return self.samples.shape[0]


def _path_streams(master_seed):
    """``stream(i, block)``: a Generator in the state of a fresh
    ``Philox(key=[master_seed, i], counter=block * 2**192)``, made by
    re-keying one Philox (a construction costs 4x as much).  Not for
    sharing across threads.
    """
    bitgen = np.random.Philox(key=master_seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key, counter = state["state"]["key"], state["state"]["counter"]

    def stream(i, block=0):
        key[1] = i
        counter[3] = block
        bitgen.state = state
        return rng

    return stream


def _walk_one(rng, log_start, log_stop, mu, dt):
    """Run one path to absorption; returns (v, stop_time).

    Draws one normal per step, for log Y, and sums the variance v of each X
    coordinate given the path: Y_k^2 dt per step, theta^2 Y_K^2 dt for the
    crossing step.  Works on 2 log Y, whose exp is Y^2.  The normal stream
    is invariant under chunk boundaries, so the chunk sizes (expected steps
    left plus 64) are a pure performance knob.
    """
    drift = mu * dt
    l2_stop = 2.0 * log_stop
    path = np.empty(_MAX_CHUNK + 1)  # 2 log Y at each step's start, then the end
    path[0] = 2.0 * log_start
    acc = 0.0
    steps_done = 0
    while True:
        chunk = int(min((path[0] - l2_stop) / (2.0 * drift) + 64, _MAX_CHUNK))
        ends = path[1 : chunk + 1]
        z = rng.standard_normal(chunk) * (2.0 * math.sqrt(dt)) - 2.0 * drift
        np.add.accumulate(z, out=ends)
        ends += path[0]
        k = int((ends <= l2_stop).argmax())
        if ends[k] > l2_stop:  # no crossing in this chunk
            acc += np.exp(path[:chunk]).sum()
            path[0] = ends[-1]
            steps_done += chunk
            continue
        y2 = np.exp(path[: k + 1])
        # crossing fraction from the exact log-linear bridge of the step
        theta = (path[k] - l2_stop) / (path[k] - ends[k])
        v = dt * (acc + y2[:k].sum() + theta * theta * y2[k])
        return v, (steps_done + k + theta) * dt


def simulate_paths(cfg: SimConfig, path_range=None, workers=1) -> HitSampleSet:
    """Simulate all paths of ``cfg`` (or a contiguous subrange).

    ``path_range = (lo, hi)`` runs streams lo..hi-1 only; concatenating
    subrange results in path order reproduces the full run bit-exactly,
    which is what makes worker splits harmless.  ``workers > 1`` does that
    split internally on a thread pool and reassembles in path order, so the
    setting caps parallelism without touching a single sample.
    """
    lo, hi = (0, cfg.n_paths) if path_range is None else path_range
    if not (0 <= lo < hi <= cfg.n_paths):
        raise ValueError(f"invalid path range {(lo, hi)} for n_paths={cfg.n_paths}")
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and hi - lo > 1:
        edges = [lo + (hi - lo) * k // workers for k in range(workers + 1)]
        ranges = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(pool.map(lambda rg: simulate_paths(cfg, rg), ranges))
        return HitSampleSet(
            samples=np.concatenate([part.samples for part in parts]),
            stop_times=np.concatenate([part.stop_times for part in parts]),
            seed_provenance=(cfg.master_seed, np.arange(lo, hi, dtype=np.uint64)),
        )
    walk = (math.log(cfg.start.y), math.log(cfg.stop_level), cfg.mu, cfg.dt)
    stream = _path_streams(cfg.master_seed)
    samples = np.empty((hi - lo, cfg.p.n))
    stop_times = np.empty(hi - lo)
    for i in range(hi - lo):
        v, stop_times[i] = _walk_one(stream(lo + i), *walk)
        rng = stream(lo + i, 1)  # counter 2**192, past any walk
        if cfg.boundary_mode:  # the rest of the path below the floor
            v += cfg.y_floor**2 / (2.0 * rng.standard_gamma(cfg.mu))
        samples[i] = math.sqrt(v) * rng.standard_normal(cfg.p.n)
    return HitSampleSet(
        samples=cfg.start.x + samples,
        stop_times=stop_times,
        seed_provenance=(cfg.master_seed, np.arange(lo, hi, dtype=np.uint64)),
    )


def y_marginal_samples(cfg: SimConfig, t_final):
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
    stream = _path_streams(cfg.master_seed)
    out = np.empty(cfg.n_paths)
    for i in range(cfg.n_paths):
        z = stream(i).standard_normal(steps)
        out[i] = log_y0 + float(np.sum(z)) * sqrt_dt - drift * steps
    return np.exp(out)


# ------------------------------------------------------------- statistics


def ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov sup distance between sorted samples and a model CDF.

    ``cdf`` is called once on the whole sample array and must return values
    nondecreasing along it (checked).
    """
    xs = np.asarray(samples, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("samples must be a nonempty 1-D array")
    if np.any(np.diff(xs) < 0):
        raise ValueError("samples must be sorted ascending")
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise ValueError("cdf evaluator must return one value per sample")
    if np.any(np.diff(f) < -1e-12) or f[0] < -1e-12 or f[-1] > 1.0 + 1e-12:
        raise ValueError("cdf values must be nondecreasing within [0, 1]")
    n = xs.size
    i = np.arange(n)
    d = max(float(np.max(f - i / n)), float(np.max((i + 1) / n - f)))
    return min(max(d, 0.0), 1.0)


def boundary_kernel_cdf(p: ModelParams, y):
    """CDF evaluator for the n=1 boundary kernel at height y.

    The substitution x = y tan(theta) turns the kernel integral into
    c_norm * cos(theta)^alpha d(theta), which is integrated cumulatively
    between the (sorted) query points; the piece from -pi/2 to the first
    point gets the endpoint-singularity-aware rule.
    """
    if p.n != 1:
        raise ValueError("closed cumulative form is one-dimensional")
    y = float(y)
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError(f"height must be positive and finite, got {y}")

    base = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 513)[1:-1]

    def cdf(xs):
        theta = np.arctan(np.asarray(xs, dtype=float) / y)
        # integrate over the union of query angles and a fixed fine grid, so
        # sparse queries never produce wide panels near the +-pi/2 branch
        # points of cos^alpha
        edges = np.union1d(theta, base)
        head, _ = tanh_sinh(
            lambda t, da, db: np.sin(da) ** p.alpha,
            -0.5 * math.pi,
            float(edges[0]),
            with_distances=True,
        )
        pieces = panel_integrate(lambda t: np.cos(t) ** p.alpha, edges, order=8)
        cum = p.c_norm * (head + np.concatenate([[0.0], np.cumsum(pieces)]))
        return cum[np.searchsorted(edges, theta)]

    return cdf


def hitting_cdf(p: ModelParams, lv: LevelPair, acc=EvalAccuracy(rel_tol=1e-8)):
    """CDF evaluator for the n=1 hitting density, by quadrature.

    Builds a cumulative table of the (symmetric) density on panels out to
    60 gap lengths and covers the rest with the power tail C r^-(alpha+2)
    through the last table density; evaluation is linear interpolation in
    the table plus that tail.
    """
    if p.n != 1:
        raise ValueError("hitting CDF evaluator is one-dimensional")
    g = lv.gap
    edges = np.concatenate(
        [np.linspace(0.0, 4.0 * g, 33), np.geomspace(4.0 * g, 60.0 * g, 33)[1:]]
    )
    pieces = panel_integrate(
        lambda r: np.array([hitting_kernel(p, lv, float(t), acc) for t in r]),
        edges,
        order=4,
    )
    cum = np.concatenate([[0.0], np.cumsum(pieces)])  # int_0^edge
    r_max = edges[-1]
    g_end = hitting_kernel(p, lv, r_max, acc)
    # G(r) ~ C r^-(alpha+n+1) with n = 1, from the s^(2 nu) term of the
    # Bessel quotient
    p_exp = p.alpha + 2.0
    tail_mass = g_end * r_max / (p_exp - 1.0)  # int_{r_max}^inf C r^{-p} dr

    def cdf(xs):
        xs = np.asarray(xs, dtype=float)
        r = np.abs(xs)
        inside = np.interp(r, edges, cum)
        tail = np.where(
            r <= r_max,
            0.5 - inside,
            tail_mass * (r_max / np.maximum(r, r_max)) ** (p_exp - 1.0),
        )
        return np.where(xs >= 0.0, 1.0 - tail, tail)

    return cdf


# ------------------------------------------------------------- validation


def _ks_threshold(n_paths):
    return 1.95 / math.sqrt(n_paths) + 5e-3


def validate_boundary_law(cfg: SimConfig, workers=1, samples=None):
    """KS test of the stopped X law against the boundary kernel (n = 1).

    Boundary mode only; the completion leaves no floor bias, so
    ``floor_allowance`` is 0.0.  The verdict is one KS test at the level
    1.95/sqrt(N) + 5e-3, which a correct sampler fails now and then by
    chance.  ``samples``, when given, must be ``simulate_paths(cfg)`` and
    spares a duplicate run (streams are deterministic, so reuse is exact).
    """
    if cfg.p.n != 1:
        raise ValueError("boundary-law validation is one-dimensional")
    if not cfg.boundary_mode:
        raise ValueError("boundary-law validation needs y_stop = 0")
    result = simulate_paths(cfg, workers=workers) if samples is None else samples
    xs = np.sort(result.samples[:, 0])
    ks = ks_statistic(xs, boundary_kernel_cdf(cfg.p, cfg.start.y))
    threshold = _ks_threshold(cfg.n_paths)
    return {
        "law": "boundary",
        "alpha": cfg.p.alpha,
        "n": cfg.p.n,
        "y_start": cfg.start.y,
        "dt": cfg.dt,
        "y_floor": cfg.y_floor,
        "n_paths": cfg.n_paths,
        "master_seed": cfg.master_seed,
        "ks": ks,
        "floor_allowance": 0.0,
        "threshold": threshold,
        "passed": bool(ks <= threshold),
    }


def validate_hitting_law(cfg: SimConfig, lv: LevelPair, acc=EvalAccuracy(rel_tol=1e-8),
                         workers=1, samples=None):
    """KS test of the stopped X law against the hitting density (n = 1).

    The verdict is one KS test at the level 1.95/sqrt(N) + 5e-3, which a
    correct sampler fails now and then by chance.  ``samples`` reuses a
    precomputed ``simulate_paths(cfg)`` result.
    """
    if cfg.p.n != 1:
        raise ValueError("hitting-law validation is one-dimensional")
    if cfg.boundary_mode:
        raise ValueError("hitting-law validation needs level mode (y_stop > 0)")
    if not (lv.y == cfg.start.y and lv.eta == cfg.y_stop):
        raise ValueError(
            f"level pair {(lv.y, lv.eta)} disagrees with config "
            f"{(cfg.start.y, cfg.y_stop)}"
        )
    result = simulate_paths(cfg, workers=workers) if samples is None else samples
    xs = np.sort(result.samples[:, 0])
    ks = ks_statistic(xs, hitting_cdf(cfg.p, lv, acc))
    threshold = _ks_threshold(cfg.n_paths)
    return {
        "law": "hitting",
        "alpha": cfg.p.alpha,
        "n": cfg.p.n,
        "y_start": lv.y,
        "y_stop": lv.eta,
        "dt": cfg.dt,
        "n_paths": cfg.n_paths,
        "master_seed": cfg.master_seed,
        "ks": ks,
        "threshold": threshold,
        "passed": bool(ks <= threshold),
    }
