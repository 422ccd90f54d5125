"""The four workloads: their inputs, operations and output checks.

Each workload has a ``build`` function, which makes its inputs from the
seed with gasp's own constructors (this is what ``setup_s`` times), and a
``plan`` function, which computes the reference values outside any timed
section and returns the round: the list of operations, each with the
check its output must pass. A round runs every operation once, one after
the other, so the load is a closed loop with a single caller.

Every operation belongs to one of four stages, and ``STAGES`` names them.
A round may run a stage in more than one pass (the ``hitting`` sweep runs
three times, spread over the round); a stage's time is taken per pass, and
the ``stage1_ref_cpu_ms`` .. ``stage4_ref_cpu_ms`` metrics are means over
the passes of a run.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import reference as ref

STAGES = {
    "extension": ("extend_grid, FFT path", "extend_grid, dense path",
                  "boundary_convergence ladder", "l1_data_scan"),
    "hitting": ("hitting_kernel at r > 0", "hitting_cdf table build",
                "semigroup_check, 81 points", "hitting_kernel at r = 0"),
    "montecarlo": ("simulate_paths, boundary mode, n = 1",
                   "simulate_paths, level mode",
                   "validate_boundary_law, workers = 2",
                   "simulate_paths, boundary mode, n = 3"),
    "cli": ("kernel eval | mass | residual, fourier compare, growth counterexample",
            "extend, converge, growth scan (data file)",
            "hitting kernel | semigroup",
            "simulate boundary | hitting"),
}


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    stage: int
    run: Callable
    check: Callable  # (output, outputs of the round by name) -> None
    known_fault: bool = False  # fails today through a fault of the program
    paths: int = 0
    pass_no: int = 0  # which pass of its stage in the round
    # runs on the benchmark's own thread alone, so the calibration taken
    # on that thread gives the speed it ran at (see run.py)
    own_thread: bool = True


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _close(value, want, tol, what):
    err = float(np.max(np.abs(np.asarray(value) - np.asarray(want))))
    expect(err <= tol, "%s: off by %.3g, tolerance %.3g" % (what, err, tol))


# ================================================================ extension

EXT_HEIGHTS = (0.25, 0.5, 1.0)
EXT_LADDER = (1.0, 0.5, 0.25, 0.125)
EXT_RADII = (2.0, 4.0, 8.0, 16.0)
EXT_SAMPLES = 24  # output points compared with the direct sum, per call


def _tent_values(grid, centre, width, height):
    axes = [grid.axis_coords(i) for i in range(grid.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, centre)))
    return height * np.maximum(0.0, 1.0 - r / width)


def build_extension(seed, work, small=False):
    """Tents on fixed grids: n = 1 (alpha = 0) and n = 2 (alpha = 2).

    The seed moves each tent's centre by whole grid steps (so the kinks
    stay on nodes) and sets its height; grid sizes do not depend on it.
    Both data sets go through save_data / load_data, as a user's would.
    """
    import gasp

    rng = _rng(seed, 1)
    h1, h2 = (1 / 64, 1 / 16) if small else (1 / 128, 1 / 32)
    data = {}
    for key, alpha, n, h, half, width in (("n1", 0.0, 1, h1, 1.5, 1.0),
                                          ("n2", 2.0, 2, h2, 1.25, 1.0)):
        m = int(round(2 * half / h)) + 1
        shift = int(rng.integers(-int(0.25 / h), int(0.25 / h) + 1, size=n)[0])
        centre = (shift * h,) * n
        height = float(rng.uniform(0.5, 2.0))
        grid = gasp.Grid(origin=(-half,) * n, spacing=h, shape=(m,) * n)
        term = gasp.WeightedTerm(beta=gasp.MultiIndex((0,) * n), grid=grid,
                                 values=_tent_values(grid, centre, width, height))
        path = os.path.join(work, "tent_%s.json" % key)
        gasp.save_data(gasp.BoundaryData(gasp.ModelParams(alpha, n), (term,)), path)
        data[key] = {"data": gasp.load_data(path), "centre": centre,
                     "width": width, "height": height, "spacing": h}
    # commensurate output grids (FFT path) and incommensurate ones (dense path)
    data["n1"]["grids"] = {
        "fft": gasp.Grid((-4.0,), 2 * h1, (257 if small else 513,)),
        "dense": gasp.Grid((-4.01,), 0.0173, (201 if small else 401,))}
    data["n2"]["grids"] = {
        "fft": gasp.Grid((-3.0, -3.0), 2 * h2, (49, 49) if small else (97, 97)),
        "dense": gasp.Grid((-3.01, -3.01), 0.1003, (21, 21) if small else (41, 41))}
    return data


def _data_nodes(term):
    grid = term.grid
    axes = [grid.axis_coords(i) for i in range(grid.n)]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    wf = (term.values_grid * ref.trapezoid_weights(grid.shape, grid.spacing)).ravel()
    return nodes, wf


def _extension_check(case, y, grid, rng):
    """Reference values at sampled points of one extend_grid call."""
    bdata = case["data"]
    p = bdata.params_hint
    term = bdata.terms[0]
    nodes, wf = _data_nodes(term)
    idx = np.unique(rng.integers(0, int(np.prod(grid.shape)), size=EXT_SAMPLES))
    where = np.unravel_index(idx, grid.shape)
    pts = np.stack([grid.axis_coords(i)[where[i]] for i in range(grid.n)], axis=-1)
    want = ref.direct_sum(p.alpha, p.n, nodes, wf, pts, y)
    # same trapezoid sums by another route: only rounding separates them
    tol = 1e-10 * float(np.sum(np.abs(wf))) * ref.kernel(p.alpha, p.n, 0.0, y)
    closed = None
    if p.n == 1 and p.alpha == 0.0:
        closed = ref.tent_poisson_1d(pts[:, 0], y, case["centre"][0],
                                     case["width"], case["height"])
        closed_tol = ref.tent_trapezoid_error(y, case["width"], case["height"],
                                              case["spacing"]) + tol

    def check(result, _outputs):
        got = result.values[where]
        expect(np.all(np.isfinite(result.values)), "non-finite extension values")
        _close(got, want, tol, "extension vs direct sum")
        if closed is not None:
            _close(got, closed, closed_tol, "extension vs closed-form Poisson integral")

    return check


def _check_ladder(errors, _outputs):
    expect(all(np.isfinite(errors)), "ladder has non-finite entries")
    expect(all(b < a for a, b in zip(errors, errors[1:])),
           "weighted-L1 errors do not fall with y: %r" % (errors,))


def _scan_check(case):
    bdata = case["data"]
    p = bdata.params_hint
    nodes, wf = _data_nodes(bdata.terms[0])

    def check(scan, _outputs):
        sup = np.asarray(scan.sup_values)
        expect(np.all(np.isfinite(sup)) and np.all(sup > 0), "scan sup not positive")
        expect(np.all(np.diff(sup) < 0), "scan sup does not fall with r")
        for r, th, s in zip(scan.r_values, scan.argmax_theta, sup):
            x = np.zeros((1, p.n))
            x[0, 0] = r * math.sin(th)
            u = ref.direct_sum(p.alpha, p.n, nodes, wf, x, r * math.cos(th))[0]
            want = abs(u) * math.cos(th) ** p.n / r ** (p.alpha + 1.0)
            expect(abs(s - want) <= 1e-9 * want, "scan sup at r=%g off" % r)

    return check


def plan_extension(inputs, seed, small=False):
    import gasp

    rng = _rng(seed, 2)
    heights = EXT_HEIGHTS[1:2] if small else EXT_HEIGHTS
    ops = []  # the stages interleave, so each is sampled across the round
    for y in heights:
        for key in ("n1", "n2"):
            for path, stage in (("fft", 1), ("dense", 2)):
                case = inputs[key]
                grid = case["grids"][path]
                ops.append(Op(
                    "extend_%s_%s_y%g" % (path, key, y), stage,
                    lambda c=case, g=grid, y=y: gasp.extend_grid(
                        c["data"], c["data"].params_hint, y, g),
                    _extension_check(case, y, grid, rng)))
    n1, n2 = inputs["n1"]["data"], inputs["n2"]["data"]
    converge = Op("converge", 3,
                  lambda: gasp.boundary_convergence(n1, n1.params_hint, list(EXT_LADDER)),
                  _check_ladder)
    ops.insert(len(ops) // 2, converge)
    ops.append(Op("scan", 4,
                  lambda: gasp.l1_data_scan(n2, n2.params_hint, EXT_RADII,
                                            16 if small else 64),
                  _scan_check(inputs["n2"])))
    return ops


# ================================================================== hitting

HIT_ALPHAS = (0.0, 1.5, 3.0)
HIT_PASSES = 3  # sweeps per round: before, between and after the two long calls
HIT_LEVELS = (2.0, 1.0)
HIT_RADII = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)
CDF_ALPHA = 1.5
# linear interpolation in the CDF table (step gap/8 near the centre) errs
# by at most step^2/8 * max|G'|, about 8e-4 here; twice that is allowed
CDF_TOL = 2e-3
SEMIGROUP = {"alpha": 3.0, "y": 3.0, "eta2": 2.0, "eta1": 1.0,
             "origin": -20.0, "spacing": 0.5, "shape": 81}


def build_hitting(seed, work, small=False):
    """Levels, parameters and the radius sweep, scaled by a seeded factor."""
    import gasp

    scale = 1.0 + 0.05 * (2.0 * float(_rng(seed, 3).random()) - 1.0)
    radii = HIT_RADII[:3] if small else HIT_RADII
    sg = dict(SEMIGROUP, origin=-5.0, shape=21) if small else SEMIGROUP
    return {
        "levels": gasp.LevelPair(*HIT_LEVELS),
        "sweep": [(gasp.ModelParams(a, n), tuple(scale * r for r in radii))
                  for a in HIT_ALPHAS for n in (1, 2)],
        "cdf_params": gasp.ModelParams(CDF_ALPHA, 1),
        "cdf_points": tuple(scale * x for x in (-4.0, -1.0, -0.3, 0.3, 1.0, 4.0)),
        "semigroup": (gasp.ModelParams(sg["alpha"], 1), sg["y"], sg["eta2"], sg["eta1"],
                      gasp.Grid((sg["origin"],), sg["spacing"], (sg["shape"],))),
    }


def _density_check(want):
    def check(value, _outputs):
        _close(value, want, 1e-8, "hitting density")
    return check


def plan_hitting(inputs, seed, small=False):
    """The radius sweep three times, around the CDF build and the semigroup
    check, so the short density calls are sampled across the whole round
    and not in one stretch of it."""
    import gasp

    lv = inputs["levels"]
    sweep = []
    for p, radii in inputs["sweep"]:
        for r in radii:
            if p.alpha == 0.0:
                want = float(ref.poisson_law_density(p.n, lv.gap, r))
            else:
                want = ref.hitting_density(p.alpha, p.n, lv.y, lv.eta, r)
            sweep.append(("density_a%g_n%d_r%.4f" % (p.alpha, p.n, r), 4 if r == 0.0 else 1,
                          lambda p=p, r=r: gasp.hitting_kernel(p, lv, r),
                          _density_check(want)))

    def density_pass(k):
        return [Op(name + ("" if k == 0 else "#%d" % k), stage, run, check, pass_no=k)
                for name, stage, run, check in sweep]

    xs = np.array(inputs["cdf_points"])
    cdf_want = np.array([ref.hitting_cdf(CDF_ALPHA, lv.y, lv.eta, x) for x in xs])

    def check_cdf(cdf, _outputs):
        probe = np.linspace(-30.0, 30.0, 601)
        values = cdf(probe)
        expect(np.all(np.diff(values) >= -1e-12), "hitting CDF not monotone")
        expect(0.0 <= values[0] and values[-1] <= 1.0, "hitting CDF outside [0, 1]")
        expect(abs(float(cdf(np.array([0.0]))[0]) - 0.5) <= 1e-12,
               "hitting CDF not 1/2 at 0")
        _close(cdf(xs), cdf_want, CDF_TOL, "hitting CDF")

    cp = inputs["cdf_params"]

    # the smoke grid is too short to hold the tails, so only sanity applies
    limit = math.inf if small else 1e-3

    def check_semigroup(deviation, _outputs):
        expect(0.0 <= deviation <= limit, "semigroup deviation %.3g" % deviation)

    sg = inputs["semigroup"]
    passes = 1 if small else HIT_PASSES
    ops = density_pass(0)
    ops.append(Op("cdf_build", 2, lambda: gasp.hitting_cdf(cp, lv), check_cdf))
    ops += density_pass(1) if passes > 1 else []
    ops.append(Op("semigroup", 3, lambda: gasp.semigroup_check(*sg), check_semigroup))
    for k in range(2, passes):
        ops += density_pass(k)
    return ops


# =============================================================== montecarlo

MC_DT = 1e-3
MC_START = 1.0
MC_LEVELS = (2.0, 1.0)


def build_montecarlo(seed, work, small=False):
    """Simulation configurations; every master seed comes from --seed."""
    import gasp

    def cfg(alpha, n, paths, k, level=False):
        start = MC_LEVELS[0] if level else MC_START
        return gasp.SimConfig(
            p=gasp.ModelParams(alpha, n),
            start=gasp.HalfSpacePoint(x=(0.0,) * n, y=start), dt=MC_DT,
            y_stop=MC_LEVELS[1] if level else 0.0,
            n_paths=max(paths // 10, 20) if small else paths,
            master_seed=16 * int(seed) + k)

    return {
        "b0": cfg(0.0, 1, 1000, 0), "b2": cfg(2.0, 1, 1000, 1),
        "b3": cfg(2.0, 3, 500, 2),
        "l0": cfg(0.0, 1, 2000, 3, level=True), "l3": cfg(3.0, 1, 2000, 4, level=True),
        # split check: two workers must give the one-worker samples bit for bit
        "split": cfg(0.0, 1, 64, 5),
    }


def _law_check(cfg, law):
    """KS test of samples drawn with ``cfg`` against ``law``, confirmed once.

    At the level 1.95/sqrt(N) + 5e-3 a correct sampler still lands above
    it now and then (about 3 seeds in 10^4 at N = 1000; master seed 1664 of
    the alpha = 0 boundary run is one). A sample above the level is
    therefore tested again, once per run, on the next 16 N paths of the
    same streams, where the level is lower: a real bias fails both times,
    a chance excursion does not.
    """
    confirmed = {}

    def check(samples):
        n = samples.shape[0]
        ks = law(samples)
        if ks <= ref.ks_threshold(n):
            return
        if "ok" not in confirmed:
            import gasp

            more = gasp.simulate_paths(replace(cfg, n_paths=17 * n), path_range=(n, 17 * n))
            confirmed["ok"] = law(more.samples) <= ref.ks_threshold(16 * n)
        expect(confirmed["ok"], "KS %.4f above %.4f, and again on %d further paths"
               % (ks, ref.ks_threshold(n), 16 * n))

    return check


def _check_paths(cfg, law):
    law_holds = None if law is None else _law_check(cfg, law)

    def check(run, _outputs):
        expect(run.samples.shape == (cfg.n_paths, cfg.p.n), "wrong sample shape")
        expect(np.all(np.isfinite(run.samples)) and np.all(run.stop_times > 0),
               "non-finite samples or stop times")
        if law_holds is not None:
            law_holds(run.samples)

    return check


def _consistent_report(report):
    # the verdict follows from the report's own numbers; whether the law
    # holds is the KS check's business, done on the same samples
    expect(report["passed"] == (report["ks"] <= report["threshold"]),
           "verdict disagrees with its KS: %r" % (report,))


def _check_symmetric(run, _outputs):
    x = run.samples[:, 0]
    expect(np.all(np.isfinite(x)) and np.all(run.stop_times > 0),
           "non-finite samples or stop times")
    spread = 5.0 * float(np.std(x)) / math.sqrt(x.size)
    expect(abs(float(np.mean(x))) <= spread, "level-mode law not centred")


def plan_montecarlo(inputs, seed, small=False):
    import gasp

    c = inputs
    split = c["split"]
    one = gasp.simulate_paths(split, workers=1)
    two = gasp.simulate_paths(split, workers=2)
    split_ok = (np.array_equal(one.samples, two.samples)
                and np.array_equal(one.stop_times, two.stop_times))

    def check_validation(report, outputs):
        expect(split_ok, "workers=2 samples differ from workers=1")
        _consistent_report(report)
        floor = report["floor_allowance"]
        expect(abs(report["threshold"] - ref.ks_threshold(report["n_paths"]) - floor)
               <= 1e-15, "threshold is not 1.95/sqrt(N) + 5e-3 + floor allowance")
        # validation ran the b0 configuration on two workers; its KS must
        # match the one-worker samples of the same round bit for bit
        xs = np.sort(outputs["boundary_a0_n1"].samples[:, 0])
        ks = gasp.ks_statistic(xs, gasp.boundary_kernel_cdf(c["b0"].p, MC_START))
        expect(report["ks"] == ks, "workers=2 KS differs from workers=1")

    laws = {  # KS laws; a handful of smoke paths says nothing, so none there
        "b0": lambda x: ref.ks_student_t(x[:, 0], 0.0, MC_START),
        "b2": lambda x: ref.ks_student_t(x[:, 0], 2.0, MC_START),
        "b3": lambda x: ref.ks_f_law(x, 2.0, MC_START),
        "l0": lambda x: ref.ks_cauchy(x[:, 0], MC_LEVELS[0] - MC_LEVELS[1]),
    }
    ops = []
    # the stages interleave, so each is sampled across the round
    for name, stage, key in (("boundary_a0_n1", 1, "b0"), ("level_a0", 2, "l0"),
                             ("boundary_a2_n3", 4, "b3"), ("boundary_a2_n1", 1, "b2"),
                             ("level_a3", 2, "l3")):
        cfg = c[key]
        check = (_check_symmetric if key == "l3"
                 else _check_paths(cfg, None if small else laws[key]))
        ops.append(Op(name, stage, lambda cfg=cfg: gasp.simulate_paths(cfg), check,
                      paths=cfg.n_paths))
    ops.insert(3, Op("validate_a0", 3,
                     lambda: gasp.validate_boundary_law(c["b0"], workers=2),
                     check_validation, own_thread=False))
    return ops


# ====================================================================== cli


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    document: bytes  # the --output file, empty when there is none


def _read(path):
    if path is None or not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


def subprocess_runner(src_dir):
    """Each command in a fresh interpreter, as a user runs it."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))

    def run(args, output):
        proc = subprocess.run([sys.executable, "-m", "gasp.cli", *args],
                              capture_output=True, env=env, timeout=150)
        return Outcome(proc.returncode, proc.stdout, proc.stderr, _read(output))

    return run


def inprocess_runner():
    """Each command through click's entry point in this process (traced run)."""
    from click.testing import CliRunner

    from gasp.cli import main

    runner = CliRunner()

    def run(args, output):
        res = runner.invoke(main, args)
        return Outcome(res.exit_code, res.stdout_bytes, res.stderr_bytes, _read(output))

    return run


def build_cli(seed, work, small=False):
    """The data file the data commands read, written with save_data."""
    import gasp

    rng = _rng(seed, 4)
    h = 1 / 64
    grid = gasp.Grid((-1.0,), h, (129,))
    centre = int(rng.integers(-8, 9)) * h
    height = float(rng.uniform(0.5, 2.0))
    term = gasp.WeightedTerm(gasp.MultiIndex((0,)), grid,
                             _tent_values(grid, (centre,), 0.75, height))
    path = os.path.join(work, "tent.json")
    gasp.save_data(gasp.BoundaryData(gasp.ModelParams(0.0, 1), (term,)), path)
    return {"data": path, "work": work, "term": term,
            "x": tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2)),
            "sim_seed": int(seed)}


def _doc(outcome):
    return json.loads(outcome.document.decode())


def _ok(outcome):
    expect(outcome.code == 0, "exit %d: %s" % (outcome.code, outcome.stderr[-300:]))


CLI_COMMANDS = ("kernel_eval", "kernel_mass", "kernel_residual", "fourier_compare",
                "growth_counterexample", "extend", "converge", "growth_scan",
                "hitting_kernel", "hitting_semigroup", "simulate_boundary",
                "simulate_hitting")


def plan_cli(inputs, seed, runner, small=False):
    work, data = inputs["work"], inputs["data"]
    x1, x2 = inputs["x"]
    sim_seed = str(inputs["sim_seed"])
    paths = "200" if small else "1000"

    def out(name):
        return os.path.join(work, name)

    def command(name, stage, args, check, output=None, known_fault=False):
        return Op(name, stage, lambda: runner(args + (["--output", output] if output else []),
                                              output),
                  check, known_fault=known_fault, own_thread=False)

    # ---------------------------------------------------------- checks
    def check_eval(o, _):
        _ok(o)
        want = float(ref.kernel(1.5, 2, x1 * x1 + x2 * x2, 0.7))
        _close(float(o.stdout), want, 1e-14 * want, "kernel eval")

    def check_mass(o, _):
        _ok(o)
        _close(_doc(o)["mass"], 1.0, 1e-8, "kernel mass")

    def check_mass_big_alpha(o, _):
        # documented outcomes: mass 1 on exit 0, or a JSON error on exit 3
        if o.code == 0:
            _close(float(o.stdout.split()[0]), 1.0, 1e-6, "kernel mass at alpha=400")
        else:
            expect(o.code == 3, "alpha=400: exit %d, not 0 or 3" % o.code)
            json.loads(o.stderr.decode())

    def check_residual(o, _):
        _ok(o)
        # the residual of the exact kernel is pure O(h^2) stencil error
        expect(abs(float(o.stdout)) <= 1e-3, "kernel residual %s" % o.stdout)

    def check_fourier(o, _):
        _ok(o)
        for row in _doc(o)["rows"]:
            want = ref.kernel_fourier(1.0, 1.0, row["xi"])
            _close(row["closed_form"], want, 1e-10, "fourier closed form")
            _close(row["integral_rep"], want, 1e-8, "fourier integral route")
            _close(row["direct"], want, 1e-6, "fourier direct route")

    term = inputs["term"]
    nodes, wf = _data_nodes(term)
    ext_y = 0.5
    ext_grid = np.arange(65) * (1 / 32) - 1.0
    ext_want = ref.direct_sum(0.0, 1, nodes, wf, ext_grid[:, None], ext_y)

    def check_extend(o, _):
        _ok(o)
        tol = 1e-10 * float(np.sum(np.abs(wf))) * ref.kernel(0.0, 1, 0.0, ext_y)
        _close(_doc(o)["values"], ext_want, tol, "cli extend")

    def check_converge(o, _):
        _ok(o)
        doc = _doc(o)
        expect(len(doc["rows"]) == 4, "converge gave %d rows" % len(doc["rows"]))
        _check_ladder([r["error"] for r in doc["rows"]], _)

    def check_hitting(o, _):
        _ok(o)
        for row in _doc(o)["rows"]:
            _close(row["G"], ref.poisson_law_density(1, 1.0, row["r"]), 1e-8, "cli hitting")

    def check_semigroup(o, _):
        _ok(o)
        doc = _doc(o)
        expect(doc["passed"] == (doc["deviation"] <= doc["tolerance"]),
               "semigroup verdict disagrees with its deviation")
        expect(doc["deviation"] <= 1e-3, "semigroup deviation %g" % doc["deviation"])

    # the library configurations the two simulate commands run
    import gasp

    def sim_cfg(alpha, y, y_stop):
        return gasp.SimConfig(gasp.ModelParams(alpha, 1), gasp.HalfSpacePoint((0.0,), y),
                              1e-3, y_stop, int(paths), int(sim_seed))

    boundary_law = _law_check(sim_cfg(2.0, 1.0, 0.0),
                              lambda x: ref.ks_student_t(x[:, 0], 2.0, 1.0))
    hitting_law = _law_check(sim_cfg(0.0, 2.0, 1.0), lambda x: ref.ks_cauchy(x[:, 0], 1.0))

    def dumped(name):
        return np.loadtxt(out(name), delimiter=",", skiprows=1, usecols=(1,), ndmin=2)

    def check_sim_boundary(o, _):
        _ok(o)
        _consistent_report(_doc(o))
        boundary_law(dumped("boundary.csv"))

    def check_sim_hitting(o, _):
        _ok(o)
        _consistent_report(_doc(o))
        hitting_law(dumped("hitting.csv"))

    def check_scan(o, _):
        _ok(o)
        doc = _doc(o)
        expect(doc["monotone_decreasing"], "growth scan not decreasing")
        expect(all(r["M"] > 0 for r in doc["rows"]), "growth scan sup not positive")

    def check_counterexample(o, _):
        _ok(o)
        doc = _doc(o)
        expect(doc["passed"], "counterexample track fell below its floor")
        # at alpha = 0, n = 1 the unit-tent value is (pi/2 - ln 2) / pi
        _close(doc["u_tilde"], (0.5 * math.pi - math.log(2.0)) / math.pi, 1e-12,
               "u_tilde")

    sem = "--alpha 3 --n 1 --y 3 --eta2 2 --eta1 1 --spacing 0.5".split()
    sem += ["--origin=-5", "--shape", "21"] if small else ["--origin=-10", "--shape", "41"]
    # light and heavy commands alternate, so every stage is sampled across
    # the whole round rather than in one stretch of it
    return [
        command("kernel_eval", 1, ["kernel", "eval", "--alpha", "1.5", "--n", "2",
                                   "--x", "%r,%r" % (x1, x2), "--y", "0.7"], check_eval),
        command("hitting_kernel", 3, ["hitting", "kernel", "--alpha", "0", "--n", "1",
                                      "--y", "2", "--eta", "1", "--r", "0.5,2",
                                      "--format", "json"], check_hitting, out("hk.json")),
        command("fourier_compare", 1, ["fourier", "compare", "--alpha", "1", "--n", "1",
                                       "--y", "1", "--xi", "0.5,2", "--format", "json"],
                check_fourier, out("fourier.json")),
        command("extend", 2, ["extend", "--data", data, "--y", str(ext_y), "--origin=-1",
                              "--spacing", "0.03125", "--shape", "65", "--format", "json"],
                check_extend, out("extend.json")),
        command("kernel_mass", 1, ["kernel", "mass", "--alpha", "1.5", "--n", "2",
                                   "--y", "0.5"], check_mass, out("mass.json")),
        command("simulate_boundary", 4, ["simulate", "boundary", "--alpha", "2", "--n", "1",
                                         "--paths", paths, "--seed", sim_seed,
                                         "--samples", out("boundary.csv")],
                check_sim_boundary, out("sim_boundary.json")),
        command("converge", 2, ["converge", "--data", data, "--y-list", "1,0.5,0.25,0.125",
                                "--format", "json"], check_converge, out("converge.json")),
        command("kernel_residual", 1, ["kernel", "residual", "--alpha", "1", "--n", "1",
                                       "--x", "0.3", "--y", "0.8"], check_residual),
        command("hitting_semigroup", 3, ["hitting", "semigroup", *sem], check_semigroup,
                out("semigroup.json")),
        command("growth_scan", 2, ["growth", "scan", "--data", data, "--r", "2,4,8",
                                   "--theta-count", "16", "--format", "json"],
                check_scan, out("scan.json")),
        command("growth_counterexample", 1, ["growth", "counterexample", "--alpha", "0",
                                             "--n", "1", "--k-max", "10"],
                check_counterexample, out("track.json")),
        command("kernel_mass_alpha400", 1, ["kernel", "mass", "--alpha", "400", "--n", "1"],
                check_mass_big_alpha, known_fault=True),
        command("simulate_hitting", 4, ["simulate", "hitting", "--alpha", "0",
                                        "--paths", paths, "--seed", sim_seed,
                                        "--samples", out("hitting.csv")],
                check_sim_hitting, out("sim_hitting.json")),
    ]


BUILD = {"extension": build_extension, "hitting": build_hitting,
         "montecarlo": build_montecarlo, "cli": build_cli}
