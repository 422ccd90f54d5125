"""``gasp``: command-line access to every capability of the library.

Exit codes: 0 on success; 2 on validation failure, with a machine-readable
JSON error object on stderr; 3 on numerical nonconvergence or overflow,
same shape.

Parameter precedence: explicit flags override values from ``--config`` (a
JSON object keyed by the parameter names, hyphens spelled as underscores),
which override the defaults.  ``_DEFAULTS`` declares every parameter once,
with its default, type and help line, and the options of each subcommand
are generated from it; ``gasp <command> --help`` lists them.

Every subcommand also accepts ``--config``, ``--output`` (primary document
to a file instead of stdout), ``--format {json,csv}`` (default json for
reports, csv for tables), and ``--workers N`` (parallelism cap; results
never depend on it).  ``--seed`` falls back to the GASP_SEED environment
variable, then to 0.  Identical configuration and seed give byte-identical
documents; floats are printed with 17 significant digits in JSON and 9 in
CSV.  The three ``kernel`` subcommands print a single human-readable line
to stdout and write their document only when ``--output`` is given.
"""

import collections
import functools
import json
import os
import sys

import click
import numpy as np

from ._jsonio import csv_document, format_float, json_document
from ._quadrature import QuadratureError
from .boundary_data import CriticalCase, Grid, SubcriticalCase, case_exponents, load_data
from .extension import boundary_convergence, extend_grid
from .growth import counterexample_track, l1_data_scan, u_tilde
from .hbm_sim import (SimConfig, simulate_paths, validate_boundary_law,
                      validate_hitting_law)
from .hitting import LevelPair, hitting_kernel, semigroup_check
from .kernel import (HalfSpacePoint, ModelParams, dalpha_residual, kernel_mass,
                     poisson_kernel)
from .special_functions import EvalAccuracy
from .spectral import ft_closed_form, ft_direct, ft_integral_rep


class _Required:
    def __repr__(self):
        return "<required>"


_REQ = _Required()

# shared by every subcommand; "output": None means stdout
_COMMON = {"format": None, "output": None, "workers": 1}

# one command-line parameter: its default, its click type (None: text)
# and its help line; the flag is the key with "_" spelled "-"
_Param = collections.namedtuple("_Param", "default type help")

_ALPHA = _Param(_REQ, float, "Weight exponent, > -1.")
_N = _Param(_REQ, int, "Boundary dimension.")
_X = _Param(_REQ, None, "Boundary point, n comma-separated values.")
_Y = _Param(1.0, float, "Height above the boundary.")
_DATA_ALPHA = _Param(None, float, "Optional; must match the data file.")
_DATA_N = _Param(None, int, "Optional; must match the data file.")
_ETA_HELP = "Absorbing level, 0 < eta < y."
_SIM_N = _Param(1, int, "Boundary dimension (KS report needs 1).")
_PATHS = _Param(_REQ, int, "Number of paths.")
_DT = _Param(1e-3, float, "Time step, <= 1e-2.")
_SEED = _Param(None, int, "Master seed (GASP_SEED, then 0).")
_SAMPLES = _Param(None, click.Path(dir_okay=False),
                  "Also dump the per-path samples to this CSV.")

_DEFAULTS = {
    "kernel eval": {"alpha": _ALPHA, "n": _N, "x": _X, "y": _Y},
    "kernel mass": {"alpha": _ALPHA, "n": _N, "y": _Param(
        1.0, float, "Height (the mass is 1 at every height).")},
    "kernel residual": {"alpha": _ALPHA, "n": _N, "x": _X, "y": _Y,
                        "h": _Param(None, float, "Stencil step (default y/100).")},
    "fourier compare": {"alpha": _ALPHA, "n": _N, "y": _Y, "xi": _Param(
        _REQ, None, "Frequency magnitudes |xi| > 0, comma-separated.")},
    "extend": {
        "data": _Param(_REQ, None,
                       "Boundary-data JSON file (see the data-file schema)."),
        "alpha": _DATA_ALPHA, "n": _DATA_N,
        "y": _Param(_REQ, float, "Evaluation height, > 0."),
        "origin": _Param(_REQ, None, "Output grid origin, n values."),
        "spacing": _Param(_REQ, float, "Output grid spacing."),
        "shape": _Param(_REQ, None, "Output grid shape, n integers.")},
    "converge": {
        "data": _Param(_REQ, None, "Boundary-data JSON file."),
        "alpha": _DATA_ALPHA, "n": _DATA_N,
        "y_list": _Param("1,0.25,0.0625,0.015625", None,
                         "Strictly decreasing heights, comma-separated.")},
    "hitting kernel": {
        "alpha": _ALPHA, "n": _N, "y": _Param(_REQ, float, "Start level."),
        "eta": _Param(_REQ, float, _ETA_HELP),
        "r": _Param(_REQ, None, "Radii |x| >= 0, comma-separated.")},
    "hitting semigroup": {
        "alpha": _ALPHA, "n": _N, "y": _Param(_REQ, float, "Top level."),
        "eta2": _Param(_REQ, float, "Middle level."),
        "eta1": _Param(_REQ, float, "Bottom level."),
        "origin": _Param(_REQ, None, "Check-grid origin, n values."),
        "spacing": _Param(_REQ, float, "Check-grid spacing."),
        "shape": _Param(_REQ, None, "Check-grid shape, n integers."),
        "tol": _Param(1e-3, float, "Pass threshold on the deviation.")},
    "simulate boundary": {
        "alpha": _ALPHA, "n": _SIM_N, "y": _Param(1.0, float, "Start height."),
        "paths": _PATHS, "dt": _DT,
        "floor": _Param(None, float, "Height where the walk stops and the exact "
                        "completion to the boundary starts (default 1e-4*y)."),
        "seed": _SEED, "samples": _SAMPLES},
    "simulate hitting": {
        "alpha": _ALPHA, "n": _SIM_N, "y": _Param(2.0, float, "Start level."),
        "eta": _Param(1.0, float, _ETA_HELP), "paths": _PATHS, "dt": _DT,
        "seed": _SEED, "samples": _SAMPLES},
    "growth scan": {
        "data": _Param(_REQ, None, "Boundary-data JSON file (beta = 0 terms)."),
        "alpha": _DATA_ALPHA, "n": _DATA_N,
        "r": _Param(_REQ, None, "Radii, comma-separated, increasing."),
        "theta_count": _Param(64, int, "Angular resolution of the scan.")},
    "growth counterexample": {
        "alpha": _ALPHA, "n": _N,
        "case": _Param("subcritical", click.Choice(("subcritical", "critical")),
                       "Exponent regime of the construction."),
        "beta": _Param(0.0, float, "Radial exponent (subcritical only; implied "
                       "on the critical line)."),
        "gamma": _Param(0.0, float, "Height exponent."),
        "k_max": _Param(10, int, "Bumps to track.")},
}

# tables default to csv, reports and single values to json
_FORMAT_DEFAULT = {
    "fourier compare": "csv",
    "extend": "csv",
    "converge": "csv",
    "hitting kernel": "csv",
    "growth scan": "csv",
}


def _die(code, kind, message):
    sys.stderr.write(json_document({"error": kind, "message": message}))
    sys.exit(code)


def _guard(fn):
    """Map library exceptions onto the exit-code contract."""
    @functools.wraps(fn)
    def run(**kw):
        try:
            fn(**kw)
        except QuadratureError as exc:
            _die(3, "nonconvergence", str(exc))
        except OverflowError as exc:
            _die(3, "overflow", str(exc))
        except (ValueError, OSError) as exc:
            _die(2, "validation", str(exc))
    return run


def _settings(command, config_path, flags):
    """Merge defaults, config-file values, and explicit flags (in that order)."""
    merged = {key: spec.default for key, spec in _DEFAULTS[command].items()}
    merged.update(_COMMON)
    if config_path is not None:
        with open(config_path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError("config file %s: not valid JSON (%s)"
                                 % (config_path, exc))
        if not isinstance(doc, dict):
            raise ValueError("config file %s: expected a JSON object" % config_path)
        for key, value in doc.items():
            if key not in merged:
                raise ValueError("config file %s: unknown parameter %r for %r"
                                 % (config_path, key, command))
            merged[key] = value
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    missing = sorted(k for k, v in merged.items() if v is _REQ)
    if missing:
        raise ValueError("%r is missing required parameter(s): %s"
                         % (command, ", ".join(missing)))
    if merged["format"] is None:
        merged["format"] = _FORMAT_DEFAULT.get(command, "json")
    merged["workers"] = int(merged["workers"])
    if merged["workers"] < 1:
        raise ValueError("workers must be >= 1, got %d" % merged["workers"])
    return merged


def _params(settings):
    return ModelParams(float(settings["alpha"]), int(settings["n"]))


def _seed(settings):
    value = settings.get("seed")
    if value is None:
        env = os.environ.get("GASP_SEED")
        if env is None:
            return 0
        try:
            value = int(env)
        except ValueError:
            raise ValueError("GASP_SEED must be an integer, got %r" % env)
    value = int(value)
    if not (0 <= value < 2**64):
        raise ValueError("seed must be a 64-bit unsigned integer, got %d" % value)
    return value


def _floats(value, name):
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ValueError("%s: expected a comma-separated list of numbers" % name)
    try:
        out = tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise ValueError("%s: expected numbers, got %r" % (name, value))
    if not out:
        raise ValueError("%s: empty list" % name)
    return out


def _ints(value, name):
    vals = _floats(value, name)
    out = tuple(int(v) for v in vals)
    if any(o != v for o, v in zip(out, vals)):
        raise ValueError("%s: expected integers, got %r" % (name, value))
    return out


def _load_data(settings):
    """Read a boundary-data file; flags may restate alpha/n but not change them."""
    data = load_data(settings["data"])
    p = data.params_hint
    if settings.get("alpha") is not None and float(settings["alpha"]) != p.alpha:
        raise ValueError("--alpha %s disagrees with the data file (alpha = %s)"
                         % (settings["alpha"], p.alpha))
    if settings.get("n") is not None and int(settings["n"]) != p.n:
        raise ValueError("--n %s disagrees with the data file (n = %d)"
                         % (settings["n"], p.n))
    return data, p


def _write(text, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _emit(settings, json_obj, csv_header, csv_rows):
    if settings["format"] == "json":
        _write(json_document(json_obj), settings["output"])
    else:
        _write(csv_document(csv_header, csv_rows), settings["output"])


def _emit_report(settings, report):
    """A flat dict as a JSON object or a one-row CSV."""
    _emit(settings, report, tuple(report), [tuple(report.values())])


_COMMON_OPTIONS = (
    click.option("--workers", type=int, default=None,
                 help="Parallelism cap; never changes results."),
    click.option("--format", type=click.Choice(("json", "csv")),
                 default=None, help="Primary document format."),
    click.option("--output", type=click.Path(dir_okay=False), default=None,
                 help="Write the primary document here instead of stdout."),
    click.option("--config", "config_path",
                 type=click.Path(exists=True, dir_okay=False), default=None,
                 help="JSON object of parameter values; flags override it."),
)


def _help_line(spec):
    if spec.default is _REQ:
        return spec.help + "  [required]"
    if spec.default is None:
        return spec.help
    return "%s  [default: %s]" % (spec.help, spec.default)


def _command(group, name):
    """Register ``handler(settings)`` as a subcommand of ``group``.

    The options are those of the command's _DEFAULTS entry followed by
    the common ones; the handler gets the merged settings.
    """
    key = name if group is main else "%s %s" % (group.name, name)

    def register(handler):
        @functools.wraps(handler)
        def run(config_path, **flags):
            handler(_settings(key, config_path, flags))

        cmd = _guard(run)
        for deco in _COMMON_OPTIONS:
            cmd = deco(cmd)
        for param, spec in reversed(_DEFAULTS[key].items()):
            cmd = click.option("--" + param.replace("_", "-"), param,
                               type=spec.type, default=None,
                               help=_help_line(spec))(cmd)
        return group.command(name)(cmd)
    return register


@click.group()
def main():
    """Weighted half-space kernels, extensions, hitting laws, growth scans."""


# ----------------------------------------------------------------- kernel


@main.group("kernel")
def kernel_group():
    """Pointwise kernel values, total mass, and the PDE residual."""


@_command(kernel_group, "eval")
def kernel_eval(s):
    p = _params(s)
    pt = HalfSpacePoint(x=_floats(s["x"], "x"), y=float(s["y"]))
    value = poisson_kernel(p, pt)
    click.echo(format_float(value, 17))
    if s["output"] is not None:
        _emit(s,
              {"alpha": p.alpha, "n": p.n, "x": list(pt.x), "y": pt.y,
               "value": value},
              tuple("x%d" % (i + 1) for i in range(p.n)) + ("y", "value"),
              [pt.x + (pt.y, value)])


@_command(kernel_group, "mass")
def kernel_mass_cmd(s):
    p = _params(s)
    mass = kernel_mass(p, float(s["y"]))
    # sequence-difference estimate: same quadrature at a coarser tolerance,
    # floored at roundoff for when the two levels coincide exactly
    est = max(abs(mass - kernel_mass(p, float(s["y"]), EvalAccuracy(rel_tol=1e-7))),
              abs(mass) * 2.0**-52)
    click.echo("%.6f ± %s" % (mass, format_float(est, 2)))
    if s["output"] is not None:
        _emit(s,
              {"alpha": p.alpha, "n": p.n, "y": float(s["y"]), "mass": mass,
               "error_estimate": est},
              ("alpha", "n", "y", "mass", "error_estimate"),
              [(p.alpha, p.n, float(s["y"]), mass, est)])


@_command(kernel_group, "residual")
def kernel_residual(s):
    p = _params(s)
    pt = HalfSpacePoint(x=_floats(s["x"], "x"), y=float(s["y"]))
    step = None if s["h"] is None else float(s["h"])
    value = dalpha_residual(lambda q: poisson_kernel(p, q), p, pt, h=step)
    click.echo(format_float(value, 17))
    if s["output"] is not None:
        _emit(s,
              {"alpha": p.alpha, "n": p.n, "x": list(pt.x), "y": pt.y,
               "h": pt.y / 100.0 if step is None else step, "residual": value},
              tuple("x%d" % (i + 1) for i in range(p.n)) + ("y", "residual"),
              [pt.x + (pt.y, value)])


# ---------------------------------------------------------------- fourier


@main.group("fourier")
def fourier_group():
    """Fourier transform of the kernel, three independent routes."""


@_command(fourier_group, "compare")
def fourier_compare(s):
    p = _params(s)
    height = float(s["y"])
    rows = []
    for t in _floats(s["xi"], "xi"):
        if not t > 0.0:
            raise ValueError("xi values must be > 0, got %g" % t)
        closed = float(ft_closed_form(p, height, t))
        integral = ft_integral_rep(p, height, t)
        if p.n <= 2:
            vec = np.zeros(p.n)
            vec[0] = t
            direct = ft_direct(p, height, vec)
        else:
            direct = None  # brute-force oracle is n <= 2 only
        rows.append((t, closed, integral, direct))
    _emit(s,
          {"alpha": p.alpha, "n": p.n, "y": height,
           "rows": [{"xi": r[0], "closed_form": r[1], "integral_rep": r[2],
                     "direct": r[3]} for r in rows]},
          ("xi", "closed_form", "integral_rep", "direct"),
          rows)


# ----------------------------------------------------------------- extend


@_command(main, "extend")
def extend_cmd(s):
    """Evaluate the extension u on a grid at one height."""
    bdata, p = _load_data(s)
    grid = Grid(origin=_floats(s["origin"], "origin"),
                spacing=float(s["spacing"]),
                shape=_ints(s["shape"], "shape"))
    height = float(s["y"])
    result = extend_grid(bdata, p, height, grid)
    est = result.quadrature_error_estimate
    rows = []
    for idx in np.ndindex(grid.shape):
        point = tuple(grid.origin[a] + grid.spacing * idx[a] for a in range(p.n))
        rows.append(point + (height, float(result.values[idx]), est))
    _emit(s,
          {"alpha": p.alpha, "n": p.n, "y": height,
           "origin": list(grid.origin), "spacing": grid.spacing,
           "shape": list(grid.shape),
           "values": [float(v) for v in result.values.reshape(-1)],
           "quadrature_error_estimate": est,
           "notes": list(result.notes)},
          tuple("x%d" % (i + 1) for i in range(p.n)) + ("y", "u", "err_estimate"),
          rows)


# --------------------------------------------------------------- converge


@_command(main, "converge")
def converge_cmd(s):
    """Weighted-L1 distance of the extension to its boundary data."""
    bdata, p = _load_data(s)
    ys = _floats(s["y_list"], "y-list")
    errors = boundary_convergence(bdata, p, list(ys))
    _emit(s,
          {"alpha": p.alpha, "n": p.n,
           "rows": [{"y": h, "error": e} for h, e in zip(ys, errors)],
           "decreasing": bool(all(b < a for a, b in zip(errors, errors[1:])))},
          ("y", "error"),
          list(zip(ys, errors)))


# ---------------------------------------------------------------- hitting


@main.group("hitting")
def hitting_group():
    """Two-level hitting density and its semigroup identity."""


@_command(hitting_group, "kernel")
def hitting_kernel_cmd(s):
    p = _params(s)
    lv = LevelPair(y=float(s["y"]), eta=float(s["eta"]))
    radii = _floats(s["r"], "r")
    rows = list(zip(radii, hitting_kernel(p, lv, np.array(radii)).tolist()))
    _emit(s,
          {"alpha": p.alpha, "n": p.n, "y": lv.y, "eta": lv.eta,
           "rows": [{"r": a, "G": b} for a, b in rows]},
          ("r", "G"),
          rows)


@_command(hitting_group, "semigroup")
def hitting_semigroup(s):
    p = _params(s)
    grid = Grid(origin=_floats(s["origin"], "origin"),
                spacing=float(s["spacing"]),
                shape=_ints(s["shape"], "shape"))
    deviation = semigroup_check(p, float(s["y"]), float(s["eta2"]),
                                float(s["eta1"]), grid)
    _emit_report(s, {
        "alpha": p.alpha, "n": p.n, "y": float(s["y"]),
        "eta2": float(s["eta2"]), "eta1": float(s["eta1"]),
        "deviation": deviation, "tolerance": float(s["tol"]),
        "passed": bool(deviation <= float(s["tol"])),
    })


# --------------------------------------------------------------- simulate


@main.group("simulate")
def simulate_group():
    """Monte Carlo sampling of the stopped diffusion, with KS reports."""


def _dump_samples(path, run):
    n = run.samples.shape[1]
    header = ("stop_time",) + tuple("x%d" % (i + 1) for i in range(n))
    rows = [(float(t),) + tuple(float(v) for v in x)
            for t, x in zip(run.stop_times, run.samples)]
    with open(path, "w") as fh:
        fh.write(csv_document(header, rows))


@_command(simulate_group, "boundary")
def simulate_boundary(s):
    """Run to the boundary and KS-test X against the kernel law."""
    p = _params(s)
    cfg = SimConfig(p=p, start=HalfSpacePoint(x=(0.0,) * p.n, y=float(s["y"])),
                    dt=float(s["dt"]), y_stop=0.0, n_paths=int(s["paths"]),
                    master_seed=_seed(s),
                    y_floor=None if s["floor"] is None else float(s["floor"]))
    run = simulate_paths(cfg, workers=s["workers"])
    if s["samples"] is not None:
        _dump_samples(s["samples"], run)
    report = validate_boundary_law(cfg, workers=s["workers"], samples=run)
    _emit_report(s, report)


@_command(simulate_group, "hitting")
def simulate_hitting(s):
    """Run to a positive level and KS-test X against the hitting law."""
    p = _params(s)
    lv = LevelPair(y=float(s["y"]), eta=float(s["eta"]))
    cfg = SimConfig(p=p, start=HalfSpacePoint(x=(0.0,) * p.n, y=lv.y),
                    dt=float(s["dt"]), y_stop=lv.eta, n_paths=int(s["paths"]),
                    master_seed=_seed(s))
    run = simulate_paths(cfg, workers=s["workers"])
    if s["samples"] is not None:
        _dump_samples(s["samples"], run)
    report = validate_hitting_law(cfg, lv, samples=run)
    _emit_report(s, report)


# ----------------------------------------------------------------- growth


@main.group("growth")
def growth_group():
    """Hemisphere growth scans and the sharpness construction."""


@_command(growth_group, "scan")
def growth_scan(s):
    bdata, p = _load_data(s)
    scan = l1_data_scan(bdata, p, _floats(s["r"], "r"),
                        theta_count=int(s["theta_count"]))
    rows = [(rv, float(th), float(m)) for rv, th, m in
            zip(scan.r_values, scan.argmax_theta, scan.sup_values)]
    sup = scan.sup_values
    _emit(s,
          {"alpha": p.alpha, "n": p.n, "theta_count": scan.theta_count,
           "rows": [{"r": a, "theta_argmax": b, "M": c} for a, b, c in rows],
           "monotone_decreasing": bool(all(sup[1:] < sup[:-1]))},
          ("r", "theta_argmax", "M"),
          rows)


@_command(growth_group, "counterexample")
def growth_counterexample(s):
    """Track the sharpness-construction ratios along the bump centres."""
    p = _params(s)
    if s["case"] == "subcritical":
        case_obj = SubcriticalCase(beta=float(s["beta"]), gamma=float(s["gamma"]))
    else:
        case_obj = CriticalCase(gamma=float(s["gamma"]))
    track = counterexample_track(p, case_obj, int(s["k_max"]))
    beta_eff, gamma_eff = case_exponents(p, case_obj)[:2]
    floor = u_tilde(p)
    tail = [ratio for k, ratio in track if k >= 4]
    _emit(s,
          {"alpha": p.alpha, "n": p.n, "case": s["case"],
           "beta": beta_eff, "gamma": gamma_eff, "k_max": int(s["k_max"]),
           "u_tilde": floor, "threshold": 0.5 * floor,
           "rows": [{"k": k, "ratio": ratio} for k, ratio in track],
           "passed": bool(all(v >= 0.5 * floor for v in tail)) if tail else None},
          ("k", "ratio"),
          track)


if __name__ == "__main__":
    main()
