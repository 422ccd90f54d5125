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
to a file instead of stdout) and ``--format {json,csv}`` (default json for
reports, csv for tables).  The two ``simulate`` commands take ``--workers
N`` (parallelism cap; results never depend on it).  ``--seed`` falls back
to the GASP_SEED environment variable, then to 0.  Identical configuration
and seed give byte-identical documents; floats are printed with 17
significant digits in JSON and 9 in CSV.  The three ``kernel`` subcommands
print a single human-readable line to stdout and write their document only
when ``--output`` is given.
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
from .boundary_data import (CriticalCase, Grid, SubcriticalCase, case_exponents,
                            grid_points, load_data)
from .extension import boundary_convergence, extend_grid
from .growth import counterexample_track, l1_data_scan, u_tilde
from .hbm_sim import (SimConfig, simulate_paths, validate_boundary_law,
                      validate_hitting_law)
from .hitting import LevelPair, hitting_kernel, semigroup_check
from .kernel import (HalfSpacePoint, ModelParams, _mass_with_error, dalpha_residual,
                     poisson_kernel)
from .spectral import ft_closed_form, ft_direct, ft_integral_rep


class _Required:
    def __repr__(self):
        return "<required>"


_REQ = _Required()

# one command-line parameter: its default, its click type (None: text)
# and its help line; the flag is the key with "_" spelled "-"
_Param = collections.namedtuple("_Param", "default type help")

# shared by every subcommand; "output": None means stdout
_COMMON = {
    "format": _Param(None, click.Choice(("json", "csv")), "Primary document format."),
    "output": _Param(None, click.Path(dir_okay=False),
                     "Write the primary document here instead of stdout."),
}

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
_WORKERS = _Param(1, int, "Parallelism cap; never changes results.")

_DEFAULTS = {
    "kernel eval": {"alpha": _ALPHA, "n": _N, "x": _X, "y": _Y},
    "kernel mass": {"alpha": _ALPHA, "n": _N, "y": _Param(
        1.0, float, "Height (the mass is 1 at every height).")},
    "kernel residual": {"alpha": _ALPHA, "n": _N, "x": _X, "y": _Y,
                        "h": _Param(None, float, "Stencil step (default y/100).")},
    "fourier compare": {"alpha": _ALPHA, "n": _N, "y": _Y, "xi": _Param(
        _REQ, None, "Frequency magnitudes |xi| > 0, comma-separated.")},
    "extend": {
        "data": _Param(_REQ, str, "Boundary-data JSON file (see the data-file schema)."),
        "alpha": _DATA_ALPHA, "n": _DATA_N,
        "y": _Param(_REQ, float, "Evaluation height, > 0."),
        "origin": _Param(_REQ, None, "Output grid origin, n values."),
        "spacing": _Param(_REQ, float, "Output grid spacing."),
        "shape": _Param(_REQ, None, "Output grid shape, n integers.")},
    "converge": {
        "data": _Param(_REQ, str, "Boundary-data JSON file."),
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
        "seed": _SEED, "samples": _SAMPLES, "workers": _WORKERS},
    "simulate hitting": {
        "alpha": _ALPHA, "n": _SIM_N, "y": _Param(2.0, float, "Start level."),
        "eta": _Param(1.0, float, _ETA_HELP), "paths": _PATHS, "dt": _DT,
        "seed": _SEED, "samples": _SAMPLES, "workers": _WORKERS},
    "growth scan": {
        "data": _Param(_REQ, str, "Boundary-data JSON file (beta = 0 terms)."),
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

_GROUPS = {
    "kernel": "Pointwise kernel values, total mass, and the PDE residual.",
    "fourier": "Fourier transform of the kernel, three independent routes.",
    "hitting": "Two-level hitting density and its semigroup identity.",
    "simulate": "Monte Carlo sampling of the stopped diffusion, with KS reports.",
    "growth": "Hemisphere growth scans and the sharpness construction.",
}


def _die(code, kind, message):
    sys.stderr.write(json_document({"error": kind, "message": message}))
    sys.exit(code)


def _settings(command, config_path, flags):
    """Merge defaults, config-file values, and explicit flags (in that order).

    A config value passes through its flag's click type in its text form,
    so it reaches the handler as the flag would: 1.7 is no integer and
    "xml" no format. Text parameters keep lists as they are. null stands
    only where the default is None, the parameter's unset state.
    """
    specs = dict(_DEFAULTS[command], **_COMMON)
    merged = {key: spec.default for key, spec in specs.items()}
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
            if value is None and specs[key].default is not None:
                raise ValueError("config file %s: %s: null is no value"
                                 % (config_path, key))
            if specs[key].type is not None and value is not None:
                try:
                    value = click.types.convert_type(specs[key].type).convert(
                        str(value), None, None)
                except click.BadParameter as exc:
                    raise ValueError("config file %s: %s: %s"
                                     % (config_path, key, exc.message))
            merged[key] = value
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    missing = sorted(k for k, v in merged.items() if v is _REQ)
    if missing:
        raise ValueError("%r is missing required parameter(s): %s"
                         % (command, ", ".join(missing)))
    return merged


def _params(settings):
    return ModelParams(settings["alpha"], settings["n"])


def _seed(settings):
    value = settings.get("seed")
    if value is None:
        env = os.environ.get("GASP_SEED", "0")
        try:
            value = int(env)
        except ValueError:
            raise ValueError("GASP_SEED must be an integer, got %r" % env)
    return value


def _floats(value, name):
    """Comma-separated numbers, or a config list of them in their text form."""
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, list):
        raise ValueError("%s: expected a comma-separated list of numbers" % name)
    try:
        out = tuple(float(str(p)) for p in parts if str(p).strip())
    except ValueError:
        raise ValueError("%s: expected numbers, got %r" % (name, value))
    if not out:
        raise ValueError("%s: empty list" % name)
    return out


def _grid(s):
    """The grid given by ``--origin``, ``--spacing`` and ``--shape``; a
    whole number such as 41.0 in the shape stands for the integer."""
    shape = tuple(int(v) if v.is_integer() else v for v in _floats(s["shape"], "shape"))
    return Grid(origin=_floats(s["origin"], "origin"), spacing=s["spacing"], shape=shape)


def _load_data(settings):
    """Read a boundary-data file; flags may restate alpha/n but not change them."""
    data = load_data(settings["data"])
    p = data.params_hint
    if settings.get("alpha") is not None and settings["alpha"] != p.alpha:
        raise ValueError("--alpha %s disagrees with the data file (alpha = %s)"
                         % (settings["alpha"], p.alpha))
    if settings.get("n") is not None and settings["n"] != p.n:
        raise ValueError("--n %s disagrees with the data file (n = %d)"
                         % (settings["n"], p.n))
    return data, p


def _axes(n):
    return tuple("x%d" % (i + 1) for i in range(n))


def _table(doc, header, rows, **tail):
    """``doc`` and its CSV table; in JSON the rows follow doc's keys as objects."""
    doc["rows"] = [dict(zip(header, row)) for row in rows]
    doc.update(tail)
    return doc, (header, rows)


def _emit(settings, doc, table):
    """Write ``doc`` as JSON, or as CSV: ``table``, else ``doc`` as one row."""
    if settings["format"] == "json":
        text = json_document(doc)
    else:
        header, rows = table or (tuple(doc), [tuple(doc.values())])
        text = csv_document(header, rows)
    if settings["output"] is None:
        sys.stdout.write(text)
    else:
        with open(settings["output"], "w") as fh:
            fh.write(text)


def _summary(s, line, doc, table):
    """Print a kernel command's line; its document goes to --output only."""
    click.echo(line)
    return None if s["output"] is None else (doc, table)


_CONFIG_OPTION = click.option(
    "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
    default=None, help="JSON object of parameter values; flags override it.")


def _help_line(spec):
    if spec.default is _REQ:
        return spec.help + "  [required]"
    if spec.default is None:
        return spec.help
    return "%s  [default: %s]" % (spec.help, spec.default)


@click.group()
def main():
    """Weighted half-space kernels, extensions, hitting laws, growth scans."""


def _command(key, fmt="json"):
    """Register ``handler(settings)`` as subcommand ``key``, by default in ``fmt``.

    Its options are those of ``_DEFAULTS[key]``, then the common ones.  The
    handler returns ``(document, csv_table or None)``, or None to write
    nothing; library exceptions map onto the exit-code contract.
    """
    group, _, name = key.rpartition(" ")

    def register(handler):
        @functools.wraps(handler)
        def run(config_path, **flags):
            try:
                s = _settings(key, config_path, flags)
                if s["format"] is None:
                    s["format"] = fmt
                out = handler(s)
                if out is not None:
                    _emit(s, *out)
            except QuadratureError as exc:
                _die(3, "nonconvergence", str(exc))
            except OverflowError as exc:
                _die(3, "overflow", str(exc))
            except (ValueError, OSError) as exc:
                _die(2, "validation", str(exc))

        def option(param, spec):
            return click.option("--" + param.replace("_", "-"), param,
                                type=spec.type, default=None, help=_help_line(spec))

        cmd = run
        for param, spec in _COMMON.items():
            cmd = option(param, spec)(cmd)
        cmd = _CONFIG_OPTION(cmd)
        for param, spec in reversed(_DEFAULTS[key].items()):
            cmd = option(param, spec)(cmd)
        parent = main
        if group:
            parent = main.commands.get(group) or click.Group(group, help=_GROUPS[group])
            main.add_command(parent)
        return parent.command(name)(cmd)
    return register


@_command("kernel eval")
def kernel_eval(s):
    p = _params(s)
    pt = HalfSpacePoint(x=_floats(s["x"], "x"), y=s["y"])
    value = poisson_kernel(p, pt)
    return _summary(s, format_float(value, 17),
                    {"alpha": p.alpha, "n": p.n, "x": list(pt.x), "y": pt.y,
                     "value": value},
                    (_axes(p.n) + ("y", "value"), [pt.x + (pt.y, value)]))


@_command("kernel mass")
def kernel_mass_cmd(s):
    p = _params(s)
    mass, err = _mass_with_error(p, s["y"])
    est = max(err, abs(mass) * 2.0**-52)  # floored at roundoff
    return _summary(s, "%.6f ± %s" % (mass, format_float(est, 2)),
                    {"alpha": p.alpha, "n": p.n, "y": s["y"], "mass": mass,
                     "error_estimate": est}, None)


@_command("kernel residual")
def kernel_residual(s):
    p = _params(s)
    pt = HalfSpacePoint(x=_floats(s["x"], "x"), y=s["y"])
    value = dalpha_residual(lambda q: poisson_kernel(p, q), p, pt, h=s["h"])
    return _summary(s, format_float(value, 17),
                    {"alpha": p.alpha, "n": p.n, "x": list(pt.x), "y": pt.y,
                     "h": pt.y / 100.0 if s["h"] is None else s["h"], "residual": value},
                    (_axes(p.n) + ("y", "residual"), [pt.x + (pt.y, value)]))


@_command("fourier compare", "csv")
def fourier_compare(s):
    p = _params(s)
    height = s["y"]
    rows = []
    notes = []
    for t in _floats(s["xi"], "xi"):
        closed = float(ft_closed_form(p, height, t))
        integral = ft_integral_rep(p, height, t)
        direct = None  # brute-force oracle is n <= 2 only
        if p.n <= 2:
            vec = np.zeros(p.n)
            vec[0] = t
            try:
                direct = ft_direct(p, height, vec)
            except QuadratureError as exc:  # one empty cell, not a failed table
                notes.append("direct at xi = %g left empty, error estimate %.3g: %s"
                             % (t, exc.error_estimate, exc))
        rows.append((t, closed, integral, direct))
    return _table({"alpha": p.alpha, "n": p.n, "y": height},
                  ("xi", "closed_form", "integral_rep", "direct"), rows,
                  **({"notes": notes} if notes else {}))


@_command("extend", "csv")
def extend_cmd(s):
    """Evaluate the extension u on a grid at one height."""
    bdata, p = _load_data(s)
    grid = _grid(s)
    height = s["y"]
    result = extend_grid(bdata, p, height, grid)
    est = result.quadrature_error_estimate
    values = result.values.reshape(-1).tolist()
    rows = [tuple(x) + (height, u, est)
            for x, u in zip(grid_points(grid.coords).T.tolist(), values)]
    return ({"alpha": p.alpha, "n": p.n, "y": height,
             "origin": list(grid.origin), "spacing": grid.spacing,
             "shape": list(grid.shape), "values": values,
             "quadrature_error_estimate": est,
             "notes": list(result.notes)},
            (_axes(p.n) + ("y", "u", "err_estimate"), rows))


@_command("converge", "csv")
def converge_cmd(s):
    """Weighted-L1 distance of the extension to its boundary data."""
    bdata, p = _load_data(s)
    ys = _floats(s["y_list"], "y-list")
    errors = boundary_convergence(bdata, p, list(ys))
    return _table({"alpha": p.alpha, "n": p.n}, ("y", "error"), list(zip(ys, errors)),
                  decreasing=bool(all(b < a for a, b in zip(errors, errors[1:]))))


@_command("hitting kernel", "csv")
def hitting_kernel_cmd(s):
    p = _params(s)
    lv = LevelPair(y=s["y"], eta=s["eta"])
    radii = _floats(s["r"], "r")
    return _table({"alpha": p.alpha, "n": p.n, "y": lv.y, "eta": lv.eta}, ("r", "G"),
                  list(zip(radii, hitting_kernel(p, lv, np.array(radii)).tolist())))


@_command("hitting semigroup")
def hitting_semigroup(s):
    p = _params(s)
    grid = _grid(s)
    deviation = semigroup_check(p, s["y"], s["eta2"], s["eta1"], grid)
    return {
        "alpha": p.alpha, "n": p.n, "y": s["y"],
        "eta2": s["eta2"], "eta1": s["eta1"],
        "deviation": deviation, "tolerance": s["tol"],
        "passed": bool(deviation <= s["tol"]),
    }, None


def _simulate(s, lv):
    """Run the paths, dump them if asked, and KS-test X against its law:
    the hitting law between the levels of ``lv``, else the boundary law."""
    p = _params(s)
    cfg = SimConfig(p=p, start=HalfSpacePoint(x=(0.0,) * p.n, y=s["y"]),
                    dt=s["dt"], y_stop=0.0 if lv is None else lv.eta,
                    n_paths=s["paths"], master_seed=_seed(s),
                    y_floor=s.get("floor"))
    run = simulate_paths(cfg, workers=s["workers"])
    if s["samples"] is not None:
        rows = [(float(t),) + tuple(float(v) for v in x)
                for t, x in zip(run.stop_times, run.samples)]
        with open(s["samples"], "w") as fh:
            fh.write(csv_document(("stop_time",) + _axes(p.n), rows))
    if lv is None:
        return validate_boundary_law(cfg, samples=run), None
    return validate_hitting_law(cfg, lv, samples=run), None


@_command("simulate boundary")
def simulate_boundary(s):
    """Run to the boundary and KS-test X against the kernel law."""
    return _simulate(s, None)


@_command("simulate hitting")
def simulate_hitting(s):
    """Run to a positive level and KS-test X against the hitting law."""
    return _simulate(s, LevelPair(y=s["y"], eta=s["eta"]))


@_command("growth scan", "csv")
def growth_scan(s):
    bdata, p = _load_data(s)
    scan = l1_data_scan(bdata, p, _floats(s["r"], "r"),
                        theta_count=s["theta_count"])
    sup = scan.sup_values
    return _table({"alpha": p.alpha, "n": p.n, "theta_count": scan.theta_count},
                  ("r", "theta_argmax", "M"),
                  [(rv, float(th), float(m)) for rv, th, m in
                   zip(scan.r_values, scan.argmax_theta, sup)],
                  monotone_decreasing=bool(all(sup[1:] < sup[:-1])))


@_command("growth counterexample")
def growth_counterexample(s):
    """Track the sharpness-construction ratios along the bump centres."""
    p = _params(s)
    if s["case"] == "subcritical":
        case_obj = SubcriticalCase(beta=s["beta"], gamma=s["gamma"])
    else:
        case_obj = CriticalCase(gamma=s["gamma"])
    track = counterexample_track(p, case_obj, s["k_max"])
    beta_eff, gamma_eff = case_exponents(p, case_obj)[:2]
    floor = u_tilde(p)
    tail = [ratio for k, ratio in track if k >= 4]
    return _table({"alpha": p.alpha, "n": p.n, "case": s["case"],
                   "beta": beta_eff, "gamma": gamma_eff, "k_max": s["k_max"],
                   "u_tilde": floor, "threshold": 0.5 * floor}, ("k", "ratio"), track,
                  passed=bool(all(v >= 0.5 * floor for v in tail)) if tail else None)


if __name__ == "__main__":
    main()
