"""Spans around gasp's layer functions, put in place from outside the package.

A ``Tracer`` replaces each function named in ``LAYERS`` by a wrapper that
records a span (name, start, end, parent) and a few work counts, then
calls the original with the same arguments and returns its result
unchanged. ``from .x import f`` copies the binding into the importing
module, so the wrapper is bound under every name, in every loaded gasp
module, that holds the original; ``uninstall`` puts every original back.
A function that no longer exists is recorded in ``absent`` and its
metrics read 0, so the benchmark keeps running when a layer is renamed.

Spans live in memory; ``layer_metrics`` reduces them to per-layer
figures and ``dump`` writes them out at the end of a run.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# the gasp modules whose size the traced run records
MODULES = ("special_functions", "_quadrature", "kernel", "spectral",
           "boundary_data", "extension", "hitting", "hbm_sim", "growth",
           "cli", "_jsonio")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _add(span, key, amount):
    span.counts[key] = span.counts.get(key, 0) + amount


# ------------------------------------------------------------ counters
# A ``before`` hook may swap an argument for a counting proxy (integrand
# points); an ``after`` hook only reads the result. Neither changes a value.


def _count_integrand(bound, span):
    f = bound.arguments["f"]

    def counted(x, *rest):
        _add(span, "integrand_points", int(np.size(x)))
        return f(x, *rest)

    bound.arguments["f"] = counted


def _count_arg_size(arg):
    def before(bound, span):
        _add(span, "points", int(np.size(bound.arguments[arg])))
    return before


def _count_broadcast(bound, span):
    shapes = [np.shape(d) for d in bound.arguments["diffs"]]
    _add(span, "points", int(np.prod(np.broadcast_shapes(*shapes))))


def _count_kernel_evals(bound, span):
    n_out = int(np.prod([np.size(a) for a in bound.arguments["out_axes"]]))
    n_in = int(np.prod([np.size(a) for a in bound.arguments["in_axes"]]))
    _add(span, "kernel_evals", n_out * n_in)


def _count_scan_points(bound, span):
    _add(span, "points", int(np.size(bound.arguments["r_values"]))
         * int(bound.arguments["theta_count"]))


def _count_paths(bound, result, span):
    _add(span, "paths", int(result.samples.shape[0]))
    _add(span, "steps", float(np.sum(result.stop_times)) / bound.arguments["cfg"].dt)


def _count_validation(bound, span):
    _add(span, "requested", bound.arguments["cfg"].n_paths)
    samples = bound.arguments.get("samples")
    if samples is not None:
        _add(span, "simulated", int(samples.samples.shape[0]))


# name -> (before hook, after hook, wrap the returned evaluator)
LAYERS = {
    "special_functions.log_bessel_k": (_count_arg_size("z"), None, False),
    "_quadrature.integrate_lobes": (_count_integrand, None, False),
    "_quadrature.integrate_lobes_rows": (_count_integrand, None, False),
    "_quadrature.exp_sinh": (None, None, False),
    "_quadrature.tanh_sinh": (None, None, False),
    "_quadrature.panel_integrate": (None, None, False),
    "spectral.hankel_transform": (None, None, False),
    "hitting.hitting_ft": (_count_arg_size("xi_norm"), None, False),
    "hitting.hitting_kernel": (None, None, False),
    "hitting.semigroup_check": (None, None, False),
    "extension._kernel_deriv_eval": (_count_broadcast, None, False),
    "extension._term_dense": (_count_kernel_evals, None, False),
    "extension._term_fft": (None, None, False),
    "extension.extend_grid": (None, None, False),
    "extension.extend_point": (None, None, False),
    "extension.boundary_convergence": (None, None, False),
    "growth.sphere_sup_scan": (_count_scan_points, None, False),
    "hbm_sim.simulate_paths": (None, _count_paths, False),
    "hbm_sim.validate_boundary_law": (_count_validation, None, False),
    "hbm_sim.ks_statistic": (None, None, False),
    # the returned CDF evaluator does the work, so its calls count here too
    "hbm_sim.boundary_kernel_cdf": (None, None, True),
    "hbm_sim.hitting_cdf": (None, None, False),
    "boundary_data.load_data": (None, None, False),
    "boundary_data.save_data": (None, None, False),
    "_jsonio.json_document": (None, None, False),
    "_jsonio.csv_document": (None, None, False),
}


class Tracer:
    """Records spans while installed; one caller thread at a time."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._saved = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._active = {}
        self.setup_spans = 0  # spans before this index belong to the set-up

    # ---------------------------------------------------------- spans

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _enter(self, name):
        """Open a span, or return None when ``name`` is already running.

        A layer that calls itself (``simulate_paths`` splitting its paths
        over worker threads) is recorded once, at the outermost call, so
        its counts are not doubled and no span is left without a parent.
        """
        with self._lock:
            if self._active.get(name, 0):
                return None
            self._active[name] = 1
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        return span

    def _leave(self, span):
        span.end = span.end or time.perf_counter()
        self._stack().pop()
        with self._lock:
            self._active[span.name] = 0

    def _count(self, name, hook, *args):
        # a layer whose arguments were renamed loses its counts, not the run
        try:
            hook(*args)
        except (KeyError, AttributeError, TypeError, ValueError):
            self.absent.add(name + " (counts)")

    def _wrap(self, name, fn, before, after, wrap_result):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._enter(name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                if before is None and after is None:
                    result = fn(*args, **kwargs)
                else:
                    try:
                        bound = sig.bind(*args, **kwargs)
                    except TypeError:
                        return fn(*args, **kwargs)  # raises as the original does
                    bound.apply_defaults()
                    if before is not None:
                        tracer._count(name, before, bound, span)
                    result = fn(*bound.args, **bound.kwargs)
                    span.end = time.perf_counter()
                    if after is not None:
                        tracer._count(name, after, bound, result, span)
                if wrap_result and callable(result):
                    result = tracer._wrap(name, result, None, None, False)
                return result
            finally:
                tracer._leave(span)

        return wrapper

    # ---------------------------------------------------- installation

    def install(self):
        """Bind a wrapper in place of every original, in every gasp module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gasp" or key.startswith("gasp."))]
        for name, (before, after, wrap_result) in LAYERS.items():
            module_name, func_name = name.split(".")
            try:
                home = importlib.import_module("gasp." + module_name)
            except ImportError:
                home = None
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, before, after, wrap_result)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --------------------------------------------------------- results

    def _self_times(self):
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def _has_ancestor(self, span, name):
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def layer_metrics(self, rounds, src_dir):
        """Per-layer figures: the set-up's spans plus the mean of ``rounds`` rounds.

        Layers that never ran read 0; so do the layers in ``absent``.
        """
        own = self._self_times()
        calls, self_s, counts = {}, {}, {}

        def tally(name, key, amount):
            counts[(name, key)] = counts.get((name, key), 0) + amount

        for i, (span, t) in enumerate(zip(self.spans, own)):
            w = 1.0 if i < self.setup_spans else 1.0 / rounds
            calls[span.name] = calls.get(span.name, 0) + w
            self_s[span.name] = self_s.get(span.name, 0.0) + w * t
            for key, v in span.counts.items():
                tally(span.name, key, w * v)
            # work done on behalf of an enclosing layer
            if span.name == "hbm_sim.simulate_paths" and self._has_ancestor(
                    span, "hbm_sim.validate_boundary_law"):
                tally("hbm_sim.validate_boundary_law", "simulated",
                      w * span.counts.get("paths", 0))
            if span.name == "hitting.hitting_kernel" and self._has_ancestor(
                    span, "hbm_sim.hitting_cdf"):
                tally("hbm_sim.hitting_cdf", "density_evals", w)

        out = {}

        def put(name, stat, value, unit):
            out["%s.%s" % (name, stat)] = {"value": value, "unit": unit}

        for name in LAYERS:
            put(name, "calls", calls.get(name, 0), "count")
            put(name, "self_s", self_s.get(name, 0.0), "s")
        for name, key in (("special_functions.log_bessel_k", "points"),
                          ("_quadrature.integrate_lobes", "integrand_points"),
                          ("_quadrature.integrate_lobes_rows", "integrand_points"),
                          ("hitting.hitting_ft", "points"),
                          ("extension._kernel_deriv_eval", "points"),
                          ("extension._term_dense", "kernel_evals"),
                          ("growth.sphere_sup_scan", "points"),
                          ("hbm_sim.simulate_paths", "paths"),
                          ("hbm_sim.simulate_paths", "steps")):
            put(name, key, counts.get((name, key), 0), "count")

        def micro_per(name, key):
            n = counts.get((name, key), 0)
            return {"value": 1e6 * self_s.get(name, 0.0) / n if n else 0.0,
                    "unit": "us"}

        out["special_functions.log_bessel_k.us_per_point"] = micro_per(
            "special_functions.log_bessel_k", "points")
        out["hbm_sim.simulate_paths.us_per_path"] = micro_per(
            "hbm_sim.simulate_paths", "paths")
        out["hbm_sim.simulate_paths.us_per_step"] = micro_per(
            "hbm_sim.simulate_paths", "steps")

        # paths the validation asked for, over the paths simulated for it
        # (passed in by the caller or run inside it)
        requested = counts.get(("hbm_sim.validate_boundary_law", "requested"), 0)
        simulated = counts.get(("hbm_sim.validate_boundary_law", "simulated"), 0)
        out["hbm_sim.validate_boundary_law.useful_path_ratio"] = {
            "value": requested / simulated if simulated else 0.0, "unit": "ratio"}
        put("hbm_sim.hitting_cdf", "density_evals",
            counts.get(("hbm_sim.hitting_cdf", "density_evals"), 0), "count")

        for module in MODULES:
            path = src_dir / (module + ".py")
            if path.is_file():
                lines = len(path.read_text().splitlines())
            else:
                lines = 0
                self.absent.add(module)
            out["%s.lines" % module] = {"value": lines, "unit": "lines"}
        # a metric name starts with a letter: _quadrature and _jsonio are
        # reported as quadrature and jsonio
        return {name.lstrip("_"): value for name, value in out.items()}

    def dump(self, path):
        """Write the spans as JSON: name, start and end (s), parent index."""
        doc = {"absent": sorted(self.absent),
               "spans": [{"name": s.name, "start": s.start, "end": s.end,
                          "parent": s.parent, "counts": s.counts}
                         for s in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
