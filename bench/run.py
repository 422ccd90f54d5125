"""Benchmark of gasp: one workload per run, its result as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; gasp is imported from ``src/``. The
workloads are ``extension``, ``hitting``, ``montecarlo`` and ``cli`` (see
README.md). A run repeats whole rounds of the workload's operations, one
call at a time, until ``--seconds`` have passed, checks every output, and
prints a readable summary followed, as its last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from spans recorded around
gasp's layer functions, and the spans are written to ``bench/results/``.
``--smoke`` shrinks every input so that a run takes seconds.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from pathlib import Path

# One caller, one thread: BLAS stays single-threaded here and in every
# command this run starts, so the only parallelism is the workers=2 split.
# NumPy reads these when it is first imported, which happens below them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("extension", "hitting", "montecarlo", "cli")
SETUP_REPEATS = 5
CALIBRATION_S = 0.003  # CPU time of calibrate() at the reference speed
SETUP_CALIBRATIONS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs")
    ap.add_argument("--setup-only", metavar="DIR", default=None,
                    help="build the inputs in DIR and exit (times set-up)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


# ------------------------------------------------------------------ helpers


def fingerprint(obj, digest=None):
    """SHA-256 over every value an operation returned (evaluators probed)."""
    import numpy as np

    h = digest or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode() + repr(obj.shape).encode() + obj.tobytes())
    elif is_dataclass(obj):
        for f in fields(obj):
            fingerprint(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            fingerprint(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            fingerprint(item, h)
    elif callable(obj):
        fingerprint(obj(np.linspace(-30.0, 30.0, 601)), h)
    else:
        h.update(repr(obj).encode())
    return h


def cpu_seconds():
    """CPU time (user + system) of this process, all its threads, and of
    every child process it has waited for."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def calibrate():
    """CPU seconds of a fixed piece of work that calls no gasp code: an
    interpreter loop and NumPy vector arithmetic, as in the workloads."""
    import numpy as np

    c0 = time.process_time()
    x = 0.0
    for i in range(1, 5001):
        x += math.log(i) / i
    a = np.linspace(0.0, 1.0, 2048)
    for _ in range(100):
        a = np.exp(-a) * 0.5 + np.sqrt(a)
    return time.process_time() - c0


def run_round(ops, tracer=None):
    """Run every operation once, each after a calibration.

    Returns the outputs and errors by name, each operation's wall and CPU
    time by name, the calibration times and the round's wall time.
    """
    outputs, errors, times, cpu, cal = {}, {}, {}, {}, []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            cal.append(calibrate())
            t0, c0 = time.perf_counter(), cpu_seconds()
            try:
                outputs[op.name] = op.run()
            except Exception:  # an operation that raises counts as failed
                errors[op.name] = traceback.format_exc(limit=3)
            times[op.name] = time.perf_counter() - t0
            cpu[op.name] = cpu_seconds() - c0
        wall = sum(times.values())  # the operations, not the calibrations
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs, errors, times, cpu, cal, wall


def check_round(ops, outputs, errors):
    """Check every output; returns {name: reason} for the failed operations."""
    failed = dict(errors)
    for op in ops:
        if op.name in failed:
            continue
        try:
            op.check(outputs[op.name], outputs)
        except Exception as exc:  # noqa: BLE001 - any check error fails the op
            failed[op.name] = "%s: %s" % (type(exc).__name__, exc)
    return failed


def median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(workload, seed, smoke, work_root):
    """Median CPU time of a fresh interpreter importing gasp and building
    inputs, at the reference speed.

    Each interpreter times SETUP_CALIBRATIONS calibrations after its
    set-up and prints their times; they are taken out of its CPU time,
    and their mean gives the speed of the CPU it ran on.
    """
    times = []
    for k in range(SETUP_REPEATS):
        work = work_root / ("setup%d" % k)
        work.mkdir()
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(work)]
        if smoke:
            cmd.append("--smoke")
        c0 = cpu_seconds()
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        cpu = cpu_seconds() - c0
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: %s" % proc.stderr.decode()[-500:])
        cal = [float(v) for v in proc.stdout.split()]
        times.append((cpu - sum(cal)) * CALIBRATION_S / statistics.fmean(cal))
    return median(times)


# ---------------------------------------------------------------- workloads


def plan(workload, inputs, seed, smoke, trace):
    import workloads as wl

    if workload == "cli":
        runner = wl.inprocess_runner() if trace else wl.subprocess_runner(SRC)
        return wl.plan_cli(inputs, seed, runner, small=smoke)
    return getattr(wl, "plan_" + workload)(inputs, seed, small=smoke)


def summary(workload, ops, rounds):
    """The per-operation figures a reader of this workload looks for (CPU time)."""
    per_op = {op.name: statistics.fmean(r["cpu"][op.name] for r in rounds) for op in ops}

    def total(stage):
        return sum(per_op[op.name] for op in ops if op.stage == stage)

    def count(stage):
        return sum(1 for op in ops if op.stage == stage)

    if workload == "extension":
        return {"extend_fft_ms": (1e3 * total(1) / count(1), "ms"),
                "extend_dense_ms": (1e3 * total(2) / count(2), "ms"),
                "converge_s": (total(3), "s"), "scan_ms": (1e3 * total(4), "ms")}
    if workload == "hitting":
        density = [r["cpu"][op.name] for r in rounds for op in ops
                   if op.stage in (1, 4)]
        return {"density_ms": (1e3 * median(density), "ms"),
                "cdf_build_s": (total(2), "s"), "semigroup_s": (total(3), "s")}
    if workload == "montecarlo":
        def rate(stages):
            paths = sum(op.paths for op in ops if op.stage in stages)
            return paths / sum(total(s) for s in stages)
        return {"boundary_paths_per_s": (rate((1, 4)), "1/s"),
                "level_paths_per_s": (rate((2,)), "1/s"),
                "validate_s": (total(3), "s")}
    commands = [per_op[op.name] for op in ops if not op.known_fault]
    return {"command_p50_ms": (1e3 * median(commands), "ms")}


def stage_times(ops, record, key, speed=1.0):
    """Seconds each pass of each stage took in one round, by (stage, pass),
    with the time of every operation on the benchmark's own thread divided
    by ``speed``; a known fault stays out, so mending it moves no stage
    time."""
    totals = {}
    for op in ops:
        if not op.known_fault:
            where = (op.stage, op.pass_no)
            seconds = record[key][op.name] / (speed if op.own_thread else 1.0)
            totals[where] = totals.get(where, 0.0) + seconds
    return totals


def measure(args, ops, tracer=None):
    """Run whole rounds for about --seconds of measured time.

    A further round starts only while the rounds would end within --seconds
    plus half a round, so long rounds neither overrun by a whole round nor
    flip between counts with small changes in speed. Checking the outputs
    is not measured time. With a tracer, untraced and traced rounds
    alternate, and every traced output must hash equal to the untraced one
    before it.
    """
    rounds, traced, failures, mismatches = [], [], {}, []
    attempted = 0
    spent = 0.0
    while True:
        for trace_this in ((False, True) if tracer is not None else (False,)):
            outputs, errors, times, cpu, cal, wall = run_round(
                ops, tracer if trace_this else None)
            spent += wall
            failed = check_round(ops, outputs, errors)
            attempted += len(ops)
            for name, why in failed.items():
                failures.setdefault(name, [0, why])[0] += 1
            record = {"times": times, "cpu": cpu, "cal": cal, "wall": wall, "prints": {}}
            if tracer is not None:
                record["prints"] = {k: fingerprint(v).hexdigest() for k, v in outputs.items()}
            (traced if trace_this else rounds).append(record)
            if trace_this and record["prints"] != rounds[-1]["prints"]:
                mismatches.extend(k for k in record["prints"]
                                  if record["prints"][k] != rounds[-1]["prints"].get(k))
        if spent + 0.5 * spent / len(rounds) > args.seconds:
            break
    return rounds, traced, failures, mismatches, attempted


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "gasp" / "__init__.py").is_file():
        print("bench: no gasp sources at %s" % (SRC / "gasp"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.setup_only is not None:
        wl.BUILD[args.workload](args.seed, args.setup_only, small=args.smoke)
        print(" ".join(repr(calibrate()) for _ in range(SETUP_CALIBRATIONS)))
        return 0

    work_root = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work_root.mkdir(parents=True)
    try:
        return run_workload(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def run_workload(args, work_root):
    import workloads as wl

    setup_s = measure_setup(args.workload, args.seed, args.smoke, work_root)
    work = work_root / "run"
    work.mkdir()
    tracer = None
    if args.trace:
        import gasp  # noqa: F401 - loaded first, so the tracer finds its layers
        from spans import Tracer

        tracer = Tracer()
        tracer.install()  # the traced run records its set-up too
    try:
        inputs = wl.BUILD[args.workload](args.seed, str(work), small=args.smoke)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.setup_spans = len(tracer.spans)
    ops = plan(args.workload, inputs, args.seed, args.smoke, args.trace)
    rounds, traced, failures, mismatches, attempted = measure(args, ops, tracer)

    by_name = {op.name: op for op in ops}
    failed = sum(n for n, _ in failures.values())
    unexpected = [k for k in failures if not by_name[k].known_fault]
    print("workload %s, seed %d: %d rounds, %d operations attempted, %d failed"
          % (args.workload, args.seed, len(rounds) + len(traced), attempted, failed))
    for name, (n, why) in sorted(failures.items()):
        tag = "UNEXPECTED" if name in unexpected else "known fault"
        print("  failed x%d (%s): %s: %s" % (n, tag, name, why.strip().splitlines()[-1]))
    for name in sorted(set(mismatches)):
        print("  output differs with tracing on: %s" % name)

    # CPU time (user + system, this process and the commands it ran), not
    # wall time: this is a guest on a shared host, and the time the host
    # gives to other guests (steal time) lands in wall time in bursts of a
    # second to minutes. CPU time still follows the host's load: the same
    # round takes up to 1.4x as long a few minutes later. A fixed
    # calibration before every operation measures that speed on this
    # thread, and the time of every operation that ran on this thread alone
    # is divided by it, which gives its CPU time at the reference speed
    # (calibrate() taking CALIBRATION_S). Commands in child processes and
    # the two-worker run are left as measured: their other CPU is not the
    # one the calibration ran on.
    # Means over the rounds (and the passes of a stage within them), not
    # medians: CPU time also switches between two speeds about 1.5x apart
    # every few seconds, and a median over the rounds jumps from one to
    # the other where a mean weighs them by their share of the run.
    wall_s = statistics.fmean(r["wall"] for r in rounds)
    if tracer is None:
        speed = statistics.fmean(c for r in rounds for c in r["cal"]) / CALIBRATION_S
        ref_rounds = [stage_times(ops, r, "cpu", speed) for r in rounds]
        cpu_rounds = [stage_times(ops, r, "cpu") for r in rounds]
        wall_rounds = [stage_times(ops, r, "times") for r in rounds]

        def mean_ms(per_round, stage):
            return statistics.fmean(1e3 * v for t in per_round
                                    for (s, _), v in t.items() if s == stage)

        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "ref_cpu_s": {"value": statistics.fmean(sum(t.values())
                                                           for t in ref_rounds),
                                 "unit": "s"}}
        print("  calibration: %.6g ms (reference %.6g ms)"
              % (1e3 * speed * CALIBRATION_S, 1e3 * CALIBRATION_S))
        for stage, label in enumerate(wl.STAGES[args.workload], 1):
            ref_ms = mean_ms(ref_rounds, stage)
            metrics["stage%d_ref_cpu_ms" % stage] = {"value": ref_ms, "unit": "ms"}
            print("  stage%d (%s): %.6g ms at the reference speed; CPU %.6g ms, wall %.6g ms"
                  % (stage, label, ref_ms, mean_ms(cpu_rounds, stage),
                     mean_ms(wall_rounds, stage)))
        print("  round: %.6g s at the reference speed; CPU %.6g s, wall %.6g s"
              % (metrics["ref_cpu_s"]["value"],
                 statistics.fmean(sum(t.values()) for t in cpu_rounds), wall_s))
        for name, (value, unit) in summary(args.workload, ops, rounds).items():
            print("  %s = %.6g %s (CPU)" % (name, value, unit))
    else:
        metrics = tracer.layer_metrics(len(traced), SRC / "gasp")
        traced_wall = statistics.fmean(r["wall"] for r in traced)
        metrics["trace.untraced_wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_wall - wall_s) / wall_s, "unit": "%"}
        for name in wl.CLI_COMMANDS:  # untraced in-process times; 0 off the cli workload
            times = [r["times"][name] for r in rounds] if args.workload == "cli" else []
            metrics["cli.%s.ms" % name] = {"value": 1e3 * median(times), "unit": "ms"}
        path = BENCH_DIR / "results" / ("trace-%s-%d.json" % (args.workload, args.seed))
        tracer.dump(path)
        print("  spans written to %s" % path.relative_to(ROOT))
        if tracer.absent:
            print("  absent from gasp (metrics read 0): %s" % ", ".join(sorted(tracer.absent)))
    for name, m in metrics.items():
        print("  %s = %.6g %s" % (name, m["value"], m["unit"]))
    correct = not unexpected and not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
