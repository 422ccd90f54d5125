"""Tests of the benchmark itself.

    python3 -m pytest bench

Every workload runs once at smoke size, with tracing off and on, and must
print exactly the metrics BENCHMARK.json declares. The tracer must put
back every binding it replaced and survive a layer that no longer exists.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_work"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if trace == 0:
            assert result["metrics"][m["name"]]["value"] > 0
    # the one operation that fails today: kernel mass at alpha = 400
    rounds = 2 if trace else 1
    assert result["failed"] == (rounds if workload == "cli" else 0)


def test_refuses_to_run_without_the_sources():
    bare = SCRATCH / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "--workload", "extension", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "gasp" or name.startswith("gasp.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_wraps_copied_bindings_and_restores_them():
    import gasp
    import gasp.cli
    from spans import Tracer

    before = _bindings()
    tracer = Tracer()
    with tracer:
        # cli holds its own copy of json_document, hitting its own log_bessel_k
        assert gasp.cli.json_document is not before[("gasp._jsonio", "json_document")]
        assert gasp.hitting.log_bessel_k is not before[
            ("gasp.special_functions", "log_bessel_k")]
        value = gasp.hitting_kernel(gasp.ModelParams(1.0, 1), gasp.LevelPair(2.0, 1.0), 1.0)
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"hitting.hitting_kernel", "special_functions.log_bessel_k"} <= names
    assert value == gasp.hitting_kernel(gasp.ModelParams(1.0, 1),
                                        gasp.LevelPair(2.0, 1.0), 1.0)


def test_a_missing_layer_reads_zero_and_is_reported(monkeypatch):
    import spans

    monkeypatch.setitem(spans.LAYERS, "extension.no_such_function", (None, None, False))
    tracer = spans.Tracer()
    with tracer:
        pass
    assert "extension.no_such_function" in tracer.absent
    metrics = tracer.layer_metrics(1, ROOT / "src" / "gasp")
    assert metrics["extension.no_such_function.calls"]["value"] == 0
