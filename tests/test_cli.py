"""End-to-end tests of the gasp command: grammar, exit codes, documents."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from gasp import (
    BoundaryData,
    Grid,
    HalfSpacePoint,
    ModelParams,
    MultiIndex,
    WeightedTerm,
    extend_point,
    poisson_kernel,
    save_data,
)
from gasp._jsonio import json_document
from gasp._quadrature import QuadratureError
from gasp.cli import _DEFAULTS, _REQ, main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def tent_file(tmp_path):
    p = ModelParams(0.0, 1)
    xs = np.linspace(-1.0, 1.0, 65)
    term = WeightedTerm(
        beta=MultiIndex((0,)),
        grid=Grid(origin=(-1.0,), spacing=float(xs[1] - xs[0]), shape=(65,)),
        values=np.maximum(1.0 - np.abs(xs), 0.0),
    )
    path = tmp_path / "tent.json"
    save_data(BoundaryData(params_hint=p, terms=(term,)), path)
    return str(path)


def _stderr_doc(result):
    return json.loads(result.stderr)


def _src_env():
    # a fresh process that imports gasp from this checkout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      env.get("PYTHONPATH")]))
    return env


def test_kernel_mass_prints_unit_mass_line(runner):
    result = runner.invoke(main, ["kernel", "mass", "--alpha", "1.5",
                                  "--n", "2", "--y", "0.7"])
    assert result.exit_code == 0
    value, _, est = result.output.split()
    assert value == "1.000000"
    assert float(est) < 1e-8


def test_kernel_mass_past_gamma_overflow(runner):
    # Gamma((alpha+n+1)/2) alone overflows doubles here; c_norm does not
    result = runner.invoke(main, ["kernel", "mass", "--alpha", "400", "--n", "1"])
    assert result.exit_code == 0
    value, _, est = result.output.split()
    assert value == "1.000000"
    assert float(est) < 1e-8


def test_kernel_mass_where_gamma_nears_overflow(runner):
    # Gamma((alpha+n+1)/2) = Gamma(142.25) is finite: c_norm too, not inf
    result = runner.invoke(main, ["kernel", "mass", "--alpha", "278.5", "--n", "5"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("1.000000 \u00b1 ")


@pytest.mark.parametrize("argv,last", [
    (["kernel", "eval", "--alpha", "0", "--n", "1", "--x", "1e300", "--y", "1"], "0"),
    (["hitting", "kernel", "--alpha", "0", "--n", "2", "--y", "2", "--eta", "1",
      "--r", "1e300"], "1e+300,0"),
    (["extend", "--data", "TENT", "--y", "1", "--origin=1e300", "--spacing", "1",
      "--shape", "3"], "1e+300,1,0,0"),
])
def test_kernel_far_out_is_zero_without_warnings(argv, last, tent_file):
    # (x/y)^2 overflows to inf on the way to the right value 0: a fresh
    # process shows that stderr stays empty
    argv = [tent_file if a == "TENT" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", "from gasp.cli import main; main()"]
                          + argv, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == last


def test_json_document_string_escapes_are_pinned():
    doc = json_document({"s": "a\"b\\c\x01\x1f\u00e9\u2028\U0001F600",
                         "short": "\b\t\n\f\r"})
    assert doc.encode() == ('{\n  "s": "a\\"b\\\\c\\u0001\\u001f\u00e9\u2028\U0001F600",\n'
                            '  "short": "\\b\\t\\n\\f\\r"\n}\n').encode()
    assert json.loads(doc) == {"s": "a\"b\\c\x01\x1f\u00e9\u2028\U0001F600",
                               "short": "\b\t\n\f\r"}


def test_kernel_eval_at_large_alpha(runner):
    # y^(alpha+1) alone overflows here, though K = c_norm y^-2 does not
    result = runner.invoke(main, ["kernel", "eval", "--alpha", "400", "--n", "2",
                                  "--x", "0,0", "--y", "10"])
    assert result.exit_code == 0, result.output
    assert float(result.output) == pytest.approx(ModelParams(400.0, 2).c_norm / 100.0,
                                                 rel=1e-15)


def test_cli_import_pulls_in_no_test_dependency():
    # NumPy and click are the only runtime dependencies; an oracle of the
    # tests imported into the package would show up here
    code = ("import sys, gasp.cli; "
            "print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_ma_out():
    # np.unique imports numpy.ma on its first call; no import-time table
    # may call it, since every command pays that import
    code = "import sys, gasp.cli; print('numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_kernel_eval_at_small_height(runner):
    # y^-2 alone overflows here, though K = y / (2 pi (|x|^2 + y^2)^1.5)
    # does not; mpmath at 40 digits
    result = runner.invoke(main, ["kernel", "eval", "--alpha", "0", "--n", "2",
                                  "--x", "1e-5,0", "--y", "1e-160"])
    assert result.exit_code == 0, result.output
    assert float(result.output) == pytest.approx(1.5915494309189529e-146, rel=1e-13)


def test_kernel_eval_matches_library(runner):
    result = runner.invoke(main, ["kernel", "eval", "--alpha", "1.5",
                                  "--n", "2", "--x", "0.3,0.4", "--y", "0.7"])
    assert result.exit_code == 0
    want = poisson_kernel(ModelParams(1.5, 2),
                          HalfSpacePoint(x=(0.3, 0.4), y=0.7))
    assert float(result.output) == want  # 17 digits round-trip exactly


def test_kernel_residual_is_small(runner):
    result = runner.invoke(main, ["kernel", "residual", "--alpha", "1.5",
                                  "--n", "2", "--x", "0.3,0.4", "--y", "0.7"])
    assert result.exit_code == 0
    assert abs(float(result.output)) < 1e-2


def test_alpha_below_range_exits_2_with_json_error(runner):
    result = runner.invoke(main, ["kernel", "mass", "--alpha", "-2", "--n", "1"])
    assert result.exit_code == 2
    doc = _stderr_doc(result)
    assert doc["error"] == "validation"
    assert "alpha" in doc["message"]


def test_missing_required_parameter_exits_2(runner):
    result = runner.invoke(main, ["kernel", "mass", "--n", "1"])
    assert result.exit_code == 2
    assert "alpha" in _stderr_doc(result)["message"]


def test_unknown_flag_is_a_hard_error(runner):
    result = runner.invoke(main, ["kernel", "mass", "--alpha", "1",
                                  "--n", "1", "--bogus", "3"])
    assert result.exit_code == 2


def test_config_file_fills_in_and_flags_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.0, "n": 1, "y": 2.0}))
    out = tmp_path / "doc.json"
    result = runner.invoke(main, ["kernel", "mass", "--config", str(cfg),
                                  "--y", "0.5", "--output", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["alpha"] == 0.0 and doc["n"] == 1
    assert doc["y"] == 0.5  # flag beats config file
    assert abs(doc["mass"] - 1.0) < 1e-8


def test_unknown_config_key_exits_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.0, "n": 1, "zeta": 3}))
    result = runner.invoke(main, ["kernel", "mass", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "zeta" in _stderr_doc(result)["message"]


@pytest.mark.parametrize("argv, config, key", [
    (["growth", "counterexample"],
     {"alpha": 0, "n": 1, "case": "supercritical", "k_max": 5}, "case"),
    (["kernel", "mass"], {"alpha": 0.5, "n": 1.7, "y": 1}, "n"),
    (["kernel", "mass"], {"alpha": 0.5, "n": 1, "format": "xml"}, "format"),
])
def test_config_values_go_through_the_flag_types(argv, config, key, runner, tmp_path):
    # each value is one its flag rejects: no such case, no integer, no format
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = runner.invoke(main, argv + ["--config", str(cfg)])
    assert result.exit_code == 2
    doc = _stderr_doc(result)
    assert doc["error"] == "validation" and key in doc["message"]


def test_fourier_compare_three_columns_agree(runner):
    result = runner.invoke(main, ["fourier", "compare", "--alpha", "2",
                                  "--n", "1", "--y", "1", "--xi", "0.5,1,2,4"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "xi,closed_form,integral_rep,direct"
    assert len(lines) == 5
    for line in lines[1:]:
        _, closed, integral, direct = map(float, line.split(","))
        assert abs(closed - integral) <= 1e-7 * abs(closed)
        assert abs(closed - direct) <= 1e-4 * abs(closed)


def test_fourier_compare_alpha_zero_is_exponential(runner):
    result = runner.invoke(main, ["fourier", "compare", "--alpha", "0",
                                  "--n", "1", "--y", "1", "--xi", "0.5,2",
                                  "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    for row in doc["rows"]:
        assert abs(row["closed_form"] - math.exp(-row["xi"])) < 1e-9


def test_fourier_compare_leaves_an_unresolved_direct_cell_empty(runner):
    # y|xi| = 80 puts the transform below ft_direct's rounding floor: that
    # one cell is null and named in the notes, the rest of the table stands
    argv = ["fourier", "compare", "--alpha", "3.7", "--n", "2", "--y", "4",
            "--format", "json", "--xi"]
    short = runner.invoke(main, argv + ["0.1,0.5,1,2,5"])
    full = runner.invoke(main, argv + ["0.1,0.5,1,2,5,20"])
    assert short.exit_code == 0 == full.exit_code
    rows = json.loads(full.output)["rows"]
    assert json.dumps(rows[:5]) == json.dumps(json.loads(short.output)["rows"])
    assert rows[5]["direct"] is None and rows[5]["closed_form"] > 0.0
    notes = json.loads(full.output)["notes"]
    assert len(notes) == 1 and "xi = 20" in notes[0] and "error estimate" in notes[0]
    assert "notes" not in json.loads(short.output)
    csv = runner.invoke(main, argv[:-3] + ["--xi", "0.1,0.5,1,2,5,20"])
    assert csv.exit_code == 0 and csv.output.splitlines()[-1].endswith(",")


def test_extend_csv_matches_extend_point(runner, tent_file):
    result = runner.invoke(main, ["extend", "--data", tent_file, "--y", "0.5",
                                  "--origin", "-2", "--spacing", "1",
                                  "--shape", "5"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "x1,y,u,err_estimate"
    assert len(lines) == 6
    x1, y, u, est = map(float, lines[3].split(","))
    assert (x1, y) == (0.0, 0.5)
    p = ModelParams(0.0, 1)
    data_doc = json.load(open(tent_file))
    want = extend_point(
        BoundaryData(
            params_hint=p,
            terms=(WeightedTerm(
                beta=MultiIndex((0,)),
                grid=Grid(origin=(-1.0,), spacing=data_doc["terms"][0]["spacing"],
                          shape=(65,)),
                values=np.asarray(data_doc["terms"][0]["values"])), )),
        p, HalfSpacePoint(x=(0.0,), y=0.5))
    assert abs(u - want) < 1e-8
    assert est > 0.0


def test_converge_errors_decrease(runner, tent_file):
    result = runner.invoke(main, ["converge", "--data", tent_file,
                                  "--y-list", "1,0.5", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    errors = [row["error"] for row in doc["rows"]]
    assert errors[1] < errors[0]
    assert doc["decreasing"] is True


def test_data_file_alpha_mismatch_exits_2(runner, tent_file):
    result = runner.invoke(main, ["converge", "--data", tent_file, "--alpha", "1"])
    assert result.exit_code == 2
    assert "disagrees" in _stderr_doc(result)["message"]


def test_hitting_kernel_csv_matches_cauchy(runner):
    result = runner.invoke(main, ["hitting", "kernel", "--alpha", "0",
                                  "--n", "1", "--y", "2", "--eta", "1",
                                  "--r", "0,1,2"])
    assert result.exit_code == 0
    for line in result.output.strip().splitlines()[1:]:
        r, g = map(float, line.split(","))
        assert abs(g - 1.0 / (math.pi * (1.0 + r * r))) < 1e-6


def test_hitting_kernel_large_alpha_exits_0(runner):
    # nu = 15.5: the quotient's tail carries a (y/eta)^(nu-1/2) prefactor
    # that its samples at small frequency do not show
    result = runner.invoke(main, ["hitting", "kernel", "--alpha", "30",
                                  "--n", "1", "--y", "2", "--eta", "1",
                                  "--r", "0,0.5,2"])
    assert result.exit_code == 0, result.output
    rows = [tuple(map(float, line.split(",")))
            for line in result.output.strip().splitlines()[1:]]
    assert [r for r, _ in rows] == [0.0, 0.5, 2.0]
    g = [v for _, v in rows]
    assert g[0] > g[1] > g[2] > 0.0


# mpmath at 60 digits: the quotient minus the far-field kernel's
# transform along the same ray, plus that kernel in closed form
_TAIL_DENSITIES = {("30", "16"): 1.0128797912950228e-29,
                   ("30", "64"): 7.3884076891795205e-49,
                   ("10", "16"): 8.2935167565567032e-12}


@pytest.mark.parametrize("alpha,radius", sorted(_TAIL_DENSITIES))
def test_hitting_kernel_tail_is_right_or_exits_3(runner, alpha, radius):
    # a tail density far below the quotient's scale must come out within
    # rel_tol or end in exit 3 with a JSON error, never as a wrong value
    result = runner.invoke(main, ["hitting", "kernel", "--alpha", alpha,
                                  "--n", "1", "--y", "2", "--eta", "1",
                                  "--r", radius])
    if result.exit_code == 0:
        got = float(result.output.strip().splitlines()[1].split(",")[1])
        want = _TAIL_DENSITIES[alpha, radius]
        assert abs(got - want) <= 1e-10 * want, got
    else:
        assert result.exit_code == 3, result.output
        assert _stderr_doc(result)["error"] == "nonconvergence"


def test_hitting_kernel_far_out_below_alpha_zero_exits_3(runner):
    # G = 1e-30 is representable at r = 1e20, where every ray node's term
    # underflows: exit 3, not a silent 0
    result = runner.invoke(main, ["hitting", "kernel", "--alpha", "-0.5", "--n", "1",
                                  "--y", "2", "--eta", "1", "--r", "1e20"])
    assert result.exit_code == 3, result.output
    assert _stderr_doc(result)["error"] == "nonconvergence"


def test_hitting_semigroup_report(runner):
    result = runner.invoke(main, ["hitting", "semigroup", "--alpha", "0",
                                  "--n", "1", "--y", "3", "--eta2", "2",
                                  "--eta1", "1", "--origin", "-30",
                                  "--spacing", "0.5", "--shape", "121"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["deviation"] <= doc["tolerance"] == 1e-3
    assert doc["passed"] is True


def test_simulate_hitting_reruns_are_byte_identical(runner, tmp_path):
    args = ["simulate", "hitting", "--alpha", "0", "--n", "1", "--y", "2",
            "--eta", "1", "--paths", "150", "--dt", "0.01", "--seed", "5"]
    out1, out2, out3 = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert runner.invoke(main, args + ["--output", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--output", str(out2)]).exit_code == 0
    assert runner.invoke(main, args + ["--workers", "3",
                                       "--output", str(out3)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_simulate_seed_falls_back_to_env(runner, tmp_path):
    args = ["simulate", "hitting", "--alpha", "0", "--n", "1", "--y", "2",
            "--eta", "1", "--paths", "100", "--dt", "0.01"]
    out1, out2 = tmp_path / "flag.json", tmp_path / "env.json"
    assert runner.invoke(main, args + ["--seed", "9", "--output",
                                       str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--output", str(out2)],
                         env={"GASP_SEED": "9"}).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_gasp_seed_exits_2(runner):
    result = runner.invoke(main, ["simulate", "hitting", "--alpha", "0",
                                  "--n", "1", "--paths", "10"],
                           env={"GASP_SEED": "abc"})
    assert result.exit_code == 2
    assert "GASP_SEED" in _stderr_doc(result)["message"]


def test_simulate_boundary_report_and_sample_dump(runner, tmp_path):
    dump = tmp_path / "samples.csv"
    result = runner.invoke(main, ["simulate", "boundary", "--alpha", "2",
                                  "--n", "1", "--paths", "800", "--dt", "0.005",
                                  "--seed", "3", "--samples", str(dump)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["law"] == "boundary" and doc["passed"] is True
    assert doc["ks"] <= doc["threshold"]
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "stop_time,x1"
    assert len(lines) == 801
    t0, _ = map(float, lines[1].split(","))
    assert t0 > 0.0


def test_report_as_csv_is_one_row(runner):
    result = runner.invoke(main, ["simulate", "hitting", "--alpha", "0",
                                  "--n", "1", "--y", "2", "--eta", "1",
                                  "--paths", "100", "--dt", "0.01",
                                  "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "ks" in header and "passed" in header


def test_growth_scan_decreases_on_tent(runner, tent_file):
    result = runner.invoke(main, ["growth", "scan", "--data", tent_file,
                                  "--r", "4,8,16", "--theta-count", "32",
                                  "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    sup = [row["M"] for row in doc["rows"]]
    assert sup[0] > sup[1] > sup[2]
    assert doc["monotone_decreasing"] is True


def test_growth_counterexample_report(runner):
    result = runner.invoke(main, ["growth", "counterexample", "--alpha", "0",
                                  "--n", "1", "--k-max", "6"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["case"] == "subcritical"
    assert len(doc["rows"]) == 6
    ratios = [row["ratio"] for row in doc["rows"]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert doc["passed"] is True
    assert doc["threshold"] == pytest.approx(0.5 * doc["u_tilde"])


def test_nonconvergence_exits_3(runner, monkeypatch):
    def blow_up(*_a, **_k):
        raise QuadratureError("oscillatory tail failed to settle")

    monkeypatch.setattr("gasp.cli.hitting_kernel", blow_up)
    result = runner.invoke(main, ["hitting", "kernel", "--alpha", "0",
                                  "--n", "1", "--y", "2", "--eta", "1",
                                  "--r", "1"])
    assert result.exit_code == 3
    doc = _stderr_doc(result)
    assert doc["error"] == "nonconvergence"


def test_overflow_exits_3_with_json_error(runner, monkeypatch):
    # the kernel itself does not overflow here, so the overflow is injected
    def blow_up(*_a, **_k):
        raise OverflowError("math range error")

    monkeypatch.setattr("gasp.cli.poisson_kernel", blow_up)
    result = runner.invoke(main, ["kernel", "eval", "--alpha", "300", "--n",
                                  "1", "--x", "0", "--y", "100"])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    assert _stderr_doc(result)["error"] == "overflow"


# one value per parameter of every subcommand, cheap to run; {data} and
# {samples} stand for a boundary-data file and a sample dump
_TABLE_ARGS = {
    "kernel eval": {"alpha": "1.5", "n": "2", "x": "0.3,0.4", "y": "0.7"},
    "kernel mass": {"alpha": "1.5", "n": "2", "y": "0.7"},
    "kernel residual": {"alpha": "1.5", "n": "2", "x": "0.3,0.4", "y": "0.7",
                        "h": "0.005"},
    "fourier compare": {"alpha": "1", "n": "1", "y": "1.5", "xi": "0.5"},
    "extend": {"data": "{data}", "alpha": "0", "n": "1", "y": "0.5",
               "origin": "-2", "spacing": "1", "shape": "5"},
    "converge": {"data": "{data}", "alpha": "0", "n": "1", "y_list": "1,0.5"},
    "hitting kernel": {"alpha": "0", "n": "1", "y": "2", "eta": "1", "r": "1"},
    "hitting semigroup": {"alpha": "0", "n": "1", "y": "3", "eta2": "2",
                          "eta1": "1", "origin": "-1", "spacing": "1",
                          "shape": "3", "tol": "0.5"},
    "simulate boundary": {"alpha": "2", "n": "1", "y": "1.5", "paths": "20",
                          "dt": "0.01", "floor": "0.01", "seed": "3",
                          "samples": "{samples}", "workers": "2"},
    "simulate hitting": {"alpha": "0", "n": "1", "y": "2.5", "eta": "1.5",
                         "paths": "20", "dt": "0.01", "seed": "5",
                         "samples": "{samples}", "workers": "2"},
    "growth scan": {"data": "{data}", "alpha": "0", "n": "1", "r": "4,8",
                    "theta_count": "16"},
    "growth counterexample": {"alpha": "0", "n": "1", "case": "critical",
                              "beta": "0.5", "gamma": "0.5", "k_max": "6"},
}


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_every_table_parameter_reaches_its_command(command, runner, tent_file,
                                                   tmp_path):
    table = _DEFAULTS[command]
    args = {k: v.format(data=tent_file, samples=str(tmp_path / "samples.csv"))
            for k, v in _TABLE_ARGS[command].items()}
    assert set(args) == set(table)
    words = command.split()
    help_text = runner.invoke(main, words + ["--help"]).output
    helped = set(re.findall(r"--[\w-]+", help_text))
    # only the simulate commands have work to split
    assert ("--workers" in helped) == (words[0] == "simulate")
    # --help is where the defaults are documented
    flat = " ".join(help_text.split())
    for key, spec in table.items():
        if spec.default not in (None, _REQ):
            assert "[default: %s]" % spec.default in flat, key
    assert flat.count("[required]") == sum(
        spec.default is _REQ for spec in table.values())

    def run(flags, config):
        argv = list(words)
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), value]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        doc = tmp_path / "doc"
        result = runner.invoke(main, argv + ["--config", str(cfg),
                                             "--output", str(doc)])
        assert result.exit_code == 0, result.output + result.stderr
        return result.stdout, doc.read_bytes()

    want = run(args, {})
    for key, spec in table.items():
        assert "--" + key.replace("_", "-") in helped, key
        value = click.types.convert_type(spec.type).convert(args[key], None, None)
        rest = {k: v for k, v in args.items() if k != key}
        assert run(rest, {key: value}) == want, key


# the five commands whose JSON documents carry rows, each at two inputs
_ROW_COMMANDS = [
    ["fourier", "compare", "--alpha", "1", "--n", "1", "--y", "1.5",
     "--xi", "0.5,1,2"],
    ["fourier", "compare", "--alpha", "0.5", "--n", "3", "--y", "1", "--xi", "1,3"],
    ["converge", "--data", "{data}", "--y-list", "1,0.5,0.25"],
    ["converge", "--data", "{data}", "--y-list", "2,0.125"],
    ["hitting", "kernel", "--alpha", "0", "--n", "1", "--y", "2", "--eta", "1",
     "--r", "0,0.5,2"],
    ["hitting", "kernel", "--alpha", "1.5", "--n", "2", "--y", "3", "--eta", "2",
     "--r", "0.25,4"],
    ["growth", "scan", "--data", "{data}", "--r", "4,8,16", "--theta-count", "16"],
    ["growth", "scan", "--data", "{data}", "--r", "2,3", "--theta-count", "24"],
    ["growth", "counterexample", "--alpha", "0", "--n", "1", "--k-max", "6"],
    ["growth", "counterexample", "--alpha", "1", "--n", "2", "--case", "critical",
     "--gamma", "0.5", "--k-max", "5"],
]


@pytest.mark.parametrize("argv", _ROW_COMMANDS,
                         ids=lambda a: "-".join(w for w in a[:2] if w[0] != "-"))
def test_json_rows_and_csv_rows_are_one_table(argv, runner, tent_file):
    argv = [a.format(data=tent_file) for a in argv]
    as_json = runner.invoke(main, argv + ["--format", "json"])
    as_csv = runner.invoke(main, argv + ["--format", "csv"])
    assert as_json.exit_code == 0 == as_csv.exit_code, as_json.stderr
    rows = json.loads(as_json.output)["rows"]
    header, *lines = [line.split(",") for line in as_csv.output.splitlines()]
    assert len(lines) == len(rows) > 0
    for row, line in zip(rows, lines):
        assert list(row) == header
        for value, cell in zip(row.values(), line):
            if value is None:
                assert cell == ""
            else:
                assert float(cell) == float("%.9g" % value)


@pytest.mark.parametrize("argv", [
    ["kernel", "mass", "--alpha", "1", "--n", "1"],
    ["extend", "--data", "{data}", "--y", "0.5", "--origin=-2", "--spacing", "1",
     "--shape", "5"],
    ["hitting", "semigroup", "--alpha", "0", "--n", "1", "--y", "3", "--eta2", "2",
     "--eta1", "1", "--origin=-1", "--spacing", "1", "--shape", "3"],
])
def test_workers_is_a_simulate_option_only(argv, runner, tent_file):
    argv = [a.format(data=tent_file) for a in argv]
    assert runner.invoke(main, argv).exit_code == 0
    result = runner.invoke(main, argv + ["--workers", "2"])
    assert result.exit_code == 2
    assert "No such option '--workers'" in result.stderr
    assert result.stderr.startswith("Usage:")


def test_simulate_workers_below_one_exits_2_with_json_error(runner):
    result = runner.invoke(main, ["simulate", "hitting", "--alpha", "0", "--n", "1",
                                  "--paths", "10", "--workers", "0"])
    assert result.exit_code == 2
    assert _stderr_doc(result) == {"error": "validation",
                                   "message": "workers must be >= 1, got 0"}


@pytest.mark.parametrize("alpha", [-0.9, -0.99])
def test_converge_near_alpha_minus_one(alpha, runner, tmp_path):
    # the kernel's tail mass outside the window needs the series at pi/2
    xs = np.linspace(-1.0, 1.0, 65)
    term = WeightedTerm(beta=MultiIndex((0,)),
                        grid=Grid(origin=(-1.0,), spacing=float(xs[1] - xs[0]),
                                  shape=(65,)),
                        values=np.maximum(1.0 - np.abs(xs), 0.0))
    path = tmp_path / "tent.json"
    save_data(BoundaryData(params_hint=ModelParams(alpha, 1), terms=(term,)), path)
    result = runner.invoke(main, ["converge", "--data", str(path), "--y-list",
                                  "1,0.5,0.25,0.125", "--format", "json"])
    assert result.exit_code == 0, result.stderr
    doc = json.loads(result.output)
    errors = [row["error"] for row in doc["rows"]]
    assert all(math.isfinite(e) for e in errors)
    assert doc["decreasing"] is True


def test_kernel_mass_rejects_non_finite_height(runner):
    for height in ("inf", "nan"):
        result = runner.invoke(main, ["kernel", "mass", "--alpha", "1", "--n", "1",
                                      "--y", height])
        assert result.exit_code == 2
        assert _stderr_doc(result)["error"] == "validation"


def test_help_lists_every_subcommand(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("kernel", "fourier", "extend", "converge", "hitting",
                 "simulate", "growth"):
        assert name in result.output


# a valid config document for every subcommand, in JSON's own types and
# sized to run in milliseconds; "tent.json" is the file _FUZZ_TENT writes
_FUZZ_VALID = {
    "kernel eval": {"alpha": 1.5, "n": 2, "x": [0.3, 0.4], "y": 0.7},
    "kernel mass": {"alpha": 1.5, "n": 2, "y": 0.7},
    "kernel residual": {"alpha": 1.5, "n": 2, "x": [0.3, 0.4], "y": 0.7, "h": 0.005},
    "fourier compare": {"alpha": 1.0, "n": 1, "y": 1.5, "xi": [0.5, 2.0]},
    "extend": {"data": "tent.json", "alpha": 0.0, "n": 1, "y": 0.5, "origin": [-1.0],
               "spacing": 0.5, "shape": [5]},
    "converge": {"data": "tent.json", "alpha": 0.0, "n": 1, "y_list": [1.0, 0.5]},
    "hitting kernel": {"alpha": 0.0, "n": 1, "y": 2.0, "eta": 1.0, "r": [0.0, 1.0]},
    "hitting semigroup": {"alpha": 0.0, "n": 1, "y": 3.0, "eta2": 2.0, "eta1": 1.0,
                          "origin": [-1.0], "spacing": 1.0, "shape": [3], "tol": 0.5},
    "simulate boundary": {"alpha": 2.0, "n": 1, "y": 1.5, "paths": 5, "dt": 0.01,
                          "floor": 0.01, "seed": 3, "samples": "s.csv", "workers": 1},
    "simulate hitting": {"alpha": 0.0, "n": 1, "y": 2.5, "eta": 1.5, "paths": 5,
                         "dt": 0.01, "seed": 5, "samples": "s.csv", "workers": 1},
    "growth scan": {"data": "tent.json", "alpha": 0.0, "n": 1, "r": [2.0, 4.0],
                    "theta_count": 16},
    "growth counterexample": {"alpha": 0.0, "n": 1, "case": "subcritical", "beta": 0.5,
                              "gamma": 0.5, "k_max": 6},
}
_FUZZ_TENT = BoundaryData(ModelParams(0.0, 1), (WeightedTerm(
    MultiIndex((0,)), Grid((-1.0,), 0.125, (17,)),
    np.maximum(1.0 - np.abs(np.linspace(-1.0, 1.0, 17)), 0.0)),))
# numbers of every sign, integral or not, finite or not, and what is no number
_NUMBERS = [0, -1, 3, 0.5, 1.5, 2.0, -2.5, 1e-3, math.nan, math.inf, -math.inf]
_SCALARS = _NUMBERS + [None, True, False, "", "abc", "1.5", "0,1"]
_ODD = st.one_of(
    st.sampled_from(_NUMBERS), st.lists(st.sampled_from(_NUMBERS), min_size=1, max_size=3),
    st.sampled_from(_SCALARS), st.lists(st.sampled_from(_SCALARS), max_size=3),
    st.lists(st.lists(st.sampled_from(_SCALARS), max_size=2), min_size=1, max_size=2))


@st.composite
def _fuzz_cases(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_VALID)))
    keys = draw(st.lists(st.sampled_from(sorted(_FUZZ_VALID[command])), min_size=1,
                         max_size=2, unique=True))
    return command, {key: draw(_ODD) for key in keys}


@settings(max_examples=400, deadline=None)
@given(case=_fuzz_cases())
@example(case=("kernel eval", {"y": None}))
@example(case=("hitting semigroup", {"spacing": None}))
@example(case=("kernel eval", {"x": [True]}))
@example(case=("growth counterexample", {"case": "critical", "gamma": -math.inf}))
@example(case=("extend", {"data": True}))
def test_config_documents_keep_the_exit_code_contract(case):
    # every document exits 0, 2 (invalid input) or 3 (nonconvergence or
    # overflow), never with a traceback, and 2 and 3 write a JSON error
    command, changes = case
    runner = CliRunner()
    with runner.isolated_filesystem():
        save_data(_FUZZ_TENT, "tent.json")
        with open("cfg.json", "w") as fh:
            json.dump(dict(_FUZZ_VALID[command], **changes), fh)
        result = runner.invoke(main, command.split() + ["--config", "cfg.json"])
    assert result.exit_code in (0, 2, 3), (result.exit_code, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    if result.exit_code:
        doc = _stderr_doc(result)
        assert set(doc) == {"error", "message"}
        assert doc["error"] in (("validation",) if result.exit_code == 2
                                else ("nonconvergence", "overflow"))


@pytest.mark.parametrize("r", [1e4, 1e8, 1e12, 1e300])
def test_hitting_kernel_documents_at_large_radii_keep_the_contract(r):
    # no part of the inversion is sized by the radius: every document
    # exits 0 with a finite G >= 0 or 3 with a JSON error, in milliseconds
    runner = CliRunner()
    for n in (1, 2, 3, 4):
        for alpha in (-0.5, 0.0, 1.5):
            with runner.isolated_filesystem():
                with open("cfg.json", "w") as fh:
                    json.dump({"alpha": alpha, "n": n, "y": 2.0, "eta": 1.0, "r": [r]}, fh)
                start = time.process_time()
                result = runner.invoke(main, ["hitting", "kernel", "--config", "cfg.json",
                                              "--format", "json"])
                cpu = time.process_time() - start
            assert result.exit_code in (0, 3), (n, alpha, result.exception)
            if result.exit_code:
                assert _stderr_doc(result)["error"] in ("nonconvergence", "overflow")
            else:
                g = json.loads(result.output)["rows"][0]["G"]
                assert math.isfinite(g) and g >= 0.0, (n, alpha, g)
            assert cpu < 0.5, (n, alpha, cpu)
