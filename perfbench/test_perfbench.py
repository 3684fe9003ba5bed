"""Self-check of the benchmark's own code: python3 -m pytest -q perfbench

Runs every workload for one second, traced and untraced, and checks that
every metric BENCHMARK.json names is printed and finite.  Then checks that
each kind of output check rejects a deliberately wrong value, and that the
benchmark refuses to run where there is no program.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from checks import Tally  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def oracle():
    return checks.load_oracle(ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed_and_finite(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert [(n, m["unit"]) for n, m in line["metrics"].items()] == [
        (m["name"], m["unit"]) for m in expected]
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    times = [n for n, m in line["metrics"].items()
             if not trace or m["unit"] in ("s", "ms", "us", "ns")]
    assert all(line["metrics"][n]["value"] > 0 for n in times), times
    assert line["correct"] is True
    assert line["attempted"] >= 1
    if workload == "cold-cli":  # one known-defect input per ten calls, failing on the seed
        assert line["failed"] * 10 == line["attempted"]
    else:
        assert line["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("sweep", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_closed_form_check_rejects_a_wrong_reference(oracle):
    K, r, theta = 1.0, 3.1, 0.7   # near the conjugate radius
    from spiralcurv import closed_form as cf

    k = cf.spiral_curvature(K, r, theta)
    bound = checks.K_BOUNDS[inputs.region(K, r)]
    tally = Tally()
    assert tally.error(checks.k_error(oracle, K, r, theta, k), bound)
    assert not tally.error(checks.k_error(oracle, K, r, theta, k * (1 + 1e-9)), bound)
    dk = cf.spiral_curvature_dK(K, r, theta)
    assert checks.dk_error(oracle, K, r, theta, dk) <= checks.DK_BOUNDS["near_conjugate"]
    assert checks.dk_error(oracle, K, r, theta, dk * (1 + 1e-9)) > checks.DK_BOUNDS["near_conjugate"]


def test_profile_check_rejects_one_ulp(oracle):
    sweep = worker.Sweep(seed=3)
    spec = {"axis": "K", "fixed": 1.0, "min": -1e-4, "max": 2.0, "steps": 50, "theta": 0.7}
    prof = sweep.cf.profile("K", 1.0, -1e-4, 2.0, 50, 0.7)
    assert sweep.check_profile(prof, spec, [0, 49], Tally(), oracle)
    x, k = prof.samples[17]
    prof.samples[17] = (x, math.nextafter(k, math.inf))
    assert not sweep.check_profile(prof, spec, [0, 49], Tally(), oracle)


def test_geometry_and_figure_checks_reject_wrong_references():
    assert checks.rel_error(0.5 * (1 + 2e-5), 0.5) > checks.GEOMETRY_K_REL
    svg = (ROOT / "perfbench" / "README.md").read_bytes()
    assert not checks.figure_ok("spiral", svg)


def cli_tally(call, code, out, err="", figure=None, oracle=None):
    from spiralcurv import closed_form

    tally = Tally()
    worker.check_cli(call, code, out, err, figure, closed_form, oracle, tally)
    return tally


def test_cli_checks_score_outputs_and_known_defects(oracle):
    cycle = inputs.cli_inputs(5)[0]
    by_kind = {c["kind"]: c for c in cycle}
    cur = by_kind["curvature"]
    from spiralcurv import closed_form as cf

    k = cf.spiral_curvature(cur["K"], cur["r"], cur["theta"])
    assert cli_tally(cur, 0, f"{k:.17g}\n", oracle=oracle).failed == 0
    wrong = cli_tally(cur, 0, f"{k * (1 + 1e-9):.17g}\n", oracle=oracle)
    assert wrong.failed == 1 and not wrong.correct
    assert not cli_tally(cur, 0, f"{k:.17g}\n", "Traceback (most recent call last):\n",
                         oracle=oracle).correct

    trace = next(c for c in cycle if c["kind"] == "trace" and c["surface"] == "pseudosphere")
    row = "0.8,0,0,0,0,0.8,{k!r},{th!r}"
    good = "\n".join(["t,x,y,z,u,v,k,theta_meas"] + [
        row.format(k=-math.cos(trace["theta"]) / trace["R"], th=trace["theta"])] * trace["samples"])
    bad = good.replace(repr(-math.cos(trace["theta"]) / trace["R"]),
                       repr(-math.cos(trace["theta"]) / trace["R"] * (1 + 1e-4)), 1)
    assert cli_tally(trace, 0, good + "\n").failed == 0
    assert cli_tally(trace, 0, bad + "\n").failed == 1

    defect = {"kind": "defect_nan", "argv": ["curvature", "--K", "nan"], "expect_exit": 1}
    seed_behaviour = cli_tally(defect, 0, "nan\n")
    assert seed_behaviour.failed == 1 and seed_behaviour.correct
    assert cli_tally(defect, 1, "", "domain error: K=nan\n").failed == 0
