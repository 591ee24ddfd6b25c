"""The benchmark's own tests: reduced-size passes and the output check.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import common        # noqa: E402
import oracle        # noqa: E402
import reference     # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(common.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_smoke_pass_reports_every_metric_and_checks_outputs(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    assert line["correct"] is True
    assert line["attempted"] >= 1
    # the baseline command is the one known failure of a closed-form pass
    per_pass = len(common.CLOSED_FORM)
    expected_failed = line["attempted"] // per_pass if workload == "closed-form-cli" else 0
    assert line["failed"] == expected_failed

    result_path = proc.stdout.split(" result=")[1].split()[0]
    with open(os.path.join(ROOT, result_path)) as fh:
        result = json.load(fh)
    assert sum(result["ops"].values()) == line["attempted"]     # every op was checked
    for key in ("commit", "src_sha256", "python", "numpy", "nproc", "cpu_model", "seeds"):
        assert key in result["manifest"]
    for summary in result["metrics"].values():
        assert set(summary) == {"n", "median", "q1", "q3", "unit"}


@pytest.mark.parametrize("workload", common.LIBRARY_WORKLOADS + ("replicated-cli",))
def test_oracle_reproduces_recorded_reference(workload):
    recorded = reference._load(workload)
    computed = reference.simulate(oracle, workload, recorded["seed"], recorded["duration"])
    assert json.loads(json.dumps(computed)) == recorded


def test_sim_check_catches_one_ulp():
    ref = reference._load("sat-m1000")["metrics"]
    out = dict(ref)
    assert common.check_sim_metrics(out, ref) is None
    out["mean_access_delay"] = math.nextafter(ref["mean_access_delay"], math.inf)
    assert "mean_access_delay" in common.check_sim_metrics(out, ref)
    assert common.check_sim_metrics({}, ref) is not None


def test_closed_form_check_tolerance():
    ref = "rate,pole_distance\r\n0.5,0.0123456789\r\n"
    close = "rate,pole_distance\r\n0.5,0.01234567893\r\n"     # 2.4e-9 relative
    far = "rate,pole_distance\r\n0.5,0.0123458\r\n"           # 9e-6 relative
    assert common.check_table(close, ref) is None
    assert common.check_table(far, ref) is not None
    assert common.check_table(ref + "0.6,0.1\r\n", ref) is not None


def test_known_defect_classification():
    ref = reference._load("closed-form-cli")["ops"]["baseline"]
    crash = "Traceback (most recent call last):\nZeroDivisionError: float division by zero\n"
    assert common.check_cli_op("baseline", ref, 1, "", crash)[0] == "known-defect"
    assert common.check_cli_op("baseline", ref, 2, "", "error: bad range\n")[0] == "wrong"
    # a fix must reproduce the recorded rows and then complete the range
    partial = ref["rows_before_failure"]
    assert common.check_cli_op("baseline", ref, 0, partial, "")[0] == "wrong"


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sat-m1000", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
