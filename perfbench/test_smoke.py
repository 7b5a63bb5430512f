"""Smoke test of the benchmark: every workload at its tiny size.

Run from the root of a checkout (about a minute)::

    python3 -m pytest perfbench/test_smoke.py -q
"""

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

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def wrappable():
    chauffeur = run.import_chauffeur(ROOT / "src")
    return {(owner, attr): vars(owner)[attr] for owner, attr in tracing.targets(chauffeur)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace, capsys):
    before = wrappable()
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0
    # Untraced runs never touch the package; traced runs put everything back.
    after = wrappable()
    assert all(after[key] is original for key, original in before.items())


def test_reference_tolerances():
    ref = json.loads((HERE / "fingerprint.json").read_text())["reference"]
    t1, t2 = ref["t_truthful"], ref["t_deceptive"]
    assert workloads.reference_times_ok(t1, t2)
    assert not workloads.reference_times_ok(t2, t1)
    assert not workloads.reference_times_ok(t1, None)
    assert not workloads.reference_times_ok(t1, t1 + 0.3)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_check_close_reports_drift_and_fails_outside_tolerance():
    run = workloads.Run(None, 0, True, False, {}, HERE / ".work")
    run.attempted = 4
    run.check_close("probe", {"a": 1.0}, {"a": 1.0 + 1e-9})
    assert run.failed == 0 and len(run.drift) == 1
    run.check_close("probe", {"a": 1.0}, {"a": 1.0 + 2 * workloads.CHECK_RTOL})
    assert run.failed == 4


def test_settle_scales_samples_and_keeps_wall_times():
    run = workloads.Run(None, 0, True, False, {}, HERE / ".work")
    run.record(2.0, ops=4)
    run.settle(0.5)
    assert run.op_times == [0.25] and run.wall_op_times == [0.5]
    assert (run.ops, run.busy, run.wall_busy) == (4, 1.0, 2.0)
    assert run.pending == []
    # A sample recorded in two parts, each scaled by its own unit's factor.
    run.record(1.0, ops=0)
    run.settle(0.5)
    run.record(3.0, ops=2)
    run.settle(1.0)
    assert run.op_times[1:] == [1.75] and run.wall_op_times[1:] == [2.0]
    assert (run.ops, run.busy, run.wall_busy) == (6, 4.5, 6.0)


def test_calibrator_scale_is_reference_over_mean_kernel_time():
    cal = calibration.Calibrator()
    before = cal.before
    factor = cal.scale(0.0)
    assert factor == pytest.approx(calibration.REF_KERNEL_S / (0.5 * (before + cal.before)))
    assert cal.speed() > 0.0
