"""Self-tests of the benchmark.  Run with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run_tiny(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run_tiny(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    assert not glob.glob(os.path.join(workloads.WORK_DIR, "store-*"))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        better = ("higher" if metric["name"] in run.HIGHER_IS_BETTER
                  else "lower")
        assert metric["better"] == better, metric["name"]


def test_benchmark_json_workloads_match_the_runner():
    assert ({w["name"] for w in BENCHMARK["workloads"]}
            == set(workloads.WORKLOADS))
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_failed_cell_surfaces_in_failed_frac(tmp_path):
    """A cell that is not ok counts as failed and is never skipped."""
    from repro.campaign import TaskSpec
    sweep = workloads.Sweep(seed=3, scale="tiny")
    try:
        sweep.setup()
        missing = str(tmp_path / "missing.trace")
        sweep.tasks[0] = TaskSpec(scenario="missing", protocol="cubic",
                                  flows=1, duration=1.5, seed=1,
                                  trace_file=missing)
        tally = workloads.Tally()
        sweep.rep(tally)
    finally:
        sweep.cleanup()
        workloads.reap_children()
    assert 1 <= tally.failed < tally.attempted
    assert any("cold cell missing/cubic" in p for p in tally.problems)


class _Shifting(workloads.Workload):
    """A workload whose simulated work differs on every repetition."""

    name = "shifting"

    def __init__(self):
        super().__init__(seed=0, scale="tiny")
        self.calls = 0

    def rep(self, tally, rec=None):
        self.calls += 1
        return workloads.Rep(wall_s=0.01, cpu_s=0.01, packets=1,
                             leg_ratio=1.0,
                             digests={"leg": f"digest-{self.calls}"})


def test_changed_digest_between_repetitions_is_a_failure():
    tally = workloads.Tally()
    reps = run.measure(_Shifting(), tally, seconds=0.0)
    assert len(reps) == 2
    assert tally.failed == 1 and tally.attempted == 1
    assert "changed between repetitions" in tally.problems[0]


def test_tracing_that_changes_the_digest_is_a_failure():
    tally = workloads.Tally()
    run.traced(_Shifting(), tally)
    assert tally.failed == 1
    assert "tracing changed" in tally.problems[0]


def test_ledger_comparison_reports_changed_work():
    before = {"digests": {"lo": "a"}, "counts": {"lo.events": 10}}
    after = {"digests": {"lo": "b"}, "counts": {"lo.events": 10}}
    assert ledger.work_changes(before, before) == []
    changes = ledger.work_changes(before, after)
    assert len(changes) == 1 and "simulated work changed" in changes[0]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_tiny("verus_highrate", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
