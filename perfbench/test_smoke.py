"""The benchmark's own tests: smoke mode, missing sources, and the tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"


def test_smoke_runs_every_workload_correctly():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # per workload: start, one set-up, one untraced, one reference and one traced invocation
    assert result["attempted"] == 5 * len(WORKLOADS)
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for metric in declared["end_to_end"] + declared["per_layer"]:
            entry = result["metrics"][f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
    assert result["metrics"]["cli-stability-sweep.stability.scan_calls"]["value"] == 21
    assert result["metrics"]["lib-p1-n10000.linalg.solve_calls"]["value"] == 21


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-plot-n100", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_reports_absent_entry_points_and_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR.parent / "src"))
    import telespline.cli
    import telespline.solver
    from tracer import Tracer

    original = telespline.solver.solve
    monkeypatch.delattr(telespline.cli, "cmd_bench")
    tracer = Tracer()
    tracer.install()
    try:
        assert telespline.solver.solve is not original
        assert tracer.absent == ["cli.cmd_bench"]
    finally:
        tracer.uninstall()
    assert telespline.solver.solve is original
