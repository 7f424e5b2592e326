"""Record a baseline: every workload over several seeds, plus the environment.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30 --output perfbench/baseline.json

Runs ``run.py`` once per (workload, seed) with tracing off, then once per
workload with tracing on, and writes the per-run values, their medians and
their spreads (distance between the quartiles as a share of the median)
together with nproc, the CPU model and the Python, numpy and scipy versions.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _version(module: str) -> str:
    try:
        return importlib.import_module(module).__version__
    except ImportError:
        return "not installed"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        median = statistics.median(values)
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        summary[name] = {
            "median": median,
            "spread": (quartiles[2] - quartiles[0]) / median if median else 0.0,
            "values": values,
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--output", help="write the baseline JSON here")
    args = parser.parse_args()

    seeds = _seeds(args.seeds)
    record = {"environment": environment(), "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        end_to_end = summarize(runs)
        for name, entry in end_to_end.items():
            print(f"{workload} {name}: median {entry['median']:.6g}  spread {entry['spread']:.3f}", flush=True)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": run_once(workload, seeds[0], args.seconds, 1),
        }
    if args.output:
        Path(args.output).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
