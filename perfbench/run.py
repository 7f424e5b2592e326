"""telespline benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 5
    python3 perfbench/run.py --smoke

A run repeats rounds until the next round would end past ``--seconds``.
Each invocation starts only after the previous one has finished and its
output has been checked.  With ``--trace 0`` a round is one set-up
invocation (the invocation cut to one step) and one full invocation, all
untraced, and the end-to-end metrics (median host-speed-adjusted times,
peak RSS) are reported.  With ``--trace 1`` a round is one full invocation
through the tracing launcher with the tracer off, the reference for its
overhead, and one traced invocation, and the per-module metrics are
reported.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit status is 0 when every output was correct, 1 when
some check failed, and 2 when the program's sources are missing.

See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
from workloads import FULL, PHI_SAMPLES, SMOKE, WORKLOADS, SeededInputs

ROOT = Path(__file__).resolve().parent.parent


class Run:
    """Measures one workload and keeps every sample it took."""

    def __init__(self, workload, seconds: float, end_to_end: bool, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.end_to_end = end_to_end
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.setup = []
        self.untraced = []
        self.reference = []
        self.traced = []

    def _attempt(self, action):
        self.attempted += 1
        try:
            return action()
        except Exception:  # any failure is counted, reported, and survived
            self.failed += 1
            print(f"{self.workload.name}: attempt failed\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def _keep(self, into: list, sample) -> None:
        if sample is not None:
            into.append(sample)

    def _calibrated(self, action):
        """``action``'s sample, with the host-speed kernel timed around it."""
        before = hostspeed.kernel_s()
        sample = self._attempt(action)
        if sample is not None:
            sample.kernel_s = (before + hostspeed.kernel_s()) / 2
        return sample

    def execute(self) -> None:
        self._attempt(self.workload.start)
        try:
            if self.failed:
                return
            deadline = time.perf_counter() + self.seconds
            rounds = []
            while True:
                began = time.perf_counter()
                # the invocations of a round alternate, so all see the same
                # stretches of machine load
                if self.end_to_end:
                    self._keep(self.setup, self._calibrated(self.workload.setup_once))
                    self._keep(self.untraced, self._calibrated(lambda: self.workload.iterate(False)))
                if self.trace:
                    self._keep(self.reference, self._attempt(self.workload.reference))
                    self._keep(self.traced, self._attempt(lambda: self.workload.iterate(True)))
                now = time.perf_counter()
                rounds.append(now - began)
                if now + statistics.median(rounds) > deadline:
                    break
        finally:
            self.workload.close()


def _adjusted(samples) -> list[float]:
    """Wall times scaled to the host at reference speed (see hostspeed.py)."""
    return [s.wall_s * hostspeed.REFERENCE_S / s.kernel_s for s in samples]


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, and their report lines.

    Times are medians over the run's invocations of host-speed-adjusted wall
    times.  The raw wall times, whose level follows other tenants' load, are
    given in the report lines only.
    """
    walls, setups = _adjusted(run.untraced), _adjusted(run.setup)
    if not walls or not setups:
        return {}, []
    wall, setup = statistics.median(walls), statistics.median(setups)
    units = run.workload.units
    metrics = {
        "wall_s": (wall, "s", f"median of {len(walls)}, host-speed-adjusted"),
        "setup_s": (setup, "s", f"median of {len(setups)}, host-speed-adjusted"),
        "step_us": ((wall - setup) / (units - 1) * 1e6, "us", f"(wall_s - setup_s) / {units - 1}"),
        "peak_rss_mib": (max(s.rss_mib for s in run.untraced), "MiB", "max over invocations"),
    }
    lines = [f"  {name:<14}{value:<14.6g}{unit:<5}{note}" for name, (value, unit, note) in metrics.items()]
    raw = [s.wall_s for s in run.untraced]
    quartiles = statistics.quantiles(raw, n=4) if len(raw) > 1 else raw * 3
    lines.append(f"  {'raw wall':<14}{quartiles[1]:<14.6g}{'s':<5}median, p75 {quartiles[2]:.6g} s, best {min(raw):.6g} s")
    kernel = statistics.median(s.kernel_s for s in run.untraced + run.setup)
    lines.append(f"  {'host kernel':<14}{kernel:<14.6g}{'s':<5}median; reference {hostspeed.REFERENCE_S} s")
    errors = [s.linf_err for s in run.untraced if s.linf_err is not None]
    if errors:
        lines.append(f"  {'linf_err':<14}{max(errors):<14.6g}{'':<5}max over invocations (gated, depends on the seed)")
    lines.append(f"  {'fail_ratio':<14}{run.failed / max(run.attempted, 1):<14.6g}{'':<5}{run.failed} of {run.attempted} attempts")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}, lines


def _module_metrics(trace: dict, unknowns: int) -> dict[str, float]:
    spans = trace["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(*names):
        return sum(spans.get(name, [0, 0.0, 0.0])[2] for name in names)

    def per_item_ns(name, items):
        return total(name) * 1e9 / (calls(name) * items) if calls(name) else 0.0

    return {
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_s": total("linalg.solve"),
        "linalg.ns_per_unknown": per_item_ns("linalg.solve", unknowns),
        "problem.sample_calls": calls("problem.sample"),
        "problem.sample_s": total("problem.sample"),
        "expr.parse_s": total("expr.parse"),
        "expr.eval_calls": calls("expr.evaluate"),
        "expr.eval_s": total("expr.evaluate"),
        "basis.weights_calls": calls("basis.basis_weights"),
        "basis.knots_calls": calls("basis.knots"),
        "basis.knots_s": total("basis.knots"),
        "basis.knot_values_calls": calls("basis.knot_values"),
        "basis.knot_values_s": total("basis.knot_values"),
        "solver.run_s": total("solver.run"),
        "solver.init_s": total("solver.initial_coefficients"),
        "solver.steps": calls("solver.step"),
        "solver.self_s": self_time(*(name for name in spans if name.startswith("solver."))),
        "metrics.norms_calls": calls("metrics.error_norms"),
        "metrics.norms_s": total("metrics.error_norms"),
        "stability.scan_calls": calls("stability.stability_scan"),
        "stability.scan_s": total("stability.stability_scan"),
        "stability.ns_per_phi": per_item_ns("stability.stability_scan", PHI_SAMPLES),
        "import.telespline_s": total("import.telespline"),
        "cli.load_config_s": total("cli.load_problem_config"),
        "cli.format_s": self_time("cli.cmd_solve", "cli.cmd_bench", "cli.cmd_stability"),
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_frac"):
        return "fraction"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def per_layer(run: Run) -> tuple[dict, list[str]]:
    """The per-module metrics of a traced run, and their report lines."""
    if not run.traced or not run.reference:
        return {}, []
    # the fastest traced invocation: its spans were least disturbed by other load
    fastest = min(run.traced, key=lambda sample: sample.wall_s)
    metrics = _module_metrics(fastest.trace, run.workload.unknowns)
    metrics["cli.rows_written"] = fastest.rows
    metrics["cli.bytes_written"] = fastest.bytes
    metrics["trace.unattributed_frac"] = 1.0 - fastest.trace["top_s"] / fastest.wall_s
    metrics["trace.overhead_frac"] = fastest.wall_s / min(s.wall_s for s in run.reference) - 1.0

    lines = [f"  {name:<26}{value:<14.6g}{_layer_unit(name)}" for name, value in metrics.items()]
    selves: dict[str, float] = {}
    for name, (_, _, own) in fastest.trace["spans"].items():
        module = name.partition(".")[0]
        selves[module] = selves.get(module, 0.0) + own
    ranked = sorted(selves.items(), key=lambda item: -item[1])
    lines.append("  self time by module (fastest traced invocation): " + ", ".join(f"{m} {s:.4g} s" for m, s in ranked))
    absent = fastest.trace["absent"]
    if absent:
        lines.append("  absent entry points: " + ", ".join(absent))
    return {name: {"value": value, "unit": _layer_unit(name)} for name, value in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload once, untraced and traced, at small sizes",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "telespline" / "__init__.py").is_file():
        print(f"error: no telespline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # The harness and every child it starts share one CPU, so the host-speed
    # kernel is timed on the CPU the program runs on: on a shared VM the two
    # vCPUs can be slowed independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.smoke or args.workload == "all" else [args.workload]
    sizes = SMOKE if args.smoke else FULL
    seconds = 0.0 if args.smoke else args.seconds
    trace = args.smoke or bool(args.trace)
    report_end_to_end = args.smoke or not args.trace
    inputs = SeededInputs.from_seed(args.seed)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        for name in names:
            workload = WORKLOADS[name](ROOT, Path(work), inputs, sizes[name])
            run = Run(workload, seconds, report_end_to_end, trace)
            run.execute()
            metrics, lines = {}, []
            if report_end_to_end:
                found, text = end_to_end(run)
                metrics.update(found)
                lines += text
            if trace:
                found, text = per_layer(run)
                metrics.update(found)
                lines += text
            print(
                f"{name}  seed {args.seed}  theta {inputs.theta:.6g}  alpha {inputs.alpha:.6g}  "
                f"beta {inputs.beta:.6g}  n {workload.n}  units {workload.units}"
            )
            print("\n".join(lines))
            result["attempted"] += run.attempted
            result["failed"] += run.failed
            prefix = f"{name}." if len(names) > 1 else ""
            result["metrics"].update({prefix + key: value for key, value in metrics.items()})
    result["correct"] = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
