"""The benchmark's four workloads: seeded inputs, invocations and checks.

Every workload offers ``start()``, ``setup_once()`` (the same invocation cut
to one step, or to a single-theta scan), ``iterate(traced)`` (one full
invocation), ``reference()`` (one full invocation started the way a traced
one is, with the tracer off) and ``close()``.  Each invocation checks the program's output and
raises :class:`CheckFailed` when it is wrong, so a wrong answer counts as a
failed attempt rather than as a fast one.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
DT = 1e-3
PHI_SAMPLES = 721  # the CLI's default --phi-samples
CHILD_TIMEOUT_S = 120.0

# Max-knot error bounds at the final time, about five times the worst error
# measured over the seeded ranges of theta, alpha and beta.
LINF_BOUNDS = {
    "lib-p1-n10000": 1.5e-6,
    "cli-config-n1000": 1e-5,
    "cli-plot-n100": 2.5e-4,
}

# Problem size per workload: mesh cells and steps (or sweep points).  An
# invocation takes well under a second, so a run holds dozens of them and
# their median is steady on a loaded host.
FULL = {
    "lib-p1-n10000": {"n": 10000, "units": 20},
    "cli-config-n1000": {"n": 1000, "units": 40},
    "cli-plot-n100": {"n": 100, "units": 500},
    "cli-stability-sweep": {"n": 1000, "units": 5001},
}
SMOKE = {
    "lib-p1-n10000": {"n": 100, "units": 20},
    "cli-config-n1000": {"n": 100, "units": 20},
    "cli-plot-n100": {"n": 20, "units": 50},
    "cli-stability-sweep": {"n": 100, "units": 21},
}


class CheckFailed(Exception):
    """The program failed, or its output was wrong."""


@dataclass
class Sample:
    """What one invocation cost and produced."""

    wall_s: float
    rss_mib: float
    kernel_s: Optional[float] = None  # host-speed kernel timed around the invocation
    linf_err: Optional[float] = None
    trace: Optional[dict] = None
    rows: int = 0
    bytes: int = 0


@dataclass(frozen=True)
class SeededInputs:
    """The values the seed picks; sizes never depend on it."""

    theta: float
    alpha: float
    beta: float

    @classmethod
    def from_seed(cls, seed: int) -> "SeededInputs":
        rng = random.Random(seed)
        return cls(theta=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.5, 4.0), beta=rng.uniform(0.5, 3.0))


def _time_text(steps: int) -> str:
    return repr(round(steps * DT, 12))


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class _Watchdog:
    """Kills a process that outlives the timeout."""

    def __init__(self, proc: subprocess.Popen, timeout: float):
        self._timer = threading.Timer(timeout, proc.kill)

    def __enter__(self):
        self._timer.start()
        return self

    def __exit__(self, *exc):
        self._timer.cancel()


def _max_error(rows) -> float:
    """Max |u - exp(-t) sin(x)| over (x, t, u) triples."""
    return max(abs(u - math.exp(-t) * math.sin(x)) for x, t, u in rows)


def _read_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _bound_error(name: str, err: float) -> float:
    if not err <= LINF_BOUNDS[name]:
        raise CheckFailed(f"max knot error {err!r} exceeds the bound {LINF_BOUNDS[name]}")
    return err


class LibraryWorkload:
    """Library ``run()`` on built-in problem 1 in a warm worker process.

    Why: bound by linalg, where the pure-Python condensed Thomas solve takes
    most of each step; no expr or cli work.  A factor-once stepper shows here
    first.
    """

    name = "lib-p1-n10000"

    def __init__(self, root: Path, work: Path, inputs: SeededInputs, size: dict):
        self.root, self.work, self.inputs = root, work, inputs
        self.n, self.units = size["n"], size["units"]
        self.unknowns = self.n + 3
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        argv = [
            sys.executable, str(BENCH_DIR / "libworker.py"),
            "--n", str(self.n), "--theta", repr(self.inputs.theta),
        ]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_child_env(self.root), cwd=self.work,
        )

    def _request(self, steps: int, traced: bool) -> Sample:
        with _Watchdog(self.proc, CHILD_TIMEOUT_S):
            try:
                self.proc.stdin.write(json.dumps({"steps": steps, "traced": traced}) + "\n")
                self.proc.stdin.flush()
            except BrokenPipeError:
                raise CheckFailed("library worker has exited") from None
            line = self.proc.stdout.readline()
        if not line:
            raise CheckFailed(f"library worker exited with status {self.proc.poll()}")
        reply = json.loads(line)
        if "error" in reply:
            raise CheckFailed(reply["error"])
        return Sample(
            wall_s=reply["wall_s"],
            rss_mib=reply["maxrss_kib"] / 1024,
            linf_err=_bound_error(self.name, reply["linf_err"]),
            trace=reply["trace"],
        )

    def setup_once(self) -> Sample:
        return self._request(1, False)

    def iterate(self, traced: bool) -> Sample:
        return self._request(self.units, traced)

    def reference(self) -> Sample:
        return self._request(self.units, False)

    def close(self) -> None:
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class _CliWorkload:
    """One ``python -m telespline`` process per invocation."""

    name = ""

    def __init__(self, root: Path, work: Path, inputs: SeededInputs, size: dict):
        self.root, self.work, self.inputs = root, work, inputs
        self.n, self.units = size["n"], size["units"]
        self.unknowns = self.n + 3
        self.env = _child_env(root)
        self.trace_path = work / "trace.json"

    def start(self) -> None:
        """Write any input files the invocation reads."""

    def arguments(self, one_step: bool) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check(self, one_step: bool) -> Optional[float]:
        """Validate the output files; return the max knot error if there is one."""
        raise NotImplementedError

    def _invoke(self, one_step: bool, traced: bool, launcher: bool) -> Sample:
        for path in self.outputs() + [self.trace_path]:
            path.unlink(missing_ok=True)
        if launcher:
            trace_arg = str(self.trace_path) if traced else "--off"
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), trace_arg]
        else:
            argv = [sys.executable, "-m", "telespline"]
        argv += self.arguments(one_step)
        with open(self.work / "stderr.txt", "w+") as errors:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=errors,
                env=self.env, cwd=self.work,
            )
            with _Watchdog(proc, CHILD_TIMEOUT_S):
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                errors.seek(0)
                raise CheckFailed(f"exit status {proc.returncode}: {errors.read().strip()[-500:]}")
        sample = Sample(wall_s=wall, rss_mib=usage.ru_maxrss / 1024, linf_err=self.check(one_step))
        if traced:
            sample.trace = json.loads(self.trace_path.read_text())
            for path in self.outputs():
                data = path.read_bytes()
                sample.rows += data.count(b"\n") - 1
                sample.bytes += len(data)
        return sample

    def setup_once(self) -> Sample:
        return self._invoke(True, False, False)

    def iterate(self, traced: bool) -> Sample:
        return self._invoke(False, traced, traced)

    def reference(self) -> Sample:
        return self._invoke(False, False, True)

    def close(self) -> None:
        pass


class ConfigWorkload(_CliWorkload):
    """``solve --config`` on a seeded manufactured Neumann problem.

    Why: bound by expr, with about 80k ``Expression.evaluate`` calls per
    invocation; also the only workload with Neumann rows and theta-blended
    forcing.
    """

    name = "cli-config-n1000"

    def start(self) -> None:
        self.config = self.work / "manufactured.cfg"
        a, b = repr(self.inputs.alpha), repr(self.inputs.beta)
        self.config.write_text(
            "# manufactured solution exp(-t) sin(x) of u_tt + 2a u_t + b^2 u = u_xx + q\n"
            f"alpha = {a}\nbeta = {b}\ndomain = 0, 2*pi\nbc = neumann\n"
            f"q = (2 - 2*{a} + {b}^2)*exp(-t)*sin(x)\n"
            "g1 = sin(x)\ng2 = -sin(x)\ng1x = cos(x)\n"
            "left = exp(-t)\nright = exp(-t)\nexact = exp(-t)*sin(x)\n"
        )

    def _times(self, one_step: bool) -> list[str]:
        if one_step:
            return [_time_text(1)]
        return [_time_text(self.units * k // 4) for k in range(1, 5)]

    def arguments(self, one_step: bool) -> list[str]:
        times = self._times(one_step)
        return [
            "solve", "--config", str(self.config), "--n", str(self.n), "--dt", repr(DT),
            "--theta", repr(self.inputs.theta), "--t-final", times[-1], "--times", ",".join(times),
            "--forcing-level", "theta", "--output", str(self.work / "solution.csv"),
        ]

    def outputs(self) -> list[Path]:
        return [self.work / "solution.csv"]

    def check(self, one_step: bool) -> float:
        rows = _read_rows(self.outputs()[0], "x,t,u,exact,error")
        times = self._times(one_step)
        if len(rows) != len(times) * (self.n + 1):
            raise CheckFailed(f"{len(rows)} rows, expected {len(times)} x {self.n + 1}")
        if {float(row[1]) for row in rows} != {float(t) for t in times}:
            raise CheckFailed("output times differ from the requested ones")
        return _bound_error(self.name, _max_error((float(r[0]), float(r[1]), float(r[2])) for r in rows))


class PlotWorkload(_CliWorkload):
    """``solve --emit-plot-data``: every level of problem 1 written out.

    Why: keeps every frame and writes about 50k rows, so the fixed per-step
    overhead and output formatting dominate at small n.  A stepper change
    should not move it.
    """

    name = "cli-plot-n100"

    def _steps(self, one_step: bool) -> int:
        return 1 if one_step else self.units

    def arguments(self, one_step: bool) -> list[str]:
        return [
            "solve", "--problem", "1", "--n", str(self.n), "--dt", repr(DT),
            "--theta", repr(self.inputs.theta), "--t-final", _time_text(self._steps(one_step)),
            "--emit-plot-data", str(self.work / "plot.csv"), "--output", str(self.work / "solution.csv"),
        ]

    def outputs(self) -> list[Path]:
        return [self.work / "solution.csv", self.work / "plot.csv"]

    def check(self, one_step: bool) -> float:
        solution = _read_rows(self.outputs()[0], "x,t,u,exact,error")
        knots = self.n + 1
        if len(solution) != knots:
            raise CheckFailed(f"solution has {len(solution)} rows, expected {knots}")
        plot = self.outputs()[1].read_bytes()
        rows = plot.count(b"\n") - 1
        expected = (self._steps(one_step) + 1) * knots
        if rows != expected or not plot.startswith(b"x,t,u\n"):
            raise CheckFailed(f"plot file has {rows} rows, expected {expected}")
        last_level = [line.split(",") for line in plot.decode().rstrip("\n").rsplit("\n", knots)[1:]]
        if [(r[0], r[2]) for r in last_level] != [(r[0], r[2]) for r in solution]:
            raise CheckFailed("the plot file's last level differs from the solve output")
        return _bound_error(self.name, _max_error((float(r[0]), float(r[1]), float(r[2])) for r in solution))


class StabilityWorkload(_CliWorkload):
    """``stability --sweep`` over theta in [0, 1].

    Why: the only workload touching stability, with no solver or linalg work,
    so it is the bypass case for stepper changes; interpreter start and
    imports are about a quarter of it, so it is also the import-cost sentinel.
    """

    name = "cli-stability-sweep"

    def arguments(self, one_step: bool) -> list[str]:
        inputs = self.inputs
        argv = [
            "stability", "--alpha", repr(inputs.alpha), "--beta", repr(inputs.beta), "--dt", repr(DT),
            "--n", str(self.n), "--output", str(self.work / "stability.csv"),
        ]
        if one_step:
            return argv + ["--theta", repr(inputs.theta)]
        return argv + ["--sweep", f"theta=0:1:{1 / (self.units - 1)!r}"]

    def outputs(self) -> list[Path]:
        return [self.work / "stability.csv"]

    def check(self, one_step: bool) -> None:
        rows = _read_rows(self.outputs()[0], "theta,max_amplification,worst_phi,rh1,rh2,rh3,verdict")
        expected = 1 if one_step else self.units
        if len(rows) != expected:
            raise CheckFailed(f"{len(rows)} rows, expected {expected}")
        for row in rows:
            if float(row[0]) >= 0.5 and row[6] != "stable":
                raise CheckFailed(f"theta = {row[0]} >= 0.5 is reported {row[6]!r}")
        return None


WORKLOADS = {cls.name: cls for cls in (LibraryWorkload, ConfigWorkload, PlotWorkload, StabilityWorkload)}
