"""Command-line front end for the collocation solver.

Three subcommands:

``solve``
    March a built-in or config-defined problem and write one record per
    (output time, knot) with columns ``x,t,u,exact,error``; the exact and
    error cells are empty when no exact solution is known.

``bench``
    Same march, but write error norms per requested time with the header
    ``t,L2,Linf,RMS,cpu_seconds``; despite its name, cpu_seconds is wall
    time (``time.perf_counter``) that the stepping loop alone had consumed
    when that time was captured.

``stability``
    Scan the amplification factor over mode angles and write
    ``theta,max_amplification,worst_phi,rh1,rh2,rh3,verdict`` (one row per
    theta when sweeping).

Numbers are written as ``%.17g``, which reads back to the same float.  Output
is streamed with one ``%`` call on a line template per frame (or per row).

Exit status: 0 on success, 2 for configuration or usage problems, 3 when the
linear solver hits a vanishing pivot.

Config files are line-oriented ``key = value`` with ``#`` comments.  Keys:
alpha, beta (constants), domain (two comma-separated constants), q (in x, t),
g1, g2 (in x), bc (dirichlet | neumann), left, right (in t), and optionally
exact (in x, t) and g1x (the initial profile's derivative, in x; without it
the derivative end conditions fall back to finite differencing).  Values use
the expression grammar of :mod:`telespline.expr`.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .basis import UniformMesh, basis_weights, knot_values
from .expr import ExpressionError, parse
from .linalg import SingularSystemError
from .metrics import error_norms
from .problem import BoundaryKind, BoundarySpec, TelegraphProblem, builtin_problem, sample
from .solver import SchemeParams, SolutionHistory, output_steps, run
from .stability import stability_sweep

_SEPARATORS = {"csv": ",", "tsv": "\t"}

# stands for the t cell in a frame template until a frame's time is put in
_T_CELL = "{t}"

# the most theta values one --sweep may ask for
MAX_SWEEP_POINTS = 10**6
# the most time levels, t = 0 included, that --emit-plot-data may capture
MAX_PLOT_LEVELS = 10**6

_REQUIRED_KEYS = ("alpha", "beta", "domain", "q", "g1", "g2", "bc", "left", "right")
_OPTIONAL_KEYS = ("exact", "g1x")

# which variables each expression-valued key may mention
_KEY_VARIABLES = {
    "q": frozenset({"x", "t"}),
    "exact": frozenset({"x", "t"}),
    "g1": frozenset({"x"}),
    "g2": frozenset({"x"}),
    "g1x": frozenset({"x"}),
    "left": frozenset({"t"}),
    "right": frozenset({"t"}),
}


class ConfigError(ValueError):
    """A problem with user-supplied configuration (file or flags)."""


def _parse_constant(text: str, where: str) -> float:
    try:
        expression = parse(text)
    except ExpressionError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if expression.variables():
        raise ConfigError(
            f"{where}: expected a constant, found variables "
            f"{sorted(expression.variables())}"
        )
    return expression.evaluate()


def _parse_domain(text: str, where: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(
            f"{where}: domain needs two comma-separated endpoints, got {text!r}"
        )
    return _parse_constant(parts[0], where), _parse_constant(parts[1], where)


def _parse_times(text: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ConfigError(f"--times: no values in {text!r}")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise ConfigError(
            f"--times: expected comma-separated numbers, got {text!r}"
        ) from None
    return tuple(sorted(set(values)))


def _parse_sweep(text: str) -> list[float]:
    """Parse 'theta=START:STOP:STEP' into the list of theta values."""
    prefix = "theta="
    if not text.startswith(prefix):
        raise ConfigError(f"--sweep: expected 'theta=START:STOP:STEP', got {text!r}")
    parts = text[len(prefix) :].split(":")
    if len(parts) != 3:
        raise ConfigError(f"--sweep: expected 'theta=START:STOP:STEP', got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"--sweep: non-numeric bound in {text!r}") from None
    for name, value in zip(("start", "stop", "step"), (start, stop, step)):
        if not math.isfinite(value):
            raise ConfigError(f"--sweep: {name} must be finite, got {value}")
    if step <= 0:
        raise ConfigError(f"--sweep: step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"--sweep: stop {stop} is below start {start}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_SWEEP_POINTS:  # also catches a quotient that overflows to inf
        raise ConfigError(
            f"--sweep: {text!r} gives more than {MAX_SWEEP_POINTS} theta values"
        )
    count = int(span)
    # accumulated rounding must not push the last value past stop
    return [min(start + i * step, stop) for i in range(count + 1)]


def load_problem_config(path: str) -> TelegraphProblem:
    """Read a ``key = value`` problem description file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None

    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} "
                f"(first set on line {entries[key][1]})"
            )
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        entries[key] = (value, lineno)

    missing = [key for key in _REQUIRED_KEYS if key not in entries]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    def function_for(key: str) -> Callable:
        """The key's expression as a problem callable: f(t) for boundary
        data, else the expression itself, called as f(x) or f(x, t)."""
        value, lineno = entries[key]
        where = f"{path}:{lineno}: {key}"
        try:
            expression = parse(value)
        except ExpressionError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        allowed = _KEY_VARIABLES[key]
        extra = expression.variables() - allowed
        if extra:
            raise ConfigError(
                f"{where}: may only use {sorted(allowed)}, found {sorted(extra)}"
            )
        if allowed == {"t"}:
            return lambda t: expression(0.0, t)
        return expression

    alpha = _parse_constant(entries["alpha"][0], f"{path}:{entries['alpha'][1]}: alpha")
    beta = _parse_constant(entries["beta"][0], f"{path}:{entries['beta'][1]}: beta")
    domain = _parse_domain(entries["domain"][0], f"{path}:{entries['domain'][1]}: domain")

    bc_text = entries["bc"][0].lower()
    try:
        kind = BoundaryKind(bc_text)
    except ValueError:
        raise ConfigError(
            f"{path}:{entries['bc'][1]}: bc must be dirichlet or neumann, "
            f"got {entries['bc'][0]!r}"
        ) from None

    return TelegraphProblem(
        alpha=alpha,
        beta=beta,
        domain=domain,
        forcing=function_for("q"),
        initial_value=function_for("g1"),
        initial_velocity=function_for("g2"),
        boundary=BoundarySpec(kind, function_for("left"), function_for("right")),
        exact=function_for("exact") if "exact" in entries else None,
        initial_slope=function_for("g1x") if "g1x" in entries else None,
    )


def _load_problem(args: argparse.Namespace) -> TelegraphProblem:
    """The problem of ``--config``, or else of ``--problem``."""
    if args.config is not None:
        return load_problem_config(args.config)
    return builtin_problem(args.problem)


def _emit(path: Optional[str], header: Sequence[str], blocks: Iterable[str], sep: str) -> None:
    """Write the header line, then each block of lines, to ``path`` or stdout."""
    with nullcontext(sys.stdout) if path is None else open(path, "w") as out:
        out.write(sep.join(header) + "\n")
        out.writelines(blocks)


def _frame_blocks(
    knots: np.ndarray, sep: str, cells: str, times: Iterable[float], values: np.ndarray
) -> Iterator[str]:
    """One block of lines per output time: per knot, its x cell, the t cell,
    then ``cells``, whose ``%.17g`` slots take ``values[i]`` (one row per
    time, knot-major)."""
    template = "".join(["%.17g" % x + f"{sep}{_T_CELL}{sep}{cells}\n" for x in knots.tolist()])
    for t, row in zip(times, values):
        yield template.replace(_T_CELL, "%.17g" % t) % tuple(row.ravel().tolist())


def _march(
    problem: TelegraphProblem, args: argparse.Namespace
) -> tuple[UniformMesh, SolutionHistory, Sequence[float], Sequence[int]]:
    """Run the stepping loop; return the mesh, the history, the output times
    (``--times``, else t_final or the last step level before it), and the
    position in ``history.frames`` of each output time."""
    mesh = UniformMesh(problem.domain[0], problem.domain[1], args.n)
    params = SchemeParams(args.theta, args.dt, args.t_final, args.forcing_level)
    times = _parse_times(args.times) if args.times else (params.last_time,)
    if args.emit_plot_data is None:
        return mesh, run(problem, mesh, params, times), times, range(len(times))
    # capture every level so the plot file covers the full space-time grid
    positions = output_steps(times, params)
    if params.last_step >= MAX_PLOT_LEVELS:
        raise ConfigError(
            f"--emit-plot-data: t_final {params.t_final} at dt {params.dt} gives "
            f"{params.last_step + 1} time levels, more than {MAX_PLOT_LEVELS}"
        )
    grid = [j * params.dt for j in range(params.last_step + 1)]
    return mesh, run(problem, mesh, params, grid), times, positions


def _write_plot_data(
    mesh: UniformMesh, history: SolutionHistory, args: argparse.Namespace
) -> None:
    sep = _SEPARATORS[args.format]
    coeffs = np.stack([frame.values for frame in history.frames])
    values = knot_values(coeffs, basis_weights(mesh), 0)
    times = [frame.time for frame in history.frames]
    blocks = _frame_blocks(mesh.knots(), sep, "%.17g", times, values)
    _emit(args.emit_plot_data, ["x", "t", "u"], blocks, sep)


def cmd_solve(args: argparse.Namespace) -> None:
    """Write the solution at the requested times, knot by knot."""
    problem = _load_problem(args)
    mesh, history, times, positions = _march(problem, args)
    sep = _SEPARATORS[args.format]
    knots = mesh.knots()
    coeffs = np.stack([history.frames[pos].values for pos in positions])
    u = knot_values(coeffs, basis_weights(mesh), 0)
    if problem.exact is None:
        cells, values = "%.17g" + sep * 2, u  # empty exact and error cells
    else:
        exact = np.stack([sample(problem.exact, knots, t) for t in times])
        cells, values = sep.join(["%.17g"] * 3), np.stack((u, exact, u - exact), axis=-1)
    blocks = _frame_blocks(knots, sep, cells, times, values)
    _emit(args.output, ["x", "t", "u", "exact", "error"], blocks, sep)
    if args.emit_plot_data is not None:
        _write_plot_data(mesh, history, args)


def cmd_bench(args: argparse.Namespace) -> None:
    """Write error norms and stepping time per requested output time."""
    problem = _load_problem(args)
    if problem.exact is None:
        raise ConfigError(
            "bench needs an exact solution; use a built-in problem or add an "
            "'exact =' line to the config"
        )
    mesh, history, times, positions = _march(problem, args)
    sep = _SEPARATORS[args.format]
    line = sep.join(["%.17g"] * 5) + "\n"
    lines = []
    for t, pos in zip(times, positions):
        report = error_norms(history.frames[pos], problem, mesh)
        lines.append(line % (t, report.l2, report.l_inf, report.rms, history.stepping_seconds[pos]))
    _emit(args.output, ["t", "L2", "Linf", "RMS", "cpu_seconds"], lines, sep)
    if args.emit_plot_data is not None:
        _write_plot_data(mesh, history, args)


def cmd_stability(args: argparse.Namespace) -> None:
    """Scan amplification factors for one theta or a sweep of thetas."""
    domain = _parse_domain(args.domain, "--domain")
    mesh = UniformMesh(domain[0], domain[1], args.n)
    thetas = _parse_sweep(args.sweep) if args.sweep else [args.theta]

    reports = stability_sweep(args.alpha, args.beta, thetas, args.dt, mesh, args.phi_samples)
    sep = _SEPARATORS[args.format]
    line = sep.join(["%.17g"] * 6 + ["%s"]) + "\n"
    lines = (
        line % (theta, r.max_amplification, r.worst_phi, *r.rh_conditions,
                "stable" if r.stable else "unstable")
        for theta, r in zip(thetas, reports)
    )
    header = ["theta", "max_amplification", "worst_phi", "rh1", "rh2", "rh3", "verdict"]
    _emit(args.output, header, lines, sep)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--problem", type=int, help="built-in problem id (1..5)")
    which.add_argument("--config", help="path to a key = value problem file")
    parser.add_argument("--n", type=int, required=True, help="number of mesh cells")
    parser.add_argument("--dt", type=float, required=True, help="time step")
    parser.add_argument("--theta", type=float, default=0.5, help="implicitness weight (default 0.5)")
    parser.add_argument("--t-final", type=float, required=True, help="time horizon")
    parser.add_argument(
        "--times",
        help="comma-separated output times (default: t-final, or the last step before it)",
    )
    parser.add_argument(
        "--forcing-level",
        choices=("j", "theta"),
        default="j",
        help="sample the source at the old level or theta-blended (default j)",
    )
    parser.add_argument("--output", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "tsv"), default="csv")
    parser.add_argument(
        "--emit-plot-data",
        metavar="PATH",
        help="also write (x, t, u) triples on the full space-time grid",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telespline",
        description="Trigonometric B-spline collocation solver for the damped wave equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve and write u at the output times")
    _add_run_flags(solve)

    bench_help = (
        "solve and write error norms per output time; cpu_seconds is the wall time "
        "(perf_counter) the stepping loop had taken by then"
    )
    bench = sub.add_parser("bench", help=bench_help, description=bench_help)
    _add_run_flags(bench)

    stability = sub.add_parser("stability", help="von Neumann amplification scan")
    stability.add_argument("--alpha", type=float, required=True)
    stability.add_argument("--beta", type=float, required=True)
    stability.add_argument("--theta", type=float, default=0.5)
    stability.add_argument("--dt", type=float, required=True)
    stability.add_argument("--n", type=int, required=True, help="number of mesh cells")
    stability.add_argument(
        "--domain", default="0, pi", help="mesh interval, two comma-separated constants"
    )
    stability.add_argument("--phi-samples", type=int, default=721)
    stability.add_argument(
        "--sweep", metavar="theta=START:STOP:STEP", help="one row per theta value"
    )
    stability.add_argument("--output", help="output file (default stdout)")
    stability.add_argument("--format", choices=("csv", "tsv"), default="csv")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            cmd_solve(args)
        elif args.command == "bench":
            cmd_bench(args)
        else:
            cmd_stability(args)
    except SingularSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError and ExpressionError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
