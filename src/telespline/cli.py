"""Command-line front end for the collocation solver.

Three subcommands:

``solve``
    March a built-in or config-defined problem and write one record per
    (output time, knot) with columns ``x,t,u,exact,error``; the exact and
    error cells are empty when no exact solution is known.

``bench``
    Same march, but write error norms per requested time with the header
    ``t,L2,Linf,RMS,cpu_seconds``; cpu_seconds is the wall time the stepping
    loop alone had consumed when that time was captured.

``stability``
    Scan the amplification factor over mode angles and write
    ``theta,max_amplification,worst_phi,rh1,rh2,rh3,verdict`` (one row per
    theta when sweeping).

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
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .basis import UniformMesh, basis_weights, knot_values
from .expr import ExpressionError, parse
from .linalg import SingularSystemError
from .metrics import error_norms
from .problem import BoundaryKind, BoundarySpec, TelegraphProblem, builtin_problem, sample
from .solver import SchemeParams, SolutionHistory, output_steps, run
from .stability import stability_scan

_SEPARATORS = {"csv": ",", "tsv": "\t"}

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


@dataclass(frozen=True)
class RunConfig:
    """Everything one solve/bench invocation needs."""

    problem_id: Optional[int]
    config_path: Optional[str]
    n_cells: int
    dt: float
    theta: float
    t_final: float
    times: tuple[float, ...]
    fmt: str
    output: Optional[str]
    forcing_level: str
    plot_data: Optional[str] = None


def _format_number(value: float) -> str:
    return format(float(value), ".17g")


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
    if step <= 0:
        raise ConfigError(f"--sweep: step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"--sweep: stop {stop} is below start {start}")
    count = int((stop - start) / step + 1e-9)
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


def _load_problem(config: RunConfig) -> TelegraphProblem:
    if config.config_path is not None:
        return load_problem_config(config.config_path)
    assert config.problem_id is not None
    return builtin_problem(config.problem_id)


def _emit(path: Optional[str], header: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> None:
    sep = _SEPARATORS[fmt]
    lines = [sep.join(header)]
    lines.extend(sep.join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _march(
    problem: TelegraphProblem, config: RunConfig
) -> tuple[UniformMesh, SolutionHistory, Sequence[int]]:
    """Run the stepping loop; return the mesh, the history, and the position
    in ``history.frames`` of each of ``config.times``."""
    mesh = UniformMesh(problem.domain[0], problem.domain[1], config.n_cells)
    params = SchemeParams(config.theta, config.dt, config.t_final, config.forcing_level)
    if config.plot_data is None:
        return mesh, run(problem, mesh, params, config.times), range(len(config.times))
    # capture every level so the plot file covers the full space-time grid
    positions = output_steps(config.times, params)
    grid = [j * params.dt for j in range(params.last_step + 1)]
    return mesh, run(problem, mesh, params, grid), positions


def _write_plot_data(
    mesh: UniformMesh, history: SolutionHistory, config: RunConfig
) -> None:
    weights = basis_weights(mesh)
    x_cells = [_format_number(x) for x in mesh.knots().tolist()]
    rows = []
    for frame in history.frames:
        values = knot_values(frame.values, weights, 0)
        t_cell = _format_number(frame.time)
        for x_cell, u in zip(x_cells, values.tolist()):
            rows.append([x_cell, t_cell, _format_number(u)])
    _emit(config.plot_data, ["x", "t", "u"], rows, config.fmt)


def cmd_solve(config: RunConfig) -> None:
    """Write the solution at the requested times, knot by knot."""
    problem = _load_problem(config)
    mesh, history, positions = _march(problem, config)
    weights = basis_weights(mesh)
    knots = mesh.knots()
    x_cells = [_format_number(x) for x in knots.tolist()]

    rows = []
    for t, pos in zip(config.times, positions):
        frame = history.frames[pos]
        values = knot_values(frame.values, weights, 0).tolist()
        t_cell = _format_number(t)
        if problem.exact is None:
            exact_values = [None] * len(values)
        else:
            exact_values = sample(problem.exact, knots, t).tolist()
        for x_cell, u, exact_value in zip(x_cells, values, exact_values):
            if exact_value is None:
                exact_cell = ""
                error_cell = ""
            else:
                exact_cell = _format_number(exact_value)
                error_cell = _format_number(u - exact_value)
            rows.append([x_cell, t_cell, _format_number(u), exact_cell, error_cell])

    _emit(config.output, ["x", "t", "u", "exact", "error"], rows, config.fmt)
    if config.plot_data is not None:
        _write_plot_data(mesh, history, config)


def cmd_bench(config: RunConfig) -> None:
    """Write error norms and stepping time per requested output time."""
    problem = _load_problem(config)
    if problem.exact is None:
        raise ConfigError(
            "bench needs an exact solution; use a built-in problem or add an "
            "'exact =' line to the config"
        )
    mesh, history, positions = _march(problem, config)

    rows = []
    for t, pos in zip(config.times, positions):
        report = error_norms(history.frames[pos], problem, mesh)
        rows.append(
            [
                _format_number(t),
                _format_number(report.l2),
                _format_number(report.l_inf),
                _format_number(report.rms),
                _format_number(history.stepping_seconds[pos]),
            ]
        )

    _emit(config.output, ["t", "L2", "Linf", "RMS", "cpu_seconds"], rows, config.fmt)
    if config.plot_data is not None:
        _write_plot_data(mesh, history, config)


def cmd_stability(args: argparse.Namespace) -> None:
    """Scan amplification factors for one theta or a sweep of thetas."""
    domain = _parse_domain(args.domain, "--domain")
    mesh = UniformMesh(domain[0], domain[1], args.n)
    thetas = _parse_sweep(args.sweep) if args.sweep else [args.theta]

    rows = []
    for theta in thetas:
        report = stability_scan(
            args.alpha, args.beta, theta, args.dt, mesh, args.phi_samples
        )
        rh1, rh2, rh3 = report.rh_conditions
        rows.append(
            [
                _format_number(theta),
                _format_number(report.max_amplification),
                _format_number(report.worst_phi),
                _format_number(rh1),
                _format_number(rh2),
                _format_number(rh3),
                "stable" if report.stable else "unstable",
            ]
        )

    header = ["theta", "max_amplification", "worst_phi", "rh1", "rh2", "rh3", "verdict"]
    _emit(args.output, header, rows, args.format)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--problem", type=int, help="built-in problem id (1..5)")
    which.add_argument("--config", help="path to a key = value problem file")
    parser.add_argument("--n", type=int, required=True, help="number of mesh cells")
    parser.add_argument("--dt", type=float, required=True, help="time step")
    parser.add_argument("--theta", type=float, default=0.5, help="implicitness weight (default 0.5)")
    parser.add_argument("--t-final", type=float, required=True, help="time horizon")
    parser.add_argument(
        "--times", help="comma-separated output times (default: t-final only)"
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

    bench = sub.add_parser("bench", help="solve and write error norms per output time")
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


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    times = _parse_times(args.times) if args.times else (args.t_final,)
    return RunConfig(
        problem_id=args.problem,
        config_path=args.config,
        n_cells=args.n,
        dt=args.dt,
        theta=args.theta,
        t_final=args.t_final,
        times=times,
        fmt=args.format,
        output=args.output,
        forcing_level=args.forcing_level,
        plot_data=args.emit_plot_data,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            cmd_solve(_run_config_from_args(args))
        elif args.command == "bench":
            cmd_bench(_run_config_from_args(args))
        else:
            cmd_stability(args)
    except SingularSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
