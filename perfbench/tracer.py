"""Per-module tracing for the benchmark's traced runs.

The tracer wraps the public entry points of each telespline module from the
outside: every module-level name bound to an entry point is replaced by a
timing wrapper, so calls through ``from .linalg import solve`` are caught as
well.  The problem's data callables (q, g1, g2, g1', boundary data, exact
solution) are wrapped by rebuilding the problem with ``dataclasses.replace``.

Spans are aggregated per name into (calls, inclusive seconds, self seconds),
so trace memory stays bounded however many per-knot calls a run makes.  A
span's self time is its duration minus the time spent in wrapped calls made
inside it.  An entry point whose module is loaded but no longer has it is recorded as absent and
its time lands in the self time of whichever span called it.
"""

from __future__ import annotations

import dataclasses
import sys
import time

# span name -> (module, attribute); "Class.method" patches the class
ENTRY_POINTS = {
    "linalg.solve": ("telespline.linalg", "solve"),
    "basis.basis_weights": ("telespline.basis", "basis_weights"),
    "basis.knots": ("telespline.basis", "UniformMesh.knots"),
    "basis.knot_values": ("telespline.basis", "knot_values"),
    "problem.builtin_problem": ("telespline.problem", "builtin_problem"),
    "expr.parse": ("telespline.expr", "parse"),
    "expr.evaluate": ("telespline.expr", "Expression.evaluate"),
    "solver.run": ("telespline.solver", "run"),
    "solver.initial_coefficients": ("telespline.solver", "initial_coefficients"),
    "solver.step": ("telespline.solver", "step"),
    "solver.assemble_step": ("telespline.solver", "assemble_step"),
    "metrics.error_norms": ("telespline.metrics", "error_norms"),
    "stability.stability_scan": ("telespline.stability", "stability_scan"),
    "cli.load_problem_config": ("telespline.cli", "load_problem_config"),
    "cli.cmd_solve": ("telespline.cli", "cmd_solve"),
    "cli.cmd_bench": ("telespline.cli", "cmd_bench"),
    "cli.cmd_stability": ("telespline.cli", "cmd_stability"),
}

# entry points whose result is a problem whose data callables get wrapped
_PROBLEM_FACTORIES = ("problem.builtin_problem", "cli.load_problem_config")

_PROBLEM_FIELDS = ("forcing", "initial_value", "initial_velocity", "exact", "initial_slope")


class Tracer:
    """Installs timing wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.top_s = 0.0
        self.absent: list[str] = []
        self._children: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, post=None):
        """A wrapper around ``fn`` that records one ``name`` span per call."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result if post is None else post(result)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if children:
                    children[-1] += elapsed
                else:
                    self.top_s += elapsed

        return wrapper

    def wrap_problem(self, problem):
        """The same problem with every data callable counted as ``problem.sample``."""
        wrapped = {
            field: self.wrap("problem.sample", getattr(problem, field))
            for field in _PROBLEM_FIELDS
            if getattr(problem, field) is not None
        }
        boundary = dataclasses.replace(
            problem.boundary,
            left=self.wrap("problem.sample", problem.boundary.left),
            right=self.wrap("problem.sample", problem.boundary.right),
        )
        return dataclasses.replace(problem, boundary=boundary, **wrapped)

    def reset(self) -> None:
        """Zero every span record, keeping the installed wrappers."""
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]
        self.top_s = 0.0

    def install(self) -> None:
        """Replace every entry point in every loaded telespline module."""
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "telespline" or name.startswith("telespline."))
        ]
        for span, (module_name, attribute) in ENTRY_POINTS.items():
            module = sys.modules.get(module_name)
            if module is None:  # not imported by this process, so never called
                continue
            owner, _, name = attribute.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, name, None)
            if original is None:
                self.absent.append(span)
                continue
            post = self.wrap_problem if span in _PROBLEM_FACTORIES else None
            wrapper = self.wrap(span, original, post)
            if owner:
                self._patch(holder, name, wrapper)
                continue
            for namespace in loaded:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, wrapper)

    def _patch(self, holder, name, wrapper) -> None:
        self._restore.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        """Put back every original entry point."""
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    def snapshot(self) -> dict:
        """JSON-ready record of the spans collected so far."""
        return {
            "spans": {name: list(stats) for name, stats in self.spans.items()},
            "top_s": self.top_s,
            "absent": sorted(set(self.absent)),
        }
