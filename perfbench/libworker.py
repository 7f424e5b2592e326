"""Warm worker process for the library workload.

Started once per benchmark run with the mesh size and theta on the command
line.  It then reads one JSON request per line on stdin,
``{"steps": S, "traced": bool}``, marches built-in problem 1 for S steps of
``DT`` with ``telespline.run``, takes ``error_norms`` of the final frame, and
answers with one JSON line carrying the wall time of that call pair,
the final max-knot error, the worker's peak RSS and, when traced, the span
record.  The library is imported before the first request, so every timed
call is warm.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import telespline.metrics
import telespline.solver
from telespline import SchemeParams, UniformMesh, builtin_problem

from tracer import Tracer
from workloads import DT


def _march(problem, mesh, theta, steps):
    t_final = steps * DT
    history = telespline.solver.run(problem, mesh, SchemeParams(theta, DT, t_final), [t_final])
    return telespline.metrics.error_norms(history.frames[-1], problem, mesh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--theta", type=float, required=True)
    args = parser.parse_args()

    problem = builtin_problem(1)
    mesh = UniformMesh(problem.domain[0], problem.domain[1], args.n)
    for line in sys.stdin:
        request = json.loads(line)
        reply = {"trace": None}
        tracer = Tracer() if request["traced"] else None
        try:
            target = problem
            if tracer is not None:
                tracer.install()
                target = tracer.wrap_problem(problem)
                # rebuilding the problem re-runs its exact-solution probe
                tracer.reset()
            start = time.perf_counter()
            try:
                report = _march(target, mesh, args.theta, request["steps"])
            finally:
                reply["wall_s"] = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            reply["linf_err"] = report.l_inf
            if tracer is not None:
                reply["trace"] = tracer.snapshot()
        except Exception:  # reported to the harness, which counts the failure
            reply["error"] = traceback.format_exc()
        reply["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
