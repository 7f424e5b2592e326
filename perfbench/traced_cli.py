"""Run the telespline command line once with the tracer installed.

    python traced_cli.py TRACE_JSON [telespline arguments ...]
    python traced_cli.py --off [telespline arguments ...]

Behaves like ``python -m telespline ...`` except that the module entry
points are wrapped before ``main`` runs and the span record, including the
time ``import telespline.cli`` took (span ``import.telespline``), is written to TRACE_JSON.
With ``--off`` the tracer is not installed and nothing is written: the same
launcher untraced, which is the reference for the tracer's overhead.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import telespline.cli

    import_s = time.perf_counter() - start
    if trace_path == "--off":
        return telespline.cli.main(argv)
    tracer = Tracer()
    tracer.install()
    try:
        status = telespline.cli.main(argv)
    finally:
        tracer.uninstall()
    record = tracer.snapshot()
    record["spans"]["import.telespline"] = [1, import_s, import_s]
    record["top_s"] += import_s
    with open(trace_path, "w") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
