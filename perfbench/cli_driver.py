"""Run ``genus`` once with spans or call counts, from a process of the benchmark's own.

Usage: ``cli_driver.py REPORT SPAWNED MODE ARGS...``. ``SPAWNED`` is the
parent's ``time.perf_counter()`` just before it started this process (the
clock is system-wide on Linux), ``MODE`` is ``traced`` or ``counted``. The
CLI's stdout, stderr and exit code pass through unchanged; the spans, the
start-up time and the call counts go to the JSON file ``REPORT``.

The start-up time runs from the spawn to the end of ``build_parser``: the
interpreter, importing ``chigenus.cli`` and this driver's ``tracing`` module
(whose standard imports the CLI loads too), and the parser, less the time
the tracer takes to rebind the package's names.
"""

import json
import sys
import time

from tracing import Tracer, call_counts

from chigenus import cli


def main() -> int:
    report, spawned, mode, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    tracer = Tracer()
    tracer.op = 0
    counts = {}
    installing = 0.0
    if mode == "counted":
        import cProfile

        profiler = cProfile.Profile()
        code = profiler.runcall(cli.main, argv)
        counts = call_counts(profiler)
    else:
        begun = time.perf_counter()
        tracer.install()
        installing = time.perf_counter() - begun
        code = cli.main(argv)
        tracer.uninstall()
    parser_end = next((s[2] for s in tracer.spans if s[0] == "cli.build_parser"), None)
    startup = parser_end - spawned - installing if parser_end is not None else None
    with open(report, "w") as handle:
        json.dump({"spans": tracer.spans, "startup": startup, "counts": counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
