"""Time one cold set-up of an in-process workload: import ``chigenus``, then its ``prepare``.

Usage: ``probe.py WORKLOAD``; prints the seconds taken. Only the import of
the chigenus modules and ``prepare`` are timed; loading the benchmark's own
code, between the two, is not.
"""

import sys
import time

start = time.perf_counter()
# The modules inprocess.py imports, so that importing it below loads no chigenus code.
from chigenus import betti, catalog, engine, inequalities, kexpansion, localization, serialize  # noqa: E402, F401

imported = time.perf_counter() - start

import inprocess  # noqa: E402

workload = inprocess.WORKLOADS[sys.argv[1]](0, None)
start = time.perf_counter()
workload.prepare()
print(imported + time.perf_counter() - start)
