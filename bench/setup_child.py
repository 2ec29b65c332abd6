"""Set-up probe, run as a child process: import gpmult, then build inputs.

Usage: python bench/setup_child.py <workload> <seed>

Prints one JSON line with ``import_s`` (importing ``gpmult.cli`` and the
verifier, numpy included) and ``build_s`` (generating the workload's inputs
and building its systems with ``build_scenario``).
"""

import time

t0 = time.perf_counter()
from gpmult import cli, verifier  # noqa: E402,F401

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2])).build_inputs()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
