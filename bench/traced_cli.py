"""``gpmult`` command line under the benchmark's tracer, run as a child process.

Usage: python bench/traced_cli.py <trace.npz> <gpmult arguments...>

Behaves like ``python -m gpmult.cli <arguments>`` and saves its spans to the
given file at exit, with the import of ``gpmult.cli`` as span
``import.gpmult``.
"""

import time

t0 = time.perf_counter()
from gpmult import cli  # noqa: E402

t1 = time.perf_counter()

import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.add("import.gpmult", t0, t1)
    try:
        with tracing.Instrumentation(tracer):
            return cli.main(sys.argv[2:])
    finally:
        tracer.save(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
