"""gpmult benchmark: one workload, one seed, a fixed measuring time.

Usage:
    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times whole passes of the workload
with tracing off and reports the end-to-end metrics.  With ``--trace 1`` it
times untraced passes for the first half of the time and traced passes for
the second half, and reports the per-layer metrics plus the tracing
overhead.  Either way every output is checked, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with the machine facts and
every pass time, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gpmult" / "cli.py").is_file():
        print(f"error: no gpmult sources under {SRC}", file=sys.stderr)
        return 2
    # The BLAS thread count must be fixed before numpy is first imported.
    import machine

    machine.fix_blas_threads()
    sys.path.insert(0, str(SRC))

    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    measure.report(result, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
