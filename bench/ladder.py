"""One-shot scale ladder: the lemma suite on one system at growing radius.

Usage: python3 bench/ladder.py [--seed N] [--out PATH]

Runs one traced ``run_suite(sc, "lemmas")`` on the one-edge system of
``lemma_ball`` (three Z/3 vertices, blocks [1, 1]) at identity_radius 2, 3
and 4, and writes the ball size, the check counts, the per-layer metrics and
the self time per module at each rung.  The committed scenarios finish in
well under a second and hide the asymptotics; the rungs show them.  Radius 4
alone takes minutes, so the ladder is not part of the gated workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RADII = (2, 3, 4)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=str(BENCH / "out" / "ladder.json"))
    args = p.parse_args(argv)

    import machine

    machine.fix_blas_threads()
    sys.path.insert(0, str(BENCH.parent / "src"))
    import tracing
    import workloads
    from gpmult import cli, verifier

    base = next(c for c in workloads.lemma_configs(args.seed) if c["name"] == "edge3")
    rungs = []
    for radius in RADII:
        cfg = json.loads(json.dumps(base))
        cfg["verify"]["identity_radius"] = radius
        sc = cli.build_scenario(cfg)
        tracer = tracing.Tracer()
        with tracing.Instrumentation(tracer):
            t0 = time.perf_counter()
            results = verifier.run_suite(sc, "lemmas")
            wall = time.perf_counter() - t0
        summary = tracer.summary()
        rung = {
            "identity_radius": radius,
            "ball": len(sc.system.words.ball(radius)),
            "traced_wall_s": wall,
            "spans": len(tracer.start),
            "checks": [r.to_json() for r in results],
            "module_self_s": tracing.module_self(summary),
            "span_total_s": summary["total_s"],
            "layers": tracing.layer_metrics(summary),
        }
        rungs.append(rung)
        print(
            f"radius {radius}: ball {rung['ball']}, traced {wall:.2f} s, "
            f"all pass {all(r.passed for r in results)}",
            flush=True,
        )
    out = {"system": base, "machine": machine.facts(), "rungs": rungs}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
