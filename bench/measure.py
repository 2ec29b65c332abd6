"""Set-up probes, the timed loop, the traced passes and the result line."""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import machine
import reference
import tracing
import workloads

SETUP_REPEATS = 7
MIN_PASSES = 2
MIN_TRACE_PASSES = 2
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# Reference blocks (see reference.py): one before each set-up probe and
# after the last, and one before the first timed call of the loop and after
# each timed call, taking TIMED_REF_SHARE of the call's time.
SETUP_REF_CHUNKS = 5
TIMED_REF_SHARE = 0.15
TIMED_REF_MIN_CHUNKS = 3
FIRST_REF_CHUNKS = 10


# A child that only imports gpmult.cli, for shipped_cli's set-up.
IMPORT_ONLY = (
    "import time; t0 = time.perf_counter(); import gpmult.cli; "
    "print('{\"import_s\": %r}' % (time.perf_counter() - t0))"
)


def measure_setup(workload, speed) -> list:
    """Set up in fresh child processes, one after another, with a reference
    block of ``speed`` before each and after the last.

    For ``shipped_cli`` set-up is the wall time of a process that only
    imports ``gpmult.cli``; otherwise it is the time, measured inside the
    child, to import gpmult and build the workload's inputs.
    """
    if workload.in_process:
        cmd = [sys.executable, str(workloads.BENCH / "setup_child.py"), workload.name]
        cmd.append(str(workload.seed))
    else:
        cmd = [sys.executable, "-c", IMPORT_ONLY]
    runs = []
    first_block = len(speed.blocks)
    for _ in range(SETUP_REPEATS):
        speed.block(0.0, SETUP_REF_CHUNKS)
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd,
            cwd=workloads.ROOT,
            env=workloads.child_env(),
            capture_output=True,
            text=True,
            timeout=workloads.CHILD_TIMEOUT_S,
            check=True,
        )
        wall = time.perf_counter() - t0
        probe = json.loads(proc.stdout.splitlines()[-1])
        probe["wall_s"] = wall
        probe["setup_s"] = probe["import_s"] + probe["build_s"] if workload.in_process else wall
        runs.append(probe)
    speed.block(0.0, SETUP_REF_CHUNKS)
    means = speed.means()[first_block:]
    for probe, s in zip(runs, reference.scaled([r["setup_s"] for r in runs], means)):
        probe["setup_scaled_s"] = s
    return runs


def warm_up(workload) -> None:
    """Interpreter, numpy and BLAS warm-up; the memo caches stay cold."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    np.linalg.eigvalsh(a + a.conj().T)
    if workload.in_process:
        workload.build_inputs()


def timed_passes(
    workload, seconds: float, min_passes: int, tracer_factory=None, speed=None
) -> list:
    """Whole passes until the next one would end past ``seconds``.

    With a tracer factory each pass runs under a fresh tracer with the
    wrappers installed, and the pass keeps its tracer.  With ``speed`` a
    reference block runs before the first timed call and after each one,
    and every pass gets its ``scaled_wall_s``: the sum of its timed calls,
    each scaled by the blocks just before and after it.
    """
    passes = []
    calls = []  # (pass index, wall) of every timed call, in order

    def after_timed(wall):
        calls.append((len(passes), wall))
        speed.block(TIMED_REF_SHARE * wall, TIMED_REF_MIN_CHUNKS)

    t_start = time.perf_counter()
    if speed is not None:
        speed.block(0.0, FIRST_REF_CHUNKS)
    while True:
        # Systems hold reference cycles; collect the last pass's before the
        # next one builds, so peak memory does not depend on the pass count.
        gc.collect()
        if tracer_factory is None:
            p = workload.run_pass(after_timed=after_timed if speed is not None else None)
        else:
            tracer = tracer_factory()
            with tracing.Instrumentation(tracer):
                p = workload.run_pass(tracer)
            p.tracer = tracer
        passes.append(p)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(q.wall_s for q in passes)
        if speed is not None:
            typical *= 1 + TIMED_REF_SHARE
        if len(passes) >= min_passes and elapsed + typical > seconds:
            break
    if speed is not None:
        scaled = reference.scaled([w for _, w in calls], speed.means())
        for k, p in enumerate(passes):
            p.scaled_wall_s = sum(s for (j, _), s in zip(calls, scaled) if j == k)
    return passes


def tail(walls: list):
    """Highest listed percentile with at least ten passes beyond it."""
    n = len(walls)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            return p, float(np.percentile(walls, p))
    return None, None


def item_times(passes: list, attr: str) -> dict:
    """Per-item timings across passes, for items that record them."""
    out: dict = {}
    for p in passes:
        for it in p.items:
            if getattr(it, attr) is not None:
                out.setdefault(it.name, []).append(getattr(it, attr))
    return out


def check_items(passes: list) -> tuple:
    """Count attempted and failed items; an item whose output differs from
    the same item in the first pass (same code, seed and thread count)
    fails too."""
    attempted = failed = 0
    problems = []
    first = {it.name: it.digest for it in passes[0].items}
    for k, p in enumerate(passes):
        for it in p.items:
            attempted += 1
            bad = list(it.problems)
            if it.digest != first.get(it.name):
                bad.append("output differs from the first pass")
            if bad:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"pass {k} {it.name}: {'; '.join(bad)}")
    return attempted, failed, problems


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.make(name, seed)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine.facts(),
    }
    setup_speed = reference.HostSpeed()
    setup = measure_setup(workload, setup_speed)
    result["setup_runs"] = setup
    warm_up(workload)
    if not trace:
        speed = reference.HostSpeed()
        passes = timed_passes(workload, seconds, MIN_PASSES, speed=speed)
        raw = [p.wall_s for p in passes]
        walls = [p.scaled_wall_s for p in passes]
        p_tail, v_tail = tail(walls)
        result["pass_wall_raw_s"] = raw
        result["pass_wall_s"] = walls
        result["item_wall_s"] = item_times(passes, "wall_s")
        result["item_report_ms"] = item_times(passes, "report_ms")
        result["tail"] = {"percentile": p_tail, "wall_s": v_tail, "passes": len(walls)}
        result["reference_chunk_s"] = {
            "nominal": reference.NOMINAL_CHUNK_S,
            "setup_blocks": setup_speed.means(),
            "timed_blocks": speed.means(),
        }
        result["raw"] = {
            "wall_s": statistics.median(raw),
            "setup_s": statistics.median(r["setup_s"] for r in setup),
        }
        result["metrics"] = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(r["setup_scaled_s"] for r in setup), "s"),
            "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        }
        checked = passes
    else:
        plain = timed_passes(workload, seconds / 2, MIN_TRACE_PASSES)
        traced = timed_passes(workload, seconds / 2, MIN_TRACE_PASSES, tracing.Tracer)
        result["metrics"], result["trace_detail"], trace_problems = layer_results(
            plain, traced, setup
        )
        # One traced pass is written out; the others are dropped with their tracers.
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        traced[0].tracer.save(workloads.OUT / f"spans-{name}-seed{seed}.npz")
        checked = plain + traced
    attempted, failed, problems = check_items(checked)
    if trace and trace_problems:
        attempted += 1
        failed += 1
        problems += trace_problems
    result.update(attempted=attempted, failed=failed, problems=problems)
    return result


def layer_results(plain: list, traced: list, setup: list) -> tuple:
    untraced_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    summaries = [p.tracer.summary() for p in traced]
    per_pass = [tracing.layer_metrics(s) for s in summaries]
    counts = tracing.exact_counts(per_pass[0])
    problems = [
        f"traced pass {k} counted different work than traced pass 0"
        for k, m in enumerate(per_pass)
        if tracing.exact_counts(m) != counts
    ]
    metrics = {}
    for key in per_pass[0]:
        if key in counts:
            metrics[key] = counts[key]
        else:
            metrics[key] = statistics.median(m[key] for m in per_pass)
    shares = []
    for s in summaries:
        buckets = tracing.module_self(s)
        total = sum(buckets.values())
        shares.append({b: t / total for b, t in buckets.items()})
    for bucket in tracing.MODULES + ("import", "bench"):
        metrics[f"{bucket}.self_share"] = statistics.median(sh.get(bucket, 0.0) for sh in shares)
    metrics["cli.import.s"] = statistics.median(r["import_s"] for r in setup)
    families = rejected = 0
    for it in traced[0].items:
        for c in it.checks:
            if c["name"] == "schwarz-inequality" and "counts" in c:
                families += c["counts"]["families"]
                rejected += c["counts"]["rejected"]
    attempts = families + rejected
    metrics["verifier.schwarz-inequality.accept_ratio"] = families / attempts if attempts else 0.0
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    units = {name: unit_of(name) for name in metrics}
    detail = {
        "untraced_pass_wall_s": [p.wall_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "module_self_s": [tracing.module_self(s) for s in summaries],
        "spans": [len(p.tracer.start) for p in traced],
    }
    return {k: (v, units[k]) for k, v in metrics.items()}, detail, problems


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    return {
        "s": "s",
        "self_s": "s",
        "overhead_s": "s",
        "untraced_wall_s": "s",
        "traced_wall_s": "s",
        "calls": "count",
        "misses": "count",
        "sequences": "count",
        "budget_retries": "count",
        "trials": "count",
        "dim_max": "count",
        "flops_computed": "flop",
        "bytes_computed": "B",
        "hit_ratio": "ratio",
        "accept_ratio": "ratio",
        "share": "ratio",
        "self_share": "ratio",
    }[stat]


def report(result: dict, args) -> None:
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    path = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    full = dict(result, metrics=metrics)
    path.write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")

    fail_frac = result["failed"] / result["attempted"]
    facts = result["machine"]
    print(
        f"machine: nproc {facts['nproc']}, python {facts['python']}, numpy {facts['numpy']}, "
        f"blas {facts['blas'].get('name')} {facts['blas'].get('version')}, "
        f"blas threads {facts['blas_threads_loaded']}"
    )
    if not args.trace:
        t = result["tail"]
        tail_text = (
            f"p{t['percentile']} {t['wall_s']:.4f} s"
            if t["percentile"] is not None
            else f"no percentile has {TAIL_BEYOND} passes beyond it"
        )
        raw = result["raw"]
        print(
            f"{args.workload}: wall_s median {metrics['wall_s']['value']:.4f} s, "
            f"{tail_text}, over {t['passes']} passes, at reference speed "
            f"(one reference chunk in {reference.NOMINAL_CHUNK_S * 1e3:g} ms)"
        )
        print(
            f"  as measured on this host: wall_s median {raw['wall_s']:.4f} s, "
            f"setup_s median {raw['setup_s']:.4f} s"
        )
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac = {fail_frac:.6g} ratio ({result['failed']} of {result['attempted']} items)")
    for line in result["problems"]:
        print(f"  problem: {line}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
