"""Tests of the benchmark itself.  Run with ``python -m pytest bench``.

They check that every timed call starts from cold memo caches, that two
traced runs with one seed count exactly the same work, that the expectation
table catches a changed verdict, and that the benchmark refuses to run
without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import machine  # noqa: E402

machine.fix_blas_threads()

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IN_PROCESS = ("lemma_ball", "gram_wide", "word_stream")


def _scenarios(inputs):
    return inputs if isinstance(inputs, list) else [inputs]


@pytest.mark.parametrize("name", IN_PROCESS)
def test_caches_empty_before_each_timed_call(name):
    w = workloads.make(name, 4)
    inputs = w.build_inputs()
    first = _scenarios(inputs)
    again = _scenarios(w.build_inputs())
    for a, b in zip(first, again):
        assert a.system is not b.system
        assert workloads.caches_empty(a.system) and workloads.caches_empty(b.system)
    # The check sees a warm cache, and a pass refuses to time one.
    warm = first[0].system
    x = warm.words.ball(1)[-1]
    warm.kernel(x, x)
    assert not workloads.caches_empty(warm)
    w.build_inputs = lambda: inputs
    with pytest.raises(RuntimeError, match="caches are warm"):
        w.run_pass()


def _traced_counts(name, seed):
    w = workloads.make(name, seed)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        p = w.run_pass(tracer)
    assert all(item.ok for item in p.items), [i.problems for i in p.items if not i.ok]
    return tracing.exact_counts(tracing.layer_metrics(tracer.summary()))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_two_traced_runs(name):
    from gpmult import wordcraft

    original = wordcraft.WordContext.normalize
    a = _traced_counts(name, 11)
    b = _traced_counts(name, 11)
    assert a == b
    assert any(v > 0 for k, v in a.items() if k.endswith(".calls"))
    assert wordcraft.WordContext.normalize is original


def test_expectation_table_catches_a_changed_verdict():
    want = workloads.load_expect()["shipped_cli"]["sabotage_nonpd"]["checks"]
    got = []
    for row in want:
        check = {"name": row["name"], "pass": row["pass"], "vacuous": row["vacuous"]}
        for path, val in row.get("pinned", {}).items():
            head, _, leaf = path.rpartition(".")
            (check.setdefault(head, {}) if head else check)[leaf] = val
        got.append(check)
    assert workloads.compare_checks(got, want) == []
    got[0]["pass"] = True
    assert workloads.compare_checks(got, want) == ["setup: pass=True"]
    got[0]["pass"] = False
    got[3]["counts"]["pairs"] += 1
    assert len(workloads.compare_checks(got, want)) == 1


def test_float_tolerance_allows_last_bits_only():
    assert workloads.same_value(0.369026582447651, 0.3690265824476532)
    assert not workloads.same_value(0.3690, 0.3691)
    assert not workloads.same_value(1, True)


def test_scaling_uses_the_blocks_around_each_value():
    nominal = reference.NOMINAL_CHUNK_S
    means = [nominal, nominal, 2 * nominal, 2 * nominal]
    assert reference.scaled([1.0, 3.0, 4.0], means) == [1.0, 2.0, 2.0]
    with pytest.raises(ValueError):
        reference.scaled([1.0, 3.0], means)


def test_reference_blocks_repeat_the_same_work():
    speed = reference.HostSpeed()
    speed.block(0.0, 2)
    speed.block(0.0, 3)
    assert [len(b) for b in speed.blocks] == [2, 3]
    assert all(m > 0 for m in speed.means())
    assert reference.chunk() == reference.CHUNK_CHECKSUM


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "word_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
