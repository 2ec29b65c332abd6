"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files by wrapping public
functions of the ``gpmult`` modules; nothing inside the package changes.
Each span stores its name, start, end and parent span in flat arrays, so a
traced pass with several hundred thousand calls stays at about 24 bytes per
span.  Counts (cache misses, rearrangement sequences, closure retries,
trials, eigensolve sizes, computed flops and bytes) are taken at the same
boundaries.  Spans stay in memory until the run writes them out at exit.

Self time of a span is its duration minus the time covered by its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "verifier", "wordcraft", "dynamics", "multipliers", "matalg", "cocycles")

# run_suite names each check itself; the wrappers reuse those names.
CHECK_NAMES = {
    "verify_setup": "setup",
    "verify_well_defined": "product-well-defined",
    "verify_main_theorem": "kernel-gram-positive",
    "verify_star_symmetry": "kernel-star-symmetry",
    "verify_peel_off": "peel-first-letter",
    "verify_drop_last": "drop-last-letter",
    "verify_cross_terms": "cross-terms",
    "verify_schwarz": "schwarz-inequality",
    "verify_y1_square": "shared-prefix-square-bound",
    "verify_witness": "haagerup-witness",
    "verify_cocycles": "cocycle-modules",
}
SUITES = ("main", "lemmas", "haagerup", "cocycles")

COCYCLE_FUNCTIONS = (
    "gns_build",
    "cocycle_build",
    "cocycle_identity_residual",
    "squared_norm_residual",
    "schoenberg_multiplier",
    "schoenberg_is_pd",
    "negative_definite_check",
)

# LAPACK zheevd without vectors: the Householder tridiagonal reduction
# dominates at 16/3 n^3 real flops (LAWN 41).
HERMITIAN_EIG_FLOPS = 16.0 / 3.0
COMPLEX_BYTES = 16


class Tracer:
    """Spans and counters of one traced pass (or a merge of several processes)."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self._stack = [-1]

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured before the tracer existed, under the open span."""
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name_id[top]]

    # -- persistence and merging --------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count_keys=np.array(list(self.counts), dtype=str),
            count_vals=np.array(list(self.counts.values()), dtype=np.int64),
            max_keys=np.array(list(self.maxima), dtype=str),
            max_vals=np.array(list(self.maxima.values()), dtype=np.int64),
        )

    def merge_file(self, path, parent_span: int) -> None:
        """Append the spans another process saved, under one of ours.

        ``time.perf_counter`` reads the system-wide monotonic clock on
        Linux, so start and end times of both processes are comparable.
        """
        with np.load(path) as z:
            remap = np.array([self._id(str(n)) for n in z["names"]], dtype=np.int32)
            parent = z["parent"]
            parent = np.where(parent < 0, parent_span, parent + len(self.start))
            self.name_id.extend(remap[z["name_id"]].astype(np.int32).tolist())
            self.parent.extend(parent.astype(np.int32).tolist())
            self.start.extend(z["start"].tolist())
            self.end.extend(z["end"].tolist())
            for k, v in zip(z["count_keys"], z["count_vals"]):
                self.counts[str(k)] += int(v)
            for k, v in zip(z["max_keys"], z["max_vals"]):
                self.maxima[str(k)] = max(self.maxima[str(k)], int(v))

    # -- aggregation --------------------------------------------------

    def summary(self) -> dict:
        """Per-name span counts, inclusive and self seconds, plus counters."""
        n = len(self.start)
        out = {"calls": {}, "total_s": {}, "self_s": {}}
        if n == 0:
            return out | {"counts": dict(self.counts), "maxima": dict(self.maxima)}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - covered
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        selfs = np.bincount(name_id, weights=self_t, minlength=k)
        for i, name in enumerate(self.names):
            out["calls"][name] = int(calls[i])
            out["total_s"][name] = float(total[i])
            out["self_s"][name] = float(selfs[i])
        out["counts"] = dict(self.counts)
        out["maxima"] = dict(self.maxima)
        return out


# ----------------------------------------------------------------------
# wrappers


def _plain(tracer, name, fn, count=None):
    """Span around ``fn``; ``count(result)`` runs after a successful call."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(out)
        return out

    return wrapped


def _adder(tracer, key, amount):
    def count(out):
        tracer.counts[key] += amount(out)

    return count


def _cache_growth(tracer, name, fn, cache_of):
    """Span plus a miss count: a call that grew the memo dict was a miss."""

    @functools.wraps(fn)
    def wrapped(self, *args, **kwargs):
        cache = cache_of(self)
        before = len(cache)
        idx = tracer.open(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.counts[name + ".misses"] += len(cache) - before

    return wrapped


def _complete_closure(tracer, fn, budget_error):
    name = "wordcraft.complete_closure"

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        except budget_error:
            tracer.counts[name + ".budget_retries"] += 1
            raise
        finally:
            tracer.close(idx)

    return wrapped


def _eigvalsh(tracer, fn):
    """numpy's eigvalsh, counted only where matalg.is_positive calls it."""
    name = "matalg.eigvalsh"

    @functools.wraps(fn)
    def wrapped(a, *args, **kwargs):
        if tracer.current() != "matalg.is_positive":
            return fn(a, *args, **kwargs)
        n = int(np.shape(a)[-1])
        idx = tracer.open(name)
        try:
            return fn(a, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.counts[name + ".flops_computed"] += int(HERMITIAN_EIG_FLOPS * n**3)
            tracer.maxima[name + ".dim_max"] = max(tracer.maxima[name + ".dim_max"], n)

    return wrapped


def _run_suite(tracer, fn):
    @functools.wraps(fn)
    def wrapped(sc, suite, *args, **kwargs):
        idx = tracer.open(f"verifier.suite.{suite}")
        try:
            return fn(sc, suite, *args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapped


class Instrumentation:
    """Installs the wrappers on entry and restores every original on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapped, modules):
        """Point every module that imported ``fn`` by name at the wrapper."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapped)

    def __enter__(self):
        from gpmult import cli, cocycles, dynamics, matalg, multipliers, verifier, wordcraft
        from gpmult.errors import BudgetExceededError

        t = self.tracer
        mods = (cli, verifier, wordcraft, dynamics, multipliers, matalg, cocycles)
        wc = wordcraft.WordContext
        for meth in ("normalize", "multiply", "inverse", "standard_form", "ball"):
            self._set(wc, meth, _plain(t, f"wordcraft.{meth}", wc.__dict__[meth]))
        self._set(
            wc,
            "rearrangements",
            _plain(
                t,
                "wordcraft.rearrangements",
                wc.__dict__["rearrangements"],
                _adder(t, "wordcraft.rearrangements.sequences", len),
            ),
        )
        self._set(
            wc,
            "complete_closure",
            _complete_closure(t, wc.__dict__["complete_closure"], BudgetExceededError),
        )

        acts = dynamics.ActionSystem
        self._set(acts, "act_word", _plain(t, "dynamics.act_word", acts.__dict__["act_word"]))
        wa = dynamics.WordAction
        self._set(wa, "on_central", _plain(t, "dynamics.on_central", wa.__dict__["on_central"]))

        kt = multipliers.KernelTable
        self._set(
            kt, "get", _cache_growth(t, "multipliers.kernel", kt.__dict__["get"], lambda s: s.cache)
        )
        ms = multipliers.MultiplierSystem
        self._set(
            ms,
            "gp_value",
            _cache_growth(
                t, "multipliers.gp_value", ms.__dict__["gp_value"], lambda s: s._value_cache
            ),
        )
        for meth in ("gp_value_letters", "kernel_matrix"):
            self._set(ms, meth, _plain(t, f"multipliers.{meth}", ms.__dict__[meth]))

        om = matalg.OperatorMatrix
        fcg = om.__dict__["from_central_grid"].__func__
        self._set(
            om, "from_central_grid", classmethod(_plain(t, "matalg.from_central_grid", fcg))
        )
        self._set(
            om,
            "flatten",
            _plain(
                t,
                "matalg.flatten",
                om.__dict__["flatten"],
                _adder(t, "matalg.flatten.bytes_computed", lambda out: out.size * COMPLEX_BYTES),
            ),
        )
        self._rebind(
            matalg.is_positive, _plain(t, "matalg.is_positive", matalg.is_positive), mods
        )
        self._set(np.linalg, "eigvalsh", _eigvalsh(t, np.linalg.eigvalsh))

        trials = _adder(t, "cocycles.negative_definite_check.trials", lambda rep: rep.trials)
        for name in COCYCLE_FUNCTIONS:
            fn = getattr(cocycles, name)
            count = trials if name == "negative_definite_check" else None
            self._rebind(fn, _plain(t, f"cocycles.{name}", fn, count), mods)

        for fname, check in CHECK_NAMES.items():
            fn = getattr(verifier, fname)
            self._rebind(fn, _plain(t, f"verifier.{check}", fn), mods)
        self._rebind(verifier.run_suite, _run_suite(t, verifier.run_suite), mods)

        for fname in ("build_scenario", "load_config", "main"):
            fn = getattr(cli, fname)
            self._rebind(fn, _plain(t, f"cli.{fname}", fn), mods)
        return t

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)
        return False


# ----------------------------------------------------------------------
# per-layer metrics


# Layers that run in every workload, reported in seconds.  Every other layer
# is absent from some workload, where a time would read 0 on every run, so
# its seconds are reported as a share of the traced pass instead.
TIMED_EVERYWHERE = frozenset(
    {
        "cli.build_scenario.s",
        "wordcraft.normalize.self_s",
        "dynamics.on_central.self_s",
        "multipliers.gp_value_letters.self_s",
    }
)


def layer_metrics(summary: dict) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    calls = summary["calls"]
    total = summary["total_s"]
    selfs = summary["self_s"]
    counts = summary["counts"]
    maxima = summary["maxima"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    def ss(name):
        return selfs.get(name, 0.0)

    m = {}
    m["cli.build_scenario.s"] = s("cli.build_scenario")
    for check in CHECK_NAMES.values():
        m[f"verifier.{check}.s"] = s(f"verifier.{check}")
    for suite in SUITES:
        m[f"verifier.suite.{suite}.s"] = s(f"verifier.suite.{suite}")
    for f in ("normalize", "multiply", "inverse", "rearrangements", "standard_form"):
        m[f"wordcraft.{f}.calls"] = c(f"wordcraft.{f}")
    m["wordcraft.rearrangements.sequences"] = counts.get("wordcraft.rearrangements.sequences", 0)
    for f in ("normalize", "standard_form", "ball", "complete_closure"):
        m[f"wordcraft.{f}.self_s"] = ss(f"wordcraft.{f}")
    m["wordcraft.complete_closure.budget_retries"] = counts.get(
        "wordcraft.complete_closure.budget_retries", 0
    )
    m["dynamics.act_word.calls"] = c("dynamics.act_word")
    m["dynamics.on_central.self_s"] = ss("dynamics.on_central")
    for f in ("kernel", "gp_value"):
        m[f"multipliers.{f}.calls"] = c(f"multipliers.{f}")
        m[f"multipliers.{f}.misses"] = counts.get(f"multipliers.{f}.misses", 0)
    kc = c("multipliers.kernel")
    m["multipliers.kernel.hit_ratio"] = (
        1.0 - m["multipliers.kernel.misses"] / kc if kc else 0.0
    )
    m["multipliers.gp_value_letters.self_s"] = ss("multipliers.gp_value_letters")
    m["multipliers.kernel_matrix.s"] = s("multipliers.kernel_matrix")
    m["matalg.is_positive.calls"] = c("matalg.is_positive")
    m["matalg.is_positive.self_s"] = ss("matalg.is_positive")
    m["matalg.from_central_grid.self_s"] = ss("matalg.from_central_grid")
    m["matalg.eigvalsh.calls"] = c("matalg.eigvalsh")
    m["matalg.eigvalsh.self_s"] = ss("matalg.eigvalsh")
    m["matalg.flatten.self_s"] = ss("matalg.flatten")
    m["matalg.eigvalsh.dim_max"] = maxima.get("matalg.eigvalsh.dim_max", 0)
    m["matalg.eigvalsh.flops_computed"] = counts.get("matalg.eigvalsh.flops_computed", 0)
    m["matalg.flatten.bytes_computed"] = counts.get("matalg.flatten.bytes_computed", 0)
    m["cocycles.negative_definite_check.self_s"] = ss("cocycles.negative_definite_check")
    m["cocycles.negative_definite_check.trials"] = counts.get(
        "cocycles.negative_definite_check.trials", 0
    )
    m["cocycles.gns_build.s"] = s("cocycles.gns_build")
    m["cocycles.schoenberg_is_pd.s"] = s("cocycles.schoenberg_is_pd")

    pass_s = sum(selfs.values())
    out = {}
    for key, val in m.items():
        if key.endswith((".s", ".self_s")) and key not in TIMED_EVERYWHERE:
            stem, stat = key.rsplit(".", 1)
            key = f"{stem}.{'share' if stat == 's' else 'self_share'}"
            val = val / pass_s if pass_s else 0.0
        out[key] = val
    return out


def module_self(summary: dict) -> dict:
    """Self seconds per bucket: the seven modules, child-process imports
    (``import``) and the benchmark's own glue and process start-up (``bench``)."""
    out = defaultdict(float)
    for name, t in summary["self_s"].items():
        out[name.split(".", 1)[0]] += t
    return dict(out)


# Counters that must repeat exactly between two traced passes of one seed.
EXACT_COUNT_SUFFIXES = (
    ".calls",
    ".misses",
    ".sequences",
    ".budget_retries",
    ".trials",
    ".dim_max",
    ".flops_computed",
    ".bytes_computed",
)


def exact_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(EXACT_COUNT_SUFFIXES)}
