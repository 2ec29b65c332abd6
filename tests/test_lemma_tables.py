"""The ball's standard-form table and the batched peel-first-letter check
against the per-word paths they replaced.

``WordContext.standard_form_table`` labels each ball word's letters once
per vertex and reads the class, the ball index of y c and the down-set
count off the labels; the reference builds a ``StandardForm`` and a
``multiply`` per word and counts directly.  ``verify_peel_off`` evaluates
every expression of one length in one recursion and gathers the right
sides from value and action rows; the reference folds one expression at a
time.  Arrays, residuals and counts must agree bit for bit, and the whole
lemma suite must report the same on both paths.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from gpmult import verifier
from gpmult.cli import build_scenario, load_config
from gpmult.dynamics import ActionSystem
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.multipliers import BallStack, MultiplierSystem
from gpmult.verifier import Scenario, run_suite, verify_peel_off
from gpmult.wordcraft import WordContext
from support import (
    budgeted_ball,
    groupoid_from_space,
    reference_standard_form_table,
    reference_verify_peel_off,
)
from test_composed_actions import _system_and_words
from test_multipliers import _random_system

SCENARIOS = sorted(p.stem for p in Path("scenarios").glob("*.json"))


def reference_table(self, radius, budget):
    return reference_standard_form_table(self, budgeted_ball(self, radius, budget))


def lemma_reports(sc, reference: bool) -> list:
    """The lemma suite's results as report JSON, each with the reprs of its
    certified quantities, which name every float exactly (the JSON has
    ``null`` for a NaN)."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(WordContext, "standard_form_table", reference_table)
            mp.setattr(verifier, "verify_peel_off", reference_verify_peel_off)
        results = run_suite(sc, "lemmas")
    return [(json.dumps(r.to_json()), repr(r.residual), repr(r.lambda_min)) for r in results]


def assert_paths_agree(make_scenario):
    """Table arrays, then every lemma result, on two fresh copies."""
    sc = make_scenario()
    words = sc.system.words
    table = words.standard_form_table(sc.identity_radius, sc.budget)
    ref = reference_standard_form_table(words, budgeted_ball(words, sc.identity_radius, sc.budget))
    assert len(table) == len(ref) == words.graph.n
    for got, want in zip(table, ref):
        for a, b in zip(got, want):
            assert a.dtype == np.intp and a.tolist() == b.tolist()
    assert lemma_reports(make_scenario(), False) == lemma_reports(make_scenario(), True)


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("name", SCENARIOS)
def test_committed_scenarios_agree_with_the_per_word_paths(name, seed):
    cfg = load_config(f"scenarios/{name}.json")
    assert_paths_agree(lambda: build_scenario(cfg, seed=seed))


# The kernel-identity graphs of the benchmark: three Z/3 vertices from free
# to complete, and a Z/2 path of four vertices at identity radius 4.
LEMMA_GRAPHS = (
    ("free3", "abc", (), 3, 3),
    ("edge3", "abc", (("a", "b"),), 3, 3),
    ("path3", "abc", (("a", "b"), ("b", "c")), 3, 3),
    ("triangle3", "abc", (("a", "b"), ("b", "c"), ("a", "c")), 3, 3),
    ("path4_z2", "abcd", (("a", "b"), ("b", "c"), ("c", "d")), 2, 4),
)


def lemma_config(name, vs, edges, order, radius) -> dict:
    return {
        "name": name,
        "graph": {"vertices": list(vs), "edges": [list(e) for e in edges]},
        "groups": {v: {"preset": "cyclic", "n": order} for v in vs},
        "algebra": {"blocks": [1, 1]},
        "actions": {v: {"preset": "trivial"} for v in vs},
        "multipliers": {v: {"preset": "geometric", "c": 0.15 + 0.1 * i} for i, v in enumerate(vs)},
        "verify": {"seed": 3, "identity_radius": radius},
    }


@pytest.mark.parametrize("name, vs, edges, order, radius", LEMMA_GRAPHS)
def test_lemma_graphs_agree_with_the_per_word_paths(name, vs, edges, order, radius):
    cfg = lemma_config(name, vs, edges, order, radius)
    assert_paths_agree(lambda: build_scenario(cfg))


# Ids interned by one lemma-suite run on each graph above: (when the Schwarz
# families were built as words and multiplied, now).  The complete graph's
# ball(3) is its whole group of 27 elements either way.
INTERNED_IDS = {
    "free3": (2186, 1746),
    "edge3": (1921, 1677),
    "path3": (650, 623),
    "triangle3": (27, 27),
    "path4_z2": (1555, 1453),
}


@pytest.mark.parametrize("graph", LEMMA_GRAPHS, ids=[g[0] for g in LEMMA_GRAPHS])
def test_lemma_suite_multiplies_no_word(monkeypatch, graph):
    """The Schwarz families are ball indices: a family with one c is a
    gather from the ball's stack and the others products of word ids, so
    the lemma suite calls ``multiply`` never (211-283 times per graph when
    each x_i = c_i b_i was a multiplied word) and interns fewer ids."""
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    counted(WordContext, "multiply")
    counted(BallStack, "translates")
    counted(MultiplierSystem, "id_stacks")
    sc = build_scenario(lemma_config(*graph))
    results = run_suite(sc, "lemmas")
    assert all(r.passed for r in results)
    assert calls["multiply"] == 0
    assert calls["translates"] > 0 and calls["id_stacks"] > 0  # both kinds of family
    before, now = INTERNED_IDS[graph[0]]
    assert len(sc.system.words._id_prefix) == now <= before


def _copies(system):
    """A factory of copies of a drawn system, each with cold memo tables."""
    words, actions = system.words, system.actions

    def fresh():
        ctx = WordContext(words.graph, words.groups)
        actions_copy = ActionSystem(ctx, actions.structure, actions.tables)
        return MultiplierSystem(actions_copy, system.multipliers)

    return fresh


@settings(max_examples=25, deadline=None)
@given(_random_system())
def test_random_systems_agree_with_the_per_word_paths(system):
    fresh = _copies(system)
    assert_paths_agree(lambda: Scenario("random", fresh(), identity_radius=3, tuple_target=6))


@settings(max_examples=25, deadline=None)
@given(_system_and_words())
def test_point_action_systems_agree_with_the_per_word_paths(case):
    """Point actions that do not commute across non-edges, with random
    complex values: the identities need not hold, the paths must agree."""
    fresh = _copies(case[0])
    assert_paths_agree(lambda: Scenario("points", fresh(), identity_radius=3, tuple_target=6))


def test_a_nan_value_fails_peel_first_letter_on_both_paths():
    graph = SimplicialGraph.build((0, 1), [(0, 1)])
    values = [[[1, 1, 1], [0.5, float("nan"), 0.25]], [[1, 1, 1], [0.3, 0.2, 0.1]]]
    for check in (verify_peel_off, reference_verify_peel_off):
        system = groupoid_from_space(graph, [cyclic_group(2)] * 2, 3, {}, values)
        result = check(Scenario("nan", system, identity_radius=2))
        assert np.isnan(result.residual) and not result.passed
        assert result.to_json()["details"]["non_finite"] == {"residual": "nan"}


def test_lemma_suite_labels_each_word_once_and_builds_no_form(monkeypatch):
    """One lemma-suite run labels each (x, v0) of the identity ball once;
    cross-terms and the shared-prefix bound build no ``StandardForm``, and
    no check multiplies, the Schwarz draws included."""
    sc = build_scenario(load_config("scenarios/path_mixed.json"))
    words = sc.system.words
    labels, calls, active = Counter(), Counter(), []

    def counted_labels(fn):
        def wrapped(self, vs, v0):
            labels[vs, v0] += 1
            return fn(self, vs, v0)
        return wrapped

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name, bool(active)] += 1
            return fn(*args, **kwargs)
        return wrapped

    def tagged(fn):
        def wrapped(sc):
            active.append(fn)
            try:
                return fn(sc)
            finally:
                active.pop()
        return wrapped

    label = counted_labels(WordContext._standard_labels)
    monkeypatch.setattr(WordContext, "_standard_labels", label)
    for name in ("multiply", "standard_form"):
        monkeypatch.setattr(WordContext, name, counted(name, getattr(WordContext, name)))
    for name in ("verify_cross_terms", "verify_y1_square"):
        monkeypatch.setattr(verifier, name, tagged(getattr(verifier, name)))
    results = run_suite(sc, "lemmas")
    assert all(r.passed for r in results)
    ball = words.ball(sc.identity_radius)
    assert labels == Counter((x.vertex_word, v0) for x in ball for v0 in range(words.graph.n))
    assert calls["multiply", True] == calls["standard_form", True] == 0
    assert calls["multiply", False] == 0
    words.multiply(ball[1], ball[1])
    assert calls["multiply", False] == 1  # the counter is live
