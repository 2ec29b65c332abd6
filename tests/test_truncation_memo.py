"""Truncations, closures and the truncation order against the enumerating
oracle.

``WordContext`` reads the immediate truncations of a word off its letter
order and memoizes them per word, and the standard-form search skips splits
above the best one and builds forms only there.  The oracle is the search
without either: every truncation step re-enumerates the rearrangement class
and re-pushes r[1:] and r[:-1] (``support.oracle_truncations``), and every
split at every y length is tested (each distinct y a once, against the
down-set of x, collected once that way).  Results must agree exactly, and a
warm memo must raise the same budget errors as a cold search.  The same
oracle checks the standard forms and down-set maxima that ``WordContext``
reads off the letter order with no search.
"""

from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gpmult.cli import build_scenario, load_config
from gpmult.errors import BudgetExceededError, GPMultError, NoV0LetterError
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.multipliers import MultiplierSystem
from gpmult.verifier import (
    SUITES,
    Scenario,
    run_all,
    run_suite,
    verify_cross_terms,
    verify_peel_off,
    verify_well_defined,
    verify_witness,
    verify_y1_square,
)
from gpmult.wordcraft import DEFAULT_BUDGET, StandardForm, WordContext
from support import generators, k4_z2_config, leq, nc_direct, nc_length_set, oracle_truncations, reference_push
from test_composed_actions import _system_and_words

SCENARIOS = sorted(Path(__file__).resolve().parents[1].glob("scenarios/*.json"))


# ----------------------------------------------------------------------
# oracle


def oracle_leq(words, x, y, budget=DEFAULT_BUDGET):
    if x == y:
        return True
    if len(x) >= len(y):
        return False
    seen = {y}
    frontier = deque([y])
    while frontier:
        z = frontier.popleft()
        for t in oracle_truncations(words, z, budget):
            if t == x:
                return True
            if t not in seen:
                seen.add(t)
                if len(seen) > budget:
                    raise BudgetExceededError(
                        "truncation search exceeds budget", budget=budget, seen=len(seen)
                    )
                if len(t) > len(x):
                    frontier.append(t)
    return False


def _sort_key(x):
    return (len(x.letters), x.letters)


def oracle_closure(words, elements, budget=DEFAULT_BUDGET):
    out = {words.normalize([]), *elements}
    todo = deque(sorted(out, key=_sort_key))
    while todo:
        for t in oracle_truncations(words, todo.popleft(), budget):
            if t not in out:
                out.add(t)
                todo.append(t)
    return tuple(sorted(out, key=_sort_key))


def oracle_downset_nc_max(words, x, v0, budget=DEFAULT_BUDGET):
    return nc_length_set(words, oracle_closure(words, [x], budget), v0)


def oracle_standard_form_candidates(words, x, v0, budget=DEFAULT_BUDGET):
    """Every admissible split at every y length; the forms at the least.

    The down-set of x is collected once, so whether y a lies below x is a
    membership test: the down-set is the closure of x under truncation,
    and it holds the identity, which every nonempty word is above.  Each
    distinct y a is pushed and tested once, and forms are built only for
    the splits at the least admissible |y|.
    """
    if v0 not in x.vertex_word:
        raise NoV0LetterError("element has no letter at the vertex", v0=v0)
    adjacent = words.graph.adjacent
    below = oracle_closure(words, [x], budget)
    n_target = nc_length_set(words, below, v0)
    below = set(below)
    cands = []
    for r in words._rearrangements_seq(x.letters, budget):
        for i, letter in enumerate(r):
            if letter.vertex != v0:
                continue
            count = sum(1 for m in r[:i] if not adjacent(m.vertex, v0))
            if count == n_target:
                cands.append((r[:i], letter, r[i + 1 :]))
    if not cands:
        raise GPMultError("no split realizes the down-set maximum", word=x.letters, v0=v0)
    min_b = min(len(b) for (_, _, b) in cands)
    cands = [c for c in cands if len(c[2]) == min_b]
    admissible = {}  # (y letters, a) -> whether y a is reduced with count n and below x
    splits = []  # (y letters, c letters, a, b letters) of every admissible split
    for prefix, letter, b in cands:
        for rp in words._rearrangements_seq(tuple(prefix), budget):
            for j in range(len(rp) + 1):
                key = (rp[:j], letter)
                ok = admissible.get(key)
                if ok is None:
                    y_vw = tuple(m.vertex for m in rp[:j]) + (v0,)
                    ok = admissible[key] = (
                        words.is_reduced(y_vw)
                        and nc_direct(words, y_vw, v0) == n_target
                        and reference_push(words, rp[:j] + (letter,)) in below
                    )
                if ok:
                    splits.append((rp[:j], rp[j:], letter, b))
    if not splits:
        raise GPMultError("no admissible y split found", word=x.letters, v0=v0)
    best = min(len(y) for y, _, _, _ in splits)
    return {
        StandardForm(
            y=reference_push(words, y),
            c=reference_push(words, c),
            a=letter,
            b=reference_push(words, b),
            v0=v0,
            nc=n_target,
        )
        for y, c, letter, b in splits
        if len(y) == best
    }


# ----------------------------------------------------------------------
# differential tests


def assert_matches_oracle(words, elements):
    """Down-set maxima, closures, the order and standard forms of each
    element, on one context whose memo warms as the elements go by."""
    for x in elements:
        closure = oracle_closure(words, [x])
        assert words.complete_closure([x]) == closure
        for v0 in range(words.graph.n):
            assert words.downset_nc_max(x, v0) == oracle_downset_nc_max(words, x, v0)
            if v0 in x.vertex_word:
                forms = oracle_standard_form_candidates(words, x, v0)
                assert words.standard_form_candidates(x, v0) == forms
                assert {words.standard_form(x, v0)} == forms
        for t in closure:
            assert leq(words, t, x)
        for y in elements:
            assert leq(words, y, x) == oracle_leq(words, y, x)
    assert words.complete_closure(elements) == oracle_closure(words, elements)


def _grown_word(words, rng, m):
    """A reduced word of at most m letters: the identity, lengthened by
    random generators, at most 4 m draws; random raw words mostly cancel
    to a few letters."""
    gens = generators(words)
    x = words.normalize([])
    for _ in range(4 * m if gens else 0):
        y = words.multiply(x, words.normalize([gens[int(rng.integers(0, len(gens)))]]))
        if len(y) > len(x):
            x = y
            if len(x) == m:
                break
    return x


@st.composite
def _context_and_words(draw):
    """At most 5 vertices with random edges, cyclic groups of order 1 to 4,
    and up to three words grown from a drawn seed to random lengths of 0
    to 8 letters."""
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    orders = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    words = WordContext(SimplicialGraph.build(list(range(n)), edges), [cyclic_group(k) for k in orders])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 3))
    return words, [_grown_word(words, rng, int(rng.integers(0, 9))) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(_context_and_words())
def test_memoized_searches_match_the_oracle(case):
    words, elements = case
    assert_matches_oracle(words, elements)


@settings(max_examples=30, deadline=None)
@given(_system_and_words())
def test_memoized_searches_match_the_oracle_under_point_actions(case):
    """Systems whose point actions do not commute across non-edges: the
    words of the draw, then every ball word after the lemma suite has run
    on the system, so the memo is the one the checks left behind."""
    system, raws, _ = case
    words = system.words
    assert_matches_oracle(words, [words.normalize(raw[:6]) for raw in raws])
    sc = Scenario(name="points", system=system, identity_radius=2, tuple_target=4)
    run_suite(sc, "lemmas")
    for x in words.ball(2):
        for v0 in range(words.graph.n):
            if v0 in x.vertex_word:
                assert {words.standard_form(x, v0)} == oracle_standard_form_candidates(words, x, v0)


@st.composite
def _long_word_and_a_vertex(draw):
    """2 to 6 vertices with random edges, Z/2 or Z/3 at each, a word grown
    from a drawn seed to a random length of 1 to 12 letters, and a
    vertex."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    orders = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    words = WordContext(SimplicialGraph.build(list(range(n)), edges), [cyclic_group(k) for k in orders])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _grown_word(words, rng, int(rng.integers(1, 13)))
    return words, x, int(rng.integers(0, n))


@settings(max_examples=60, deadline=None)
@given(_long_word_and_a_vertex())
def test_letter_order_forms_match_the_exhaustive_search(case):
    """``standard_form`` and ``downset_nc_max`` read the last v0 letter and
    the chains of letters not joined off the canonical word; the oracle
    searches every rearrangement and the whole down-set.  Its cost grows
    with the rearrangement class (up to 0.7 s per pair near 500 sequences,
    2 s near 1,000), so words with more than 500 are rejected."""
    words, x, v0 = case
    try:
        words.rearrangements(x, budget=500)
    except BudgetExceededError:
        reject()
    assert words.downset_nc_max(x, v0) == oracle_downset_nc_max(words, x, v0)
    if v0 in x.vertex_word:
        assert {words.standard_form(x, v0)} == oracle_standard_form_candidates(words, x, v0)
    else:
        with pytest.raises(NoV0LetterError):
            words.standard_form(x, v0)


@settings(max_examples=100, deadline=None)
@given(_long_word_and_a_vertex())
def test_letter_order_truncations_match_the_enumeration(case):
    """The truncations read off the letter order, cold and memoized, are
    r[1:] and r[:-1] over the rearrangements r; words with more than 500
    are rejected, as in the standard-form test."""
    words, x, _ = case
    try:
        want = oracle_truncations(words, x, budget=500)
    except BudgetExceededError:
        reject()
    i = words.intern(x.letters)
    got = words._truncation_ids(i)
    assert len(got) == len(want) and {words._element(t) for t in got} == want
    assert words._truncation_ids(i) is got


def test_verify_lists_no_rearrangement_class(monkeypatch):
    """Every suite on every committed scenario reads truncations, forms
    and the expressions of its balls off the letter order: ``verify``
    enumerates no rearrangement class."""
    calls = []
    search = WordContext._rearrangements_seq

    def counted(self, letters, budget):
        calls.append(letters)
        return search(self, letters, budget)

    monkeypatch.setattr(WordContext, "_rearrangements_seq", counted)
    assert len(SCENARIOS) == 9
    for path in SCENARIOS:
        report = run_all(build_scenario(load_config(str(path))))
        assert {check["suite"] for check in report["checks"]} == set(SUITES)
    assert calls == []


def test_cross_terms_and_shared_prefix_enumerate_no_rearrangements(monkeypatch):
    """Once the ball stack exists, the two standard-form checks list no
    rearrangement class: forms and down-set maxima come off the letters.
    product-well-defined, peel-first-letter and haagerup-witness read the
    expression table and the ball's rows, so they list none either and
    evaluate no word or expression one at a time."""
    calls = []
    search = WordContext._rearrangements_seq

    def counted(self, letters, budget):
        calls.append(letters)
        return search(self, letters, budget)

    monkeypatch.setattr(WordContext, "_rearrangements_seq", counted)
    for meth in ("gp_value", "gp_value_letters"):
        monkeypatch.setattr(MultiplierSystem, meth, lambda *args, meth=meth: calls.append(meth))
    sc = build_scenario(load_config("scenarios/path_mixed.json"))
    sc.system.ball_stack(sc.identity_radius, sc.budget)
    for check in (verify_cross_terms, verify_y1_square, verify_well_defined, verify_peel_off):
        result = check(sc)
        assert result.passed and not result.vacuous
    sc = build_scenario(load_config("scenarios/free_pair_z2.json"))
    result = verify_witness(sc)
    assert result.passed and not result.vacuous
    assert calls == []
    sc.system.words.rearrangements(sc.system.words.ball(2)[-1])  # the counters see a search
    sc.system.gp_value(sc.system.words.normalize([]))  # and an evaluation
    assert calls[:-1] and calls[-1] == "gp_value"


# ----------------------------------------------------------------------
# budgets


def k4_z2():
    """(Z/2)^4 on the complete graph K4 at identity radius 4, as in the
    lemma budget test: the class of abcd has 24 sequences."""
    return build_scenario(k4_z2_config(identity_radius=4, budget=20))


def budget_error(search):
    with pytest.raises(BudgetExceededError) as err:
        search()
    return str(err.value), err.value.context


def test_warm_truncation_memo_keeps_budget_errors():
    """The standard-form search enumerates the class of x, which its
    budget bounds whatever the memo holds."""
    cold, warm = k4_z2().system.words, k4_z2().system.words
    abcd = [w.normalize([(v, 1) for v in range(4)]) for w in (cold, warm)]
    a = warm.normalize([(0, 1)])
    # warm: every truncation of abcd memoized
    assert len(warm.complete_closure([abcd[1]])) == 16
    assert leq(warm, a, abcd[1])
    assert warm.intern(abcd[1].letters) in warm._truncations
    word = [(v, 1) for v in range(4)]
    # budgets below 2 are first checked at the second sequence
    for budget, sequences in ((0, 2), (1, 2), (20, 21), (23, 24)):
        message, context = budget_error(lambda: cold.standard_form_candidates(abcd[0], 0, budget))
        assert message.startswith("rearrangement class exceeds budget")
        assert context == {"budget": budget, "word": word, "sequences": sequences}
        assert budget_error(lambda: warm.standard_form_candidates(abcd[1], 0, budget)) == (message, context)
    assert leq(warm, a, abcd[1], budget=24)
    assert warm.standard_form_candidates(abcd[1], 0, budget=24)


def test_warm_ball_memo_keeps_budget_errors():
    graph = SimplicialGraph.build(["p", "q", "r"], [("p", "q"), ("q", "r"), ("p", "r")])
    warm = WordContext(graph, [cyclic_group(2)] * 3)
    assert len(warm.ball(4)) == 8
    for budget, radius, words in ((0, 1, 2), (3, 1, 4), (5, 2, 6), (7, 3, 8)):
        cold = WordContext(graph, [cyclic_group(2)] * 3)
        want = budget_error(lambda: cold.ball(4, budget=budget))
        assert want[1] == {"budget": budget, "radius_reached": radius, "words": words}
        assert budget_error(lambda: warm.ball(4, budget=budget)) == want
    assert len(warm.ball(4, budget=8)) == 8


def test_shared_ball_stack_is_read_only_and_built_once():
    sc = k4_z2()
    sc.budget = DEFAULT_BUDGET
    run_suite(sc, "lemmas")
    system = sc.system
    stack = system.ball_stack(sc.identity_radius)
    assert list(system._ball_stacks) == [sc.identity_radius]
    assert system.ball_stack(sc.identity_radius) is stack
    assert not stack.gram.flags.writeable
    assert np.array_equal(stack.gram, system.kernel_matrix(system.words.ball(sc.identity_radius)))
