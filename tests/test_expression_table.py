"""The expression table of a ball against the rearrangement search.

``WordContext.expression_table`` lists every reduced expression of every
ball word as a prefix tree of arrays, with no search, and
``MultiplierSystem.tree_rows`` evaluates them all.  Per word the table must
hold exactly the sequences ``rearrangements`` lists, each valued bit for
bit as ``gp_value_letters`` values it.  product-well-defined and
haagerup-witness read the table and the ball's rows; their reports, witness
and budget errors included, must equal the per-word loops kept in
``tests/support.py``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.errors import BudgetExceededError
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.multipliers import gp_well_defined, haagerup_witness_ball
from support import (
    assert_same_values,
    groupoid_from_space,
    growth_sphere_sizes,
    reference_gp_well_defined,
    reference_haagerup_witness_ball,
)
from test_ball_arrays import GROUPS, POINTS, SCENARIOS, graph_products, k4_z2, scenario


def expression_letters(words, table, e) -> tuple:
    letters = []
    while e > 0:
        letters.append(words._slot_letter[table.last[e]])
        e = table.prefix[e]
    return tuple(reversed(letters))


def assert_expression_table(system, radius):
    """Per ball word its run of expressions, as a set the rearrangement
    class and each value the one-expression evaluation's bits."""
    words = system.words
    ball = words.ball(radius)
    table = words.expression_table(radius)
    for column in (table.word, table.prefix, table.last):
        assert column.dtype == np.int32 and len(column) == table.ends[-1]
    assert table.word[0] == 0 and table.prefix[0] == table.last[0] == -1
    assert np.all(np.diff(table.word) >= 0)  # each word's expressions are one run
    values, _ = system.tree_rows(table)
    lengths = [len(expression_letters(words, table, e)) for e in range(len(table.prefix))]
    assert table.ends == tuple(sum(1 for m in lengths if m <= t) for t in range(len(table.ends)))
    for i, x in enumerate(ball):
        run = np.flatnonzero(table.word == i)
        exprs = [expression_letters(words, table, e) for e in run]
        assert len(set(exprs)) == len(exprs)
        assert set(exprs) == set(words.rearrangements(x))
        for e, r in zip(run, exprs):
            assert_same_values(values[e], system.gp_value_letters(r).scalars)


def radius_within(words, cap: int, top: int = 5) -> int:
    """The largest radius up to ``top`` whose ball the growth series puts
    within ``cap`` words."""
    sizes = np.cumsum(growth_sphere_sizes(words, top))
    return max(r for r in range(top + 1) if r == 0 or sizes[r] <= cap)


@pytest.mark.parametrize("name", SCENARIOS)
def test_expression_table_matches_the_rearrangements_on_scenarios(name):
    sc = scenario(name)
    assert_expression_table(sc.system, sc.ball_radius)


@settings(max_examples=40, deadline=None)
@given(graph_products())
def test_expression_table_matches_the_rearrangements_on_random_products(system):
    assert_expression_table(system, radius_within(system.words, 1500))


# ----------------------------------------------------------------------
# product-well-defined and haagerup-witness against the per-word loops


@pytest.mark.parametrize("name", SCENARIOS)
def test_well_defined_and_witness_match_the_per_word_loops_on_scenarios(name):
    sc = scenario(name)
    args = (sc.system, sc.ball_radius, sc.budget)
    assert repr(gp_well_defined(*args)) == repr(reference_gp_well_defined(*args))
    if sc.witness:
        K, eps, L = sc.witness["K"], sc.witness["eps"], sc.witness["L"]
        rep = haagerup_witness_ball(sc.system, K, eps, L, sc.budget)
        assert repr(rep) == repr(reference_haagerup_witness_ball(sc.system, K, eps, L, sc.budget))


@settings(max_examples=40, deadline=None)
@given(graph_products(), st.one_of(st.none(), st.integers(0, 10**6)))
def test_well_defined_matches_the_per_word_loop_on_random_products(system, nan_at):
    """Random values and point actions break well-definedness, so most
    draws have a witness; some carry a NaN value, which wins."""
    if nan_at is not None:
        slots = [s for s, letter in enumerate(system.words._slot_letter) if letter is not None]
        system._slot_values[slots[nan_at % len(slots)], nan_at % POINTS] = np.nan
    radius = radius_within(system.words, 1500)
    rep = gp_well_defined(system, radius)
    assert repr(rep) == repr(reference_gp_well_defined(system, radius))


@st.composite
def small_unital_products(draw):
    """Graph products as in ``graph_products`` with unital values of modulus
    at most 1/2 off the identity, so haagerup-witness's hypotheses hold."""
    n = draw(st.integers(1, 4))
    edges = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    kinds = [draw(st.sampled_from(sorted(GROUPS))) for _ in range(n)]
    groups = [GROUPS[k][0] for k in kinds]
    maps = {v: [GROUPS[k][1](g) for g in range(groups[v].order)] for v, k in enumerate(kinds)}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [
        [[1.0] * POINTS]
        + [list(0.5 * rng.random(POINTS) * np.exp(2j * np.pi * rng.random(POINTS))) for _ in range(g.order - 1)]
        for g in groups
    ]
    graph = SimplicialGraph.build(tuple(range(n)), edges)
    return groupoid_from_space(graph, groups, POINTS, maps, values), draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(small_unital_products())
def test_witness_matches_the_per_word_loop_on_random_products(case):
    system, K = case
    L = max(2, radius_within(system.words, 1500))
    K = min(K, L - 1)
    rep = haagerup_witness_ball(system, K, 2.0**-K, L)
    assert repr(rep) == repr(reference_haagerup_witness_ball(system, K, 2.0**-K, L))


def test_well_defined_witness_is_the_least_of_the_tied_expressions():
    """A triangle of Z/2 vertices where only c's action moves points: the
    expressions c a b and c b a of abc deviate most, by the same 0.75 (the
    values are exact in binary), and the table lists c b a first; the
    witness is the least of the two, as the per-word loop finds it."""
    z2 = cyclic_group(2)
    graph = SimplicialGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    values = [[[1.0, 1.0], [1.0, 0.5]], [[1.0, 1.0], [1.0, 0.5]], [[1.0, 1.0], [1.0, 1.0]]]
    system = groupoid_from_space(graph, [z2] * 3, 2, {2: [[0, 1], [1, 0]]}, values)
    words = system.words
    table = words.expression_table(3)
    dev = np.abs(system.tree_rows(table)[0] - system.tree_rows(words.ball_arrays(3))[0][table.word])
    worst = np.flatnonzero(dev.max(axis=1) == 0.75)
    tied = [expression_letters(words, table, e) for e in worst]
    assert [[l.vertex for l in r] for r in tied] == [[2, 1, 0], [2, 0, 1]]
    rep = gp_well_defined(system, radius=3)
    assert rep.max_deviation == 0.75 and rep.word == min(tied) != tied[0]
    assert repr(rep) == repr(reference_gp_well_defined(system, radius=3))


def raised(fn, *args):
    with pytest.raises(BudgetExceededError) as err:
        fn(*args)
    return str(err.value), err.value.context


@pytest.mark.parametrize("budget", [0, 1, 5, 15, 16, 20, 23])
def test_budget_errors_match_the_per_word_loops(budget):
    """(Z/2)^4 on K4: 16 words, and the class of abcd has 24 sequences, so
    the ball runs out below 16 and the class from 16 to 23."""
    system = k4_z2(budget).system
    want = raised(reference_gp_well_defined, system, 4, budget)
    assert raised(gp_well_defined, system, 4, budget) == want
    assert raised(system.words.expression_table, 4, budget) == want
    if budget >= 16:
        assert want[0].startswith("rearrangement class exceeds budget")
        assert repr(gp_well_defined(system, 4, 24)) == repr(reference_gp_well_defined(system, 4, 24))
    else:
        want = raised(reference_haagerup_witness_ball, system, 1, 0.5, 4, budget)
        assert want[0].startswith("ball exceeds budget")
        assert raised(haagerup_witness_ball, system, 1, 0.5, 4, budget) == want
