"""Balls, successor tables and the identity ball's kernel stack from the
graph-product automaton, against the successor memo and the per-word paths.

``WordContext.ball_arrays`` lists a ball sphere by sphere and fills a table
of successors over it, and ``ball_word_ids`` interns ball words along
them; ``MultiplierSystem.ball_stack`` gathers the kernel stack from those
arrays with no word interned; ``last_letter_table`` gives
drop-last-letter its heads and multiplicities and peel-first-letter its
tails.  Each is compared with what it replaced: the successor memo entry by
entry, ``intern`` id by id, ``kernel_matrix`` bit for bit, and the
per-word drop-last and peel loops report for report, on the committed
scenarios and on random graph products of Z/2, Z/3, S3 and D4 acting on
four points.  Sphere sizes are checked against the growth series, which
shares no code with either.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.cli import build_scenario, load_config
from gpmult.errors import BudgetExceededError
from gpmult.graphgroup import SimplicialGraph, cyclic_group, dihedral_group, symmetric_group
from gpmult.verifier import Scenario, _guarded, verify_drop_last, verify_peel_off
from gpmult.wordcraft import WordContext
from support import (
    groupoid_from_space,
    growth_sphere_sizes,
    k4_z2_config,
    reference_ball,
    reference_normalized_peel_off,
    reference_per_word_drop_last,
    word_rows,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))

POINTS = 4
_S3 = list(itertools.permutations(range(3)))
# per group its natural action on four points, as the image list of each element
GROUPS = {
    "Z/2": (cyclic_group(2), lambda g: [1, 0, 2, 3] if g else [0, 1, 2, 3]),
    "Z/3": (cyclic_group(3), lambda g: [(i + g) % 3 for i in range(3)] + [3]),
    "S3": (symmetric_group(3), lambda g: list(_S3[g]) + [3]),
    "D4": (dihedral_group(4), lambda g: [((-1) ** (g // 4) * i + g % 4) % 4 for i in range(4)]),
}


def scenario(name: str, seed: int = 42):
    return build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json")), seed=seed)


@st.composite
def graph_products(draw, real=False):
    """1-5 vertices, each with Z/2, Z/3, S3 or D4 acting on four points,
    random edges, and random complex values (real ones with ``real``)."""
    n = draw(st.integers(1, 5))
    edges = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    kinds = [draw(st.sampled_from(sorted(GROUPS))) for _ in range(n)]
    groups = [GROUPS[k][0] for k in kinds]
    maps = {v: [GROUPS[k][1](g) for g in range(groups[v].order)] for v, k in enumerate(kinds)}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [
        [list(rng.standard_normal(POINTS) + (0.0 if real else 1j * rng.standard_normal(POINTS))) for _ in range(g.order)]
        for g in groups
    ]
    graph = SimplicialGraph.build(tuple(range(n)), edges)
    return groupoid_from_space(graph, groups, POINTS, maps, values)


def identity_radius(words, cap: int = 2000) -> int:
    """The largest identity radius up to 3 whose ball(2 r) the growth
    series puts within ``cap`` words, at least 1."""
    sizes = np.cumsum(growth_sphere_sizes(words, 6))
    return max([1] + [r for r in (2, 3) if sizes[2 * r] <= cap])


# ----------------------------------------------------------------------
# balls and successor tables


def assert_successor_table(words, radius):
    """The ball is the memo's breadth-first ball in the same order, and every
    successor of a word below the top sphere is the memo's."""
    ball = words.ball(radius)
    assert list(ball) == reference_ball(words, radius)
    arrays = words.ball_arrays(radius)
    assert arrays.succ.dtype == arrays.prefix.dtype == arrays.last.dtype == np.int32
    assert arrays.succ.shape == (len(words.ball(max(radius - 1, 0))) if radius else 0, words._letter_slots)
    for i, x in enumerate(ball[: len(arrays.succ)]):
        xid = words.intern(x.letters)
        for slot, letter in enumerate(words._slot_letter):
            if letter is None:
                assert arrays.succ[i, slot] == i
            else:
                assert ball[arrays.succ[i, slot]] == words._element(words.successor(xid, letter))


@pytest.mark.parametrize("name", SCENARIOS)
def test_successor_table_matches_the_memo_on_scenarios(name):
    sc = scenario(name)
    assert_successor_table(sc.system.words, 2 * sc.identity_radius)


@settings(max_examples=40, deadline=None)
@given(graph_products())
def test_successor_table_matches_the_memo_on_random_products(system):
    words = system.words
    assert_successor_table(words, 2 * identity_radius(words, cap=600) - 1)


def assert_ball_word_ids(words, radius, indices, interned_first):
    """``ball_word_ids`` against ``intern`` on the ball words at ``indices``,
    whichever of the two interns them first; a second call interns no more."""
    ball = words.ball(radius)
    want = [words.intern(ball[i].letters) for i in indices] if interned_first else None
    got = words.ball_word_ids(radius, indices)
    size = len(words._id_prefix)
    assert got == [words.intern(ball[i].letters) for i in indices] == (want or got)
    assert words.ball_word_ids(radius, indices) == got and len(words._id_prefix) == size


@pytest.mark.parametrize("interned_first", [False, True])
@pytest.mark.parametrize("name", SCENARIOS)
def test_ball_word_ids_match_intern_on_scenarios(name, interned_first):
    sc = scenario(name)
    words, radius = sc.system.words, 2 * sc.identity_radius
    indices = np.random.default_rng(3).integers(0, len(words.ball(radius)), 40).tolist()
    assert_ball_word_ids(words, radius, indices + [0] + indices[:5], interned_first)


@settings(max_examples=40, deadline=None)
@given(graph_products(), st.lists(st.integers(0, 2**20), min_size=1, max_size=40), st.booleans())
def test_ball_word_ids_match_intern_on_random_products(system, picks, interned_first):
    """Unordered and repeated indices, the identity among them."""
    words = system.words
    radius = 2 * identity_radius(words, cap=600)
    size = len(words.ball(radius))
    indices = [p % size for p in picks]
    assert_ball_word_ids(words, radius, indices + [0, indices[0]], interned_first)


@settings(max_examples=60, deadline=None)
@given(graph_products(), st.integers(0, 8))
def test_sphere_sizes_follow_the_growth_series(system, radius):
    words = system.words
    series = growth_sphere_sizes(words, radius)
    while sum(series) > 20_000:
        radius -= 1
        series = series[:-1]
    ends = words.ball_arrays(radius).ends
    spheres = [1] + [b - a for a, b in zip(ends[:-1], ends[1:])]
    assert spheres + [0] * (radius + 1 - len(spheres)) == series


def test_budget_stops_the_listing_at_the_sphere_that_outgrows_it():
    """Three free Z/3 vertices: spheres of 1, 6, 24 and 96 words, so a
    budget of 100 runs out in sphere 3 of a ball of radius 60, which is
    never listed; a finite group stops at its last sphere."""
    words = WordContext(SimplicialGraph.build("abc", []), [cyclic_group(3)] * 3)
    with pytest.raises(BudgetExceededError) as err:
        words.ball(60, budget=100)
    assert err.value.context == {"budget": 100, "radius_reached": 3, "words": 101}
    assert not words._ball_arrays and not words._balls
    complete = SimplicialGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    words = WordContext(complete, [cyclic_group(2)] * 3)
    assert words.ball_arrays(1000).ends == (1, 4, 7, 8)
    assert len(words.ball(1000)) == 8 and len(words.ball_arrays(1000).prefix) == 8


# ----------------------------------------------------------------------
# the identity ball's kernel stack


def assert_stack_matches_the_memo(system, radius):
    """The stack bit for bit against ``kernel_matrix``, and the inverses,
    rows, products and action rows of the doubled ball kept with it against
    the memo's, with no more than the ball interned by the stack."""
    words = system.words
    before = len(words._id_prefix)
    stack = system.ball_stack(radius)
    assert stack is system._ball_stacks[radius]
    ball = words.ball(radius)
    assert len(words._id_prefix) <= before + len(ball)
    want = system.kernel_matrix(ball)
    assert stack.gram.shape == want.shape and stack.gram.tobytes() == np.ascontiguousarray(want).tobytes()
    assert [ball[j] for j in stack.inverse] == [words.inverse(x) for x in ball]
    memo_values, memo_perms = word_rows(system, ball)
    assert stack.values.tobytes() == memo_values.tobytes()
    assert np.array_equal(stack.actions[: len(ball)], memo_perms)
    doubled = words.ball(2 * radius)
    for i in range(0, len(ball), max(1, len(ball) // 8)):
        assert [doubled[q] for q in stack.products[i]] == [words.multiply(ball[i], y) for y in ball]
    assert np.array_equal(stack.actions, word_rows(system, doubled)[1])


@pytest.mark.parametrize("name", SCENARIOS)
def test_ball_stack_matches_kernel_matrix_on_scenarios(name):
    sc = scenario(name)
    assert_stack_matches_the_memo(sc.system, sc.identity_radius)


@settings(max_examples=40, deadline=None)
@given(graph_products())
def test_ball_stack_matches_kernel_matrix_on_random_products(system):
    assert_stack_matches_the_memo(system, identity_radius(system.words))


def test_ball_stack_interns_no_word_of_the_doubled_ball():
    """The stack over ball(r) reads ball(2 r) off the arrays and builds no
    word: the dict memo and the balls' words stay as they were."""
    sc = scenario("path_mixed")
    words = sc.system.words
    words.normalize([(0, 1), (1, 1)])
    before = len(words._id_prefix)
    stack = sc.system.ball_stack(sc.identity_radius, sc.budget)
    assert len(words.ball_arrays(2 * sc.identity_radius).prefix) > len(stack.inverse)
    assert len(words._id_prefix) == before and not words._balls


# ----------------------------------------------------------------------
# last letters, drop-last-letter and peel-first-letter


def assert_last_letter_table(words, radius):
    ball = words.ball(radius)
    index = {x: i for i, x in enumerate(ball)}
    heads, slots, sizes = words.last_letter_table(radius)
    for i, x in enumerate(ball):
        seqs = words.rearrangements(x)
        assert sizes[i] == len(seqs)
        ends = {r[-1].vertex: index[words.normalize(r[:-1])] for r in seqs if r}
        letters = {r[-1].vertex: words._slot_offset[r[-1].vertex] + r[-1].elem for r in seqs if r}
        assert set(np.flatnonzero(heads[i] >= 0)) == set(ends)
        assert {u: heads[i, u] for u in ends} == ends
        assert {u: slots[i, u] for u in ends} == letters
        assert (heads[i] >= 0).sum() == (slots[i] >= 0).sum() == len(ends)


def report(fn, sc) -> tuple:
    result = _guarded("check", "lemmas", fn, sc)
    return json.dumps(result.to_json()), repr(result.residual)


def assert_lemmas_match_the_per_word_loops(make_scenario):
    sc = make_scenario()
    assert_last_letter_table(sc.system.words, sc.identity_radius)
    for fn, ref in (
        (verify_drop_last, reference_per_word_drop_last),
        (verify_peel_off, reference_normalized_peel_off),
    ):
        assert report(fn, make_scenario()) == report(ref, make_scenario())


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("name", SCENARIOS)
def test_drop_last_and_peel_match_the_per_word_loops_on_scenarios(name, seed):
    assert_lemmas_match_the_per_word_loops(lambda: scenario(name, seed))


@settings(max_examples=30, deadline=None)
@given(graph_products(), st.integers(0, 1000))
def test_drop_last_and_peel_match_the_per_word_loops_on_random_products(system, seed):
    radius = identity_radius(system.words, cap=1000)

    def make():
        return Scenario(name="random", system=system, seed=seed, identity_radius=radius)

    assert_lemmas_match_the_per_word_loops(make)


def k4_z2(budget):
    """(Z/2)^4 on K4 at identity radius 4: the class of abcd has 24 sequences."""
    return build_scenario(k4_z2_config(identity_radius=4, budget=budget))


def raised(fn, sc):
    with pytest.raises(BudgetExceededError) as err:
        fn(sc)
    return str(err.value), err.value.context


@pytest.mark.parametrize("budget", [0, 1, 5, 20, 23])
def test_class_budget_errors_match_the_per_word_loops(budget):
    for fn, ref in (
        (verify_drop_last, reference_per_word_drop_last),
        (verify_peel_off, reference_normalized_peel_off),
    ):
        assert raised(fn, k4_z2(budget)) == raised(ref, k4_z2(budget))
    if budget >= 16:  # the ball fits, so the class of abcd is what runs out
        message, context = raised(verify_drop_last, k4_z2(budget))
        assert message.startswith("rearrangement class exceeds budget")
        assert context["sequences"] == budget + 1
    sc = k4_z2(24)
    assert report(verify_drop_last, sc) == report(reference_per_word_drop_last, k4_z2(24))
