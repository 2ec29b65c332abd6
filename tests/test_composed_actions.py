"""Composed index arrays against the letter-by-letter reference.

A word action on central values is one index array, folded over the raw
letters by ``WordAction.on_central`` and kept as the action row of each
interned word by the value-row fill; ``gp_value_letters`` follows the
prefix recursion of the value rows over the raw letters.  All are compared
bit for bit with the reference that applies one automorphism per letter
(``support.apply_central``), on actions that do not commute across
non-edges, so a composition in the wrong order or a tail shifted by one
letter changes the values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.cli import build_scenario, load_config
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.matalg import CentralElement
from gpmult.verifier import run_suite
from gpmult.wordcraft import Letter
from support import (
    apply_central,
    assert_same_values,
    complete_set_elements,
    groupoid_from_space,
    value_of_letter,
)


def fold_on_central(actions, letters, c):
    """Reference word action: one automorphism per letter, last letter first."""
    for l in reversed(tuple(letters)):
        c = apply_central(actions.tables[l.vertex].autos[l.elem], c)
    return c


def fold_gp_value(system, letters):
    """Reference evaluator: letter j twisted by the fold of its inverted tail
    (l_{m-1}^-1, ..., l_{j+1}^-1), factors multiplied left to right."""
    letters = tuple(letters)
    if not letters:
        return CentralElement.one(system.structure)
    groups = system.words.groups
    inv = [Letter(l.vertex, groups[l.vertex].inverse(l.elem)) for l in letters]
    out = None
    for j, letter in enumerate(letters[:-1]):
        factor = fold_on_central(system.actions, inv[:j:-1], value_of_letter(system, letter)).scalars
        out = factor if out is None else out * factor
    last = value_of_letter(system, letters[-1]).scalars
    return CentralElement(system.structure, last if out is None else out * last)


def fold_kernel(system, x, y):
    """Reference kernel alpha_y(h(x^-1 y)) through the two folds."""
    words = system.words
    z = words.multiply(words.inverse(x), y)
    return fold_on_central(system.actions, y.letters, fold_gp_value(system, z.letters))


def same_bits(a: CentralElement, b: CentralElement) -> bool:
    return a.scalars.tobytes() == b.scalars.tobytes()


def random_central(structure, rng) -> CentralElement:
    K = structure.num_blocks
    return CentralElement(structure, rng.standard_normal(K) + 1j * rng.standard_normal(K))


def action_matches_reference(actions, letters, c) -> bool:
    return same_bits(actions.act_word(letters).on_central(c), fold_on_central(actions, letters, c))


def assert_matches_reference(system, elements, rng):
    """Word action, every rearrangement and every kernel pair, bit for bit."""
    words = system.words
    for x in elements:
        assert action_matches_reference(system.actions, x.letters, random_central(system.structure, rng))
        for r in words.rearrangements(x):
            assert same_bits(system.gp_value_letters(r), fold_gp_value(system, r))
    for x in elements:
        for y in elements:
            assert same_bits(system.kernel(x, y), fold_kernel(system, x, y))


# Point permutations of order 2 and 3; neighbours in each list do not commute.
TRANSPOSITIONS = {3: [(1, 0, 2), (0, 2, 1)], 4: [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]}
THREE_CYCLES = {3: [(1, 2, 0), (2, 0, 1)], 4: [(1, 2, 0, 3), (0, 2, 3, 1)]}


def _powers(p, order):
    out = [tuple(range(len(p)))]
    for _ in range(order - 1):
        out.append(tuple(p[i] for i in out[-1]))
    return [list(q) for q in out]


@st.composite
def _system_and_words(draw, free_pair=False):
    """At most 4 vertices with Z/2 or Z/3, each acting on 3 or 4 points by a
    transposition or a 3-cycle (non-commuting across non-edges allowed), and
    raw words of at most 10 letters.  With ``free_pair`` there are at least
    two vertices and vertices 0 and 1 are not joined."""
    n = draw(st.integers(2 if free_pair else 1, 4))
    points = draw(st.sampled_from([3, 4]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if not (free_pair and p == (0, 1)) and draw(st.booleans())]
    graph = SimplicialGraph.build(tuple(range(n)), edges)
    orders = [draw(st.sampled_from([2, 3])) for _ in range(n)]
    maps = {}
    for v, order in enumerate(orders):
        gens = TRANSPOSITIONS[points] if order == 2 else THREE_CYCLES[points]
        maps[v] = _powers(draw(st.sampled_from(gens)), order)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = [
        [list(rng.standard_normal(points) + 1j * rng.standard_normal(points)) for _ in range(order)]
        for order in orders
    ]
    system = groupoid_from_space(graph, [cyclic_group(o) for o in orders], points, maps, values)
    letter = st.integers(0, n - 1).flatmap(
        lambda v: st.tuples(st.just(v), st.integers(1, orders[v] - 1))
    )
    raws = draw(st.lists(st.lists(letter, max_size=10), min_size=1, max_size=4))
    return system, raws, rng


@settings(max_examples=60, deadline=None)
@given(_system_and_words())
def test_composed_actions_match_the_letter_fold(case):
    system, raws, rng = case
    words = system.words
    for raw in raws:
        letters = tuple(Letter(v, g) for v, g in raw)
        # raw, unreduced letter sequences too
        assert action_matches_reference(system.actions, letters, random_central(system.structure, rng))
        assert same_bits(system.gp_value_letters(letters), fold_gp_value(system, letters))
    # the empty word and every one-letter word, identity letters included
    singles = [(Letter(v, g),) for v, grp in enumerate(words.groups) for g in range(grp.order)]
    for letters in [(), *singles]:
        assert same_bits(system.gp_value_letters(letters), fold_gp_value(system, letters))
    elements = [words.normalize(raw) for raw in raws] + list(words.ball(1))
    assert_matches_reference(system, elements, rng)


@pytest.mark.parametrize("name", ["block_swap_free", "tensor_edge_z2_z3"])
def test_composed_actions_match_the_letter_fold_on_complete_sets(name):
    sc = build_scenario(load_config(f"scenarios/{name}.json"))
    rng = np.random.default_rng(7)
    for X in complete_set_elements(sc):
        assert_matches_reference(sc.system, X, rng)


def test_word_actions_compose_letter_index_arrays():
    """On two non-adjacent Z/2 vertices acting by (0 1) and (1 2), the
    action of a word is the fold of its letters' index arrays, read the same
    from ``on_central`` and from the action rows behind ``kernel_matrix``,
    and the action system keeps no per-word state."""
    graph = SimplicialGraph.build((0, 1), [])
    system = groupoid_from_space(
        graph,
        [cyclic_group(2), cyclic_group(2)],
        3,
        {0: _powers((1, 0, 2), 2), 1: _powers((0, 2, 1), 2)},
        [[[1, 1, 1], [0.5, 0.25, 0.125]], [[1, 1, 1], [0.3, 0.2, 0.1]]],
    )
    actions, words = system.actions, system.words
    a, b = Letter(0, 1), Letter(1, 1)
    c = CentralElement(system.structure, [1.0, 2.0, 3.0])
    # (1 2), then (0 1): c -> c[I] with I = [1, 2, 0]; twice more: [2, 0, 1]
    for letters, index in (((b, a), [1, 2, 0]), ((b, a, b, a), [2, 0, 1])):
        moved = actions.act_word(letters).on_central(c)
        assert moved.scalars.tobytes() == c.scalars[index].tobytes()
        x = words.normalize([(l.vertex, l.elem) for l in letters])
        assert x.letters == letters
        gram = system.kernel_matrix([x, words.normalize([])])
        assert_same_values(gram[:, 1, 0], system.gp_value(x).scalars[index])
        assert system._value_rows()[1][words.intern(letters)].tolist() == index
    assert list(actions.act_word((b, a, b, a)).on_central(c).scalars.real) == [3.0, 1.0, 2.0]
    assert set(vars(actions)) == {"words", "structure", "tables"}


def _memo_tables(system):
    """Every memo table of a system: the four that grow with the ball (the
    value rows hold the word actions too), the interned words with their
    lengths, the successor table, the immediate truncations by id, the ball
    arrays, the ball standard-form tables and the ball kernel stacks."""
    words = system.words
    return {
        "kernel": system._kernel.cache,
        "gp_value": system._value_cache,
        "downset": words._downset_cache,
        "standard_form": words._sf_cache,
        "id_prefix": words._id_prefix,
        "id_last": words._id_last,
        "id_len": words._id_len,
        "successors": words._succ,
        "truncations": words._truncations,
        "ball_arrays": words._ball_arrays,
        "standard_form_tables": words._sf_tables,
        "ball_stacks": system._ball_stacks,
    }


def _cold_tables(system) -> set:
    """Names of the memo tables that hold what a fresh system's hold: the
    interned words exactly the identity, id 0, with one unknown successor
    row, and every other table nothing."""
    root = {
        "id_prefix": [-1],
        "id_last": [-1],
        "id_len": [0],
        "successors": [-1] * system.words._letter_slots,
    }
    return {
        name
        for name, table in _memo_tables(system).items()
        if (table == root[name] if name in root else len(table) == 0)
    }


# The lemma suite reads every kernel from gathered stacks, its standard
# forms and down-set maxima from the ball's standard-form table, built off
# the letter order, and it closes no set under truncation, so it leaves
# these cold.
NOT_FILLED_BY_LEMMAS = {"kernel", "downset", "standard_form", "truncations"}


def test_fresh_scenarios_start_with_cold_unshared_memo_tables():
    cfg = load_config("scenarios/path_mixed.json")
    first, second = build_scenario(cfg), build_scenario(cfg)
    for sc in (first, second):
        assert _cold_tables(sc.system) == set(_memo_tables(sc.system))
    ids = [id(t) for sc in (first, second) for t in _memo_tables(sc.system).values()]
    assert len(set(ids)) == len(ids)
    run_suite(first, "lemmas")
    assert _cold_tables(first.system) == NOT_FILLED_BY_LEMMAS
    assert _cold_tables(second.system) == set(_memo_tables(second.system))
    fresh = build_scenario(cfg).system
    assert _cold_tables(fresh) == set(_memo_tables(fresh))
