"""The gathered kernel stack against the per-pair stack builder.

``kernel_matrix`` reads every product x_i^-1 x_j from the successor memo of
interned words and every value from the rows of the value array, then gathers
the ``(K, n, n)`` stack in one indexing step.  The per-pair builder it
replaced is kept below as the reference: per pair one ``multiply`` of x^-1
by y, the left-to-right evaluation ``gp_value_letters`` and the word action
of y, collected into ``support.central_stack``.  Stacks are compared bit for bit on
the complete sets and identity balls of the committed scenarios, and on
unsorted, repeated and not prefix-closed words of random graph products
whose point actions do not commute across non-edges, so a swapped prefix
and last letter, a twist by p(l) instead of p(l^-1) or the permutation of
x instead of y changes the stack.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    assert_same_values,
    central_stack,
    complete_set_elements,
    groupoid_from_space,
    reference_push,
)
from test_composed_actions import _system_and_words, fold_on_central
from test_wordcraft import id_letters

from gpmult.cli import build_scenario, load_config
from gpmult.errors import ContextMismatchError
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.matalg import CentralElement
from gpmult.multipliers import Multiplier, MultiplierSystem

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))


def reference_kernel(system, x, y):
    """K(x, y) = alpha_y(h(x^-1 y)) as the per-pair path built it."""
    words = system.words
    z = words.multiply(words.inverse(x), y)
    return system.actions.act_word(y).on_central(system.gp_value_letters(z.letters))


def reference_kernel_matrix(system, xs):
    """The per-pair stack builder: one kernel per pair into ``central_stack``."""
    xs = list(xs)
    return central_stack(system.structure, [[reference_kernel(system, x, y) for y in xs] for x in xs])


def assert_same_stack(system, xs):
    got = system.kernel_matrix(xs)
    want = reference_kernel_matrix(system, xs)
    assert got.shape == want.shape
    assert got.dtype == system.dtype
    assert_same_values(got, want)


def assert_products_match_multiply(words, lefts, rights):
    ids = words.product_ids(
        [words.intern(a.letters) for a in lefts], [words.intern(b.letters) for b in rights]
    )
    for a, row in zip(lefts, ids):
        assert [id_letters(words, i) for i in row] == [words.multiply(a, b).letters for b in rights]


@pytest.mark.parametrize("name", SCENARIOS)
def test_gathered_stack_matches_the_per_pair_builder_on_scenarios(name):
    sc = build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json")), seed=42)
    system = sc.system
    ball = system.words.ball(sc.identity_radius)
    for xs in [*complete_set_elements(sc), ball]:
        assert_same_stack(system, xs)
    for x in ball:
        for y in ball:
            assert system.kernel(x, y).scalars.tobytes() == reference_kernel(system, x, y).scalars.tobytes()


@settings(max_examples=60, deadline=None)
@given(_system_and_words(), st.randoms(use_true_random=False))
def test_gathered_stack_matches_on_unsorted_repeated_words(case, pyrandom):
    system, raws, _ = case
    words = system.words
    elements = [words.normalize(raw) for raw in raws]
    # unsorted, with repeats and the identity; rarely prefix-closed
    xs = elements + pyrandom.choices(elements, k=pyrandom.randint(0, 4)) + [words.identity()]
    pyrandom.shuffle(xs)
    assert_same_stack(system, xs)
    assert_products_match_multiply(words, xs, xs)
    for x in xs:
        for y in xs:
            assert system.kernel(x, y).scalars.tobytes() == reference_kernel(system, x, y).scalars.tobytes()
    # a second, warm stack over a subset reads the same memos
    assert_same_stack(system, xs[::2])


@settings(max_examples=60, deadline=None)
@given(_system_and_words())
def test_value_rows_are_bit_equal_to_the_left_to_right_evaluation(case):
    """Every row of the bulk-filled value array equals ``gp_value_letters``
    of its id's letters bit for bit, on point actions that do not commute,
    whether the rows were filled in two steps or from scratch over ids made
    by successor walks, and the two fills agree.  In the second system
    about half the letter values are real with a negative zero imaginary
    part, which 1 * h(l) would make positive, so a one-letter word must copy
    h(l)."""
    system, raws, rng = case
    words = system.words
    signed = MultiplierSystem(
        system.actions,
        [
            Multiplier(
                h.group,
                h.structure,
                tuple(
                    CentralElement(h.structure, np.conj(v.scalars.real.astype(complex)))
                    if rng.random() < 0.5
                    else v
                    for v in h.values
                ),
            )
            for h in system.multipliers
        ],
    )
    xs = [words.normalize(raw) for raw in raws] + list(words.ball(1))
    system.kernel_matrix(xs[: len(raws)])
    system.kernel_matrix(xs)
    cold = MultiplierSystem(system.actions, system.multipliers)._value_rows()
    assert [a.tobytes() for a in cold] == [a.tobytes() for a in system._value_rows()]
    for sys_ in (system, signed):
        rows, _ = sys_._value_rows()
        assert len(rows) == len(words._id_prefix) == len(sys_._value_cache)
        for i, row in enumerate(rows):
            assert_same_values(row, sys_.gp_value_letters(id_letters(words, i)).scalars)


@settings(max_examples=30, deadline=None)
@given(_system_and_words(free_pair=True), st.data())
def test_fills_in_batches_match_one_cold_fill_and_the_letter_folds(case, data):
    """Words interned in batches, each batch followed by a fill: first the
    12-letter prefix of a chain of 115 to 140 letters alternating between
    the free vertices 0 and 1, then in random order the drawn words one by
    one, a longer prefix of the chain, the whole chain and the radius-2
    ball, so some fills take one id and some many, and a cold fill takes
    more than 100 rounds for the chain.  Every value row equals
    ``gp_value_letters`` of its id's letters bit for bit, every action row
    the fold of its letters' automorphisms, and a cold fill of all ids over
    the same words gives the same arrays."""
    system, raws, _ = case
    words, K = system.words, system.structure.num_blocks
    chain = [(v % 2, 1) for v in range(data.draw(st.integers(115, 140)))]
    later = [[raw] for raw in raws] + [[chain[: data.draw(st.integers(12, len(chain)))]], [chain]]
    later.append([[(l.vertex, l.elem) for l in x.letters] for x in words.ball(2)])
    fills = []
    for batch in [[chain[:12]], *data.draw(st.permutations(later))]:
        before = len(words._id_prefix)
        for raw in batch:
            words.intern(words.normalize(raw).letters)
        fills.append(len(words._id_prefix) - before)
        system._value_rows()
    assert 0 < fills[0] < max(fills)
    values, perms = system._value_rows()
    assert perms.dtype == np.int32
    cold = MultiplierSystem(system.actions, system.multipliers)._value_rows()
    assert [a.tobytes() for a in cold] == [values.tobytes(), perms.tobytes()]
    index = CentralElement(system.structure, np.arange(K))
    for i in range(len(words._id_prefix)):
        letters = id_letters(words, i)
        assert values[i].tobytes() == system.gp_value_letters(letters).scalars.tobytes()
        folded = fold_on_central(system.actions, letters, index)
        assert perms[i].tolist() == folded.scalars.real.tolist()


def test_empty_and_single_word_stacks():
    sc = build_scenario(load_config(str(ROOT / "scenarios" / "block_swap_free.json")))
    system = sc.system
    K = system.structure.num_blocks
    assert system.kernel_matrix([]).shape == (K, 0, 0)
    x = system.words.ball(2)[-1]
    assert_same_stack(system, [x])
    assert_same_stack(system, [x, x, x])


@pytest.mark.parametrize("name", SCENARIOS)
def test_family_stacks_are_the_stacked_kernel_matrices(name):
    """``id_stacks`` over families of mixed sizes, the empty family
    included, gives per size the ``np.stack`` of the families' own
    ``kernel_matrix`` bit for bit, in their order, and leaves no table on
    the system or its words beyond those it had."""
    sc = build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json")), seed=42)
    system = sc.system
    words = system.words
    ball = words.ball(2)
    rng = np.random.default_rng(3)
    families = [[]]
    for _ in range(12):
        picks = rng.integers(0, len(ball), int(rng.integers(1, 5)))
        families.append([words.multiply(ball[i], ball[j]) for i, j in zip(picks, picks[::-1])])
    ids = [[words.intern(x.letters) for x in f] for f in families]
    tables = set(vars(system)), set(vars(words))
    stacks = system.id_stacks(ids)
    assert (set(vars(system)), set(vars(words))) == tables
    assert sorted(stacks) == sorted({len(f) for f in families})
    for m, stack in stacks.items():
        want = np.stack([system.kernel_matrix(f) for f in families if len(f) == m])
        assert stack.shape == want.shape == (len(want), system.structure.num_blocks, m, m)
        assert stack.tobytes() == want.tobytes()


def test_fill_deeper_than_a_byte_of_depths():
    """A cold fill of one chain of 300 new ids, the prefixes of (a b)^150
    in the free product of two Z/3 rotating three points, runs in about
    300 rounds, so its depths pass 127 and 255, the largest values of the
    one-byte dtypes.  Every row equals ``gp_value_letters`` and the fold of
    its letters' automorphisms, as fills of one new id at a time give them,
    and a fill of the identity alone is a fill too."""
    graph = SimplicialGraph.build((0, 1), [])
    rotations = [[(p + g) % 3 for p in range(3)] for g in range(3)]
    rng = np.random.default_rng(8)
    values = [[list(np.exp(1j * rng.uniform(0, 6, 3)) * 0.9) for _ in range(3)] for _ in range(2)]
    system, one_by_one = (
        groupoid_from_space(graph, [cyclic_group(3)] * 2, 3, {0: rotations, 1: rotations}, values)
        for _ in range(2)
    )
    words = system.words
    x = words.normalize([(0, 1), (1, 2)] * 150)
    assert len(words._id_prefix) == 301
    values_rows, perms = system._value_rows()
    one_by_one.words.intern(())
    assert [len(a) for a in one_by_one._value_rows()] == [1, 1]
    for m in range(1, len(x) + 1):
        one_by_one.words.intern(x.letters[:m])
        one_by_one._value_rows()
    sequential = one_by_one._value_rows()
    assert [a.tobytes() for a in sequential] == [values_rows.tobytes(), perms.tobytes()]
    index = CentralElement(system.structure, np.arange(3))
    for i in range(len(words._id_prefix)):
        letters = id_letters(words, i)
        assert values_rows[i].tobytes() == system.gp_value_letters(letters).scalars.tobytes()
        assert perms[i].tolist() == fold_on_central(system.actions, letters, index).scalars.real.tolist()


def test_interned_ids_put_prefixes_first():
    sc = build_scenario(load_config(str(ROOT / "scenarios" / "path_mixed.json")))
    words = sc.system.words
    ball = words.ball(3)
    sc.system.kernel_matrix(ball)
    assert words._id_prefix[0] == -1 and words._id_last[0] == -1
    for i in range(1, len(words._id_prefix)):
        assert words._id_prefix[i] < i
        assert words._succ[words._id_prefix[i] * words._letter_slots + words._id_last[i]] == i
    letters = [id_letters(words, i) for i in range(len(words._id_prefix))]
    assert len(set(letters)) == len(letters)
    for x in ball:
        assert letters[words.intern(x.letters)] == x.letters
    assert len(words._succ) == len(words._id_prefix) * words._letter_slots
    for key, j in enumerate(words._succ):
        if j < 0:
            continue
        i, slot = divmod(key, words._letter_slots)
        letter = words._slot_letter[slot]
        assert letters[j] == reference_push(words, (letter,), letters[i]).letters


def test_kernel_matrix_rejects_words_of_another_context():
    cfg = load_config(str(ROOT / "scenarios" / "free_pair_z2.json"))
    first, second = build_scenario(cfg).system, build_scenario(cfg).system
    x = second.words.ball(1)[1]
    with pytest.raises(ContextMismatchError):
        first.kernel_matrix([first.words.identity(), x])
    with pytest.raises(ContextMismatchError):
        first.kernel(first.words.identity(), x)


@pytest.mark.parametrize("name", SCENARIOS)
def test_gp_value_is_the_value_row(name):
    """The value of a canonical word, evaluated along its letters, is its
    row of the value array bit for bit: both follow the prefix recursion."""
    sc = build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json")), seed=42)
    system = sc.system
    words = system.words
    ball = words.ball(sc.ball_radius)
    ids = [words.intern(x.letters) for x in ball]
    rows, _ = system._value_rows()
    for x, i in zip(ball, ids):
        assert_same_values(system.gp_value(x).scalars, rows[i])


def test_words_longer_than_the_recursion_limit():
    """On the path a - v - b with v first, a letter v appended to (a b)^k
    passes all 2k letters to the front, and the inverse of v (a b)^k ends
    with that walk; random words over the three vertices merge and cancel.
    Words of three times the recursion limit are normalized, multiplied,
    inverted and evaluated as ``reference_push`` and the left-to-right
    evaluation give them, and their kernel matrix with the identity holds
    h(x^-1) and alpha_x(h(x)), the latter as the letter-by-letter fold
    gives it."""
    limit = sys.getrecursionlimit()
    graph = SimplicialGraph.build(("v", "a", "b"), [("v", "a"), ("v", "b")])
    rotations = [[(p + g) % 3 for p in range(3)] for g in range(3)]
    rng = np.random.default_rng(5)
    values = [
        [list(np.exp(rng.uniform(-0.01, 0.0, 3) + 1j * rng.uniform(0, 6, 3))) for _ in range(3)]
        for _ in range(3)
    ]
    maps = {1: rotations, 2: rotations}
    system = groupoid_from_space(graph, [cyclic_group(3)] * 3, 3, maps, values)
    words = system.words
    k = 3 * limit // 2
    vertices, elements = rng.integers(0, 3, 3 * limit), rng.integers(1, 3, 3 * limit)
    raws = [
        [(1, 1), (2, 1)] * k + [(0, 1)],
        [(int(v), int(g)) for v, g in zip(vertices, elements)],
    ]
    xs = [words.normalize(raw) for raw in raws]
    assert xs[0].letters[0].vertex == 0 and len(xs[0]) == 2 * k + 1
    for raw, x in zip(raws, xs):
        assert x == reference_push(words, raw)
        inverse = reference_push(
            words, [(l.vertex, words.groups[l.vertex].inverse(l.elem)) for l in reversed(x.letters)]
        )
        assert words.inverse(x) == inverse
        value = system.gp_value_letters(x.letters).scalars
        assert system.gp_value(x).scalars.tobytes() == value.tobytes()
        gram = system.kernel_matrix([x, words.identity()])
        assert gram[:, 0, 1].tobytes() == system.gp_value_letters(inverse.letters).scalars.tobytes()
        moved = fold_on_central(system.actions, x.letters, CentralElement(system.structure, value))
        assert gram[:, 1, 0].tobytes() == moved.scalars.tobytes()
    for x, y in (xs, xs[::-1]):
        assert words.multiply(x, y) == reference_push(words, y.letters, x.letters)
