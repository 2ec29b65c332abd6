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

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import central_stack
from test_composed_actions import _system_and_words
from test_wordcraft import id_letters

from gpmult.cli import build_scenario, load_config
from gpmult.errors import ContextMismatchError
from gpmult.matalg import CentralElement
from gpmult import multipliers
from gpmult.multipliers import Multiplier, MultiplierSystem
from gpmult.verifier import _complete_sets

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
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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
    for xs in [*_complete_sets(sc), ball]:
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
    by the successor recursion, in rounds or one by one.  In the second system about half the letter
    values are real with a negative zero imaginary part, which 1 * h(l)
    would make positive, so a one-letter word must copy h(l)."""
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
    one_by_one = MultiplierSystem(system.actions, signed.multipliers)
    saved = multipliers.SEQUENTIAL_FILL
    try:
        multipliers.SEQUENTIAL_FILL = 0
        signed._value_rows()  # every id in rounds
        multipliers.SEQUENTIAL_FILL = len(words._id_prefix)
        one_by_one._value_rows()
    finally:
        multipliers.SEQUENTIAL_FILL = saved
    for sys_ in (system, signed, one_by_one):
        rows = sys_._value_rows()
        assert len(rows) == len(words._id_prefix) == len(sys_._value_cache)
        for i, row in enumerate(rows):
            assert row.tobytes() == sys_.gp_value_letters(id_letters(words, i)).scalars.tobytes()


def test_empty_and_single_word_stacks():
    sc = build_scenario(load_config(str(ROOT / "scenarios" / "block_swap_free.json")))
    system = sc.system
    K = system.structure.num_blocks
    assert system.kernel_matrix([]).shape == (K, 0, 0)
    x = system.words.ball(2)[-1]
    assert_same_stack(system, [x])
    assert_same_stack(system, [x, x, x])


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
    for key, i in words._ids.items():
        assert letters[i] == key
    for key, j in words._succ.items():
        i, slot = divmod(key, words._letter_slots)
        letter = words._slot_letter[slot]
        assert letters[j] == words._push((letter,), letters[i]).letters


def test_kernel_matrix_rejects_words_of_another_context():
    cfg = load_config(str(ROOT / "scenarios" / "free_pair_z2.json"))
    first, second = build_scenario(cfg).system, build_scenario(cfg).system
    x = second.words.ball(1)[1]
    with pytest.raises(ContextMismatchError):
        first.kernel_matrix([first.words.identity(), x])
    with pytest.raises(ContextMismatchError):
        first.kernel(first.words.identity(), x)
