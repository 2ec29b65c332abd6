"""Complete sets and inverses on word ids against the element paths.

``WordContext.complete_closure_ids`` closes a set of word ids under
immediate truncations memoized per id, and ``inverse_ids`` inverts any
list of word ids one successor step per letter.  Both are compared on
random graph products with S3 and D4 vertices, where letters are not all
involutions: the closure with ``reference_complete_closure`` element by
element and in order, budget outcomes included; the inverses with the word
of the inverted letters in reverse and with the products x^-1 x; and the
products of ``product_ids``, whose walk interns appends itself, with walks
of ``successor`` alone and with ``reference_push``.
"""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.errors import BudgetExceededError
from gpmult.graphgroup import SimplicialGraph, dihedral_group, symmetric_group
from gpmult.wordcraft import Letter, WordContext
from support import growth_sphere_sizes, id_closure, reference_complete_closure, reference_push
from test_ball_arrays import GROUPS, graph_products


def sample_radius(words, cap: int = 400) -> int:
    """The largest radius up to 4 whose ball the growth series puts within
    ``cap`` words, at least 1."""
    sizes = np.cumsum(growth_sphere_sizes(words, 4))
    return max([1] + [r for r in range(2, 5) if sizes[r] <= cap])


def outcome(closure):
    """Letters of the closure's words, or the message and context of its
    budget error."""
    try:
        return [x.letters for x in closure()]
    except BudgetExceededError as err:
        return err.args[0], err.context


@settings(max_examples=80, deadline=None)
@given(graph_products(), st.data())
def test_id_closure_matches_the_reference_closure(system, data):
    """Caps run from 1 to one past the uncapped closure of everything, so
    the identity and the input can overflow (the id closure raises, the
    reference raises or returns too many), the input's closure can
    overflow (both raise), an optional word can end the additions, or all
    of them fit."""
    words = system.words
    ball = words.ball(sample_radius(words))
    pick = st.integers(0, len(ball) - 1).map(ball.__getitem__)
    elements = data.draw(st.lists(pick, max_size=4))
    optional = data.draw(st.lists(pick, max_size=8))
    full = reference_complete_closure(words, elements + optional, max_size=10**9)
    max_size = data.draw(st.integers(1, len(full) + 1))
    got = outcome(lambda: id_closure(words, elements, max_size, optional))
    want = outcome(lambda: reference_complete_closure(words, elements, max_size, optional))
    seeds = len({words.normalize([]), *elements})
    if seeds > max_size:
        assert got == ("closure exceeds size budget", {"max_size": max_size, "words": seeds})
        assert isinstance(want, tuple) or len(want) > max_size
    else:
        assert got == want
        if not optional:
            assert list(words.complete_closure(elements)) == id_closure(words, elements)


def s3_d4_words():
    """S3 and D4, not joined: most letters are not involutions."""
    return WordContext(SimplicialGraph.build(("s", "d"), []), [symmetric_group(3), dihedral_group(4)])


def test_id_closure_budget_outcomes():
    """On S3 * D4 the closure of x = d s d (6 words) overflows a cap of 5
    and raises; with y = s as the input, x as an optional word overflows
    the cap and ends the additions, so the one-letter d' after it, which
    would fit, is left out."""
    words = s3_d4_words()
    ball = words.ball(3)
    x, y, d = ball[-1], ball[5], ball[7]
    assert len(words.complete_closure([x])) == 6 and d not in words.complete_closure([x, y])
    with pytest.raises(BudgetExceededError, match="closure exceeds size budget"):
        words.complete_closure_ids([words.intern(x.letters)], max_size=5)
    got = id_closure(words, [y], 5, [x, d])
    assert got == [words.normalize([]), y] == list(reference_complete_closure(words, [y], 5, [x, d]))
    assert id_closure(words, [y], 5, [d, x]) == [words.normalize([]), y, d]


def reversed_inverse_id(words, i):
    """Id of the word of word ``i``'s inverted letters in reverse."""
    groups = words.groups
    letters = words._element(i).letters
    return words._word_id(Letter(l.vertex, groups[l.vertex].inverse(l.elem)) for l in reversed(letters))


@st.composite
def non_involution_words(draw):
    """A word context of 2-4 vertices, the first S3 and the second D4, the
    others Z/2, Z/3, S3 or D4, with random edges, and a list of ids of
    random words of up to 12 raw letters, in no order and with repeats."""
    n = draw(st.integers(2, 4))
    kinds = ["S3", "D4"] + [draw(st.sampled_from(sorted(GROUPS))) for _ in range(n - 2)]
    groups = [GROUPS[k][0] for k in kinds]
    edges = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    words = WordContext(SimplicialGraph.build(tuple(range(n)), edges), groups)
    letter = st.integers(0, n - 1).flatmap(lambda v: st.tuples(st.just(v), st.integers(0, groups[v].order - 1)))
    raws = draw(st.lists(st.lists(letter, max_size=12), min_size=1, max_size=8))
    return words, [words.intern(words.normalize(raw).letters) for raw in raws]


@settings(max_examples=80, deadline=None)
@given(non_involution_words())
def test_inverse_ids_match_the_reversed_inverted_letters(case):
    """Each inverse is the word of the inverted letters in reverse, and
    every x^-1 x is the identity."""
    words, ids = case
    inverses = words.inverse_ids(ids)
    assert inverses == [reversed_inverse_id(words, i) for i in ids]
    products = words.product_ids(inverses, ids)
    assert [row[k] for k, row in enumerate(products)] == [words.intern(())] * len(ids)


def successor_walk(words, a, letters) -> int:
    """Id of the product of word ``a`` and ``letters``, one ``successor``
    step per letter."""
    for letter in letters:
        a = words.successor(a, letter)
    return a


@settings(max_examples=80, deadline=None)
@given(non_involution_words(), st.randoms(use_true_random=False))
def test_product_ids_match_successor_walks_and_pushed_words(case, pyrandom):
    """On a context that holds only the words' prefix chains, so the walk
    meets appends, merges and passes it has not seen, ``product_ids`` of
    the words and their inverses (with repeats, the identity, in no order)
    gives, per pair, the id that a walk of ``successor`` alone gives on the
    same context and the word of a walk on a second cold context, and that
    word is ``reference_push``'s."""
    words, ids = case
    letters = [words._element(i).letters for i in ids]
    letters += [words._element(i).letters for i in words.inverse_ids(ids)] + [()]
    cold, other = (WordContext(words.graph, words.groups) for _ in range(2))
    lefts = [cold.intern(x) for x in letters] + [cold.intern(pyrandom.choice(letters))]
    rights = [cold.intern(x) for x in pyrandom.sample(letters, len(letters))]
    pyrandom.shuffle(lefts)
    rows = cold.product_ids(lefts, rights)
    assert [len(row) for row in rows] == [len(rights)] * len(lefts)
    for a, row in zip(lefts, rows):
        x = cold._element(a).letters
        for b, got in zip(rights, row):
            y = cold._element(b).letters
            assert got == successor_walk(cold, a, y)
            want = reference_push(cold, y, x).letters
            assert cold._element(got).letters == want
            assert other._element(successor_walk(other, other.intern(x), y)).letters == want


def test_inverses_of_non_involutions_invert_back():
    """On S3 * D4 the inverses of a closed set mostly differ from the words,
    and inverting them again gives the words back."""
    words = s3_d4_words()
    ids = words.complete_closure_ids([words.intern(x.letters) for x in words.ball(3)])
    inverses = words.inverse_ids(ids)
    assert sum(i != j for i, j in zip(ids, inverses)) > len(ids) // 2
    assert inverses == [reversed_inverse_id(words, i) for i in ids]
    assert words.inverse_ids(inverses) == ids


def test_words_longer_than_the_recursion_limit():
    """The inverse walk and the truncations use no recursion: a word of
    three times the recursion limit over S3 * D4 gets the inverse of its
    inverted letters in reverse, and as truncations the words of its
    letters after the first and before the last."""
    words = s3_d4_words()
    rng = np.random.default_rng(5)
    n = 3 * sys.getrecursionlimit()
    raw = [(v, int(rng.integers(1, 6 if v == 0 else 8))) for v in (np.arange(n) % 2).tolist()]
    x = words.normalize(raw)
    assert len(x.letters) == n
    i = words.intern(x.letters)
    assert words.inverse_ids([i]) == [reversed_inverse_id(words, i)]
    assert words.inverse(x) == words._element(reversed_inverse_id(words, i))
    assert set(words._truncation_ids(i)) == {words._word_id(x.letters[1:]), words._word_id(x.letters[:-1])}
