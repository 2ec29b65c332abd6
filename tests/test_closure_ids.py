"""Complete sets on word ids against the element paths.

``WordContext.complete_closure_ids`` closes a set of word ids under
immediate truncations memoized per id, and ``closed_set_inverses`` inverts
a closed set one successor step per word from its members' tails.  Both are
compared on random graph products of Z/2, Z/3, S3 and D4 vertices, where
letters are not all involutions: the closure with
``reference_complete_closure`` element by element and in order, budget
outcomes included; the inverses with the letter walk of ``_inverse_id``;
and the tails with the word of the letters after the first.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.errors import BudgetExceededError
from gpmult.graphgroup import SimplicialGraph, dihedral_group, symmetric_group
from gpmult.wordcraft import WordContext
from support import growth_sphere_sizes, reference_complete_closure
from test_ball_arrays import graph_products


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


def id_closure(words, elements, max_size, optional):
    """``complete_closure_ids`` on the ids of the elements, read back."""
    ids = words.complete_closure_ids(
        [words.intern(x.letters) for x in elements],
        max_size,
        [words.intern(x.letters) for x in optional],
    )
    return [words._element(i) for i in ids]


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
    if len({words.identity(), *elements}) > max_size:
        assert got == ("closure exceeds size budget", {"max_size": max_size})
        assert isinstance(want, tuple) or len(want) > max_size
    else:
        assert got == want
        assert outcome(lambda: words.complete_closure(elements, max_size, optional)) == want


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
    assert got == [words.identity(), y] == list(reference_complete_closure(words, [y], 5, [x, d]))
    assert id_closure(words, [y], 5, [d, x]) == [words.identity(), y, d]


def assert_inverses_and_tails(words, ids):
    inverses = words.closed_set_inverses(ids)
    assert len(inverses) == len(ids)
    for i, inv in zip(ids, inverses):
        x = words._element(i)
        assert inv == words._inverse_id(x)
        if i:
            assert words._tail(i) == words._word_id(x.letters[1:])


@settings(max_examples=80, deadline=None)
@given(graph_products(), st.data())
def test_set_inverses_and_tails_match_the_letter_walks(system, data):
    """Over the closure of a few ball words, each member's inverse from its
    tail is the letter walk's, and its tail is the word of its letters
    after the first."""
    words = system.words
    ball = words.ball(sample_radius(words))
    picks = data.draw(st.lists(st.integers(0, len(ball) - 1), max_size=5))
    ids = words.complete_closure_ids([words.intern(ball[i].letters) for i in picks], max_size=10**9)
    assert_inverses_and_tails(words, ids)


def test_set_inverses_of_non_involutions_invert_back():
    """On S3 * D4 the inverses of a closed set differ from the words, and
    inverting them again gives the words back."""
    words = s3_d4_words()
    ids = words.complete_closure_ids([words.intern(x.letters) for x in words.ball(3)])
    inverses = words.closed_set_inverses(ids)
    assert sum(i != j for i, j in zip(ids, inverses)) > len(ids) // 2
    assert_inverses_and_tails(words, ids)
    order = words.complete_closure_ids(inverses)
    assert sorted(order) == sorted(ids)
    back = dict(zip(order, words.closed_set_inverses(order)))
    assert [back[j] for j in inverses] == ids


def test_tails_of_words_longer_than_the_recursion_limit():
    """The tail memo fills upward from the longest prefix with a known
    tail, with no recursion: a word of three times the recursion limit
    over S3 * D4 gets the tail of its letters after the first."""
    words = s3_d4_words()
    rng = np.random.default_rng(5)
    n = 3 * sys.getrecursionlimit()
    raw = [(v, int(rng.integers(1, 6 if v == 0 else 8))) for v in (np.arange(n) % 2).tolist()]
    x = words.normalize(raw)
    assert len(x.letters) == n
    i = words.intern(x.letters)
    assert words._tail(i) == words._word_id(x.letters[1:])
    assert set(words._truncation_ids(i)) == {words._word_id(x.letters[1:]), words._word_id(x.letters[:-1])}
