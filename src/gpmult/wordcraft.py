"""Reduced words, canonical forms and combinatorics in graph products of groups.

Elements of the graph product are stored as canonical words: reduced letter
sequences that are lexicographically least among all rearrangements (the
rearrangement class of a reduced word is its orbit under swapping adjacent
letters whose vertices are joined in the graph).  A letter appended to a
canonical word either merges with the one same-vertex letter it can commute
back to, or is inserted at the one place that keeps the word least (Green's
normal form theorem; the shortlex forms of Hermiller and Meier).

Single words are interned as integer ids.  A prefix of a canonical word is
canonical, so the ids form a prefix tree like the ball arrays, rooted at
the identity, id 0, from the context's construction on: an id is stored
as the id of its prefix, its last letter and its length, and a word's
letters are read back along its prefixes.  The successor table is a flat
list with one row of letter slots per id, holding the id of the canonical
product of the word and the slot's letter (-1 while unknown):
normal forms, products and inverses are walks of successors from the
identity or from the left factor (an inverse by the inverted letters, met
from the last along the word's prefixes).  A miss does not rescan the
word: it walks down the prefixes while the new letter passes their last
letters, to the prefix whose last letter it merges with or stops at, and
rebuilds upward, so it costs table lookups.  Where the letter stops at
once is one flat table over (last slot, slot), the append rule, which the
product walk of ``product_ids`` reads too, so an appended word is interned
there with no miss.

Truncation-closed sets are built on ids too.  The immediate truncations of
a word are memoized per id: deleting its last letter gives its prefix, and
any other deletable letter is deleted by walking the letters after it from
the prefix that ends before it.

Balls do not go through the memo.  The canonical words form a regular
language (Hermiller-Meier, J. Algebra 171, 1995), so ``ball_arrays`` lists
a ball sphere by sphere as integer arrays, one numpy step per sphere, with
a table of successors over it filled by the cases of ``successor`` from
its one merge table, and ``expression_table`` lists the reduced
expressions of its words as one more prefix tree; the memo serves single
words and is the oracle of both.

A word is *reduced* when for every pair of equal-vertex positions k < l some
intermediate position p carries a vertex not joined to it; equivalently, no
two same-vertex letters can be brought together by allowed swaps.  All
equivalent reduced words are permutations of one another and have equal
length, so word length and the vertex multiset are well defined on elements.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    ElementOutOfRangeError,
    GPMultError,
    NoV0LetterError,
)
from .graphgroup import FiniteGroup, SimplicialGraph

DEFAULT_BUDGET = 100_000


class Letter(NamedTuple):
    """One syllable of a word: a non-identity element of one vertex group."""

    vertex: int  # vertex index in the graph's declared order
    elem: int    # group element index; stored words never carry the identity


@dataclass(frozen=True, eq=False)
class GPElement:
    """Canonical (lexicographically least reduced) word in a graph product."""

    ctx: "WordContext" = field(repr=False)
    letters: tuple = ()

    def __eq__(self, other):
        return (
            isinstance(other, GPElement)
            and self.ctx is other.ctx
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    @property
    def vertex_word(self) -> tuple:
        return tuple(l.vertex for l in self.letters)

    def __repr__(self):
        return f"GPElement{list(map(tuple, self.letters))!r}"


def _ball_budget_error(budget: int, radius_reached: int, words: int) -> BudgetExceededError:
    return BudgetExceededError(
        "ball exceeds budget", budget=budget, radius_reached=radius_reached, words=words
    )


def _class_budget_error(letters, budget: int, sequences: int) -> BudgetExceededError:
    return BudgetExceededError(
        "rearrangement class exceeds budget",
        budget=budget,
        word=[tuple(l) for l in letters],
        sequences=sequences,
    )


@dataclass(frozen=True)
class StandardForm:
    """Decomposition x = y * c * a * b singled out by the length minimizations.

    ``a`` is a letter at the distinguished vertex ``v0``; ``b`` is shortest
    such that the prefix through ``a`` realizes the maximal non-commuting
    count ``nc`` over the truncation down-set of x, and ``y`` is shortest with
    y*a below x realizing the same count.
    """

    y: GPElement
    c: GPElement
    a: Letter
    b: GPElement
    v0: int
    nc: int


class BallArrays(NamedTuple):
    """A ball as integer arrays, word i the i-th word of ``WordContext.ball``
    (see ``WordContext.ball_arrays``)."""

    prefix: np.ndarray  # int32 ball index of each word's prefix (-1 at the identity)
    last: np.ndarray  # int32 slot of each word's last letter (-1 at the identity)
    ends: tuple  # ends[t] = |ball(t)|, up to the radius or the last nonempty sphere
    succ: np.ndarray  # int32 (|ball(radius - 1)|, slots): index of the product with a slot's letter

    def spheres(self, radius: int | None = None):
        """(start, end) of the spheres 1, 2, ... of ball(radius), by default
        of the whole listed ball."""
        ends = self.ends[: None if radius is None else radius + 1]
        return zip(ends[:-1], ends[1:])

    def slots(self) -> list:
        """The slots of each word's letters, read along its prefixes."""
        out = [()]
        for p, s in zip(self.prefix[1:].tolist(), self.last[1:].tolist()):
            out.append(out[p] + (s,))
        return out


class ExpressionTable(NamedTuple):
    """Every reduced expression of every word of a ball as a prefix tree of
    arrays like ``BallArrays`` (see ``WordContext.expression_table``)."""

    word: np.ndarray  # int32 ball index of each expression's word
    prefix: np.ndarray  # int32 index of each expression's prefix (-1 at the empty one)
    last: np.ndarray  # int32 slot of each expression's last letter (-1 at the empty one)
    ends: tuple  # ends[t] = number of expressions of length at most t


class WordContext:
    """A graph together with one finite group per vertex.

    Owns every word-level operation; elements are only meaningful relative to
    the context that produced them, and mixing contexts raises
    ``ContextMismatchError``.
    """

    def __init__(self, graph: SimplicialGraph, groups: Sequence[FiniteGroup]):
        if len(groups) != graph.n:
            raise ContextMismatchError(
                "need one group per vertex", vertices=graph.n, groups=len(groups)
            )
        self.graph = graph
        self.groups = tuple(groups)
        self._downset_cache: dict = {}  # unfilled; the benchmark's cold-cache test reads it
        self._sf_cache: dict = {}
        # radius -> per vertex the (class, y c index, nc) arrays over the ball
        self._sf_tables: dict = {}
        self._ball_arrays: dict = {}  # radius -> BallArrays
        # per id the ids of its immediate truncations
        self._truncations: dict = {}
        self._slot_offset = tuple(
            sum(g.order for g in self.groups[:v]) for v in range(graph.n)
        )
        self._letter_slots = sum(g.order for g in self.groups)
        self._unknown_row = [-1] * self._letter_slots
        # interned canonical words: per id the id of its prefix, the slot of
        # its last letter and its length (-1, -1 and 0 for the identity, id 0)
        self._id_prefix, self._id_last, self._id_len = [-1], [-1], [0]
        # successor table: entry id * letter_slots + slot is the id of the
        # canonical product of word id and the slot's letter, -1 while
        # unknown; each new id appends its row, and when the product is the
        # word with the letter appended, its entry is what interns that word
        self._succ: list = list(self._unknown_row)
        # per vertex the vertices not joined to it, itself included
        self._apart = tuple(
            frozenset(u for u in range(graph.n) if not graph.adjacent(u, v))
            for v in range(graph.n)
        )
        # the letter of each slot (None at a group identity)
        self._slot_letter = tuple(
            None if g == grp.identity else Letter(v, g)
            for v, grp in enumerate(self.groups)
            for g in range(grp.order)
        )
        # the vertex of each slot, and the adjacency matrix
        self._slot_vertex = np.array(
            [v for v, grp in enumerate(self.groups) for _ in range(grp.order)], dtype=np.intp
        )
        self._adjacency = np.array(
            [[graph.adjacent(u, v) for v in range(graph.n)] for u in range(graph.n)], dtype=bool
        ).reshape(graph.n, graph.n)
        # the merge rule: the slot of the product of slots a and b of one
        # vertex is _merge[_merge_row[a] + b], _merge holding the vertex
        # groups' tables as slots one after another
        merge, row = [], []
        for off, grp in zip(self._slot_offset, self.groups):
            row += (len(merge) - off + grp.order * np.arange(grp.order)).tolist()
            merge += (off + grp.table.ravel()).tolist()
        self._merge, self._merge_row = np.array(merge, np.intp), np.array(row, np.intp)
        # plain-list copies for the successor walk, with the vertex of each
        # slot and the slot of each letter's inverse
        self._merge_list, self._merge_row_list = merge, row
        self._vertex_of = self._slot_vertex.tolist()
        self._slot_inverse = [
            off + grp.inverse(g) for off, grp in zip(self._slot_offset, self.groups) for g in range(grp.order)
        ]
        # the append rule: entry (a + 1) * letter_slots + s says whether a
        # canonical word whose last letter has slot a (-1 at the identity)
        # stays canonical with the letter of slot s appended, that is
        # whether the word is the identity or the two vertices differ and
        # are not joined
        v = self._slot_vertex
        apart = ~self._adjacency[v[:, None], v[None, :]] & (v[:, None] != v[None, :])
        self._appends = [True] * self._letter_slots + apart.ravel().tolist()

    # ------------------------------------------------------------------
    # constructors

    def _check_letter(self, vertex: int, elem: int) -> None:
        if not (0 <= vertex < self.graph.n):
            raise ElementOutOfRangeError("vertex index out of range", vertex=vertex)
        if not (0 <= elem < self.groups[vertex].order):
            raise ElementOutOfRangeError(
                "group element out of range", vertex=vertex, elem=elem
            )

    def _check_ctx(self, *elements) -> None:
        for x in elements:
            if not isinstance(x, GPElement) or x.ctx is not self:
                raise ContextMismatchError("element belongs to a different context")

    # ------------------------------------------------------------------
    # normalization

    def normalize(self, raw) -> GPElement:
        """Canonical form of an arbitrary letter sequence.

        Accepts (vertex, elem) pairs; identity letters are dropped, mergeable
        same-vertex letters are combined (possibly cancelling), and the
        result is the lexicographically least reduced word of its class.
        """
        letters = []
        for v, g in raw:
            self._check_letter(v, g)
            letter = self._slot_letter[self._slot_offset[v] + g]
            if letter is not None:
                letters.append(letter)
        return self._element(self._word_id(letters))

    def is_reduced(self, vertices) -> bool:
        """Reducedness of a vertex word in one scan, ``free`` holding the
        vertices a next letter would merge with: those so far joined to all later."""
        adjacent = self.graph.adjacent
        free = set()
        for v in vertices:
            if v in free:
                return False
            free = {u for u in free if adjacent(u, v)} | {v}
        return True

    # ------------------------------------------------------------------
    # group operations

    def multiply(self, x: GPElement, y: GPElement) -> GPElement:
        self._check_ctx(x, y)
        i = self.intern(x.letters)
        for l in y.letters:
            i = self.successor(i, l)
        return self._element(i)

    def inverse(self, x: GPElement) -> GPElement:
        self._check_ctx(x)
        return self._element(self.inverse_ids([self.intern(x.letters)])[0])

    # ------------------------------------------------------------------
    # interned words

    def intern(self, letters: tuple) -> int:
        """Integer id of a canonical word, interning its prefixes first.

        Every prefix of the word gets a smaller id than the word, so
        ascending ids list each word after all of its prefixes.
        """
        i = 0
        offset = self._slot_offset
        for l in letters:
            i = self._child(i, offset[l.vertex] + l.elem)
        return i

    def _child(self, i: int, slot: int) -> int:
        """Id of word ``i`` with the letter of ``slot`` appended; only called
        where that word is canonical."""
        key = i * self._letter_slots + slot
        j = self._succ[key]
        if j < 0:
            j = self._succ[key] = len(self._id_prefix)
            self._id_prefix.append(i)
            self._id_last.append(slot)
            self._id_len.append(self._id_len[i] + 1)
            self._succ.extend(self._unknown_row)
        return j

    def successor(self, i: int, letter: Letter) -> int:
        """Id of the canonical product of word ``i`` and one letter, memoized
        (the walk of ``_successor`` from the letter's slot)."""
        return self._successor(i, self._slot_offset[letter.vertex] + letter.elem)

    def _successor(self, i: int, slot: int) -> int:
        """Id of the canonical product of word ``i`` and the letter of
        ``slot``, memoized.

        A miss walks down the prefixes of i while the letter l passes their
        last letters, that is while the last letter a of the current word
        w a is joined to l at another vertex, and stops at a memoized
        successor, where the append rule holds (the identity, or an a not
        joined to l: l is appended) or at an a of l's vertex (they merge:
        the product is w, or w with a l in a's place).  It then rebuilds
        upward: each passed letter a is put back at the end of the product
        w' of w and l, except when w' is w with l appended and l's vertex is
        larger than a's: then the least order keeps l after a, and the
        product is w a l.
        """
        slots, succ = self._letter_slots, self._succ
        j = succ[i * slots + slot]
        if j >= 0:
            return j
        prefix, last, vertex, appends = self._id_prefix, self._id_last, self._vertex_of, self._appends
        v = vertex[slot]
        passed = []  # the words whose last letter l passed, outermost first
        while True:
            a = last[i]
            if appends[(a + 1) * slots + slot]:
                j = self._child(i, slot)
                break
            if vertex[a] == v:
                g = self._merge_list[self._merge_row_list[a] + slot]
                p = prefix[i]
                j = p if self._slot_letter[g] is None else self._child(p, g)
                succ[i * slots + slot] = j
                break
            passed.append(i)
            i = prefix[i]
            j = succ[i * slots + slot]
            if j >= 0:
                break
        for i in reversed(passed):
            p, a = prefix[i], last[i]
            if prefix[j] == p and last[j] == slot and vertex[a] < v:
                j = self._child(i, slot)
            else:
                j = succ[i * slots + slot] = self._child(j, a)
        return j

    def _word_id(self, letters) -> int:
        """Id of the canonical word of a letter sequence, one successor per
        letter from the identity."""
        i = 0
        for l in letters:
            i = self.successor(i, l)
        return i

    def inverse_ids(self, ids) -> list:
        """Ids of the inverses of the words ``ids``.

        x^-1 is x's inverted letters in reverse, and the walk down x's
        prefixes meets its letters from the last, so x^-1 is one successor
        step per letter from the identity, with no memo and no recursion.
        """
        prefix, last, inverse = self._id_prefix, self._id_last, self._slot_inverse
        out = []
        for i in ids:
            j = 0
            while i:
                j = self._successor(j, inverse[last[i]])
                i = prefix[i]
            out.append(j)
        return out

    def _element(self, i: int) -> GPElement:
        """The canonical word of id ``i``, read back along its prefixes."""
        letters = []
        while i > 0:
            letters.append(self._slot_letter[self._id_last[i]])
            i = self._id_prefix[i]
        return GPElement(self, tuple(reversed(letters)))

    def product_ids(self, lefts, rights) -> list:
        """Ids of the canonical products of words ``lefts[i]`` and
        ``rights[j]`` (given as ids), as one list per left factor.

        The right factors and their prefixes are listed with every prefix
        before its extensions, so each product is the successor of the
        product with the prefix of its right factor: one walk per distinct
        left factor over the prefix closure.  A step is one table lookup
        where the successor table holds the product; where the append rule
        makes it, ``_child`` interns the new id; only merges and passes call
        ``_successor``.
        """
        prefix, last = self._id_prefix, self._id_last
        pos = {0: 0}  # closure word id -> its place in a row
        steps = []  # per closure word after the identity: (place of prefix, slot)
        for j in rights:
            chain = []
            while j not in pos:
                chain.append(j)
                j = prefix[j]
            for j in reversed(chain):
                pos[j] = len(steps) + 1
                steps.append((pos[prefix[j]], last[j]))
        cols = [pos[j] for j in rights]
        succ, slots, appends, child = self._succ, self._letter_slots, self._appends, self._child
        rows: dict = {}  # left id -> its products with the closure
        for a in lefts:
            if a in rows:
                continue
            row = rows[a] = [a]
            append = row.append
            for p, slot in steps:
                i = row[p]
                key = i * slots + slot
                j = succ[key]
                if j < 0:
                    if appends[(last[i] + 1) * slots + slot]:
                        j = child(i, slot)
                    else:
                        j = self._successor(i, slot)
                append(j)
        return [[row[c] for c in cols] for row in map(rows.__getitem__, lefts)]

    def ball_word_ids(self, radius: int, indices) -> list:
        """Ids of the ``ball(radius)`` words at ball ``indices``, in their
        order, each word interned as the child of its prefix along the
        ball's arrays."""
        arrays = self.ball_arrays(radius)
        prefix, last = arrays.prefix.item, arrays.last.item
        ids = {0: 0}  # ball index -> id
        for x in indices:
            chain = []  # x and its prefixes down to one with an id
            while x not in ids:
                chain.append(x)
                x = prefix(x)
            i = ids[x]
            for y in reversed(chain):
                i = ids[y] = self._child(i, last(y))
        return [ids[x] for x in indices]

    # ------------------------------------------------------------------
    # rearrangements and the truncation order

    def rearrangements(self, x: GPElement, budget: int = DEFAULT_BUDGET):
        """All reduced letter sequences equivalent to x, sorted.

        Breadth-first search over adjacent commuting swaps; raises
        ``BudgetExceededError``, with the word and the count of sequences
        seen, when the class exceeds ``budget`` sequences.
        """
        self._check_ctx(x)
        return self._rearrangements_seq(x.letters, budget)

    def _rearrangements_seq(self, letters: tuple, budget: int):
        seen = {tuple(letters)}
        frontier = deque(seen)
        while frontier:
            w = frontier.popleft()
            for i in range(len(w) - 1):
                if self.graph.adjacent(w[i].vertex, w[i + 1].vertex):
                    s = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                    if s not in seen:
                        seen.add(s)
                        if len(seen) > budget:
                            raise _class_budget_error(letters, budget, len(seen))
                        frontier.append(s)
        return sorted(seen)

    def _truncation_ids(self, i: int) -> tuple:
        """Ids of the words r[1:] and r[:-1] over the rearrangements r of
        word ``i``, memoized per id, with no rearrangement listed.

        Two letters not joined (same-vertex letters included) keep their
        order in every rearrangement, so a letter can come first exactly
        when no earlier letter is apart from it, and last when no later one
        is; r[1:] or r[:-1] is then the word with that letter deleted.
        Deleting the last letter leaves the prefix; any other letter is
        deleted by walking the letters after it from the prefix that ends
        before it.
        """
        out = self._truncations.get(i)
        if out is None:
            prefix, last, vertex, apart = self._id_prefix, self._id_last, self._vertex_of, self._apart
            path = [i]  # the word's prefixes, down to the identity
            while path[-1]:
                path.append(prefix[path[-1]])
            path.reverse()  # path[k]: the prefix of k letters
            slots = [last[j] for j in path[1:]]
            ends = set()  # indices of the letters that can come first or last
            for order in (range(len(slots)), reversed(range(len(slots)))):
                seen = set()
                for k in order:
                    v = vertex[slots[k]]
                    if apart[v].isdisjoint(seen):
                        ends.add(k)
                    seen.add(v)
            out = []
            for k in sorted(ends):
                t = path[k]
                for s in slots[k + 1 :]:
                    t = self._successor(t, s)
                out.append(t)
            out = self._truncations[i] = tuple(out)
        return out

    def _leq(self, x: int, y: int, budget: int) -> bool:
        """Truncation order on ids: x below y when x arises by repeatedly
        dropping a first or last letter from rearrangements of y, that is
        when x is in the closure of y, of at most ``budget`` words."""
        if x == y:
            return True
        if self._id_len[x] >= self._id_len[y]:
            return False
        return x in self.complete_closure_ids([y], max_size=budget)

    def complete_closure(self, elements):
        """Smallest truncation-closed set containing the input and the identity,
        as elements: ``complete_closure_ids`` over the words' ids, under its
        default size cap.

        Closed means: with every member, all one-letter truncations of all its
        rearrangements are members too.  Sorted deterministically by (length,
        letters).
        """
        elements = list(elements)
        self._check_ctx(*elements)
        ids = self.complete_closure_ids([self.intern(x.letters) for x in elements])
        return tuple(map(self._element, ids))

    def complete_closure_ids(self, required, max_size: int = 10_000, optional=()) -> list:
        """Ids of the smallest truncation-closed set containing the identity
        and the words ``required``, sorted by (length, letters).

        ``max_size`` caps the closure, the input and the identity included.
        The set grows in batches, each by a breadth-first search over the
        ids of immediate truncations that stops at one id past
        ``max_size``: first the identity and ``required``, which raise
        ``BudgetExceededError`` when they do not fit, its ``words`` the
        number of ids held; then each id of ``optional`` in order, the first
        that does not fit ending the additions, so the result is the
        closure of the input and of the longest prefix of ``optional`` that
        fits.
        """
        out = set()
        for k, batch in enumerate(chain([(0, *required)], ([i] for i in optional))):
            new = set(batch) - out
            todo = deque(new)
            while todo and len(out) + len(new) <= max_size:
                for t in self._truncation_ids(todo.popleft()):
                    if t not in out and t not in new and len(out) + len(new) <= max_size:
                        new.add(t)
                        todo.append(t)
            if len(out) + len(new) > max_size:
                if k == 0:
                    raise BudgetExceededError(
                        "closure exceeds size budget", max_size=max_size, words=len(new)
                    )
                break
            out |= new
        # a closed set holds every member's prefix, which has a smaller id,
        # down to the identity, id 0; slots order letters as (vertex,
        # element) does
        prefix, last = self._id_prefix, self._id_last
        slots = {0: ()}
        for i in sorted(out)[1:]:
            slots[i] = slots[prefix[i]] + (last[i],)
        return sorted(out, key=lambda i: (len(slots[i]), slots[i]))

    # ------------------------------------------------------------------
    # non-commuting counts and standard form
    #
    # Two letters not joined (same-vertex letters included) keep their order
    # in every rearrangement of a reduced word, which is the heap of its
    # letters (Cartier-Foata), so both quantities below are read off the
    # canonical letters with no search.

    def _standard_labels(self, vs: tuple, v0: int) -> tuple:
        """The part of each letter of a reduced vertex word in its standard
        form x = y * c * a * b relative to v0, and the count ``nc``.

        ``(None, -1)`` without a v0 letter.  Else, with k the last v0
        letter: letter k is "a"; a later letter is "b" when some "a" or "b"
        letter before it is not joined to it (same-vertex letters are never
        joined), so it is reached by a chain of letters pairwise not joined;
        an earlier letter is "y" when some "y" or "a" letter after it is not
        joined to it; the rest are "c".  ``nc`` counts the letters before k
        not joined to v0, all of them "y".
        """
        if v0 not in vs:
            return None, -1
        k = len(vs) - 1 - vs[::-1].index(v0)
        apart = self._apart
        parts = ["c"] * len(vs)
        parts[k] = "a"
        seen = {v0}  # vertices of the "a" and "b" letters so far
        for j in range(k + 1, len(vs)):
            if not apart[vs[j]].isdisjoint(seen):
                parts[j] = "b"
                seen.add(vs[j])
        seen = {v0}  # vertices of the "y" and "a" letters so far
        nc = 0
        for i in reversed(range(k)):
            v = vs[i]
            if not apart[v].isdisjoint(seen):
                parts[i] = "y"
                seen.add(v)
                nc += v in apart[v0]
        return "".join(parts), nc

    def downset_nc_max(self, x: GPElement, v0: int) -> int:
        """Largest non-commuting count relative to v0 over the down-set of x.

        -1 without a v0 letter; else the number of letters before the last v0
        letter that are not joined to v0.  The prefix through that letter is
        a truncation with this count, and a truncation keeps a subset of x's
        letters in their order, so none has more before its last v0 letter.
        """
        self._check_ctx(x)
        return self._standard_labels(x.vertex_word, v0)[1]

    def standard_form(self, x: GPElement, v0: int) -> StandardForm:
        """The decomposition x = y * c * a * b relative to v0, memoized.

        Each part is the word of the letters ``_standard_labels`` gives it,
        in word order.  b holds what must stay after a, and y what y * a
        below x with count ``nc`` must hold, so b, then y, is shortest.
        Raises ``NoV0LetterError`` when x has no v0 letter.
        """
        self._check_ctx(x)
        key = (x.letters, v0)
        form = self._sf_cache.get(key)
        if form is None:
            parts, nc = self._standard_labels(x.vertex_word, v0)
            if parts is None:
                raise NoV0LetterError("element has no letter at the vertex", v0=v0)
            y, c, b = (
                self._element(self._word_id(l for l, p in zip(x.letters, parts) if p == name))
                for name in "ycb"
            )
            a = x.letters[parts.index("a")]
            form = self._sf_cache[key] = StandardForm(y, c, a, b, v0, nc)
        return form

    def standard_form_table(self, radius: int, budget: int = DEFAULT_BUDGET) -> tuple:
        """The standard forms over ``ball(radius, budget)``, per vertex v0 as
        three read-only integer arrays over the ball, memoized per radius.

        Per word x: its class, the y vertex word numbered in order of first
        appearance; the ball index of y * c; and ``nc``.  All three are -1
        without a v0 letter.  Each word's letters are labelled once per
        vertex and no form is built: y * c is the word of x's "y" and "c"
        letters in their order, since the labels split a rearrangement
        y c a b of x, and deleting the same letters from two equivalent
        words leaves equivalent words (Diekert-Rozenberg, The Book of
        Traces), so one walk of the ball's successor table over those
        letters gives its ball index.  The words' slots are read off the
        ball's arrays, so no element is built.
        """
        arrays = self.ball_arrays(radius, budget)
        table = self._sf_tables.get(radius)
        if table is None:
            n, vertex = self.graph.n, self._vertex_of
            ball, succ = arrays.slots(), arrays.succ.tolist()
            out = np.full((n, 3, len(ball)), -1, dtype=np.intp)  # [v0, (cls, yc, nc), i]
            classes = [{} for _ in range(n)]  # per vertex: y vertex word -> class
            for i, x in enumerate(ball):
                vs = tuple(vertex[s] for s in x)
                for v0 in range(n):
                    parts, out[v0, 2, i] = self._standard_labels(vs, v0)
                    if parts is None:
                        continue
                    y = tuple(v for v, p in zip(vs, parts) if p == "y")
                    out[v0, 0, i] = classes[v0].setdefault(y, len(classes[v0]))
                    yc = 0
                    for s, p in zip(x, parts):
                        if p in "yc":
                            yc = succ[yc][s]
                    out[v0, 1, i] = yc
            out.flags.writeable = False
            table = self._sf_tables[radius] = tuple(tuple(rows) for rows in out)
        return table

    def standard_form_candidates(self, x: GPElement, v0: int, budget: int = DEFAULT_BUDGET):
        """All minimizers of the exhaustive standard-form search: exactly
        one, the form ``standard_form`` reads off the letter order.

        Stage 1 splits rearrangements of x as p a b at a v0 letter a whose
        prefix p realizes the down-set maximum n of x, keeping the splits
        with the shortest b.  Stage 2 splits each rearrangement of such a p
        as y c, where the word y a is reduced with count n and lies below x,
        and keeps the least |y|.  The count of y is n exactly when c is a
        run of letters joined to v0, so per rearrangement the lengths of y
        start at the end of that run and stop at the first admissible one or
        past the best found so far; forms are built only for the winning
        length.
        """
        self._check_ctx(x)
        if v0 not in x.vertex_word:
            raise NoV0LetterError("element has no letter at the vertex", v0=v0)
        n_target, xid = self.downset_nc_max(x, v0), self.intern(x.letters)
        adjacent = self.graph.adjacent
        # stage 1: choose the split point at a v0 letter, minimizing |b|
        cands = []
        for r in self._rearrangements_seq(x.letters, budget):
            count = 0
            for i, letter in enumerate(r):
                if letter.vertex == v0 and count == n_target:
                    cands.append((r[:i], letter, r[i + 1 :]))
                if not adjacent(letter.vertex, v0):
                    count += 1
        if not cands:
            raise GPMultError(
                "no split realizes the down-set maximum", word=x.letters, v0=v0
            )
        min_b = min(len(b) for (_, _, b) in cands)
        # stage 2: split the prefix as y * c, minimizing |y|
        best_y = None
        winners = set()  # ids of y, c and b, and a, of the splits at best_y
        for prefix, letter, b in cands:
            if len(b) != min_b:
                continue
            for rp in self._rearrangements_seq(prefix, budget):
                start = len(rp)
                while start and adjacent(rp[start - 1].vertex, v0):
                    start -= 1
                stop = len(rp) if best_y is None else min(best_y, len(rp))
                if start > stop or not self.is_reduced(
                    tuple(m.vertex for m in rp[:start]) + (v0,)
                ):
                    continue
                y = self._word_id(rp[:start])
                for j in range(start, stop + 1):
                    if j > start:
                        y = self.successor(y, rp[j - 1])
                    if self._leq(self.successor(y, letter), xid, budget):
                        if j != best_y:
                            best_y, winners = j, set()
                        winners.add((y, self._word_id(rp[j:]), letter, self._word_id(b)))
                        break
        if best_y is None:
            raise GPMultError(
                "no admissible y split found", word=x.letters, v0=v0
            )
        element = self._element
        return {
            StandardForm(y=element(y), c=element(c), a=a, b=element(b), v0=v0, nc=n_target)
            for y, c, a, b in winners
        }

    # ------------------------------------------------------------------
    # enumeration

    def ball(self, radius: int, budget: int = DEFAULT_BUDGET):
        """All elements of word length at most ``radius``, sorted, read off
        ``ball_arrays``.

        ``BudgetExceededError`` names the radius whose words were being
        listed when the ball outgrew ``budget``.
        """
        letter = self._slot_letter
        slots = self.ball_arrays(radius, budget).slots()
        return tuple(GPElement(self, tuple(letter[s] for s in x)) for x in slots)

    def ball_arrays(self, radius: int, budget: int | None = None) -> BallArrays:
        """The ball of ``radius`` as integer arrays in ball order, memoized
        per radius; a ``budget`` bounds its words as in ``ball``.

        The canonical words are listed sphere by sphere by the graph-product
        automaton (Hermiller-Meier).  The state of a word is the set B of
        vertices a next letter may not take: a letter at w is appended iff w
        is not in B, and the new state is (B & adj(w)) | {w} | {v in adj(w)
        : v < w}.  Children listed in (parent, slot) order are sorted by
        letters, as the parents are, so each sphere is in ball order.

        The successor table over ball(radius - 1) holds each word's children
        and, at an identity slot, the word itself.  The other products are
        filled sphere by sphere by the cases of ``successor``: a letter of
        the last letter's vertex merges with it (the product is the prefix's
        successor by the slot the merge table gives, the prefix itself at
        the identity),
        and a letter joined to the last letter passes it (the product is the
        successor of the prefix's product by the last letter).
        """
        limit = None if budget is None else max(budget, 1) + 1  # the first count checked is 2
        arrays = self._ball_arrays.get(radius)
        if arrays is None:
            arrays = self._ball_arrays[radius] = self._enumerate_ball(radius, budget, limit)
        if limit is not None and arrays.ends[-1] >= limit:
            reached = int(np.searchsorted(arrays.ends, limit - 1, side="right"))
            raise _ball_budget_error(budget, reached, limit)
        return arrays

    def _enumerate_ball(self, radius: int, budget, limit) -> BallArrays:
        n, slots = self.graph.n, self._letter_slots
        adj, vertex = self._adjacency, self._slot_vertex
        letter = np.array([l is not None for l in self._slot_letter], dtype=bool)
        below = np.arange(n)[None, :] < np.arange(n)[:, None]
        added = np.eye(n, dtype=bool) | (adj & below)  # per appended vertex w
        prefix, last, ends = [np.array([-1], np.int32)], [np.array([-1], np.int32)], [1]
        state, lo = np.zeros((1, n), dtype=bool), 0
        for t in range(1, radius + 1):
            kids = np.flatnonzero(letter & ~state[:, vertex])
            if not kids.size:
                break
            if limit is not None and ends[-1] + kids.size >= limit:
                raise _ball_budget_error(budget, t, limit)
            parent, slot = np.divmod(kids, slots)
            w = vertex[slot]
            state = (state[parent] & adj[w]) | added[w]
            prefix.append((lo + parent).astype(np.int32))
            last.append(slot.astype(np.int32))
            lo = ends[-1]
            ends.append(lo + kids.size)
        prefix, last = np.concatenate(prefix), np.concatenate(last)
        rows = ends[min(radius - 1, len(ends) - 1)] if radius else 0  # |ball(radius - 1)|
        succ = np.full((rows, slots), -1, dtype=np.int32)
        succ[:, ~letter] = np.arange(rows, dtype=np.int32)[:, None]
        succ[prefix[1:], last[1:]] = np.arange(1, len(prefix), dtype=np.int32)
        for a, b in zip(ends[:-1], ends[1:]):
            if a >= rows:
                break
            i, col = np.nonzero(succ[a:b] < 0)
            i += a
            p, l = prefix[i], last[i]
            same = vertex[col] == vertex[l]
            merged = self._merge[self._merge_row[l[same]] + col[same]]
            succ[i[same], col[same]] = succ[p[same], merged]
            passed = ~same
            succ[i[passed], col[passed]] = succ[succ[p[passed], col[passed]], l[passed]]
        return BallArrays(prefix, last, tuple(ends), succ)

    def last_letter_table(self, radius: int, budget: int = DEFAULT_BUDGET) -> tuple:
        """Per word x of ``ball(radius, budget)`` and vertex u: the ball
        index of x with its last letter at u deleted, and the slot of that
        letter, as two ``(N, n)`` arrays, -1 where no rearrangement of x ends
        at u; and the size of x's rearrangement class.

        For x = x' l with l at w the last vertices are w and those of x'
        joined to w.  Deleting l leaves x'; deleting the letter at such a u
        leaves the successor of x' with it deleted by l, and that letter is
        x''s at u.  A rearrangement ends with the letter of one last vertex,
        so the class size is the sum of the class sizes of the deletions;
        sizes are capped just past ``budget``, and the first word in ball
        order whose class exceeds it raises the error ``rearrangements``
        raises for it.
        """
        arrays = self.ball_arrays(radius, budget)
        adj, vertex = self._adjacency, self._slot_vertex
        heads = np.full((len(arrays.prefix), self.graph.n), -1, dtype=np.int32)
        slots = heads.copy()
        sizes = np.ones(len(heads), dtype=np.int64)
        # a sum of n capped sizes must not wrap
        cap = min(max(budget, 1), np.iinfo(np.int64).max // (self.graph.n + 1)) + 1
        for a, b in arrays.spheres():
            p, s = arrays.prefix[a:b], arrays.last[a:b]
            w, own = vertex[s], np.arange(b - a)
            i, u = np.nonzero((heads[p] >= 0) & adj[w])
            heads[a + i, u] = arrays.succ[heads[p[i], u], s[i]]
            slots[a + i, u] = slots[p[i], u]
            heads[a + own, w], slots[a + own, w] = p, s
            h = heads[a:b]
            sizes[a:b] = np.minimum(np.where(h >= 0, sizes[h], 0).sum(axis=1), cap)
        over = np.flatnonzero(sizes >= cap)
        if over.size:
            raise _class_budget_error(self.ball(radius, budget)[over[0]].letters, budget, cap)
        return heads, slots, sizes

    def expression_table(self, radius: int, budget: int = DEFAULT_BUDGET) -> ExpressionTable:
        """Every reduced expression of every word of ``ball(radius, budget)``
        with no search, and the budget errors of ``last_letter_table``: the
        empty one first, then each word's in one run, in ball order.

        The expressions of x ending with its last letter at u are those of
        x with that letter deleted, followed by it (Diekert-Rozenberg, The
        Book of Traces), so per (x, u) they are the run of the deletion's
        expressions with one letter more; a word's run starts at the sum of
        the class sizes before it, so all lengths are listed at once.
        """
        heads, slots, sizes = self.last_letter_table(radius, budget)
        x, u = np.nonzero(heads >= 0)
        h, upto = heads[x, u], np.cumsum(sizes)
        count = sizes[h]
        # per new expression: its word, its prefix less its place, its last slot
        cols = np.repeat(np.array([x, upto[h] - np.cumsum(count), slots[x, u]], np.int32), count, axis=1)
        cols[1] += np.arange(cols.shape[1], dtype=np.int32)
        word, prefix, last = np.pad(cols, ((0, 0), (1, 0)), constant_values=-1)
        word[0] = 0
        ends = tuple(int(upto[b - 1]) for b in self.ball_arrays(radius).ends)
        return ExpressionTable(word, prefix, last, ends)

    # ------------------------------------------------------------------
    # serialization

    def to_pairs(self, letters):
        """Letters as [vertex_id, element_index] pairs (for JSON)."""
        return [[self.graph.vertices[l.vertex], int(l.elem)] for l in letters]

    def from_pairs(self, pairs) -> GPElement:
        letters = []
        for vid, elem in pairs:
            letters.append((self.graph.vertex_index(vid), int(elem)))
        return self.normalize(letters)
