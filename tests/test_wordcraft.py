"""Reduced words, canonical forms, truncation order, standard form.

The canonical-form engine is cross-checked against a brute-force oracle
that explores the full rewriting class of a raw word (drop identity
letters, merge same-vertex neighbours, swap adjacent commuting letters)
and takes the lexicographically least reduced member, and against the
earlier two-pass normalization (quadratic merge, then greedy extraction of
the least available letter) on random graph products.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.errors import (
    BudgetExceededError,
    NoV0LetterError,
)
from gpmult.graphgroup import (
    SimplicialGraph,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from gpmult.wordcraft import Letter, WordContext
from support import (
    budgeted_ball,
    downset,
    generators,
    id_closure,
    is_complete,
    leq,
    multipartite_graph,
    nc_length,
    nc_length_set,
    random_element,
    reference_complete_closure,
    reference_is_reduced,
    reference_push,
)
from test_composed_actions import _system_and_words


def free_pair():
    g = SimplicialGraph.build(["a", "b"], [])
    return WordContext(g, [cyclic_group(2), cyclic_group(2)])


def path_abc():
    """Vertices a < b < c with edges a-b and b-c only."""
    g = SimplicialGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    return WordContext(g, [cyclic_group(2), cyclic_group(3), cyclic_group(2)])


def triangle():
    g = SimplicialGraph.build(["p", "q", "r"], [("p", "q"), ("q", "r"), ("p", "r")])
    return WordContext(g, [cyclic_group(2)] * 3)


def k12_z2():
    g = multipartite_graph([1, 2])
    return WordContext(g, [cyclic_group(2)] * 3)


# ----------------------------------------------------------------------
# oracle: exhaustive rewriting

def _oracle_rewrites(ctx, w):
    graph = ctx.graph
    out = []
    for i, (v, e) in enumerate(w):
        if e == ctx.groups[v].identity:
            out.append(w[:i] + w[i + 1 :])
    for i in range(len(w) - 1):
        (v1, e1), (v2, e2) = w[i], w[i + 1]
        if v1 == v2:
            merged = (v1, int(ctx.groups[v1].table[e1, e2]))
            out.append(w[:i] + (merged,) + w[i + 2 :])
        elif graph.adjacent(v1, v2):
            out.append(w[:i] + (w[i + 1], w[i]) + w[i + 2 :])
    return out


def oracle_normalize(ctx, raw):
    """Least reduced member of the full rewriting class of a raw word."""
    start = tuple((int(v), int(e)) for v, e in raw)
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for nxt in _oracle_rewrites(ctx, w):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    reduced = [
        w
        for w in seen
        if all(e != ctx.groups[v].identity for v, e in w)
        and ctx.is_reduced([v for v, _ in w])
    ]
    return min(reduced, key=lambda w: (len(w), w))


# ----------------------------------------------------------------------
# reference: the earlier two-pass normalization

def _reference_reduce(ctx, letters):
    """Merge same-vertex letters whenever only commuting letters separate them."""
    work = list(letters)
    changed = True
    while changed:
        changed = False
        n = len(work)
        for i in range(n):
            vi = work[i].vertex
            for j in range(i + 1, n):
                if work[j].vertex != vi:
                    continue
                # first same-vertex successor; later ones are blocked by this one
                if all(ctx.graph.adjacent(vi, work[p].vertex) for p in range(i + 1, j)):
                    grp = ctx.groups[vi]
                    g = int(grp.table[work[i].elem, work[j].elem])
                    del work[j]
                    if g == grp.identity:
                        del work[i]
                    else:
                        work[i] = Letter(vi, g)
                    changed = True
                break
            if changed:
                break
    return work


def _reference_canonical(ctx, reduced):
    """Greedy: pull the least letter that commutes with everything before it."""
    rem = list(reduced)
    out = []
    while rem:
        best = None
        best_idx = -1
        for j, (v, _) in enumerate(rem):
            if all(ctx.graph.adjacent(v, rem[i].vertex) for i in range(j)):
                if best is None or v < best:
                    best, best_idx = v, j
        out.append(rem.pop(best_idx))
    return out


def reference_normalize(ctx, raw):
    """Canonical letters of a raw word by the two-pass reduce-then-extract."""
    letters = [Letter(v, g) for v, g in raw if g != ctx.groups[v].identity]
    return tuple(_reference_canonical(ctx, _reference_reduce(ctx, letters)))


def reference_ball(ctx, radius):
    out = {()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for l in generators(ctx):
                y = reference_normalize(ctx, x + (l,))
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(out, key=lambda w: (len(w), w))


@st.composite
def _graph_product(draw, max_vertices=5, max_order=4):
    """A random graph (random edges) with one cyclic group per vertex."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    orders = draw(st.lists(st.integers(1, max_order), min_size=n, max_size=n))
    graph = SimplicialGraph.build(list(range(n)), edges)
    return WordContext(graph, [cyclic_group(k) for k in orders])


def _draw_raw(draw, ctx, max_len=12):
    n = ctx.graph.n
    v_list = draw(st.lists(st.integers(0, n - 1), max_size=max_len))
    return [(v, draw(st.integers(0, ctx.groups[v].order - 1))) for v in v_list]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_word_layer_matches_reference_normalization(data):
    ctx = data.draw(_graph_product())
    raw_x = _draw_raw(data.draw, ctx)
    raw_y = _draw_raw(data.draw, ctx)
    x, y = ctx.normalize(raw_x), ctx.normalize(raw_y)
    assert x.letters == reference_normalize(ctx, raw_x)
    assert y.letters == reference_normalize(ctx, raw_y)
    assert ctx.multiply(x, y).letters == reference_normalize(ctx, x.letters + y.letters)
    inv = [(l.vertex, ctx.groups[l.vertex].inverse(l.elem)) for l in reversed(x.letters)]
    assert ctx.inverse(x).letters == reference_normalize(ctx, inv)
    radius = data.draw(st.integers(0, 3))
    assert [b.letters for b in ctx.ball(radius)] == reference_ball(ctx, radius)


@pytest.mark.parametrize("ctx_factory", [free_pair, path_abc, triangle, k12_z2])
def test_normalize_matches_rewriting_oracle(ctx_factory):
    ctx = ctx_factory()
    rng = np.random.default_rng(7)
    n = ctx.graph.n
    for _ in range(120):
        m = int(rng.integers(0, 6))
        raw = [
            (int(rng.integers(0, n)), 0) for _ in range(m)
        ]
        raw = [(v, int(rng.integers(0, ctx.groups[v].order))) for v, _ in raw]
        expect = oracle_normalize(ctx, raw)
        got = ctx.normalize(raw)
        assert tuple((l.vertex, l.elem) for l in got.letters) == expect


def test_bubble_pass_counterexample_is_handled():
    # c,a,b is stuck for naive adjacent-swap descent (a cannot move past c),
    # yet b,c,a is the least member of its class; inserting b must carry it
    # past a and c to the front.
    ctx = path_abc()
    a, b, c = 0, 1, 2
    x = ctx.normalize([(c, 1), (a, 1), (b, 1)])
    assert x.vertex_word == (b, c, a)
    rearrs = ctx.rearrangements(x)
    assert x.letters == min(rearrs, key=lambda r: (len(r), r))
    assert [tuple(vw for vw, _ in r) for r in rearrs] == sorted(
        [(b, c, a), (c, a, b), (c, b, a)]
    )


def test_normalize_merges_and_cancels():
    ctx = free_pair()
    assert ctx.normalize([(0, 1), (0, 1)]).letters == ()
    assert ctx.normalize([(0, 1), (0, 0)]).letters == (Letter(0, 1),)
    got = ctx.normalize([(0, 1), (1, 1), (1, 1), (0, 1)])
    assert got.letters == ()  # a b b a = a a = e over Z/2


def test_ball_counts_free_pair():
    ctx = free_pair()
    # alternating words: two per positive length
    for radius, expect in [(0, 1), (1, 3), (2, 5), (3, 7), (4, 9), (6, 13)]:
        assert len(ctx.ball(radius)) == expect


def test_ball_counts_triangle_is_whole_group():
    ctx = triangle()
    assert len(ctx.ball(3)) == 8
    assert len(ctx.ball(5)) == 8  # saturates at the direct product


def _k12_direct_product_count(L):
    """Independent enumeration of the hub x (spoke * spoke) ball."""
    # hub element costs 0 or 1 letters; spoke words alternate s1/s2 freely
    def alt_words(max_len):
        count = 1  # empty
        for k in range(1, max_len + 1):
            count += 2  # starts with s1 or s2, then forced
        return count

    total = 0
    for hub in (0, 1):
        budget = L - (1 if hub else 0)
        if budget >= 0:
            total += alt_words(budget)
    return total


def test_ball_counts_k12_match_direct_product_enumeration():
    ctx = k12_z2()
    for L in range(1, 6):
        assert len(ctx.ball(L)) == _k12_direct_product_count(L)


def test_rearrangements_budget():
    ctx = triangle()
    x = ctx.normalize([(0, 1), (1, 1), (2, 1)])
    assert len(ctx.rearrangements(x)) == 6
    with pytest.raises(BudgetExceededError):
        ctx.rearrangements(x, budget=3)
    with pytest.raises(BudgetExceededError):
        ctx.ball_arrays(4, 3)


def test_budget_errors_say_how_far_they_got():
    ctx = triangle()
    x = ctx.normalize([(0, 1), (1, 1), (2, 1)])
    with pytest.raises(BudgetExceededError, match="rearrangement class exceeds budget") as err:
        ctx.rearrangements(x, budget=3)
    assert err.value.context == {"budget": 3, "word": [(0, 1), (1, 1), (2, 1)], "sequences": 4}
    # the 3 letters of radius 1 fit with the identity; the first of radius 2 does not
    with pytest.raises(BudgetExceededError, match="ball exceeds budget") as err:
        ctx.ball_arrays(4, 3)
    assert err.value.context == {"budget": 3, "radius_reached": 1, "words": 4}
    with pytest.raises(BudgetExceededError) as err:
        ctx.ball_arrays(4, 5)
    assert err.value.context == {"budget": 5, "radius_reached": 2, "words": 6}
    # free on a, b, c: ba is no factor of abcab, whose closure holds 13 words
    free = WordContext(SimplicialGraph.build(list("abc"), []), [cyclic_group(2)] * 3)
    y = free.normalize([(0, 1), (1, 1), (2, 1), (0, 1), (1, 1)])
    x = free.normalize([(1, 1), (0, 1)])
    assert not leq(free, x, y)
    with pytest.raises(BudgetExceededError, match="closure exceeds size budget") as err:
        leq(free, x, y, budget=4)
    assert err.value.context == {"max_size": 4, "words": 5}
    assert not leq(free, x, y, budget=13)


def test_budget_bounds_every_rearrangement_search():
    """(Z/2)^4 as the complete graph K4: abcd has 24 rearrangements."""
    g = SimplicialGraph.build(list("abcd"), [(u, v) for u in "abcd" for v in "abcd" if u < v])
    ctx = WordContext(g, [cyclic_group(2)] * 4)
    abcd = ctx.normalize([(v, 1) for v in range(4)])
    assert len(budgeted_ball(ctx, 4, 20)) == 16
    searches = [
        lambda budget: ctx.standard_form_candidates(abcd, 0, budget),
        lambda budget: nc_length(ctx, abcd, 0, check_all=True, budget=budget),
    ]
    for search in searches:
        with pytest.raises(BudgetExceededError):
            search(20)
    for search in searches:
        search(24)


def test_group_laws_on_ball():
    ctx = path_abc()
    ball = ctx.ball(2)
    e = ctx.normalize([])
    for x in ball:
        assert ctx.multiply(x, ctx.inverse(x)) == e
        assert ctx.multiply(e, x) == x
    rng = np.random.default_rng(11)
    idx = rng.integers(0, len(ball), size=(40, 3))
    for i, j, k in idx:
        x, y, z = ball[i], ball[j], ball[k]
        assert ctx.multiply(ctx.multiply(x, y), z) == ctx.multiply(
            x, ctx.multiply(y, z)
        )


def test_inverse_is_involution():
    ctx = path_abc()
    for x in ctx.ball(3):
        assert ctx.inverse(ctx.inverse(x)) == x


# ----------------------------------------------------------------------
# truncation order, downsets, completeness

def test_downset_free_pair_frozen():
    ctx = free_pair()
    ab = ctx.normalize([(0, 1), (1, 1)])
    ds = downset(ctx, ab)
    as_words = sorted(x.vertex_word for x in ds)
    assert as_words == [(), (0,), (0, 1), (1,)]


def test_downset_contains_identity_and_self():
    ctx = path_abc()
    for x in ctx.ball(3):
        ds = downset(ctx, x)
        assert ctx.normalize([]) in ds
        assert x in ds
        for z in ds:
            assert leq(ctx, z, x)


def test_complete_closure_is_complete_and_contains_downsets():
    ctx = path_abc()
    rng = np.random.default_rng(3)
    ball = ctx.ball(3)
    for _ in range(10):
        sample = [ball[int(i)] for i in rng.integers(0, len(ball), size=3)]
        closure = ctx.complete_closure(sample)
        assert is_complete(ctx, closure)
        for x in sample:
            for z in downset(ctx, x):
                assert z in closure


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_capped_closure_adds_the_longest_prefix_of_optional_that_fits(data):
    """complete_closure_ids with ``optional`` is the closure of the input
    and of the longest prefix of ``optional`` whose closure fits in
    ``max_size``."""
    ctx = path_abc()
    ball = ctx.ball(4)
    pick = st.integers(0, len(ball) - 1).map(ball.__getitem__)
    base = data.draw(st.lists(pick, max_size=2))
    optional = data.draw(st.lists(pick, max_size=8))
    closures = [ctx.complete_closure(base + optional[:m]) for m in range(len(optional) + 1)]
    cap = data.draw(st.integers(len(closures[0]), len(closures[-1]) + 1))
    want = next(c for c in reversed(closures) if len(c) <= cap)
    assert tuple(id_closure(ctx, base, max_size=cap, optional=optional)) == want


def test_closure_counts_its_identity_and_input_against_max_size():
    """On the free pair of Z/2's (scenario free_pair_z2) ball(1) is three
    words and already closed: a cap of 2 raises, where the two-phase
    closure returned all three."""
    ctx = free_pair()
    ball = ctx.ball(1)
    with pytest.raises(BudgetExceededError, match="closure exceeds size budget") as err:
        id_closure(ctx, ball, max_size=2)
    assert err.value.context == {"max_size": 2, "words": 3}
    assert len(reference_complete_closure(ctx, ball, max_size=2)) == 3
    assert id_closure(ctx, ball, max_size=3) == list(ball)


def _closure_outcome(closure, ctx, *args, **kwargs):
    """Letters of the closure's words, or the message and context of its
    budget error."""
    try:
        return [x.letters for x in closure(ctx, *args, **kwargs)]
    except BudgetExceededError as err:
        return err.args[0], err.context


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closure_matches_the_two_phase_oracle(data):
    """The one-loop closure equals the two-phase one over the enumerated
    truncations, size-cap errors included, except where the identity and
    the input alone exceed ``max_size``: there it raises, and the oracle
    returned more than ``max_size`` words or raised."""
    ctx = data.draw(_graph_product())
    ball = ctx.ball(3)
    pick = st.integers(0, len(ball) - 1).map(ball.__getitem__)
    elements = data.draw(st.lists(pick, max_size=4))
    optional = data.draw(st.lists(pick, max_size=8))
    max_size = data.draw(st.integers(1, 12) | st.integers(1, 10**4))
    kwargs = dict(max_size=max_size, optional=optional)
    got = _closure_outcome(id_closure, ctx, elements, **kwargs)
    want = _closure_outcome(reference_complete_closure, ctx, elements, **kwargs)
    seeds = len({ctx.normalize([]), *elements})
    if seeds > max_size:
        assert got == ("closure exceeds size budget", {"max_size": max_size, "words": seeds})
        assert isinstance(want, tuple) or len(want) > max_size
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_reduced_matches_the_pairwise_oracle(data):
    ctx = data.draw(_graph_product())
    vertex = st.integers(0, ctx.graph.n - 1)
    for vs in data.draw(st.lists(st.lists(vertex, max_size=10), max_size=20)):
        assert ctx.is_reduced(vs) == reference_is_reduced(ctx, vs)


def test_merge_table_holds_each_vertex_group_table_in_slot_space():
    g = SimplicialGraph.build(list("abcd"), [("a", "b"), ("c", "d")])
    groups = [cyclic_group(3), symmetric_group(3), dihedral_group(4), cyclic_group(1)]
    ctx = WordContext(g, groups)
    assert len(ctx._merge) == sum(grp.order**2 for grp in groups)
    for off, grp in zip(ctx._slot_offset, groups):
        slots = off + np.arange(grp.order)
        merged = ctx._merge[ctx._merge_row[slots][:, None] + slots[None, :]]
        assert np.array_equal(merged, off + grp.table)


def test_is_complete_rejects_punctured_set():
    ctx = free_pair()
    ab = ctx.normalize([(0, 1), (1, 1)])
    full = downset(ctx, ab)
    missing = tuple(x for x in full if x.vertex_word != (1,))
    assert not is_complete(ctx, missing)
    assert not is_complete(ctx, [ab])  # identity missing


def test_leq_is_a_partial_order_on_a_sample():
    ctx = path_abc()
    ball = ctx.ball(2)
    for x in ball:
        assert leq(ctx, x, x)
    for x in ball:
        for y in ball:
            if leq(ctx, x, y) and leq(ctx, y, x):
                assert x == y


# ----------------------------------------------------------------------
# nc length

def test_nc_length_free_pair_frozen_values():
    ctx = free_pair()
    v0 = 0  # vertex a
    cases = {
        (): -1,
        ((0, 1),): 0,
        ((0, 1), (1, 1)): -1,
        ((1, 1), (0, 1)): 1,
        ((0, 1), (1, 1), (0, 1)): 2,
        ((1, 1), (0, 1), (1, 1)): -1,
    }
    for raw, expect in cases.items():
        x = ctx.normalize(list(raw))
        assert nc_length(ctx, x, v0) == expect


def test_nc_length_adjacent_letters_do_not_count():
    ctx = path_abc()
    a, b, c = 0, 1, 2
    # b is adjacent to a: in "b a" the trailing a-letter counts zero
    x = ctx.normalize([(b, 1), (a, 1)])
    assert nc_length(ctx, x, a) == 0
    # c is not adjacent to a
    y = ctx.normalize([(c, 1), (a, 1)])
    assert nc_length(ctx, y, a) == 1
    # a trailing non-neighbour disqualifies: "a c"
    z = ctx.normalize([(a, 1), (c, 1)])
    assert nc_length(ctx, z, a) == -1
    # ... but a trailing neighbour does not: "a b"
    w = ctx.normalize([(a, 1), (b, 1)])
    assert nc_length(ctx, w, a) == 0


def test_nc_length_representative_independent():
    ctx = path_abc()
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = random_element(ctx, rng, 5)
        for v0 in range(3):
            direct = nc_length(ctx, x, v0)
            assert direct == nc_length(ctx, x, v0, check_all=True)


@pytest.mark.parametrize("ctx_factory", [free_pair, path_abc, triangle, k12_z2])
def test_downset_maximum_matches_the_down_set_scan(ctx_factory):
    ctx = ctx_factory()
    ball = ctx.ball(4)
    for v0 in range(ctx.graph.n):
        for x in ball:
            assert ctx.downset_nc_max(x, v0) == nc_length_set(ctx, downset(ctx, x), v0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_downset_maximum_matches_the_down_set_scan_on_random_products(data):
    ctx = data.draw(_graph_product(max_vertices=4, max_order=3))
    x = ctx.normalize(_draw_raw(data.draw, ctx, max_len=6))
    for v0 in range(ctx.graph.n):
        assert ctx.downset_nc_max(x, v0) == nc_length_set(ctx, downset(ctx, x), v0)


def test_nc_length_set_on_downsets():
    ctx = free_pair()
    aba = ctx.normalize([(0, 1), (1, 1), (0, 1)])
    assert nc_length_set(ctx, downset(ctx, aba), 0) == 2
    with pytest.raises(ValueError):
        nc_length_set(ctx, [], 0)


# ----------------------------------------------------------------------
# standard form

def test_standard_form_frozen_free_pair():
    ctx = free_pair()
    v0 = 0
    ab = ctx.normalize([(0, 1), (1, 1)])
    sf = ctx.standard_form(ab, v0)
    assert sf.y.letters == ()
    assert sf.c.letters == ()
    assert sf.a == Letter(0, 1)
    assert sf.b.vertex_word == (1,)

    ba = ctx.normalize([(1, 1), (0, 1)])
    sf = ctx.standard_form(ba, v0)
    assert sf.y.vertex_word == (1,)
    assert sf.c.letters == ()
    assert sf.b.letters == ()

    aba = ctx.normalize([(0, 1), (1, 1), (0, 1)])
    sf = ctx.standard_form(aba, v0)
    assert sf.y.vertex_word == (0, 1)
    assert sf.b.letters == ()

    bab = ctx.normalize([(1, 1), (0, 1), (1, 1)])
    sf = ctx.standard_form(bab, v0)
    assert sf.y.vertex_word == (1,)
    assert sf.b.vertex_word == (1,)


def test_standard_form_recomposes_and_preserves_nc():
    ctx = path_abc()
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(150):
        x = random_element(ctx, rng, 5)
        for v0 in range(3):
            if v0 not in x.vertex_word:
                with pytest.raises(NoV0LetterError):
                    ctx.standard_form(x, v0)
                continue
            sf = ctx.standard_form(x, v0)
            recomposed = ctx.multiply(
                ctx.multiply(sf.y, sf.c),
                ctx.multiply(ctx.normalize([sf.a]), sf.b),
            )
            assert recomposed == x
            assert sf.a.vertex == v0
            assert sf.nc == nc_length_set(ctx, downset(ctx, x), v0)
            checked += 1
    assert checked > 100


def test_standard_form_unique_via_exhaustive_candidates():
    ctx = path_abc()
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(60):
        x = random_element(ctx, rng, 5)
        for v0 in range(3):
            if v0 in x.vertex_word:
                assert len(ctx.standard_form_candidates(x, v0)) == 1
                checked += 1
    assert checked > 40


def test_standard_form_commuting_prefix_example():
    # In the triangle everything commutes: for x = p q r and v0 = r the
    # decomposition keeps y = p q as the r-free prefix and b empty.
    ctx = triangle()
    x = ctx.normalize([(0, 1), (1, 1), (2, 1)])
    sf = ctx.standard_form(x, 2)
    assert sf.a == Letter(2, 1)
    assert sf.b.letters == ()
    assert ctx.multiply(sf.y, sf.c).vertex_word == (0, 1)
    assert sf.nc == 0


# ----------------------------------------------------------------------
# orbit invariance under raw-word shuffles (hypothesis)

@st.composite
def _raw_word(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    out = []
    for _ in range(n):
        v = draw(st.integers(min_value=0, max_value=2))
        order = (2, 3, 2)[v]
        out.append((v, draw(st.integers(min_value=0, max_value=order - 1))))
    return out


@settings(max_examples=60, deadline=None)
@given(_raw_word())
def test_normalize_idempotent(raw):
    ctx = path_abc()
    x = ctx.normalize(raw)
    assert ctx.normalize(x.letters) == x


@settings(max_examples=60, deadline=None)
@given(_raw_word(), st.randoms(use_true_random=False))
def test_normalize_invariant_under_admissible_shuffles(raw, pyrandom):
    ctx = path_abc()
    baseline = ctx.normalize(raw)
    w = tuple((int(v), int(e)) for v, e in raw)
    for _ in range(6):
        moves = _oracle_rewrites(ctx, w)
        if not moves:
            break
        w = moves[pyrandom.randrange(len(moves))]
    assert ctx.normalize(w) == baseline


def test_pairs_round_trip():
    ctx = path_abc()
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = random_element(ctx, rng, 4)
        assert ctx.from_pairs(ctx.to_pairs(x.letters)) == x


# ----------------------------------------------------------------------
# interned words and prefix-recursion values (hypothesis)

@settings(max_examples=60, deadline=None)
@given(_system_and_words())
def test_prefixes_of_canonical_words_are_canonical_and_values_recurse(case):
    """Every prefix of a canonical word is canonical, interning puts it
    first, and the value row built by the prefix recursion is bit-equal to
    the left-to-right evaluation, on point actions that do not commute."""
    system, raws, _ = case
    words = system.words
    for raw in raws:
        x = words.normalize(raw)
        i = words.intern(x.letters)
        for k in range(len(x.letters), -1, -1):  # the longest first, from a cold memo
            prefix = x.letters[:k]
            assert words.normalize(prefix).letters == prefix
            assert words.intern(prefix) <= i
            row = system._value_rows()[0][words.intern(prefix)]
            assert row.tobytes() == system.gp_value_letters(prefix).scalars.tobytes()
        if x.letters:
            assert words._id_prefix[i] == words.intern(x.letters[:-1])


def id_letters(words, i):
    """Letters of interned word ``i``, read back along its prefixes."""
    out = []
    while i > 0:
        out.append(words._slot_letter[words._id_last[i]])
        i = words._id_prefix[i]
    return tuple(reversed(out))


GROUP_FACTORIES = (
    lambda: cyclic_group(2),
    lambda: cyclic_group(3),
    lambda: cyclic_group(4),
    lambda: symmetric_group(3),
    lambda: dihedral_group(4),
)


@st.composite
def _context_and_walks(draw):
    """2 to 5 vertices with random edges and cyclic, symmetric or dihedral
    groups; each walk is a raw word followed by the inverse of one of its
    suffixes, so that letters merge and words cancel down to the identity."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    groups = [GROUP_FACTORIES[draw(st.integers(0, len(GROUP_FACTORIES) - 1))]() for _ in range(n)]
    ctx = WordContext(SimplicialGraph.build(tuple(range(n)), edges), groups)
    letter = st.sampled_from(generators(ctx))
    walks = []
    for raw in draw(st.lists(st.lists(letter, max_size=10), min_size=1, max_size=5)):
        k = draw(st.integers(0, len(raw)))
        back = [Letter(l.vertex, groups[l.vertex].inverse(l.elem)) for l in reversed(raw[k:])]
        walks.append(raw + back)
    return ctx, walks


@settings(max_examples=80, deadline=None)
@given(_context_and_walks())
def test_successor_memo_agrees_with_push(case):
    """Successors found by the walk down the prefixes are the canonical
    products ``reference_push`` builds, every id is one distinct canonical
    word, and every memo entry, the walk's own included, is a push."""
    words, walks = case
    for walk in walks:
        i = words.intern(())
        for letter in walk:
            j = words.successor(i, letter)
            want = reference_push(words, (letter,), id_letters(words, i))
            assert id_letters(words, j) == want.letters
            i = j
        assert id_letters(words, i) == words.normalize(walk).letters
        assert i == words.intern(words.normalize(walk).letters)
    letters = [id_letters(words, i) for i in range(len(words._id_prefix))]
    assert len(set(letters)) == len(letters)
    assert len(words._succ) == len(letters) * words._letter_slots
    for key, j in enumerate(words._succ):
        if j < 0:
            continue
        i, slot = divmod(key, words._letter_slots)
        want = reference_push(words, (words._slot_letter[slot],), letters[i])
        assert letters[j] == want.letters
