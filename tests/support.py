"""Constructions, word helpers and reference paths that only the tests use.

None of them is called by ``gpmult verify``: the tensor and groupoid
systems build differential fixtures, ``reference_push`` is the letter-list
normal form the successor memo replaced, the word helpers restate
properties of complete sets and down-sets that the package computes in
other ways (``nc_direct`` is the per-word count whose maximum over the
down-set the package now reads off the letter order), the matrix-unit
loops are the oracles of action validation on ``ActionTable.unit_images``
(an algebra element is the list of its blocks, and ``apply_auto`` applies
an automorphism to one: the package keeps no algebra arithmetic),
the per-entry central paths are the oracles of the gathers from
``ActionTable.perms`` and ``Multiplier.scalars`` (and of the module form's
cumulative sum) that replaced them, and the per-word lemma paths are the
oracles of the ball's standard-form table and of peel-first-letter.
``reference_ball`` is the breadth-first ball over the successor memo that
the automaton arrays replaced, the per-word drop-last and normalized-tail
peel loops are the oracles of the checks that read the ball's last-letter
and expression tables, and ``growth_sphere_sizes`` counts each sphere from
the growth series with no word listed.  The per-word value paths the
package dropped when its checks moved onto those tables live here too:
``value_of_letter``, ``word_rows`` (rows of interned words),
``first_vertices``, the batched ``gp_values_letters``, ``downset`` (the
closure of one word), and the per-expression product-well-defined and
per-word haagerup-witness loops, the oracles of the table checks.
``reference_complete_closure`` and ``reference_is_reduced`` are the
two-phase closure, which did not count its seeds against the size cap, and
the pairwise reducedness test, the oracles of the one-loop closure and of
the one-scan ``is_reduced``; ``oracle_truncations`` lists a word's
rearrangement class and pushes r[1:] and r[:-1] of each, the oracle of the
truncations ``WordContext`` reads off the letter order, and the two-phase
closure walks it; ``id_closure`` reads ``complete_closure_ids`` with
optional words back as elements.
"""

import itertools
from collections import deque

import numpy as np

from gpmult.cocycles import schoenberg_multiplier
from gpmult.dynamics import (
    MAP_TOL,
    ActionSystem,
    ActionTable,
    Automorphism,
    point_permutation_action,
    trivial_action,
)
from gpmult.errors import (
    BudgetExceededError,
    ContextMismatchError,
    EdgeViolationError,
    GPMultError,
    NotHomomorphismError,
    StructureMismatchError,
)
from gpmult.graphgroup import FiniteGroup, SimplicialGraph
from gpmult.matalg import BlockStructure, CentralElement, is_positive, max_residual
from gpmult.multipliers import (
    WELL_DEFINED_TOL,
    Multiplier,
    MultiplierSystem,
    WellDefinedReport,
    WitnessReport,
    convention_flip,
)
from gpmult.verifier import KERNEL_TOL, PEEL_TOL, CheckResult, _complete_sets, _vacuous
from gpmult.wordcraft import DEFAULT_BUDGET, GPElement, Letter, WordContext


# ----------------------------------------------------------------------
# graphs and words


def multipartite_graph(part_sizes) -> SimplicialGraph:
    """Complete multipartite graph K_{n1,...,nk} with integer vertex ids.

    Vertices are numbered 0.. in part order; two vertices are joined exactly
    when they lie in different parts.
    """
    parts = []
    next_id = 0
    for size in part_sizes:
        parts.append(list(range(next_id, next_id + size)))
        next_id += size
    vertices = [v for part in parts for v in part]
    edges = []
    for pa, pb in itertools.combinations(parts, 2):
        for a in pa:
            for b in pb:
                edges.append((a, b))
    return SimplicialGraph.build(vertices, edges)


def k4_z2_config(**verify) -> dict:
    """Config of (Z/2)^4 on the complete graph K4 with trivial actions and
    ``verify`` as its verify section: ball(4) has 16 words, but the
    rearrangement class of abcd has 24 sequences."""
    vs = "abcd"
    return {
        "name": "k4_z2",
        "graph": {"vertices": list(vs), "edges": [[u, v] for u in vs for v in vs if u < v]},
        "groups": {v: {"preset": "cyclic", "n": 2} for v in vs},
        "algebra": {"blocks": [1, 1]},
        "actions": {v: {"preset": "trivial"} for v in vs},
        "multipliers": {v: {"preset": "geometric", "c": 0.3} for v in vs},
        "verify": verify,
    }


def generators(words: WordContext) -> list:
    """All single non-identity letters, in (vertex, element) order."""
    return [Letter(v, g) for v, grp in enumerate(words.groups) for g in range(grp.order) if g != grp.identity]


def random_element(words: WordContext, rng, max_len: int) -> GPElement:
    """Normalization of a uniformly random raw word of length <= max_len."""
    m = int(rng.integers(0, max_len + 1))
    letters = []
    for _ in range(m):
        v = int(rng.integers(0, words.graph.n))
        grp = words.groups[v]
        if grp.order == 1:
            continue
        g = int(rng.integers(1, grp.order))
        letters.append((v, g))
    return words.normalize(letters)


def reference_push(words: WordContext, letters, word=()) -> GPElement:
    """Push letters one at a time onto the canonical word ``word``.

    Each letter scans left across the letters it commutes with.  If that
    reaches a letter of its own vertex the two merge (and vanish at the
    identity); otherwise it is inserted before the first letter of larger
    vertex in the reachable suffix.  Merging keeps the word reduced, and
    the insertion point keeps it least: a word is lexicographically least
    in its class exactly when it has no factor b u a with a < b and a
    commuting with b u.
    """
    adjacent = words.graph.adjacent
    out = list(word)
    for v, g in letters:
        grp = words.groups[v]
        if g == grp.identity:
            continue
        i = pos = len(out)
        while i > 0 and adjacent(v, out[i - 1].vertex):
            i -= 1
            if out[i].vertex > v:
                pos = i
        if i > 0 and out[i - 1].vertex == v:
            g = int(grp.table[out[i - 1].elem, g])
            if g == grp.identity:
                del out[i - 1]
            else:
                out[i - 1] = Letter(v, g)
        else:
            out.insert(pos, Letter(v, g))
    return GPElement(words, tuple(out))


def reference_ball(words: WordContext, radius: int) -> list:
    """The ball listed by breadth-first search over the successor memo, one
    ``successor`` call per word and generator, sorted by (length, letters)."""
    seen = {words.intern(())}
    frontier = list(seen)
    for _ in range(radius):
        nxt = []
        for i in frontier:
            for l in generators(words):
                j = words.successor(i, l)
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return sorted(map(words._element, seen), key=lambda x: (len(x), x.letters))


def growth_sphere_sizes(words: WordContext, radius: int) -> list:
    """Sphere sizes 0..radius of the graph product from its growth series
    (Chiswell, Bull. London Math. Soc. 26, 1994), with no word listed.

    1/W(z) is the sum over the cliques of the graph, the empty one
    included, of the products of 1/W_v(z) - 1 = sum_k (-q_v z)^k over
    their vertices, q_v + 1 the order of G_v, since every non-identity
    element of G_v has length 1.  The constant term is 1, so the series
    inverts exactly in integers, truncated at z^radius.
    """
    graph = words.graph

    def times(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(radius + 1)]

    inv = [0] * (radius + 1)
    for size in range(graph.n + 1):
        for clique in itertools.combinations(range(graph.n), size):
            if all(graph.adjacent(u, v) for u, v in itertools.combinations(clique, 2)):
                term = [1] + [0] * radius
                for v in clique:
                    q = words.groups[v].order - 1
                    term = times(term, [0] + [(-q) ** k for k in range(1, radius + 1)])
                inv = [a + b for a, b in zip(inv, term)]
    out = [1] + [0] * radius
    for k in range(1, radius + 1):
        out[k] = -sum(inv[i] * out[k - i] for i in range(1, k + 1))
    return out


def leq(words: WordContext, x: GPElement, y: GPElement, budget: int = DEFAULT_BUDGET) -> bool:
    """Truncation order: x below y when x arises by repeatedly dropping a
    first or last letter from rearrangements of y."""
    words._check_ctx(x, y)
    return words._leq(x, y, budget)


def downset(words: WordContext, x: GPElement, max_size: int = 10_000):
    """All elements below x in the truncation order (x included), sorted:
    the closure of x."""
    return words.complete_closure([x], max_size=max_size)


def oracle_truncations(words: WordContext, z: GPElement, budget: int = DEFAULT_BUDGET) -> set:
    """The immediate truncations of z by their definition: r[1:] and r[:-1]
    over every sequence r of its rearrangement class, each pushed letter by
    letter."""
    out = set()
    for r in words._rearrangements_seq(z.letters, budget):
        if r:
            out.add(reference_push(words, r[1:]))
            out.add(reference_push(words, r[:-1]))
    return out


def reference_complete_closure(words: WordContext, elements, max_size: int = 10_000, optional=()):
    """The two-phase closure ``complete_closure`` replaced: a breadth-first
    search from the identity and the input, which raises only when a
    truncation takes the set past ``max_size`` (so the seeds themselves are
    never counted), then the elements of ``optional`` one at a time while
    they fit."""
    seed = {words.identity()}
    for x in elements:
        words._check_ctx(x)
        seed.add(x)
    out = set(seed)
    todo = deque(sorted(seed, key=lambda x: (len(x), x.letters)))
    while todo:
        for t in oracle_truncations(words, todo.popleft()):
            if t not in out:
                out.add(t)
                if len(out) > max_size:
                    raise BudgetExceededError("closure exceeds size budget", max_size=max_size)
                todo.append(t)
    for x in optional:
        words._check_ctx(x)
        new = {x} - out
        todo = deque(new)
        while todo and len(out) + len(new) <= max_size:
            for t in oracle_truncations(words, todo.popleft()):
                if t not in out and t not in new:
                    new.add(t)
                    todo.append(t)
        if len(out) + len(new) > max_size:
            break
        out |= new
    return tuple(sorted(out, key=lambda x: (len(x), x.letters)))


def id_closure(words: WordContext, elements, max_size: int = 10_000, optional=()):
    """``complete_closure_ids`` on the ids of the elements and of ``optional``,
    read back as elements."""
    ids = words.complete_closure_ids(
        [words.intern(x.letters) for x in elements],
        max_size,
        [words.intern(x.letters) for x in optional],
    )
    return [words._element(i) for i in ids]


def reference_is_reduced(words: WordContext, vertices) -> bool:
    """Reducedness by the definition, pair by pair: no two equal vertices
    at k < l with every vertex strictly between them joined to theirs."""
    vs = tuple(vertices)
    for k in range(len(vs)):
        for l in range(k + 1, len(vs)):
            if vs[k] == vs[l] and all(words.graph.adjacent(vs[k], vs[p]) for p in range(k + 1, l)):
                return False
    return True


def nc_direct(words: WordContext, vertices: tuple, v0: int) -> int:
    """Non-commuting count of a reduced vertex word relative to v0: -1 unless
    its last v0 letter can commute to the end, else the number of other
    letters not joined to v0."""
    last = -1
    for i, v in enumerate(vertices):
        if v == v0:
            last = i
    if last < 0:
        return -1
    # letters that cannot commute past the final v0 letter pin it down
    for k in range(last + 1, len(vertices)):
        if not words.graph.adjacent(vertices[k], v0):
            return -1
    return sum(
        1
        for i, v in enumerate(vertices)
        if i != last and not words.graph.adjacent(v, v0)
    )


def nc_length(
    words: WordContext, x: GPElement, v0: int, check_all: bool = False, budget: int = DEFAULT_BUDGET
) -> int:
    """Non-commuting count of x relative to the vertex v0.

    -1 when no rearrangement ends with a v0 letter; otherwise the number
    of letters, in the prefix of such a rearrangement, whose vertex is not
    joined to v0 (same-vertex letters count).  With ``check_all`` the value
    is recomputed from every qualifying rearrangement and compared.
    """
    words._check_ctx(x)
    vertices = x.vertex_word
    val = nc_direct(words, vertices, v0)
    if check_all:
        # Only vertices matter to the search, so any element stands in.
        placeholders = tuple(Letter(v, 0) for v in vertices)
        vals = set()
        for seq in words._rearrangements_seq(placeholders, budget):
            r = [l.vertex for l in seq]
            if r and r[-1] == v0:
                vals.add(sum(1 for v in r[:-1] if not words.graph.adjacent(v, v0)))
        if not vals:
            vals = {-1}
        if vals != {val}:
            raise GPMultError(
                "non-commuting count disagrees across rearrangements",
                word=vertices,
                values=sorted(vals),
            )
    return val


def nc_length_set(words: WordContext, elements, v0: int) -> int:
    """Maximum non-commuting count over a nonempty collection."""
    elements = list(elements)
    if not elements:
        raise ValueError("non-commuting count of an empty collection")
    return max(nc_length(words, x, v0) for x in elements)


def reference_downset_nc_max(words: WordContext, x: GPElement, v0: int) -> int:
    """Largest non-commuting count relative to v0 over the down-set of x,
    counted directly: -1 without a v0 letter, else the letters before the
    last v0 letter that are not joined to v0."""
    vs = x.vertex_word
    if v0 not in vs:
        return -1
    k = len(vs) - 1 - vs[::-1].index(v0)
    return sum(1 for v in vs[:k] if not words.graph.adjacent(v, v0))


def reference_standard_form_table(words: WordContext, ball) -> list:
    """Per vertex v0 the class, y c index and nc arrays over the ball, one
    ``standard_form`` and one ``multiply`` per word with a v0 letter and
    one direct count per word."""
    index = {x: i for i, x in enumerate(ball)}
    out = []
    for v0 in range(words.graph.n):
        cls, yc = np.full(len(ball), -1), np.full(len(ball), -1)
        nc = np.array([reference_downset_nc_max(words, x, v0) for x in ball])
        classes: dict = {}
        for i, x in enumerate(ball):
            if v0 in x.vertex_word:
                sf = words.standard_form(x, v0)
                cls[i] = classes.setdefault(sf.y.vertex_word, len(classes))
                yc[i] = index[words.multiply(sf.y, sf.c)]
        out.append((cls, yc, nc))
    return out


# ----------------------------------------------------------------------
# per-word value paths


def value_of_letter(system: MultiplierSystem, letter) -> CentralElement:
    """The value of one letter under its vertex multiplier."""
    return system.multipliers[letter.vertex].values[letter.elem]


def word_rows(system: MultiplierSystem, xs) -> tuple:
    """Value and action rows of the words xs, interned and read off the
    memo's rows: two ``(n, K)`` arrays, row i the value of x_i and the
    index array of its action on block scalars."""
    words = system.words
    words._check_ctx(*xs)
    ids = np.array([words.intern(x.letters) for x in xs], dtype=np.intp)
    values, perms = system._value_rows()
    return values[ids], perms[ids]


def first_vertices(words: WordContext, x: GPElement) -> tuple:
    """Vertices some rearrangement of x starts with, in word order: those of
    the letters that only letters joined to them precede."""
    words._check_ctx(x)
    adjacent = words.graph.adjacent
    vs = [l.vertex for l in x.letters]
    return tuple(v for i, v in enumerate(vs) if all(adjacent(u, v) for u in vs[:i]))


def gp_values_letters(system: MultiplierSystem, expressions) -> np.ndarray:
    """Values of E >= 1 raw expressions of one length as an ``(E, K)``
    array: the step of ``gp_value_letters`` taken for all of them at once,
    one step per letter position."""
    offset = system.words._slot_offset
    slots = np.array(
        [[offset[l.vertex] + l.elem for l in r] for r in expressions], dtype=np.intp
    )
    E, m = slots.shape
    if m == 0:
        return np.ones((E, system.structure.num_blocks), dtype=np.complex128)
    perms, values = system._slot_perms, system._slot_values
    rows = np.arange(E)[:, None]
    out = values[slots[:, 0]]
    for s in slots.T[1:]:
        out = out[rows, perms[s]] * values[s]
    return out


def reference_gp_well_defined(
    system: MultiplierSystem, radius: int = 4, budget: int = 100_000
) -> WellDefinedReport:
    """product-well-defined one expression at a time: every rearrangement of
    every ball word through ``gp_value_letters``, against ``gp_value``; the
    first strictly worse deviation, or the first NaN, is the witness."""
    words = system.words
    worst = 0.0
    witness = None
    n_words = 0
    n_exprs = 0
    for x in words.ball(radius, budget=budget):
        base = system.gp_value(x)
        n_words += 1
        for r in words.rearrangements(x, budget=budget):
            n_exprs += 1
            dev = central_diff(system.gp_value_letters(r), base)
            if dev > worst or (dev != dev and worst == worst):  # the first NaN wins
                worst = dev
                witness = r
    return WellDefinedReport(
        ok=worst <= WELL_DEFINED_TOL,
        max_deviation=worst,
        word=witness,
        checked_words=n_words,
        checked_expressions=n_exprs,
    )


def reference_haagerup_witness_ball(
    system: MultiplierSystem, K: int, eps: float, L: int, budget: int = DEFAULT_BUDGET
) -> WitnessReport:
    """haagerup-witness past its preconditions, one ``gp_value`` norm per
    ball word longer than K."""
    ball = system.words.ball(L, budget=budget)
    worst = 0.0
    for x in ball:
        if len(x) > K:
            worst = max_residual(worst, float(np.abs(system.gp_value(x).scalars).max()))
    return WitnessReport(
        ok=worst < eps,
        max_off_norm=worst,
        threshold=eps,
        f_size=sum(1 for x in ball if len(x) <= K),
        ball_size=len(ball),
    )


def reference_verify_peel_off(sc) -> CheckResult:
    """peel-first-letter one expression at a time: the tail normalized, its
    inverse's action folded onto the first letter's value, times the tail's
    value, against the expression's value."""
    sys_ = sc.system
    words = sys_.words
    worst = 0.0
    n_checked = 0
    for x in words.ball(sc.identity_radius, budget=sc.budget):
        if not x.letters:
            continue
        for r in words.rearrangements(x, budget=sc.budget):
            tail = words.normalize(r[1:])
            tail_inv = words.inverse(tail)
            twisted = sys_.actions.act_word(tail_inv).on_central(value_of_letter(sys_, r[0]))
            rhs = twisted.scalars * sys_.gp_value(tail).scalars
            dev = float(np.abs(sys_.gp_value_letters(r).scalars - rhs).max())
            worst = max_residual(worst, dev)
            n_checked += 1
    if n_checked == 0:
        return _vacuous(
            "peel-first-letter",
            "lemmas",
            "no nontrivial element in the identity-check ball",
            {"expressions": 0},
        )
    return CheckResult(
        name="peel-first-letter",
        suite="lemmas",
        passed=worst <= PEEL_TOL,
        residual=worst,
        counts={"expressions": n_checked},
    )


def reference_normalized_peel_off(sc) -> CheckResult:
    """peel-first-letter with each tail normalized once per first letter of
    each element and its inverse built, their rows read through
    ``word_rows``; the left sides one batched recursion per length."""
    sys_ = sc.system
    words = sys_.words
    tails = []
    by_length: dict = {}  # m -> (expressions, index of each one's tail)
    for x in words.ball(sc.identity_radius, budget=sc.budget):
        if not x.letters:
            continue
        tail_of: dict = {}  # first letter -> index of its tail in ``tails``
        for r in words.rearrangements(x, budget=sc.budget):
            if r[0] not in tail_of:
                tail_of[r[0]] = len(tails)
                tails.append(words.normalize(r[1:]))
            exprs, at = by_length.setdefault(len(r), ([], []))
            exprs.append(r)
            at.append(tail_of[r[0]])
    if not tails:
        return _vacuous(
            "peel-first-letter",
            "lemmas",
            "no nontrivial element in the identity-check ball",
            {"expressions": 0},
        )
    values, _ = word_rows(sys_, tails)
    _, acts = word_rows(sys_, [words.inverse(t) for t in tails])
    worst = 0.0
    n_checked = 0
    for exprs, at in by_length.values():
        lhs = gp_values_letters(sys_, exprs)
        first = gp_values_letters(sys_, [r[:1] for r in exprs])
        rhs = first[np.arange(len(exprs))[:, None], acts[at]] * values[at]
        worst = max_residual(worst, float(np.abs(lhs - rhs).max()))
        n_checked += len(exprs)
    return CheckResult(
        name="peel-first-letter",
        suite="lemmas",
        passed=worst <= PEEL_TOL,
        residual=worst,
        counts={"expressions": n_checked},
    )


def reference_reduced_pairs(words: WordContext, elements) -> np.ndarray:
    """``(n, n)`` booleans: whether x_i^-1 x_j is reduced, from the first
    vertices of each element listed by ``first_vertices``."""
    first = np.zeros((len(elements), words.graph.n), dtype=bool)
    for i, x in enumerate(elements):
        first[i, list(first_vertices(words, x))] = True
    counts = first.astype(int)
    return counts @ counts.T == 0


def reference_per_word_drop_last(sc) -> CheckResult:
    """drop-last-letter one ball element at a time: the head of every
    rearrangement normalized and looked up in the ball, then one gather
    from the ball's kernel stack per element."""
    words = sc.system.words
    gram = sc.system.ball_stack(sc.identity_radius, sc.budget).gram
    ball = words.ball(sc.identity_radius, budget=sc.budget)
    index = {x: i for i, x in enumerate(ball)}
    reduced = reference_reduced_pairs(words, ball)
    worst = 0.0
    n_checked = 0
    for i, x in enumerate(ball):
        if not x.letters:
            continue
        Y = np.flatnonzero(reduced[i])
        H = [index[words.normalize(r[:-1])] for r in words.rearrangements(x, budget=sc.budget)]
        diff = gram[:, i, Y][:, None, :] - gram[:, i, H][:, :, None] * gram[:, H][:, :, Y]
        worst = max_residual(worst, float(np.abs(diff).max()))
        n_checked += len(H) * len(Y)
    if n_checked == 0:
        return _vacuous(
            "drop-last-letter",
            "lemmas",
            "no x != e and y in the identity-check ball with x^-1 y reduced",
            {"instances": 0},
        )
    return CheckResult(
        name="drop-last-letter",
        suite="lemmas",
        passed=worst <= KERNEL_TOL,
        residual=worst,
        counts={"instances": n_checked},
    )


def complete_set_elements(sc) -> list:
    """The seeded complete sets of ``verify_main_theorem`` as elements, read
    back from the word ids ``_complete_sets`` gives."""
    words = sc.system.words
    return [tuple(map(words._element, ids)) for ids in _complete_sets(sc)]


def is_complete(words: WordContext, elements) -> bool:
    """Whether a set is already truncation-closed and contains the identity."""
    xs = {words.intern(x.letters) for x in elements}
    return 0 in xs and all(xs.issuperset(words._truncation_ids(i)) for i in xs)


# ----------------------------------------------------------------------
# automorphisms on algebra elements, each element a list of its blocks


def apply_auto(auto: Automorphism, a) -> list:
    """An automorphism on an element given as one array per block: target
    block k is U_k a_j U_k*, j the source block that ``block_perm`` sends
    to k."""
    return [u @ a[j] @ u.conj().T for j, u in zip(auto._perm_inv, auto.unitaries)]


def blocks_diff(a, b) -> float:
    """Largest entry modulus of a - b over the blocks of two elements."""
    return max(float(np.abs(x - y).max()) for x, y in zip(a, b))


def central_diff(a: CentralElement, b: CentralElement) -> float:
    """Largest block scalar modulus of a - b; NaN if one is NaN."""
    return float(np.abs(a.scalars - b.scalars).max())


def act_on(action, a) -> list:
    """A word action on an element given as its blocks, one automorphism
    per letter, last letter first."""
    for l in reversed(action.letters):
        a = apply_auto(action.system.tables[l.vertex].autos[l.elem], a)
    return a


def matrix_units(structure: BlockStructure) -> list:
    """Every matrix unit E^k_rc as its blocks, block by block, row-major
    within a block."""
    out = []
    for k, d in enumerate(structure.block_dims):
        for r in range(d):
            for c in range(d):
                unit = [np.zeros((e, e), dtype=np.complex128) for e in structure.block_dims]
                unit[k][r, c] = 1.0
                out.append(unit)
    return out


# ----------------------------------------------------------------------
# action validation on matrix units


def reference_is_identity_map(auto: Automorphism) -> bool:
    """Whether the automorphism fixes every matrix unit within ``MAP_TOL``."""
    return all(blocks_diff(apply_auto(auto, u), u) <= MAP_TOL for u in matrix_units(auto.structure))


def reference_validate_action(table: ActionTable) -> None:
    """``validate_action`` one matrix unit at a time: raises at the first
    (g, h) and unit where autos[g*h] and autos[g] o autos[h] differ."""
    units = matrix_units(table.structure)
    e = table.group.identity
    if not reference_is_identity_map(table.autos[e]):
        raise NotHomomorphismError("identity element does not act trivially", g=e)
    n = table.group.order
    for g in range(n):
        for h in range(n):
            gh = table.group.table[g, h]
            for u in units:
                dev = blocks_diff(
                    apply_auto(table.autos[gh], u),
                    apply_auto(table.autos[g], apply_auto(table.autos[h], u)),
                )
                if not dev <= MAP_TOL:
                    raise NotHomomorphismError("action is not multiplicative", g=g, h=h, deviation=dev)


def reference_actions_commute(t1: ActionTable, t2: ActionTable) -> bool:
    """``actions_commute`` one pair of automorphisms and one matrix unit at
    a time."""
    units = matrix_units(t1.structure)
    for a1 in t1.autos:
        for a2 in t2.autos:
            for u in units:
                if not blocks_diff(apply_auto(a1, apply_auto(a2, u)), apply_auto(a2, apply_auto(a1, u))) <= MAP_TOL:
                    return False
    return True


# ----------------------------------------------------------------------
# per-entry central paths


def apply_central(auto: Automorphism, c: CentralElement) -> CentralElement:
    """An automorphism on a central element: only the block permutation acts."""
    if c.structure != auto.structure:
        raise StructureMismatchError("element has wrong structure")
    return CentralElement(auto.structure, c.scalars[auto._perm_inv])


def central_stack(structure: BlockStructure, grid) -> np.ndarray:
    """The ``(K, n, n)`` stack of block scalar matrices of a central grid:
    ``stack[k, i, j]`` is scalar k of ``grid[i][j]``."""
    n = len(grid)
    scalars = np.array([[c.scalars for c in row] for row in grid], dtype=np.complex128)
    return np.moveaxis(scalars.reshape(n, n, structure.num_blocks), -1, 0)


def assert_same_values(got, want):
    """``got`` equals ``want`` bit for bit after both are cast to
    complex128.  Rows and stacks of a system with real values are real, and
    what they are compared with may be complex: where one side is real, the
    other's imaginary parts must be zero, and only the real parts are
    compared, since complex arithmetic on real values leaves zeros of
    either sign there."""
    got, want = np.asarray(got), np.asarray(want)
    if "f" in (got.dtype.kind, want.dtype.kind):
        assert not got.imag.any() and not want.imag.any()
        got, want = got.real, want.real
    assert got.astype(np.complex128).tobytes() == want.astype(np.complex128).tobytes()


def reference_is_positive_definite(h, table, S=None, tol=1e-9, hermitian_tol=1e-8):
    """The grid ``alpha_{x_j}(h(x_i^-1 x_j))`` over the tuple S (default: the
    whole group), one ``apply_central`` per entry, certified as its stack."""
    if table.group is not h.group or table.structure != h.structure:
        raise ContextMismatchError("multiplier and action do not match")
    if S is None:
        S = list(range(h.group.order))
    group = h.group
    grid = [
        [apply_central(table.autos[xj], h.values[group.table[group.inv[xi], xj]]) for xj in S]
        for xi in S
    ]
    return is_positive(central_stack(h.structure, grid), tol=tol, hermitian_tol=hermitian_tol)


def reference_multipliers_commute(system: MultiplierSystem, tol: float = 1e-12) -> None:
    """Every alpha_{i,a} against every h_j(b) over each edge (i, j), one
    ``apply_central`` per pair; raises like ``multipliers_commute``."""
    graph = system.words.graph
    for i, j in graph.edge_index_pairs():
        for (src, dst) in ((i, j), (j, i)):
            table = system.actions.tables[src]
            h = system.multipliers[dst]
            worst = 0.0
            for auto in table.autos:
                for val in h.values:
                    worst = max(worst, central_diff(apply_central(auto, val), val))
            if worst > tol:
                raise EdgeViolationError(
                    "adjacent action moves a multiplier value",
                    edge=(graph.vertices[src], graph.vertices[dst]),
                    deviation=worst,
                )


def reference_inner(module, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The twisted form <f|g> of a module, one pair (s, t) at a time."""
    out = np.zeros(module.structure.num_blocks, dtype=np.complex128)
    for s in range(module.group.order):
        gs = g[s].conj()
        for t in range(module.group.order):
            out = out + gs * module.gram[s, t] * f[t]
    return out


def reference_schoenberg_is_pd(c, t: float, tol: float = 1e-9):
    """Positivity of the Schoenberg multiplier through central elements: the
    flip to the column convention, then the per-entry grid."""
    mod = c.module
    vals = tuple(CentralElement(mod.structure, v) for v in schoenberg_multiplier(c, t))
    h = Multiplier(mod.group, mod.structure, vals)
    return reference_is_positive_definite(convention_flip(h), mod.table, tol=tol)


# ----------------------------------------------------------------------
# systems


def tensor_algebra(s1: BlockStructure, s2: BlockStructure):
    """Tensor product structure with the two canonical embeddings.

    Blocks are ordered (i, j) row-major over the factors; returns
    ``(structure, embed_left, embed_right)`` with embed_left(a) = a (x) 1 and
    embed_right(b) = 1 (x) b, each element given as its list of blocks.
    """
    dims = []
    for d1 in s1.block_dims:
        for d2 in s2.block_dims:
            dims.append(d1 * d2)
    ts = BlockStructure(tuple(dims))

    def embed_left(a) -> list:
        return [np.kron(b1, np.eye(d2)) for b1 in a for d2 in s2.block_dims]

    def embed_right(b) -> list:
        return [np.kron(np.eye(d1), b2) for d1 in s1.block_dims for b2 in b]

    return ts, embed_left, embed_right


def _edge_pair_context(group1: FiniteGroup, group2: FiniteGroup) -> WordContext:
    graph = SimplicialGraph.build((0, 1), [(0, 1)])
    return WordContext(graph, (group1, group2))


def tensor_fixture(
    group1: FiniteGroup,
    table1: ActionTable,
    h1: Multiplier,
    group2: FiniteGroup,
    table2: ActionTable,
    h2: Multiplier,
) -> MultiplierSystem:
    """Single-edge system on A1 (x) A2 with actions alpha1 (x) id and id (x) alpha2.

    The two tensored actions commute by construction and each tensored
    multiplier is fixed by the other side's action, so the product multiplier
    on the direct product group is the tensor of the two inputs.
    """
    s1, s2 = table1.structure, table2.structure
    ts, _, _ = tensor_algebra(s1, s2)
    k2 = s2.num_blocks

    def left_auto(a: Automorphism) -> Automorphism:
        perm = []
        unis = []
        for i in range(s1.num_blocks):
            for j in range(s2.num_blocks):
                perm.append(a.block_perm[i] * k2 + j)
        for i in range(s1.num_blocks):
            for j, d2 in enumerate(s2.block_dims):
                unis.append(np.kron(a.unitaries[i], np.eye(d2)))
        return Automorphism(ts, tuple(perm), tuple(unis))

    def right_auto(a: Automorphism) -> Automorphism:
        perm = []
        unis = []
        for i in range(s1.num_blocks):
            for j in range(s2.num_blocks):
                perm.append(i * k2 + a.block_perm[j])
        for i, d1 in enumerate(s1.block_dims):
            for j in range(s2.num_blocks):
                unis.append(np.kron(np.eye(d1), a.unitaries[j]))
        return Automorphism(ts, tuple(perm), tuple(unis))

    t1 = ActionTable(group1, ts, tuple(left_auto(a) for a in table1.autos))
    t2 = ActionTable(group2, ts, tuple(right_auto(a) for a in table2.autos))

    def left_central(c: CentralElement) -> CentralElement:
        scalars = np.empty(ts.num_blocks, dtype=np.complex128)
        for i in range(s1.num_blocks):
            for j in range(s2.num_blocks):
                scalars[i * k2 + j] = c.scalars[i]
        return CentralElement(ts, scalars)

    def right_central(c: CentralElement) -> CentralElement:
        scalars = np.empty(ts.num_blocks, dtype=np.complex128)
        for i in range(s1.num_blocks):
            for j in range(s2.num_blocks):
                scalars[i * k2 + j] = c.scalars[j]
        return CentralElement(ts, scalars)

    m1 = Multiplier(group1, ts, tuple(left_central(v) for v in h1.values))
    m2 = Multiplier(group2, ts, tuple(right_central(v) for v in h2.values))

    words = _edge_pair_context(group1, group2)
    actions = ActionSystem(words, ts, (t1, t2))
    return MultiplierSystem(actions, (m1, m2))


def groupoid_from_space(
    graph: SimplicialGraph,
    groups,
    num_points: int,
    point_maps,
    values,
) -> MultiplierSystem:
    """System on the function algebra of a finite point set.

    ``point_maps[v][g]`` is the image list of the point map of element g at
    vertex v (omit a vertex for the trivial action); ``values[v][g]`` lists
    one complex number per point.  This realises multipliers on the
    transformation groupoid of the actions as central-valued multipliers on
    the diagonal algebra.
    """
    structure = BlockStructure(tuple([1] * num_points))
    words = WordContext(graph, tuple(groups))
    tables = []
    mults = []
    for v, grp in enumerate(words.groups):
        maps = point_maps.get(v) if isinstance(point_maps, dict) else point_maps[v]
        if maps is None:
            tables.append(trivial_action(grp, structure))
        else:
            tables.append(point_permutation_action(grp, structure, maps))
        vals = values[v] if not isinstance(values, dict) else values[v]
        mults.append(
            Multiplier(
                grp,
                structure,
                tuple(
                    CentralElement(structure, np.asarray(row, dtype=np.complex128))
                    for row in vals
                ),
            )
        )
    actions = ActionSystem(words, structure, tuple(tables))
    return MultiplierSystem(actions, tuple(mults))
