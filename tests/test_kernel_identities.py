"""Stack-gathered kernel identities against the per-pair reference.

``drop-last-letter`` and ``cross-terms`` read every kernel from the
identity ball's ``(K, n, n)`` stack, and decide whether x^-1 y is reduced
from the first vertices of x and y.  The Schwarz and shared-prefix bounds
draw their families in chunks and read the factor hypothesis and the
dominance differences of a chunk from one kernel stack per family size,
certified by one eigensolve per size.  The per-pair, per-family
implementations they replaced are kept below as the reference: one
``kernel`` call per pair, reducedness by rescanning the concatenated vertex
word, and each family's dominance difference assembled from grids of
central products and certified on its own.  Reports are compared byte for
byte, on the committed scenarios at several seeds and family targets, on
random small graph products, on a system whose families all vanish and on
one with a NaN value, where the error must be the first failing family's.  Where the point actions do not
commute across non-edges the kernels are not Hermitian and the identities
fail with large residuals that any misplaced gather would change; with
trivial actions and positive definite values the dominance bounds reach
their eigensolves.  The Schwarz check draws ball indices and builds no
word: its stacks are also compared bit for bit with those of the word path
it replaced, and the left translates it gathers from the ball's stack with
``kernel_matrix`` over the multiplied words, where the actions of an edge
do not commute too.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    downset,
    first_vertices,
    groupoid_from_space,
    nc_length_set,
    reference_push,
    reference_reduced_pairs,
)
from test_ball_arrays import graph_products, identity_radius
from test_composed_actions import THREE_CYCLES, TRANSPOSITIONS, _powers

from gpmult import verifier
from gpmult.cli import build_scenario, load_config
from gpmult.errors import NotFiniteError, NotHermitianError
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.matalg import is_positive, max_residual
from gpmult.verifier import (
    ABS_PSD_TOL,
    KERNEL_TOL,
    CheckResult,
    Scenario,
    _guarded,
    _least_eigenvalue,
    _reduced_pairs,
    _vacuous,
    run_suite,
    verify_cross_terms,
    verify_drop_last,
    verify_schwarz,
    verify_y1_square,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))


# ----------------------------------------------------------------------
# reference: one kernel call per pair


def reference_drop_last(sc: Scenario) -> CheckResult:
    """K(x, y) = K(x, head) K(head, y) for x^-1 y reduced, pair by pair."""
    sys_ = sc.system
    words = sys_.words
    ball = words.ball(sc.identity_radius, budget=sc.budget)
    worst = 0.0
    n_checked = 0
    for x in ball:
        if not x.letters:
            continue
        x_inv = words.inverse(x)
        heads = None  # (head, K(x, head)) per reduced expression of x, on first use
        lhs, left, right = [], [], []  # one (K,) row per instance
        for y in ball:
            concat = x_inv.vertex_word + y.vertex_word
            if not words.is_reduced(concat):
                continue
            if heads is None:
                heads = []
                for r in words.rearrangements(x, budget=sc.budget):
                    head = reference_push(words, r[:-1])
                    heads.append((head, sys_.kernel(x, head).scalars))
            k_xy = sys_.kernel(x, y).scalars
            for head, k_xh in heads:
                lhs.append(k_xy)
                left.append(k_xh)
                right.append(sys_.kernel(head, y).scalars)
        if lhs:
            diff = np.array(lhs) - np.array(left) * np.array(right)
            worst = max_residual(worst, float(np.abs(diff).max()))
            n_checked += len(lhs)
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


def reference_cross_terms(sc: Scenario) -> CheckResult:
    """K(x, z) = K(x, yc) K(yc, z) under the two order conditions, pair by pair."""
    sys_ = sc.system
    words = sys_.words
    ball = words.ball(sc.identity_radius, budget=sc.budget)
    worst = 0.0
    n1 = n2 = 0
    for v0 in range(words.graph.n):
        with_v0 = [x for x in ball if v0 in x.vertex_word]
        nc_set = {x: nc_length_set(words, downset(words, x), v0) for x in ball}
        forms = {x: words.standard_form(x, v0) for x in with_v0}
        for x in with_v0:
            sf = forms[x]
            yc = words.multiply(sf.y, sf.c)
            lhs, right = [], []  # one (K,) row per qualifying z
            for z in ball:
                cond1 = nc_set[z] < nc_set[x]
                cond2 = False
                if not cond1 and nc_set[z] == nc_set[x] and v0 in z.vertex_word:
                    cond2 = forms[z].y.vertex_word != sf.y.vertex_word
                if not (cond1 or cond2):
                    continue
                lhs.append(sys_.kernel(x, z).scalars)
                right.append(sys_.kernel(yc, z).scalars)
                if cond1:
                    n1 += 1
                else:
                    n2 += 1
            if lhs:
                diff = np.array(lhs) - sys_.kernel(x, yc).scalars * np.array(right)
                worst = max_residual(worst, float(np.abs(diff).max()))
    if n1 == n2 == 0:
        return _vacuous(
            "cross-terms",
            "lemmas",
            "no pair (x, z) meets either order condition",
            {"smaller-count": 0, "different-prefix": 0},
        )
    return CheckResult(
        name="cross-terms",
        suite="lemmas",
        passed=worst <= KERNEL_TOL,
        residual=worst,
        counts={"smaller-count": n1, "different-prefix": n2},
    )


def reference_dominance_margin(system, xs, ps):
    """The dominance difference from two grids of central products."""
    n = len(xs)

    def k(x, y):
        return system.kernel(x, y).scalars

    lhs_grid = [[k(xs[i], xs[j]) for j in range(n)] for i in range(n)]
    rhs_grid = [
        [k(xs[i], ps[i]) * k(ps[i], ps[j]) * k(ps[j], xs[j]) for j in range(n)]
        for i in range(n)
    ]
    diff = np.moveaxis(np.array(lhs_grid) - np.array(rhs_grid), -1, 0)
    if system.dtype == np.float64:  # certified in the system's dtype, as the checks are
        assert not diff.imag.any()
        diff = diff.real
    maxdiff = float(np.max(np.abs(diff)))
    _, lam = is_positive(diff, tol=ABS_PSD_TOL)
    return lam, maxdiff


def reference_schwarz(sc: Scenario) -> CheckResult:
    """The Schwarz bound with the factor hypothesis checked pair by pair and
    the dominance difference from grids of central products."""
    sys_ = sc.system
    words = sys_.words
    ball = list(words.ball(sc.identity_radius, budget=sc.budget))
    rng = np.random.default_rng([sc.seed, 104])
    worst = np.inf
    accepted = non_vacuous = rejected = 0
    attempts = 0
    all_ok = True

    def k(x, y):
        return sys_.kernel(x, y).scalars

    while non_vacuous < sc.tuple_target and attempts < 60 * sc.tuple_target:
        attempts += 1
        n = int(rng.integers(2, 4))
        if rng.integers(0, 2) == 0:
            cs = [ball[int(rng.integers(0, len(ball)))]] * n
        else:
            cs = [ball[int(rng.integers(0, len(ball)))] for _ in range(n)]
        bs = [ball[int(rng.integers(0, len(ball)))] for _ in range(n)]
        cbs = [words.multiply(c, b) for c, b in zip(cs, bs)]
        if any(
            np.abs(k(cbs[i], cs[j]) - k(cbs[i], cs[i]) * k(cs[i], cs[j])).max() > KERNEL_TOL
            for i in range(n)
            for j in range(n)
            if i != j
        ):
            rejected += 1
            continue
        lam, maxdiff = reference_dominance_margin(sys_, cbs, cs)
        accepted += 1
        if maxdiff > 1e-13:
            non_vacuous += 1
        worst = min(worst, lam)
        all_ok = all_ok and (lam >= -ABS_PSD_TOL)
    if accepted == 0:
        return _vacuous("schwarz-inequality", "lemmas", "no admissible family found")
    if non_vacuous == 0 and all_ok:
        return _vacuous(
            "schwarz-inequality",
            "lemmas",
            "LHS - RHS vanishes on every admissible family",
            {"families": accepted, "non_vacuous": 0, "rejected": rejected},
        )
    return CheckResult(
        name="schwarz-inequality",
        suite="lemmas",
        passed=all_ok,
        lambda_min=float(worst),
        counts={"families": accepted, "non_vacuous": non_vacuous, "rejected": rejected},
    )


def reference_y1_square(sc: Scenario) -> CheckResult:
    """The shared-prefix bound with each vertex's classes built from the
    standard forms of the ball words, one class per y vertex word in order
    of first appearance, and the dominance difference from grids of
    central products."""
    sys_ = sc.system
    words = sys_.words
    for h in sys_.multipliers:
        if np.max(np.abs(h.scalars.imag)) > 1e-12 or np.min(h.scalars.real) < -1e-12:
            return _vacuous(
                "shared-prefix-square-bound",
                "lemmas",
                "multiplier values are not positive central elements",
            )
    ball = words.ball(sc.identity_radius, budget=sc.budget)
    rng = np.random.default_rng([sc.seed, 105])
    class_lists = []
    for v0 in range(words.graph.n):
        classes: dict = {}
        for x in ball:
            if v0 in x.vertex_word:
                sf = words.standard_form(x, v0)
                classes.setdefault(sf.y.vertex_word, []).append((x, words.multiply(sf.y, sf.c)))
        class_lists.extend(classes.values())
    families = []
    per_class = max(8, -(-2 * sc.tuple_target // max(1, len(class_lists))))
    for members in class_lists:
        families.append(members[:6])
        for _ in range(per_class):
            n = int(rng.integers(1, 4))
            families.append([members[int(rng.integers(0, len(members)))] for _ in range(n)])
    worst = np.inf
    accepted = non_vacuous = 0
    all_ok = True
    for fam in families:
        if non_vacuous >= sc.tuple_target and accepted >= sc.tuple_target:
            break
        lam, maxdiff = reference_dominance_margin(sys_, [x for x, _ in fam], [p for _, p in fam])
        accepted += 1
        if maxdiff > 1e-13:
            non_vacuous += 1
        worst = min(worst, lam)
        all_ok = all_ok and (lam >= -ABS_PSD_TOL)
    if accepted == 0:
        return _vacuous(
            "shared-prefix-square-bound", "lemmas", "no family with the vertex found"
        )
    if non_vacuous == 0 and all_ok:
        return _vacuous(
            "shared-prefix-square-bound",
            "lemmas",
            "LHS - RHS vanishes on every family",
            {"families": accepted, "non_vacuous": 0},
        )
    return CheckResult(
        name="shared-prefix-square-bound",
        suite="lemmas",
        passed=all_ok,
        lambda_min=float(worst),
        counts={"families": accepted, "non_vacuous": non_vacuous},
    )


# ----------------------------------------------------------------------
# comparison


def report_text(fn, sc) -> str:
    """The check's report entry, or its recorded failure, as JSON text."""
    return json.dumps(_guarded("check", "lemmas", fn, sc).to_json())


def assert_same_reports(sc):
    for fn, ref in (
        (verify_drop_last, reference_drop_last),
        (verify_cross_terms, reference_cross_terms),
        (verify_schwarz, reference_schwarz),
        (verify_y1_square, reference_y1_square),
    ):
        assert report_text(fn, sc) == report_text(ref, sc)


def reduced_pairs(system, radius):
    """The reduced-pair matrix over ball(radius) as drop-last-letter reads
    it, after checking its first vertices against ``first_vertices``."""
    words = system.words
    heads, _, _ = words.last_letter_table(radius)
    lasts = heads >= 0
    _, inverse, *_ = system.ball_stack(radius)
    for i, x in enumerate(words.ball(radius)):
        assert tuple(np.flatnonzero(lasts[inverse[i]])) == tuple(sorted(first_vertices(words, x)))
    return _reduced_pairs(lasts, inverse)


def assert_reduced_from_first_vertices(system, radius):
    words = system.words
    ball = words.ball(radius)
    reduced = reduced_pairs(system, radius)
    assert np.array_equal(reduced, reference_reduced_pairs(words, ball))
    for i, x in enumerate(ball):
        x_inv = words.inverse(x)
        for j, y in enumerate(ball):
            assert reduced[i, j] == words.is_reduced(x_inv.vertex_word + y.vertex_word)
            assert reduced[i, j] == (len(words.multiply(x_inv, y)) == len(x) + len(y))


@pytest.mark.parametrize("name", SCENARIOS)
def test_stack_checks_match_the_per_pair_reference(name):
    sc = build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json")), seed=42)
    assert_same_reports(sc)
    assert_reduced_from_first_vertices(sc.system, sc.identity_radius)


@pytest.mark.parametrize("name", SCENARIOS)
def test_chunked_families_match_the_reference_across_seeds_and_targets(name):
    """Chunks are as large as the families still needed, so the targets
    cover no chunk (0), one family per chunk (1), a few chunks (5) and the
    default; each seed draws other families."""
    cfg = load_config(str(ROOT / "scenarios" / f"{name}.json"))
    for seed in (0, 3, 11):
        for target in (0, 1, 5, 60):
            sc = build_scenario(cfg, seed=seed)
            sc.tuple_target = target
            for fn, ref in ((verify_schwarz, reference_schwarz), (verify_y1_square, reference_y1_square)):
                assert report_text(fn, sc) == report_text(ref, sc)


def _constant_system(values):
    """Three free Z/3 vertices with trivial actions on two points and the
    given per-vertex values (one list per group element)."""
    graph = SimplicialGraph.build((0, 1, 2), [(0, 1)])
    return groupoid_from_space(graph, [cyclic_group(3)] * 3, 2, {}, values)


def test_families_that_all_vanish_end_at_the_attempt_cap():
    """With h = 1 everywhere every kernel is 1 and every dominance
    difference is 0: no family counts toward the target, so Schwarz draws
    until its cap of 60 attempts per target family, in chunks of the whole
    target, and the shared-prefix bound until its families run out."""
    system = _constant_system([[[1.0, 1.0]] * 3] * 3)
    for target in (1, 5, 60):
        sc = Scenario(name="ones", system=system, seed=7, identity_radius=2, tuple_target=target)
        report = verify_schwarz(sc)
        assert report.vacuous
        assert report.counts["families"] + report.counts["rejected"] == 60 * target
        assert report.counts["non_vacuous"] == 0
        assert report_text(verify_schwarz, sc) == report_text(reference_schwarz, sc)
        assert report_text(verify_y1_square, sc) == report_text(reference_y1_square, sc)


def test_a_nan_value_fails_on_the_first_family_in_draw_order():
    """One NaN value on one point: the families through it are accepted
    (a NaN deviation is not above the tolerance) and fail their eigensolve.
    The report must name the first such family's own shape, which differs
    between seeds, whichever family size its chunk certifies first."""
    values = [[[1.0, 1.0], [0.5, np.nan], [0.5, 0.3]]] + [[[1.0, 1.0], [0.4, 0.2], [0.4, 0.2]]] * 2
    system = _constant_system(values)
    messages = set()
    for seed in range(8):
        for target in (1, 5, 60):
            sc = Scenario(name="nan", system=system, seed=seed, identity_radius=2, tuple_target=target)
            for fn, ref in ((verify_schwarz, reference_schwarz), (verify_y1_square, reference_y1_square)):
                text = report_text(fn, sc)
                assert text == report_text(ref, sc)
                messages.add(json.loads(text)["details"]["message"])
    for n in (2, 3):
        assert any(f"shape=(2, {n}, {n})" in m for m in messages)


def test_least_eigenvalue_raises_the_first_failing_family_in_draw_order():
    """Groups are certified in their own order, but an error comes from the
    first failing family in draw order: here draw position 1, a
    non-Hermitian 3x3 family of the second group, not the NaN 2x2 family at
    position 2 that makes the first group's eigensolve raise."""
    good2 = np.eye(2)[None]
    nan2 = np.full((1, 2, 2), np.nan)
    skew3 = np.eye(3)[None] + np.triu(np.full((3, 3), 0.5), 1)[None]
    groups = [([0, 2], np.stack([good2, nan2])), ([1], skew3[None])]
    with pytest.raises(NotHermitianError) as err:
        _least_eigenvalue(groups)
    with pytest.raises(NotHermitianError) as own:
        is_positive(skew3, tol=ABS_PSD_TOL)
    assert str(err.value) == str(own.value)
    with pytest.raises(NotFiniteError, match=r"shape=\(1, 2, 2\)"):
        _least_eigenvalue(groups[:1])
    assert _least_eigenvalue([([0, 1], np.stack([good2, 2 * good2]))]) == 1.0
    assert _least_eigenvalue([([], np.empty((0, 1, 2, 2)))]) == np.inf


def test_lemma_suite_certifies_families_in_batches(monkeypatch):
    """One eigensolve per chunk and family size, not one per family: on a
    lemma_ball-shaped system (Z/3 vertices, blocks [1, 1], trivial actions,
    geometric values) the two dominance checks certify 120 families, and
    the whole lemma suite calls ``is_positive`` a few tens of times at most."""
    cfg = {
        "name": "path3",
        "graph": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
        "groups": {v: {"preset": "cyclic", "n": 3} for v in "abc"},
        "algebra": {"blocks": [1, 1]},
        "actions": {v: {"preset": "trivial"} for v in "abc"},
        "multipliers": {v: {"preset": "geometric", "c": c} for v, c in zip("abc", (0.3, 0.2, 0.4))},
        "verify": {"seed": 11, "identity_radius": 3},
    }
    shapes = []

    def counted(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return is_positive(m, *args, **kwargs)

    monkeypatch.setattr(verifier, "is_positive", counted)
    results = {r.name: r for r in run_suite(build_scenario(cfg), "lemmas")}
    dominance = ("schwarz-inequality", "shared-prefix-square-bound")
    families = sum(results[name].counts["families"] for name in dominance)
    assert families == 120
    assert len(shapes) <= 24
    assert sum(shape[0] for shape in shapes) == families


@st.composite
def _random_scenario(draw):
    """2-4 vertices with Z/2 or Z/3 and random edges.  Either each vertex
    acts on 3 or 4 points by a transposition or a 3-cycle, with random
    complex or positive values, or the actions are trivial and each point
    carries the positive definite c^|g| (0 < c < 1), so the kernels are
    Hermitian and the dominance bounds reach their eigensolves."""
    n = draw(st.integers(2, 4))
    points = draw(st.sampled_from([3, 4]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    orders = [draw(st.sampled_from([2, 3])) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["geometric", "positive", "complex"]))
    maps = {}
    if kind == "geometric":
        cs = [rng.uniform(0.1, 0.9, points) for _ in orders]
        values = [[list(c ** min(g, o - g)) for g in range(o)] for c, o in zip(cs, orders)]
    else:
        for v, order in enumerate(orders):
            gens = TRANSPOSITIONS[points] if order == 2 else THREE_CYCLES[points]
            maps[v] = _powers(draw(st.sampled_from(gens)), order)
        values = [
            [
                list(rng.uniform(0.1, 1.0, points))
                if kind == "positive"
                else list(rng.standard_normal(points) + 1j * rng.standard_normal(points))
                for _ in range(o)
            ]
            for o in orders
        ]
    graph = SimplicialGraph.build(tuple(range(n)), edges)
    system = groupoid_from_space(graph, [cyclic_group(o) for o in orders], points, maps, values)
    return Scenario(
        name="random",
        system=system,
        seed=draw(st.integers(0, 1000)),
        identity_radius=2,
        tuple_target=4,
    )


@settings(max_examples=40, deadline=None)
@given(_random_scenario())
def test_stack_checks_match_the_per_pair_reference_on_random_products(sc):
    assert_same_reports(sc)
    assert_reduced_from_first_vertices(sc.system, sc.identity_radius)


def word_path_schwarz(sc: Scenario) -> CheckResult:
    """The Schwarz check with each family built as words, x_i = c_i b_i by
    ``multiply``, and its stacks from ``kernel_matrix``: the path that the
    gather from the ball's stack and the products of word ids replaced."""
    sys_ = sc.system
    words = sys_.words
    ball = list(words.ball(sc.identity_radius, budget=sc.budget))
    rng = np.random.default_rng([sc.seed, 104])

    def draw():
        for _ in range(60 * sc.tuple_target):
            n = int(rng.integers(2, 4))
            if rng.integers(0, 2) == 0:
                cs = [ball[int(rng.integers(0, len(ball)))]] * n
            else:
                cs = [ball[int(rng.integers(0, len(ball)))] for _ in range(n)]
            bs = [ball[int(rng.integers(0, len(ball)))] for _ in range(n)]
            yield [words.multiply(c, b) for c, b in zip(cs, bs)], cs

    def stacks(families):
        gram = np.stack([sys_.kernel_matrix(xs + ps) for xs, ps in families])
        return verifier._cross_kernels_factor(gram), gram

    return verifier._dominance_check(
        "schwarz-inequality",
        draw(),
        stacks,
        sc.tuple_target,
        "no admissible family found",
        "LHS - RHS vanishes on every admissible family",
        rejected=True,
    )


def schwarz_stacks(fn, sc):
    """The check's report text and every kernel stack whose factor
    hypothesis it tests, the rejected families' included, as bytes."""
    seen, factor = [], verifier._cross_kernels_factor

    def recording(gram):
        seen.append((gram.shape, np.ascontiguousarray(gram).tobytes()))
        return factor(gram)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "_cross_kernels_factor", recording)
        return report_text(fn, sc), seen


@settings(max_examples=40, deadline=None)
@given(_random_scenario(), st.sampled_from([0, 1, 5, 60]))
def test_schwarz_matches_the_reference_on_random_products_and_targets(sc, target):
    """Families with one c are gathered from the ball's stack and the others
    go by word ids: the report equals the per-pair reference's, and every
    stack the word path's bit for bit.  Where the point actions do not
    commute across an edge, only exact index arithmetic on the same rows
    gives the same stacks."""
    sc.tuple_target = target
    text, stacks = schwarz_stacks(verify_schwarz, sc)
    assert (text, stacks) == schwarz_stacks(word_path_schwarz, sc)
    assert text == report_text(reference_schwarz, sc)


# ----------------------------------------------------------------------
# left translates from the identity ball's stack


def covariant_translates(system, radius, c, u):
    """The stacks alpha_c(K(u_i, u_j)) that K(c u_i, c u_j) would equal if
    the action of c u_j were that of u_j after c: the ball stack's blocks
    moved by the action row of c alone."""
    stack = system.ball_stack(radius)
    return stack.gram[stack.actions[c][:, :, None, None], u[:, None, :, None], u[:, None, None, :]]


def assert_translates_match_kernel_matrices(system, radius, seed):
    """``BallStack.translates`` bit for bit against ``kernel_matrix`` over the
    multiplied words, for random c and families u of 1-6 ball words, the
    identity among them as in the Schwarz families."""
    words = system.words
    ball = words.ball(radius)
    rng = np.random.default_rng(seed)
    for m in (1, 2, 4, 6):
        c = rng.integers(0, len(ball), 5)
        u = rng.integers(0, len(ball), (5, m))
        u[:, m // 2 :] *= rng.integers(0, 2, (5, m - m // 2))
        got = system.ball_stack(radius).translates(c, u)
        want = np.stack([system.kernel_matrix([words.multiply(ball[i], ball[j]) for j in row]) for i, row in zip(c, u)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", SCENARIOS)
def test_ball_stack_translates_match_kernel_matrices_on_scenarios(name):
    sc = build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json")), seed=42)
    assert_translates_match_kernel_matrices(sc.system, sc.identity_radius, seed=1)


@settings(max_examples=40, deadline=None)
@given(graph_products(), st.integers(0, 2**32 - 1))
def test_ball_stack_translates_match_kernel_matrices_on_random_products(system, seed):
    assert_translates_match_kernel_matrices(system, identity_radius(system.words), seed)


def test_translates_read_the_action_rows_of_the_products():
    """An edge whose actions do not commute (a transposition and a 3-cycle
    of three points): the action of the canonical word of c u is not that
    of u after c, so covariance gives other stacks than ``kernel_matrix``,
    and the translates, which read the action rows of the products, the
    same ones."""
    graph = SimplicialGraph.build((0, 1), [(0, 1)])
    maps = {0: _powers(TRANSPOSITIONS[3][0], 2), 1: _powers(THREE_CYCLES[3][0], 3)}
    rng = np.random.default_rng(5)
    values = [[list(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(o)] for o in (2, 3)]
    system = groupoid_from_space(graph, [cyclic_group(2), cyclic_group(3)], 3, maps, values)
    words = system.words
    ball = words.ball(2)
    c, b = np.divmod(np.arange(len(ball) ** 2), len(ball))
    u = np.stack([b, np.zeros_like(b)], axis=1)
    want = np.stack([system.kernel_matrix([words.multiply(ball[i], ball[j]) for j in row]) for i, row in zip(c, u)])
    assert system.ball_stack(2).translates(c, u).tobytes() == want.tobytes()
    assert not np.array_equal(covariant_translates(system, 2, c, u), want)


def test_first_vertices_past_sixty_four_vertices():
    """70 free Z/2 vertices: x^-1 y is reduced for two letters exactly when
    their vertices differ, also past the width of a 64-bit mask."""
    n = 70
    graph = SimplicialGraph.build(tuple(range(n)), [])
    values = [[[1.0], [0.5]] for _ in range(n)]
    system = groupoid_from_space(graph, [cyclic_group(2)] * n, 1, {}, values)
    words = system.words
    ball = words.ball(1)
    assert [first_vertices(words, x) for x in ball] == [()] + [(v,) for v in range(n)]
    reduced = reduced_pairs(system, 1)
    letters = reduced[1:, 1:]
    assert reduced[0].all() and reduced[:, 0].all()
    assert np.array_equal(letters, ~np.eye(n, dtype=bool))
    assert_reduced_from_first_vertices(system, 1)
    sc = Scenario(name="wide", system=system, identity_radius=1)
    report = verify_drop_last(sc)
    assert report.counts == {"instances": n * n}
    assert json.dumps(report.to_json()) == json.dumps(reference_drop_last(sc).to_json())
