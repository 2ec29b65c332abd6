"""Stack-gathered kernel identities against the per-pair reference.

``drop-last-letter`` and ``cross-terms`` read every kernel from the
identity ball's ``(K, n, n)`` stack, and decide whether x^-1 y is reduced
from the first vertices of x and y.  The Schwarz and shared-prefix bounds
read their factor hypothesis and dominance difference from one
``kernel_matrix`` stack over each family's words.  The per-pair
implementations they replaced are kept below as the reference: one
``kernel`` call per pair, reducedness by rescanning the concatenated vertex
word, and the dominance difference assembled from grids of central
products.  Reports are compared byte for byte, on the committed scenarios
and on random small graph products.  Where the point actions do not
commute across non-edges the kernels are not Hermitian and the identities
fail with large residuals that any misplaced gather would change; with
trivial actions and positive definite values the dominance bounds reach
their eigensolves.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import central_stack, groupoid_from_space, nc_length_set, reference_push
from test_composed_actions import THREE_CYCLES, TRANSPOSITIONS, _powers

from gpmult.cli import build_scenario, load_config
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.matalg import is_positive, max_residual
from gpmult.verifier import (
    ABS_PSD_TOL,
    KERNEL_TOL,
    CheckResult,
    Scenario,
    _guarded,
    _reduced_pairs,
    _vacuous,
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
        nc_set = {x: nc_length_set(words, words.downset(x), v0) for x in ball}
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
    k = system.kernel
    lhs_grid = [[k(xs[i], xs[j]) for j in range(n)] for i in range(n)]
    rhs_grid = [
        [k(xs[i], ps[i]) * k(ps[i], ps[j]) * k(ps[j], xs[j]) for j in range(n)]
        for i in range(n)
    ]
    structure = system.structure
    diff = central_stack(structure, lhs_grid) - central_stack(structure, rhs_grid)
    maxdiff = float(np.max(np.abs(diff)))
    _, lam = is_positive(diff, tol=ABS_PSD_TOL, hermitian_tol=1e-8)
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
    while non_vacuous < sc.tuple_target and attempts < 60 * sc.tuple_target:
        attempts += 1
        n = int(rng.integers(2, 4))
        if rng.integers(0, 2) == 0:
            cs = [ball[int(rng.integers(0, len(ball)))]] * n
        else:
            cs = [ball[int(rng.integers(0, len(ball)))] for _ in range(n)]
        bs = [ball[int(rng.integers(0, len(ball)))] for _ in range(n)]
        cbs = [words.multiply(c, b) for c, b in zip(cs, bs)]
        k = sys_.kernel
        if any(
            k(cbs[i], cs[j]).maxabs_diff(k(cbs[i], cs[i]) * k(cs[i], cs[j])) > KERNEL_TOL
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
                sf = words.standard_form(x, v0, sc.budget)
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


def assert_reduced_from_first_vertices(words, ball):
    reduced = _reduced_pairs(words, ball)
    for i, x in enumerate(ball):
        x_inv = words.inverse(x)
        for j, y in enumerate(ball):
            assert reduced[i, j] == words.is_reduced(x_inv.vertex_word + y.vertex_word)
            assert reduced[i, j] == (len(words.multiply(x_inv, y)) == len(x) + len(y))


@pytest.mark.parametrize("name", SCENARIOS)
def test_stack_checks_match_the_per_pair_reference(name):
    sc = build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json")), seed=42)
    assert_same_reports(sc)
    assert_reduced_from_first_vertices(sc.system.words, sc.system.words.ball(sc.identity_radius))


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
    assert_reduced_from_first_vertices(sc.system.words, sc.system.words.ball(sc.identity_radius))


def test_first_vertices_past_sixty_four_vertices():
    """70 free Z/2 vertices: x^-1 y is reduced for two letters exactly when
    their vertices differ, also past the width of a 64-bit mask."""
    n = 70
    graph = SimplicialGraph.build(tuple(range(n)), [])
    values = [[[1.0], [0.5]] for _ in range(n)]
    system = groupoid_from_space(graph, [cyclic_group(2)] * n, 1, {}, values)
    words = system.words
    ball = words.ball(1)
    assert [words.first_vertices(x) for x in ball] == [()] + [(v,) for v in range(n)]
    reduced = _reduced_pairs(words, ball)
    letters = reduced[1:, 1:]
    assert reduced[0].all() and reduced[:, 0].all()
    assert np.array_equal(letters, ~np.eye(n, dtype=bool))
    assert_reduced_from_first_vertices(words, ball)
    sc = Scenario(name="wide", system=system, identity_radius=1)
    report = verify_drop_last(sc)
    assert report.counts == {"instances": n * n}
    assert json.dumps(report.to_json()) == json.dumps(reference_drop_last(sc).to_json())
