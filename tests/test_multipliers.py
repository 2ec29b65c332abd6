"""Multipliers: positive definiteness, product evaluation, kernels, witnesses."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.cli import build_scenario, load_config
from gpmult.errors import (
    BadIdentityValueError,
    ContextMismatchError,
    EdgeViolationError,
    HypothesisViolatedError,
    NormTooLargeError,
    NotUnitalError,
    StructureMismatchError,
)
from gpmult.dynamics import (
    ActionSystem,
    diagonal_phase_action,
    point_permutation_action,
    trivial_action,
)
from gpmult.graphgroup import SimplicialGraph, cyclic_group, symmetric_group
from gpmult.matalg import BlockStructure, CentralElement, is_positive
from gpmult.multipliers import (
    Multiplier,
    MultiplierSystem,
    delta_multiplier,
    geometric_multiplier,
    gp_well_defined,
    haagerup_witness_ball,
    is_positive_definite,
    unitalize,
)
from gpmult.verifier import Scenario, verify_main_theorem, verify_setup
from gpmult.wordcraft import WordContext
from support import (
    central_diff,
    convention_flip,
    groupoid_from_space,
    random_element,
    tensor_fixture,
    value_of_letter,
)

ROOT = Path(__file__).resolve().parent.parent
SCALAR = BlockStructure((1,))


def scalar_multiplier(group, *vals):
    return Multiplier(
        group,
        SCALAR,
        tuple(CentralElement(SCALAR, np.array([v], dtype=complex)) for v in vals),
    )


def free_pair_system(c=0.5):
    """Two Z/2 vertices, no edge, trivial actions on C, h = (1, c) each."""
    z2 = cyclic_group(2)
    ctx = WordContext(SimplicialGraph.build(("a", "b"), []), (z2, z2))
    acts = ActionSystem(ctx, SCALAR, (trivial_action(z2, SCALAR), trivial_action(z2, SCALAR)))
    h = scalar_multiplier(z2, 1.0, c)
    return MultiplierSystem(acts, (h, h))


# ----------------------------------------------------------------------
# single-vertex multipliers


def test_scalar_pd_has_known_eigenvalues():
    z2 = cyclic_group(2)
    triv = trivial_action(z2, SCALAR)
    ok, lam = is_positive_definite(scalar_multiplier(z2, 1.0, 0.5), triv)
    assert ok and abs(lam - 0.5) < 1e-12
    ok, lam = is_positive_definite(scalar_multiplier(z2, 1.0, 1.2), triv)
    assert not ok and abs(lam + 0.2) < 1e-12


def test_pd_on_z3_with_complex_values():
    z3 = cyclic_group(3)
    z = 0.3 + 0.1j
    h = scalar_multiplier(z3, 1.0, z, np.conj(z))
    ok, lam = is_positive_definite(h, trivial_action(z3, SCALAR))
    assert ok
    # circulant matrix, smallest eigenvalue 1 + 2 Re(z w) with w = exp(2 pi i/3)
    assert abs(lam - 0.5267949192431122) < 1e-12
    assert h.values[1].scalars[0] == z


def test_pd_requires_matching_action():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    with pytest.raises(ContextMismatchError):
        is_positive_definite(scalar_multiplier(z2, 1.0, 0.5), trivial_action(z3, SCALAR))


def test_convention_flip_is_an_involution():
    z3 = cyclic_group(3)
    h = scalar_multiplier(z3, 1.0, 0.5, 0.2)  # not hermitian: h(g^-1)* != h(g)
    f = convention_flip(h)
    assert [f.values[g].scalars[0] for g in range(3)] == [1.0, 0.2, 0.5]
    ff = convention_flip(f)
    assert np.array_equal(ff.scalars, h.scalars)


def test_convention_flip_fixes_hermitian_multipliers():
    z3 = cyclic_group(3)
    z = 0.3 + 0.1j
    h = scalar_multiplier(z3, 1.0, z, np.conj(z))
    f = convention_flip(h)
    assert np.array_equal(f.scalars, h.scalars)


def test_unitalize_replaces_identity_value():
    z2 = cyclic_group(2)
    u = unitalize(scalar_multiplier(z2, 0.7, 0.3))
    assert u.is_unital
    assert u.values[1].scalars[0] == 0.3


def test_unitalize_rejects_bad_input():
    z2 = cyclic_group(2)
    with pytest.raises(NormTooLargeError):
        unitalize(scalar_multiplier(z2, 0.3, 0.6))
    with pytest.raises(BadIdentityValueError):
        unitalize(scalar_multiplier(z2, 1.5, 0.2))
    with pytest.raises(BadIdentityValueError):
        unitalize(scalar_multiplier(z2, 0.5 + 0.2j, 0.2))


@pytest.mark.parametrize("off", [(0.3, np.nan), (np.nan, 0.3)])
def test_nan_values_fail_the_norm_preconditions(off):
    """A NaN off the identity makes the sup NaN wherever it sits, and every
    norm precondition rejects it; so does a NaN identity value."""
    z3 = cyclic_group(3)
    h = scalar_multiplier(z3, 1.0, *off)
    assert np.isnan(h.off_identity_sup())
    with pytest.raises(NormTooLargeError):
        unitalize(h)
    with pytest.raises(BadIdentityValueError):
        unitalize(scalar_multiplier(z3, np.nan, 0.3, 0.3))
    ctx = WordContext(SimplicialGraph.build(("a", "b"), []), (z3, z3))
    acts = ActionSystem(ctx, SCALAR, (trivial_action(z3, SCALAR), trivial_action(z3, SCALAR)))
    with pytest.raises(NormTooLargeError):
        haagerup_witness_ball(MultiplierSystem(acts, (h, h)), K=4, eps=0.0625, L=6)


def test_geometric_preset_uses_cyclic_distance():
    z5 = cyclic_group(5)
    g = geometric_multiplier(z5, SCALAR, 0.5)
    assert [g.values[k].scalars[0].real for k in range(5)] == [1.0, 0.5, 0.25, 0.25, 0.5]
    with pytest.raises(StructureMismatchError):
        geometric_multiplier(symmetric_group(3), SCALAR, 0.5)


def test_delta_preset():
    z3 = cyclic_group(3)
    d = delta_multiplier(z3, SCALAR)
    assert d.is_unital
    assert d.off_identity_sup() == 0.0
    ok, _ = is_positive_definite(d, trivial_action(z3, SCALAR))
    assert ok


def test_multiplier_shape_errors():
    z2 = cyclic_group(2)
    with pytest.raises(StructureMismatchError):
        scalar_multiplier(z2, 1.0, 0.5, 0.5)  # three values for a group of order 2
    st2 = BlockStructure((1, 1))
    with pytest.raises(StructureMismatchError):
        Multiplier(z2, SCALAR, (CentralElement.one(SCALAR), CentralElement.one(st2)))


# ----------------------------------------------------------------------
# graph products


def test_free_pair_values_multiply_along_letters():
    sys = free_pair_system()
    sys.validate()
    ctx = sys.words
    assert sys.gp_value(ctx.normalize([])).scalars[0] == 1.0
    ab = ctx.normalize([(0, 1), (1, 1)])
    aba = ctx.normalize([(0, 1), (1, 1), (0, 1)])
    assert sys.gp_value(ab).scalars[0] == 0.25
    assert sys.gp_value(aba).scalars[0] == 0.125


def test_gp_value_is_a_copy_of_the_value_row():
    """eval's value is the row verify reads: gp_value fills the value row of
    x's id and returns a complex copy of it, bit-equal to the letter loop."""
    system = build_scenario(load_config(str(ROOT / "scenarios" / "s3_points_z2_z3.json"))).system
    words, rng = system.words, np.random.default_rng(3)
    for _ in range(40):
        x = random_element(words, rng, 6)
        value = system.gp_value(x).scalars
        i = words.intern(x.letters)
        assert i < len(system._value_cache)
        row = system._value_cache.values[i]
        assert value.dtype == np.complex128 and not np.shares_memory(value, row)
        assert value.tobytes() == row.astype(np.complex128).tobytes()
        assert value.tobytes() == system.gp_value_letters(x.letters).scalars.tobytes()


def test_well_defined_over_rearrangements():
    rep = gp_well_defined(free_pair_system(), radius=3)
    assert rep.ok and rep.max_deviation == 0.0
    # no commuting edges: every word has a single admissible expression
    assert rep.checked_words == 7
    assert rep.checked_expressions == 7


def test_well_defined_counts_rearrangements_on_a_triangle():
    from gpmult.cli import build_scenario, load_config

    sc = build_scenario(load_config("scenarios/triangle_perm_z2.json"))
    rep = gp_well_defined(sc.system, radius=3)
    assert rep.ok and rep.max_deviation == 0.0
    assert rep.checked_words == 8  # the full group: three commuting Z/2's
    assert rep.checked_expressions == 16


def test_kernel_star_symmetry_and_gram_positivity():
    sys = free_pair_system()
    ball = sorted(sys.words.ball(3), key=lambda x: x.letters)
    for x in ball:
        for y in ball:
            d = float(np.abs(sys.kernel(x, y).scalars - np.conj(sys.kernel(y, x).scalars)).max())
            assert d < 1e-14
    m = sys.kernel_matrix(ball)
    ok, lam = is_positive(m, tol=1e-8)
    assert ok, lam


def test_system_rejects_mismatched_pieces():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    ctx = WordContext(SimplicialGraph.build(("a", "b"), []), (z2, z2))
    acts = ActionSystem(ctx, SCALAR, (trivial_action(z2, SCALAR), trivial_action(z2, SCALAR)))
    with pytest.raises(StructureMismatchError):
        MultiplierSystem(acts, (scalar_multiplier(z2, 1.0, 0.5),))
    with pytest.raises(ContextMismatchError):
        MultiplierSystem(
            acts, (scalar_multiplier(z2, 1.0, 0.5), scalar_multiplier(z3, 1.0, 0.5, 0.5))
        )


def test_validate_flags_noninvariant_neighbour_multiplier():
    """An edge action moving the neighbour's values must be caught."""
    z2 = cyclic_group(2)
    st = BlockStructure((1, 1))
    ctx = WordContext(SimplicialGraph.build(("u", "v"), [("u", "v")]), (z2, z2))
    swap = [[0, 1], [1, 0]]
    tables = (
        # u swaps the two points, v acts trivially
        point_permutation_action(z2, st, swap),
        trivial_action(z2, st),
    )
    acts = ActionSystem(ctx, st, tables)
    hu = Multiplier(z2, st, (CentralElement.one(st), CentralElement(st, [0.5, 0.5])))
    hv = Multiplier(z2, st, (CentralElement.one(st), CentralElement(st, [0.8, 0.2])))
    sys = MultiplierSystem(acts, (hu, hv))
    with pytest.raises(EdgeViolationError):
        sys.validate()


# ----------------------------------------------------------------------
# random graph products


def canonical_tail_value(system, letters):
    """Reference evaluator, the block scalars of the value: each right tail
    is normalized, then inverted."""
    letters = tuple(letters)
    if not letters:
        return np.ones(system.structure.num_blocks, dtype=np.complex128)
    words = system.words
    out = None
    for j, letter in enumerate(letters[:-1]):
        tail_inv = words.inverse(words.normalize(letters[j + 1 :]))
        factor = system.actions.act_word(tail_inv).on_central(
            value_of_letter(system, letter)
        ).scalars
        out = factor if out is None else out * factor
    last = value_of_letter(system, letters[-1]).scalars
    return last if out is None else out * last


POINTS = 4
_PERMS = list(itertools.permutations(range(POINTS)))


def _compose(p, q):
    return tuple(p[i] for i in q)


def _power(p, k):
    out = tuple(range(POINTS))
    for _ in range(k):
        out = _compose(p, out)
    return out


def _orbits(perms):
    """Orbit label of each point under the group the permutations generate."""
    label = list(range(POINTS))
    for _ in range(POINTS):
        for p in perms:
            for i in range(POINTS):
                label[i] = label[p[i]] = min(label[i], label[p[i]])
    return label


@st.composite
def _random_system(draw):
    """Cyclic groups on a random graph acting on 4 points by permutations.

    Adjacent actions are made to commute, as the setup requires; others may
    not.  Each vertex carries a geometric multiplier c^(cyclic distance) with
    one c <= 1/2 per orbit of its own and its neighbours' actions, so it is
    positive definite and fixed by its neighbours, yet moved by the actions
    of non-neighbours.
    """
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    graph = SimplicialGraph.build(tuple(range(n)), edges)
    groups = [cyclic_group(draw(st.integers(1, 4))) for _ in range(n)]
    structure = BlockStructure((1,) * POINTS)
    ident = _PERMS[0]
    gens = []
    for v, grp in enumerate(groups):
        cands = [p for p in _PERMS if _power(p, grp.order) == ident]
        p = draw(st.sampled_from(cands))
        if any(graph.adjacent(u, v) and _compose(p, q) != _compose(q, p) for u, q in enumerate(gens)):
            p = ident
        gens.append(p)
    tables = [
        trivial_action(grp, structure)
        if p == ident
        else point_permutation_action(grp, structure, [list(_power(p, g)) for g in range(grp.order)])
        for grp, p in zip(groups, gens)
    ]
    mults = []
    for v, grp in enumerate(groups):
        label = _orbits([gens[v]] + [gens[u] for u in range(n) if graph.adjacent(u, v)])
        cs = {o: draw(st.floats(0.0, 0.5)) for o in sorted(set(label))}
        k = grp.order
        vals = [
            CentralElement(structure, np.array([complex(cs[o]) ** min(g, k - g) for o in label]))
            for g in range(k)
        ]
        mults.append(Multiplier(grp, structure, tuple(vals)))
    words = WordContext(graph, groups)
    return MultiplierSystem(ActionSystem(words, structure, tables), mults)


@settings(max_examples=30, deadline=None)
@given(_random_system())
def test_random_graph_products_are_positive_and_evaluate_bit_exactly(system):
    sc = Scenario(name="random", system=system, ball_radius=3)
    assert verify_setup(sc).passed
    gram = verify_main_theorem(sc)
    assert gram.passed and not gram.vacuous
    words = system.words
    for x in words.ball(3):
        for r in words.rearrangements(x):
            got = system.gp_value_letters(r).scalars
            assert got.tobytes() == canonical_tail_value(system, r).tobytes()


def test_noncommuting_adjacent_actions_break_well_definedness():
    """Path u-v plus an isolated w; the u and v point maps do not commute."""
    z2 = cyclic_group(2)
    graph = SimplicialGraph.build(("u", "v", "w"), [("u", "v")])
    ident = [0, 1, 2, 3]
    system = groupoid_from_space(
        graph,
        [z2] * 3,
        POINTS,
        {0: [ident, [1, 0, 2, 3]], 1: [ident, [0, 2, 1, 3]]},
        [[[1] * 4, [0.1, 0.2, 0.3, 0.4]], [[1] * 4, [0.5] * 4], [[1] * 4, [0.5] * 4]],
    )
    rep = gp_well_defined(system)
    assert not rep.ok
    assert rep.max_deviation == pytest.approx(0.05)
    assert rep.checked_expressions == 38


# ----------------------------------------------------------------------
# decay witness


def test_haagerup_witness_exact_on_free_pair():
    wit = haagerup_witness_ball(free_pair_system(), K=4, eps=0.0625, L=6)
    assert wit.ok
    assert wit.max_off_norm == 0.5**5
    assert wit.f_size == 9  # the radius-4 ball of the infinite dihedral group
    assert wit.ball_size == 13


def assert_witness_decided_by_preconditions(system, K, eps, L):
    """The witness passes, and its largest norm off F is at most
    sup^(K+1) up to the rounding of the products."""
    sup = max(h.off_identity_sup() for h in system.multipliers)
    wit = haagerup_witness_ball(system, K=K, eps=eps, L=L)
    assert wit.ok
    assert wit.max_off_norm <= sup ** (K + 1) * (1 + 1e-12)


def test_haagerup_witness_on_free_pair_scenario_is_decided_by_preconditions():
    sc = build_scenario(load_config(str(ROOT / "scenarios" / "free_pair_z2.json")))
    params = sc.witness
    assert_witness_decided_by_preconditions(sc.system, params["K"], params["eps"], params["L"])


@settings(max_examples=40, deadline=None)
@given(_random_system(), st.integers(0, 3), st.integers(1, 2))
def test_haagerup_witness_on_random_systems_is_decided_by_preconditions(system, K, extra):
    """Every draw meets the preconditions at eps = 2^-K, so no draw fails."""
    assert_witness_decided_by_preconditions(system, K, 2.0 ** (-K), K + extra)


def test_haagerup_witness_hypothesis_errors():
    sys = free_pair_system()
    with pytest.raises(HypothesisViolatedError):
        haagerup_witness_ball(sys, K=2, eps=0.1, L=4)  # 2^-K > eps
    with pytest.raises(HypothesisViolatedError):
        haagerup_witness_ball(sys, K=4, eps=0.0625, L=3)  # L <= K
    with pytest.raises(NormTooLargeError):
        haagerup_witness_ball(free_pair_system(c=0.8), K=4, eps=0.0625, L=6)
    z2 = cyclic_group(2)
    ctx = WordContext(SimplicialGraph.build(("a", "b"), []), (z2, z2))
    acts = ActionSystem(ctx, SCALAR, (trivial_action(z2, SCALAR), trivial_action(z2, SCALAR)))
    nonunital = MultiplierSystem(
        acts, (scalar_multiplier(z2, 0.9, 0.5), scalar_multiplier(z2, 1.0, 0.5))
    )
    with pytest.raises(NotUnitalError):
        haagerup_witness_ball(nonunital, K=4, eps=0.0625, L=6)


# ----------------------------------------------------------------------
# fixtures


def test_tensor_fixture_matches_block_diagonal_phase_model():
    """The M2 (x) M3 edge fixture against the same data written on one 6-dim block."""
    from gpmult.cli import build_scenario, load_config

    sc = build_scenario(load_config("scenarios/tensor_edge_z2_z3.json"))
    sc.system.validate()

    z2, z3 = cyclic_group(2), cyclic_group(3)
    s2, s3 = BlockStructure((2,)), BlockStructure((3,))
    tu = diagonal_phase_action(z2, s2, [[[0.0, 0.0]], [[0.0, math.pi]]])
    w = 2 * math.pi / 3
    tv = diagonal_phase_action(
        z3, s3, [[[0.0, 0.0, 0.0]], [[0.0, w, 2 * w]], [[0.0, 2 * w, 4 * w]]]
    )
    hu = scalar_multiplier(z2, 1.0, 0.5)
    hu = Multiplier(z2, s2, tuple(CentralElement(s2, v.scalars) for v in hu.values))
    hv = scalar_multiplier(z3, 1.0, 0.4, 0.4)
    hv = Multiplier(z3, s3, tuple(CentralElement(s3, v.scalars) for v in hv.values))
    tf = tensor_fixture(z2, tu, hu, z3, tv, hv)
    tf.validate()

    ball_a = sorted(sc.system.words.ball(4), key=lambda x: x.letters)
    ball_b = sorted(tf.words.ball(4), key=lambda x: x.letters)
    assert len(ball_a) == len(ball_b) == 6  # saturates at the direct product
    for xa, xb in zip(ball_a, ball_b):
        assert xa.letters == xb.letters
        assert np.max(np.abs(sc.system.gp_value(xa).scalars - tf.gp_value(xb).scalars)) < 1e-14
    ka = sc.system.kernel_matrix(ball_a)
    kb = tf.kernel_matrix(ball_b)
    assert np.max(np.abs(ka - kb)) < 1e-14


def test_groupoid_from_space_round_trip():
    z2 = cyclic_group(2)
    g = SimplicialGraph.build(("p",), [])
    sys = groupoid_from_space(
        g, [z2], 2, {0: [[0, 1], [1, 0]]}, {0: [[1.0, 1.0], [0.5, 0.5]]}
    )
    sys.validate()
    rep = gp_well_defined(sys, radius=3)
    assert rep.ok and rep.max_deviation == 0.0
    x = sys.words.normalize([(0, 1)])
    assert np.allclose(sys.gp_value(x).scalars, [0.5, 0.5])
