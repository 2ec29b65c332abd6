"""Group actions on block algebras: homomorphism checks, commutation, words."""

import numpy as np
import pytest

from gpmult.errors import (
    EdgeViolationError,
    NotHomomorphismError,
    StructureMismatchError,
)
from gpmult.dynamics import (
    ActionSystem,
    Automorphism,
    actions_commute,
    block_permutation_action,
    diagonal_phase_action,
    point_permutation_action,
    trivial_action,
    validate_action,
)
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.matalg import AlgebraElement, BlockStructure, CentralElement
from gpmult.wordcraft import WordContext
from support import act_on, apply_central


def test_automorphism_is_multiplicative_and_unital():
    st = BlockStructure([2, 2])
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    alpha = Automorphism(st, (1, 0), (np.eye(2), q))
    a = AlgebraElement(st, [rng.standard_normal((2, 2)) for _ in range(2)])
    b = AlgebraElement(st, [rng.standard_normal((2, 2)) for _ in range(2)])
    assert alpha.apply(a * b).maxabs_diff(alpha.apply(a) * alpha.apply(b)) < 1e-12
    assert alpha.apply(AlgebraElement.identity(st)).maxabs_diff(
        AlgebraElement.identity(st)
    ) < 1e-12
    assert alpha.apply(a.adjoint()).maxabs_diff(alpha.apply(a).adjoint()) < 1e-12


def test_automorphism_rejects_bad_data():
    st = BlockStructure([2, 1])
    with pytest.raises(StructureMismatchError):
        Automorphism(st, (0, 0), (np.eye(2), np.eye(1)))  # not a permutation
    with pytest.raises(StructureMismatchError):
        Automorphism(st, (1, 0), (np.eye(2), np.eye(1)))  # dims cannot swap
    with pytest.raises(StructureMismatchError):
        Automorphism(st, (0, 1), (np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(1)))


def test_central_transport_follows_block_permutation():
    st = BlockStructure([1, 1, 1])
    perm = (1, 2, 0)  # block j lands on block perm[j]
    alpha = Automorphism(st, perm, tuple(np.eye(1) for _ in range(3)))
    c = CentralElement(st, [10.0, 20.0, 30.0])
    moved = apply_central(alpha, c)
    assert np.allclose(moved.scalars, [30.0, 10.0, 20.0])


def test_diagonal_phase_action_validates():
    st = BlockStructure([2])
    group = cyclic_group(3)
    w = 2 * np.pi / 3
    phases = [[[0.0, 0.0]], [[0.0, w]], [[0.0, 2 * w]]]
    table = diagonal_phase_action(group, st, phases)
    validate_action(table)
    # breaking additivity of the angles breaks the homomorphism property
    bad = diagonal_phase_action(group, st, [[[0.0, 0.0]], [[0.0, w]], [[0.0, 0.7]]])
    with pytest.raises(NotHomomorphismError):
        validate_action(bad)


def test_point_permutation_action_moves_functions_contravariantly():
    st = BlockStructure([1, 1, 1])
    group = cyclic_group(3)
    # g=1 sends point k to k+1 (mod 3)
    maps = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    table = point_permutation_action(group, st, maps)
    validate_action(table)
    f = CentralElement(st, [5.0, 7.0, 11.0])
    g1 = apply_central(table.autos[1], f)
    # (alpha_g f)(k) = f(g^{-1} k)
    assert np.allclose(g1.scalars, [11.0, 5.0, 7.0])


def test_point_permutation_requires_one_dimensional_blocks():
    st = BlockStructure([2, 1])
    with pytest.raises(StructureMismatchError):
        point_permutation_action(cyclic_group(2), st, [[0, 1], [1, 0]])


def test_block_permutation_action_homomorphism():
    st = BlockStructure([2, 2])
    table = block_permutation_action(cyclic_group(2), st, [[0, 1], [1, 0]])
    validate_action(table)


def test_actions_commute_detects_both_cases():
    st = BlockStructure([1, 1, 1, 1])
    z2 = cyclic_group(2)
    swap01 = point_permutation_action(z2, st, [[0, 1, 2, 3], [1, 0, 2, 3]])
    swap23 = point_permutation_action(z2, st, [[0, 1, 2, 3], [0, 1, 3, 2]])
    cycle = point_permutation_action(
        cyclic_group(2), st, [[0, 1, 2, 3], [1, 2, 3, 0]]
    )
    assert actions_commute(swap01, swap23)
    assert not actions_commute(swap01, cycle)


def test_action_system_flags_noncommuting_edge():
    g = SimplicialGraph.build(["u", "v"], [("u", "v")])
    z2 = cyclic_group(2)
    ctx = WordContext(g, [z2, z2])
    st = BlockStructure([1, 1, 1, 1])
    swap01 = point_permutation_action(z2, st, [[0, 1, 2, 3], [1, 0, 2, 3]])
    cycle = point_permutation_action(z2, st, [[0, 1, 2, 3], [1, 2, 3, 0]])
    # the 4-cycle is not even a homomorphism image of Z/2; use a genuine
    # non-commuting pair of involutions instead
    swap12 = point_permutation_action(z2, st, [[0, 1, 2, 3], [0, 2, 1, 3]])
    system = ActionSystem(ctx, st, [swap01, swap12])
    with pytest.raises(EdgeViolationError):
        system.setup_commutes_per_graph()
    del cycle


def test_word_action_applies_letters_right_to_left():
    g = SimplicialGraph.build(["u", "v"], [])
    z3 = cyclic_group(3)
    z2 = cyclic_group(2)
    st = BlockStructure([1, 1, 1])
    rot = point_permutation_action(z3, st, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    swap = point_permutation_action(z2, st, [[0, 1, 2], [1, 0, 2]])
    ctx = WordContext(g, [z3, z2])
    system = ActionSystem(ctx, st, [rot, swap])
    system.validate_actions()
    system.setup_commutes_per_graph()
    x = ctx.normalize([(0, 1), (1, 1)])  # u then v
    f = CentralElement(st, [1.0, 2.0, 3.0])
    got = system.act_word(x).on_central(f)
    expect = apply_central(rot.autos[1], apply_central(swap.autos[1], f))
    assert np.allclose(got.scalars, expect.scalars)


def test_word_action_representative_independent_on_commuting_edge():
    g = SimplicialGraph.build(["u", "v"], [("u", "v")])
    z2 = cyclic_group(2)
    st = BlockStructure([1, 1, 1, 1])
    swap01 = point_permutation_action(z2, st, [[0, 1, 2, 3], [1, 0, 2, 3]])
    swap23 = point_permutation_action(z2, st, [[0, 1, 2, 3], [0, 1, 3, 2]])
    ctx = WordContext(g, [z2, z2])
    system = ActionSystem(ctx, st, [swap01, swap23])
    system.validate_actions()
    system.setup_commutes_per_graph()
    uv = ctx.normalize([(0, 1), (1, 1)])
    rng = np.random.default_rng(0)
    a = AlgebraElement(st, [rng.standard_normal((1, 1)) for _ in range(4)])
    outs = []
    for r in ctx.rearrangements(uv):
        outs.append(act_on(system.act_word(list(r)), a))
    assert len(outs) == 2
    assert outs[0].maxabs_diff(outs[1]) < 1e-12


def test_trivial_action_is_identity_everywhere():
    st = BlockStructure([2])
    table = trivial_action(cyclic_group(4), st)
    validate_action(table)
    for gidx in range(4):
        assert table.autos[gidx].is_identity_map()
