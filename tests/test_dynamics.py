"""Group actions on block algebras: homomorphism checks, commutation, words."""

import itertools

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.errors import (
    EdgeViolationError,
    NotFiniteError,
    NotHomomorphismError,
    StructureMismatchError,
)
from gpmult.dynamics import (
    ActionSystem,
    ActionTable,
    Automorphism,
    actions_commute,
    block_permutation_action,
    diagonal_phase_action,
    point_permutation_action,
    trivial_action,
    validate_action,
)
from gpmult.graphgroup import SimplicialGraph, cyclic_group, symmetric_group
from gpmult.matalg import BlockStructure, CentralElement
from gpmult.wordcraft import WordContext
from support import (
    act_on,
    apply_auto,
    apply_central,
    blocks_diff,
    matrix_units,
    reference_actions_commute,
    reference_is_identity_map,
    reference_validate_action,
)


def test_automorphism_is_multiplicative_and_unital():
    st = BlockStructure([2, 2])
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    alpha = Automorphism(st, (1, 0), (np.eye(2), q))
    a = [rng.standard_normal((2, 2)) for _ in range(2)]
    b = [rng.standard_normal((2, 2)) for _ in range(2)]
    ab = [x @ y for x, y in zip(a, b)]
    images = [x @ y for x, y in zip(apply_auto(alpha, a), apply_auto(alpha, b))]
    assert blocks_diff(apply_auto(alpha, ab), images) < 1e-12
    one = [np.eye(2), np.eye(2)]
    assert blocks_diff(apply_auto(alpha, one), one) < 1e-12
    adjoints = [x.conj().T for x in apply_auto(alpha, a)]
    assert blocks_diff(apply_auto(alpha, [x.conj().T for x in a]), adjoints) < 1e-12


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
    """Checked before the maps are read, so even valid block swaps fail."""
    for dims in ((2, 1), (3, 3)):
        with pytest.raises(StructureMismatchError) as err:
            point_permutation_action(cyclic_group(2), BlockStructure(dims), [[0, 1], [1, 0]])
        assert str(err.value) == "point permutations need all blocks of dim 1"


def test_point_permutation_is_the_block_permutation_of_its_maps():
    """S_3 on three points: automorphism g has block permutation maps[g]
    and identity unitaries."""
    maps = list(itertools.permutations(range(3)))
    table = point_permutation_action(symmetric_group(3), BlockStructure((1, 1, 1)), maps)
    validate_action(table)
    for g, auto in enumerate(table.autos):
        assert auto.block_perm == maps[g]
        assert [u.tobytes() for u in auto.unitaries] == [np.eye(1, dtype=complex).tobytes()] * 3


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
    a = [rng.standard_normal((1, 1)) for _ in range(4)]
    outs = []
    for r in ctx.rearrangements(uv):
        outs.append(act_on(system.act_word(list(r)), a))
    assert len(outs) == 2
    assert blocks_diff(outs[0], outs[1]) < 1e-12


def test_trivial_action_is_identity_everywhere():
    st = BlockStructure([2])
    table = trivial_action(cyclic_group(4), st)
    validate_action(table)
    reference_validate_action(table)
    for gidx in range(4):
        assert reference_is_identity_map(table.autos[gidx])


def test_unit_images_are_the_matrix_unit_images():
    """Column (j, r, c) of ``unit_images[g]`` is alpha_g(E^j_rc), its
    blocks read row-major, on a block swap with unitaries on every block
    (up to rounding: kron multiplies once where ``apply_auto`` also sums)."""
    st = BlockStructure([2, 1, 2])
    rng = np.random.default_rng(4)
    q = [_unitary(rng, d) for d in (2, 1, 2)]
    table = ActionTable(cyclic_group(1), st, (Automorphism(st, (2, 1, 0), tuple(q)),))
    images = table.unit_images
    assert images.shape == (1, 9, 9) and not images.flags.writeable
    for col, u in enumerate(matrix_units(st)):
        want = np.concatenate([b.ravel() for b in apply_auto(table.autos[0], u)])
        assert np.abs(images[0, :, col] - want).max() < 1e-15


def test_non_finite_unitaries_and_image_deviations_fail():
    """A NaN unitary passed the unitarity test, which no comparison with NaN
    meets; it is rejected now, and a NaN in the unit images fails the
    identity, homomorphism and commutation checks."""
    st = BlockStructure((2,))
    for bad in (np.nan, np.inf):
        with pytest.raises(NotFiniteError):
            Automorphism(st, (0,), ([[bad, 0], [0, 1]],))
    table = trivial_action(cyclic_group(2), st)
    # at the identity element the identity check fails, elsewhere the
    # product alpha_e o alpha_1
    for g, first in ((0, {"g": 0}), (1, {"g": 0, "h": 1})):
        images = table.unit_images.copy()
        images[g, 1, 2] = np.nan
        poisoned = trivial_action(cyclic_group(2), st)
        object.__setattr__(poisoned, "unit_images", images)
        with pytest.raises(NotHomomorphismError) as err:
            validate_action(poisoned)
        assert {k: err.value.context[k] for k in first} == first
        assert not actions_commute(poisoned, table)
        assert not actions_commute(table, poisoned)
    assert actions_commute(table, table)


# ----------------------------------------------------------------------
# the unit-image checks against the matrix-unit oracles


def test_noncommutative_action_composes_in_order():
    """S_3 permuting three blocks of dimension 3, each target block
    conjugated by V P(g) V*, P the permutation matrices: an action, whose
    automorphisms do not commute, so autos[g] o autos[h] is checked in that
    order.  With two automorphisms exchanged it is not an action, and the
    first failing (g, h) is the oracle's."""
    structure = BlockStructure([3, 3, 3])
    group = symmetric_group(3)
    points = list(itertools.permutations(range(3)))
    v = _unitary(np.random.default_rng(9), 3)
    autos = [
        Automorphism(structure, p, tuple(v @ np.eye(3)[:, list(p)] @ v.conj().T for _ in p))
        for p in points
    ]
    table = ActionTable(group, structure, tuple(autos))
    validate_action(table)
    reference_validate_action(table)
    assert not actions_commute(table, table) and not reference_actions_commute(table, table)
    autos[3], autos[4] = autos[4], autos[3]
    swapped = ActionTable(group, structure, tuple(autos))
    want = _outcome(reference_validate_action, swapped)
    assert want is not None and _outcome(validate_action, swapped) == want


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _power(perm, g):
    out = np.arange(len(perm))
    for _ in range(g):
        out = np.asarray(perm)[out]
    return out


def _block_shuffle(rng, dims):
    """A random permutation of the blocks that keeps every dimension."""
    perm = np.arange(len(dims))
    for d in set(dims):
        same = np.flatnonzero(np.asarray(dims) == d)
        perm[same] = rng.permutation(same)
    return perm


def _cyclic_table(st, group, perm, w, phases):
    """Z/N acting by alpha_g = Ad(W^g) after the g-th power of a block
    permutation, W the same on blocks of equal dimension with W^N = 1, each
    unitary times its own phase."""
    autos = []
    for g in range(group.order):
        unis = [np.linalg.matrix_power(w[d], g) * phases[g][k] for k, d in enumerate(st.block_dims)]
        autos.append(Automorphism(st, tuple(_power(perm, g)), tuple(unis)))
    return ActionTable(group, st, tuple(autos))


def _outcome(check, *args):
    try:
        return check(*args)
    except NotHomomorphismError as err:
        return err.context.get("g"), err.context.get("h")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["valid", "phases", "1e-13", "1e-11", "replaced"]),
)
def test_unit_image_checks_match_the_matrix_unit_oracles(dims, seed, case):
    """On Z/N actions over mixed block dimensions with block swaps, the
    verdict and the first failing (g, h) of ``validate_action`` equal the
    oracle's, and so does ``actions_commute`` on commuting and random
    pairs.  Per-element phases of the unitaries pass; one unitary of one
    element scaled by 1 + 1e-13 passes and by 1 + 1e-11 fails, either side
    of ``MAP_TOL``; a random automorphism in place of one element fails."""
    rng = np.random.default_rng(seed)
    structure = BlockStructure(dims)
    perm = _block_shuffle(rng, dims)
    order = next(m for m in range(1, 4) if np.array_equal(_power(perm, m), np.arange(len(dims))))
    N = order * int(rng.integers(1, 4 // order + 1))
    group = cyclic_group(N)

    def generator():
        w = {}
        for d in set(dims):
            v = _unitary(rng, d)
            w[d] = (v * np.exp(2j * np.pi * rng.integers(0, N, d) / N)) @ v.conj().T
        return w

    ones = [[1.0] * len(dims) for _ in range(N)]
    w = generator()
    phases = ones if case != "phases" else np.exp(1j * rng.uniform(0, 2 * np.pi, (N, len(dims))))
    table = _cyclic_table(structure, group, perm, w, phases)
    if case in ("1e-13", "1e-11", "replaced"):
        autos = list(table.autos)
        g = int(rng.integers(0, N))
        if case == "replaced":
            unis = [_unitary(rng, d) for d in dims]
            autos[g] = Automorphism(structure, tuple(_block_shuffle(rng, dims)), tuple(unis))
        else:
            unis = list(autos[g].unitaries)
            k = int(rng.integers(0, len(dims)))
            unis[k] = unis[k] * (1 + float(case))
            autos[g] = Automorphism(structure, autos[g].block_perm, tuple(unis))
        table = ActionTable(group, structure, tuple(autos))
    want = _outcome(reference_validate_action, table)
    assert _outcome(validate_action, table) == want
    if case != "replaced":  # a random automorphism may act as the one it replaces
        assert (want is None) == (case != "1e-11")

    # a power of the same generator commutes with the table; another
    # generator over another block shuffle usually does not
    a = int(rng.integers(0, N))
    powers = {d: np.linalg.matrix_power(u, a) for d, u in w.items()}
    same = _cyclic_table(structure, group, _power(perm, a), powers, ones)
    other = _cyclic_table(structure, group, _block_shuffle(rng, dims), generator(), ones)
    for t1, t2 in ((table, same), (same, table), (table, other), (other, table), (table, table)):
        assert actions_commute(t1, t2) == reference_actions_commute(t1, t2)
    if case in ("valid", "phases", "1e-13"):
        assert actions_commute(table, same)
