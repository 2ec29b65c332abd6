"""Gathers from ``ActionTable.perms`` and ``Multiplier.scalars`` against the
per-entry central paths they replaced.

Vertex positive definiteness, the edge invariance of the multipliers, the
slot arrays of the value recursion, the module Gram matrix and Schoenberg
positivity each read the permutation array of an action table and the
scalar array of a multiplier in one gather, and the module form adds all
its terms in one cumulative sum.  The per-entry paths kept in
``tests/support.py`` (one ``apply_central`` per entry, grids collected by
``central_stack``, the Schoenberg multiplier flipped to the column
convention, the form summed pair by pair) are the oracles.  Verdicts,
smallest eigenvalues and error messages (which carry the deviations) are
compared bit for bit on the committed scenarios and on random small
systems, including point actions that do not commute across non-edges.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from support import (
    apply_central,
    assert_same_values,
    central_diff,
    groupoid_from_space,
    reference_inner,
    reference_is_positive_definite,
    reference_multipliers_commute,
    reference_schoenberg_is_pd,
)
from test_cocycles import module_cases
from test_composed_actions import _system_and_words

from gpmult.cli import build_scenario, load_config
from gpmult.cocycles import cocycle_build, gns_build, schoenberg_is_pd
from gpmult.errors import EdgeViolationError, GPMultError
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.matalg import CentralElement
from gpmult.multipliers import (
    Multiplier,
    MultiplierSystem,
    convention_flip,
    is_positive_definite,
    multipliers_commute,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))
SCHOENBERG_T = (0.01, 0.1, 1.0, 10.0)


def outcome(call):
    """A call's result with every float as its hex string, or the class and
    message of the package error it raised."""
    try:
        out = call()
    except GPMultError as err:
        return type(err), str(err)
    if isinstance(out, tuple):
        return tuple(v.hex() if isinstance(v, float) else v for v in out)
    return out


def assert_tables_match(system):
    """Permutation rows, slot arrays and unitality against the automorphisms
    and central values they are built from."""
    words = system.words
    for v, (table, h) in enumerate(zip(system.actions.tables, system.multipliers)):
        group = table.group
        assert table.perms.shape == (group.order, system.structure.num_blocks)
        assert h.scalars.shape == table.perms.shape and h.scalars.dtype == np.complex128
        for g in range(group.order):
            assert table.perms[g].tolist() == table.autos[g]._perm_inv.tolist()
            assert h.scalars[g].tobytes() == h.values[g].scalars.tobytes()
            slot = words._slot_offset[v] + g
            assert system._slot_perms[slot].tolist() == table.perms[group.inverse(g)].tolist()
            assert_same_values(system._slot_values[slot], h.values[g].scalars)
        one = CentralElement.one(h.structure)
        assert h.is_unital == (central_diff(h.values[group.identity], one) <= 1e-12)


def assert_setup_matches(system):
    for h, table in zip(system.multipliers, system.actions.tables):
        assert outcome(lambda: is_positive_definite(h, table)) == outcome(
            lambda: reference_is_positive_definite(h, table)
        )
    assert outcome(lambda: multipliers_commute(system)) == outcome(
        lambda: reference_multipliers_commute(system)
    )


def assert_module_matches(h, table):
    """Gram gather, module form and Schoenberg positivity of a
    row-convention multiplier."""
    try:
        module = gns_build(h, table)
    except GPMultError:
        return
    group = h.group
    for s in range(group.order):
        for t in range(group.order):
            entry = apply_central(table.autos[s], h.values[group.table[group.inv[s], t]])
            assert module.gram[s, t].tobytes() == entry.scalars.tobytes()
    rng = np.random.default_rng(h.group.order)
    f, g = rng.standard_normal((2, *module.gram.shape[1:], 2)) @ [1, 1j]
    for a, b in ((f, g), (g, f), (f, module.delta(group.identity))):
        assert module.inner(a, b).tobytes() == reference_inner(module, a, b).tobytes()
    if not h.is_unital:
        return
    c = cocycle_build(module)
    for bs in c.b:
        assert module.inner(bs, bs).tobytes() == reference_inner(module, bs, bs).tobytes()
    for t in SCHOENBERG_T:
        assert outcome(lambda: schoenberg_is_pd(c, t)) == outcome(
            lambda: reference_schoenberg_is_pd(c, t)
        )


@pytest.mark.parametrize("name", SCENARIOS)
def test_central_gathers_match_the_per_entry_paths_on_scenarios(name):
    system = build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json"))).system
    assert_tables_match(system)
    assert_setup_matches(system)
    for h, table in zip(system.multipliers, system.actions.tables):
        assert_module_matches(convention_flip(h), table)


def test_sabotaged_invariance_reports_the_oracle_deviation():
    cfg = load_config(str(ROOT / "scenarios" / "sabotage_noninvariant.json"))
    system = build_scenario(cfg).system
    with pytest.raises(EdgeViolationError) as got:
        multipliers_commute(system)
    with pytest.raises(EdgeViolationError) as want:
        reference_multipliers_commute(system)
    assert got.value.context == want.value.context
    assert got.value.context["deviation"].hex() == (0.6000000000000001).hex()


def _invariant_copy(system):
    """The same actions with values constant across the points, which every
    point permutation fixes, so the edge invariance check passes."""
    return MultiplierSystem(
        system.actions,
        [
            Multiplier(
                h.group,
                h.structure,
                tuple(CentralElement.constant(h.structure, v.scalars[0]) for v in h.values),
            )
            for h in system.multipliers
        ],
    )


@settings(max_examples=60, deadline=None)
@given(_system_and_words())
def test_central_gathers_match_on_noncommuting_point_actions(case):
    system, _, _ = case
    for sys_ in (system, _invariant_copy(system)):
        assert_tables_match(sys_)
        assert_setup_matches(sys_)
    assert outcome(lambda: multipliers_commute(_invariant_copy(system))) is None


@settings(max_examples=60, deadline=None)
@given(module_cases())
def test_central_gathers_match_on_block_actions(case):
    h, table = case
    for mult in (h, convention_flip(h)):
        assert outcome(lambda: is_positive_definite(mult, table)) == outcome(
            lambda: reference_is_positive_definite(mult, table)
        )
    assert_module_matches(h, table)


def test_permutation_and_scalar_arrays_are_read_only():
    system = groupoid_from_space(
        SimplicialGraph.build((0, 1), []),
        [cyclic_group(2), cyclic_group(2)],
        2,
        {0: [[0, 1], [1, 0]]},
        [[[1.0, 1.0], [0.5, 0.25]], [[1.0, 1.0], [0.3, 0.2]]],
    )
    with pytest.raises(ValueError):
        system.actions.tables[0].perms[0, 0] = 1
    with pytest.raises(ValueError):
        system.multipliers[0].scalars[0, 0] = 2.0
