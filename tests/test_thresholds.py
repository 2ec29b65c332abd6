"""Tolerance constants pinned by their thresholds.

Each test puts an input a few tolerances past a bound, which must fail,
and one a fraction of a tolerance inside it, which must pass.  The
tolerances are written out here rather than imported, so a changed
constant fails these tests instead of moving the inputs along with it.
"""

import numpy as np
import pytest

from gpmult.cli import build_scenario
from gpmult.dynamics import actions_commute, block_permutation_action, diagonal_phase_action, validate_action
from gpmult.errors import EdgeViolationError, NotHermitianError, NotHomomorphismError, NotUnitalError
from gpmult.graphgroup import cyclic_group
from gpmult.matalg import BlockStructure, is_positive
from gpmult.multipliers import gp_well_defined, haagerup_witness_ball, multipliers_commute
from gpmult.verifier import _dominance_check, verify_main_theorem, verify_peel_off, verify_star_symmetry

POS_TOL = 1e-9  # matalg.DEFAULT_POS_TOL
KERNEL_TOL = 1e-10  # verifier.KERNEL_TOL
UNITAL_TOL = 1e-12  # multipliers.UNITAL_TOL
COMMUTE_TOL = 1e-12  # multipliers.COMMUTE_TOL
WELL_DEFINED_TOL = 1e-10  # multipliers.WELL_DEFINED_TOL
PEEL_TOL = 1e-12  # verifier.PEEL_TOL
PSD_TOL = 1e-8  # verifier.PSD_TOL
ABS_PSD_TOL = 1e-8  # verifier.ABS_PSD_TOL
MAP_TOL = 1e-12  # dynamics.MAP_TOL
HERMITIAN_TOL = 1e-8  # matalg.HERMITIAN_TOL


def hermitian_with_spectrum(eigs, rng, real=False) -> np.ndarray:
    """A dense Hermitian matrix with eigenvalues ``eigs``, in a random
    unitary basis, or a real symmetric one in a random orthogonal basis."""
    n = len(eigs)
    a = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a if real else a + 1j * rng.standard_normal((n, n)))
    m = (q * np.asarray(eigs)) @ q.conj().T
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("factor, ok", [(3.0, False), (0.3, True)])
def test_is_positive_default_tolerance_threshold(factor, ok):
    """lambda_min = -factor tol (1 + scale), scale the largest |eigenvalue|
    over all blocks: a dense matrix, and a stack whose scale sits in
    another block than its least eigenvalue.  Rounding moved lambda_min by
    at most 8.1e-16 over 200 random bases, a millionth of the gap to the
    bound."""
    scale = 2.0
    lam = -factor * POS_TOL * (1.0 + scale)
    rng = np.random.default_rng(11)
    dense = hermitian_with_spectrum([lam, 1.0, scale], rng)
    stack = np.stack([hermitian_with_spectrum([lam, 0.5, 0.7], rng), hermitian_with_spectrum([1.0, 1.5, scale], rng)])
    for m in (dense, stack):
        got, lam_min = is_positive(m)
        assert got is ok
        assert abs(lam_min - lam) < 1e-14


@pytest.mark.parametrize("factor, ok", [(3.0, False), (0.3, True)])
def test_is_positive_hermitian_tolerance_threshold(factor, ok):
    """One entry of M - M* is factor tol, exactly: a dense real matrix, a
    dense complex one and a stack with the deviation in its second block.
    Inside the bound the symmetrized matrix is certified; past it the
    error names the deviation and the tolerance."""
    dev = factor * HERMITIAN_TOL
    real = np.array([[2.0, dev], [0.0, 2.0]])
    cplx = np.array([[2.0, 1j * dev], [0.0, 2.0]])
    stack = np.stack([np.eye(2), real])
    for m in (real, cplx, stack):
        assert float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) == dev
        if ok:
            assert is_positive(m, tol=POS_TOL)[0]
        else:
            with pytest.raises(NotHermitianError) as err:
                is_positive(m, tol=POS_TOL)
            assert str(err.value) == (
                f"matrix is not Hermitian within tolerance [deviation={dev!r}, tol=1e-08]"
            )


def one_vertex_z3(delta: float):
    """Z/3 acting trivially on C, with h(g^-1) = conj(h(g)) + delta at the
    generator, so the kernel is star-symmetric up to exactly delta."""
    return build_scenario(
        {
            "name": "z3_star",
            "graph": {"vertices": ["a"]},
            "groups": {"a": {"preset": "cyclic", "n": 3}},
            "algebra": {"blocks": [1]},
            "actions": {"a": {"preset": "trivial"}},
            "multipliers": {"a": {"values": [1, [[0.3, 0.1]], [[0.3 + delta, -0.1]]]}},
        }
    )


@pytest.mark.parametrize("delta, ok", [(3 * KERNEL_TOL, False), (0.3 * KERNEL_TOL, True)])
def test_star_symmetry_kernel_tolerance_threshold(delta, ok):
    """The residual is |h(g) - conj(h(g^-1))| = delta up to the rounding of
    0.3 + delta, 2.5e-17 at both deltas."""
    result = verify_star_symmetry(one_vertex_z3(delta))
    assert result.passed is ok
    assert abs(result.residual - delta) < 1e-15


def one_vertex_z2(identity_value: float):
    """Z/2 acting trivially on C with h(e) = identity_value and h(g) = 0.3."""
    return build_scenario(
        {
            "name": "z2_unital",
            "graph": {"vertices": ["a"]},
            "groups": {"a": {"preset": "cyclic", "n": 2}},
            "algebra": {"blocks": [1]},
            "actions": {"a": {"preset": "trivial"}},
            "multipliers": {"a": {"values": [identity_value, 0.3]}},
        }
    )


@pytest.mark.parametrize("factor, ok", [(3.0, False), (-3.0, False), (0.3, True), (-0.3, True)])
def test_unital_tolerance_threshold(factor, ok):
    """|h(e) - 1| = factor tol up to the rounding of 1 + factor tol, 1.1e-16
    at every factor: a vertex value is unital exactly inside the bound, and
    the Haagerup witness raises on one that is not."""
    system = one_vertex_z2(1.0 + factor * UNITAL_TOL).system
    assert system.multipliers[0].is_unital is ok
    if ok:
        assert haagerup_witness_ball(system, K=1, eps=0.5, L=2).ok
    else:
        with pytest.raises(NotUnitalError):
            haagerup_witness_ball(system, K=1, eps=0.5, L=2)


def swap_edge_config(delta: float) -> dict:
    """Two joined Z/2 vertices on C + C: a swaps the two blocks, and b's
    value off the identity is 0.3 in one block and 0.3 + delta in the other,
    so a moves it by exactly delta."""
    return {
        "name": "swap_edge",
        "graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
        "groups": {v: {"preset": "cyclic", "n": 2} for v in "ab"},
        "algebra": {"blocks": [1, 1]},
        "actions": {
            "a": {"preset": "block-permutation", "perms": [[0, 1], [1, 0]]},
            "b": {"preset": "trivial"},
        },
        "multipliers": {"a": {"values": [[1, 1], [0.2, 0.2]]}, "b": {"values": [[1, 1], [0.3, 0.3 + delta]]}},
    }


def edge_with_swap(delta: float):
    return build_scenario(swap_edge_config(delta))


@pytest.mark.parametrize("delta, ok", [(3 * COMMUTE_TOL, False), (0.3 * COMMUTE_TOL, True)])
def test_commute_tolerance_threshold(delta, ok):
    """The deviation of b's value under a's swap is |0.3 + delta - 0.3| =
    delta up to rounding, 2.8e-17 at both deltas."""
    system = edge_with_swap(delta).system
    if ok:
        multipliers_commute(system)
    else:
        with pytest.raises(EdgeViolationError) as err:
            multipliers_commute(system)
        assert abs(err.value.context["deviation"] - delta) < 1e-16


@pytest.mark.parametrize("factor, ok", [(3.0, False), (0.3, True)])
def test_well_defined_tolerance_threshold(factor, ok):
    """On the swap edge with delta = 5 factor tol the word a b has the
    values 0.2 (0.3, 0.3 + delta) along a b and 0.2 (0.3 + delta, 0.3)
    along b a, so the deviation is 0.2 delta = factor tol up to rounding,
    at most 4.1e-18 at both factors."""
    report = gp_well_defined(edge_with_swap(5 * factor * WELL_DEFINED_TOL).system, radius=2)
    assert report.ok is ok
    assert abs(report.max_deviation - factor * WELL_DEFINED_TOL) < 1e-16


@pytest.mark.parametrize("factor, ok", [(3.0, False), (0.3, True)])
def test_peel_tolerance_threshold(factor, ok):
    """The swap edge with delta = 5 factor tol and a third Z/2 vertex c,
    joined to neither, acting trivially with value 1: peeling c off c b a
    leaves t = a b, whose ball row is its value along a b, while the
    expression's value is c's times the value along b a, so the residual
    is 0.2 delta = factor tol up to rounding, at most 1.1e-17 at both
    factors."""
    cfg = swap_edge_config(5 * factor * PEEL_TOL)
    cfg["graph"]["vertices"].append("c")
    cfg["groups"]["c"] = {"preset": "cyclic", "n": 2}
    cfg["actions"]["c"] = {"preset": "trivial"}
    cfg["multipliers"]["c"] = {"values": [[1, 1], [1, 1]]}
    cfg["verify"] = {"identity_radius": 3}
    result = verify_peel_off(build_scenario(cfg))
    assert result.passed is ok
    assert abs(result.residual - factor * PEEL_TOL) < 1e-16


# The Gram checks certify the stacks of a real system as real symmetric and
# those of a complex one as complex Hermitian, so each threshold below is
# met by a real and by a complex stack.


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("factor, ok", [(3.0, False), (0.3, True)])
def test_main_theorem_psd_tolerance_threshold(monkeypatch, factor, ok, real):
    """kernel-gram-positive passes a set whose stack has lambda_min >=
    -tol (1 + scale): each set's gathered stack is replaced by one with
    lambda_min = -factor tol (1 + scale) and scale 2.  Rounding moved
    lambda_min by at most 7.6e-16 over 200 random bases of either kind."""
    sc = one_vertex_z2(1.0)
    scale = 2.0
    lam = -factor * PSD_TOL * (1.0 + scale)
    rng = np.random.default_rng(12)

    def id_stacks(families):
        out = {}
        for ids in families:
            spectrum = np.linspace(lam, scale, len(ids))
            out.setdefault(len(ids), []).append(hermitian_with_spectrum(spectrum, rng, real)[None])
        return {m: np.stack(stacks) for m, stacks in out.items()}

    monkeypatch.setattr(sc.system, "id_stacks", id_stacks)
    result = verify_main_theorem(sc)
    assert [size for size, _ in result.sizes] == [2, 2, 2]
    assert result.passed is ok
    assert abs(result.lambda_min - lam) < 1e-14


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("factor, ok", [(3.0, False), (0.3, True)])
def test_dominance_absolute_psd_tolerance_threshold(factor, ok, real):
    """The Schwarz and shared-prefix bounds pass when the least eigenvalue
    of the dominance differences is at least -tol, whatever their scale:
    a family whose cross kernels K(x_i, p_i) vanish has the difference
    K(x_i, x_j) itself, here with eigenvalues -factor tol, 1 and 10 (a
    bound relative to the scale would pass both factors).  Rounding moved
    lambda_min by at most 4.4e-15 over 200 random bases of either kind."""
    lam = -factor * ABS_PSD_TOL
    n = 3
    gram = np.zeros((1, 1, 2 * n, 2 * n), dtype=np.float64 if real else np.complex128)
    gram[0, 0, :n, :n] = hermitian_with_spectrum([lam, 1.0, 10.0], np.random.default_rng(13), real)
    gram[0, 0, n:, n:] = np.eye(n)

    def stacks(families):
        assert len(families) == 1
        return np.ones(1, dtype=bool), gram

    family = ((0,) * n, (0,) * n)
    result = _dominance_check("dominance", iter([family]), stacks, 1, "no family", "vanishes")
    assert (result.passed, result.vacuous) == (ok, False)
    assert abs(result.lambda_min - lam) < 1e-14


@pytest.mark.parametrize("factor, ok", [(3.0, False), (0.3, True)])
def test_action_map_tolerance_threshold(factor, ok):
    """Z/2 conjugating C^2 by diag(1, exp(i delta / 2)): its square
    conjugates by diag(1, exp(i delta)), which moves the matrix unit E_01
    by |exp(i delta) - 1| = 2 sin(delta / 2), delta up to a relative
    4e-25, from where the identity leaves it."""
    delta = factor * MAP_TOL
    table = diagonal_phase_action(cyclic_group(2), BlockStructure((2,)), [[[0.0, 0.0]], [[0.0, delta / 2]]])
    if ok:
        validate_action(table)
    else:
        with pytest.raises(NotHomomorphismError) as err:
            validate_action(table)
        assert (err.value.context["g"], err.value.context["h"]) == (1, 1)
        assert abs(err.value.context["deviation"] - delta) < 1e-15 * delta


@pytest.mark.parametrize("factor, ok", [(3.0, False), (0.3, True)])
def test_commuting_actions_map_tolerance_threshold(factor, ok):
    """On C^2 + C^2 a swap of the two blocks and the conjugation of block 0
    by diag(1, exp(i delta)) differ on the matrix unit E_01 of a block by
    |exp(i delta) - 1|, delta up to a relative 2e-24, in the two orders."""
    delta = factor * MAP_TOL
    structure = BlockStructure((2, 2))
    swap = block_permutation_action(cyclic_group(2), structure, [[0, 1], [1, 0]])
    phase = diagonal_phase_action(cyclic_group(2), structure, [[[0.0, 0.0]] * 2, [[0.0, delta], [0.0, 0.0]]])
    assert actions_commute(swap, phase) is ok
    assert actions_commute(phase, swap) is ok
