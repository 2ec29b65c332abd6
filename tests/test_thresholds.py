"""Tolerance constants pinned by their thresholds.

Each test puts an input a few tolerances past a bound, which must fail,
and one a fraction of a tolerance inside it, which must pass.  The
tolerances are written out here rather than imported, so a changed
constant fails these tests instead of moving the inputs along with it.
"""

import numpy as np
import pytest

from gpmult.cli import build_scenario
from gpmult.matalg import is_positive
from gpmult.verifier import verify_star_symmetry

POS_TOL = 1e-9  # matalg.DEFAULT_POS_TOL
KERNEL_TOL = 1e-10  # verifier.KERNEL_TOL


def hermitian_with_spectrum(eigs, rng) -> np.ndarray:
    """A dense Hermitian matrix with eigenvalues ``eigs``, in a random
    unitary basis."""
    n = len(eigs)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
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
