"""Block algebra elements, centrals and the positivity test.

``is_positive`` is cross-checked against an independent pivoted-Cholesky
decision procedure on random Hermitian matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gpmult.cli import build_scenario, load_config
from gpmult.errors import (
    NotFiniteError,
    NotHermitianError,
    StructureMismatchError,
)
from gpmult.matalg import (
    AlgebraElement,
    BlockStructure,
    CentralElement,
    OperatorMatrix,
    embed_central,
    is_positive,
)
from support import central_stack, complete_set_elements, tensor_algebra


def chol_psd_oracle(m, tol=1e-9):
    """Pivoted Cholesky with diagonal tolerance: True iff m is psd."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    scale = 1.0 + max(np.max(np.abs(np.diag(a))), 0.0)
    for _ in range(n):
        d = np.real(np.diag(a))
        k = int(np.argmax(d))
        if d[k] <= tol * scale:
            # remaining diagonal must be negligible and the block too
            return bool(np.all(np.abs(a) <= np.sqrt(tol) * scale * 10))
        col = a[:, k] / np.sqrt(d[k])
        a = a - np.outer(col, col.conj())
        a[k, :] = 0.0
        a[:, k] = 0.0
    return True


KINDS = ["psd", "indefinite", "nearly"]


@pytest.mark.parametrize("n", [2, 4, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_is_positive_matches_cholesky_oracle(n, kind):
    rng = np.random.default_rng(10 * n + KINDS.index(kind))
    for trial in range(100):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "psd":
            m = b @ b.conj().T
            expected = True
        elif kind == "indefinite":
            m = b + b.conj().T
            expected = bool(np.linalg.eigvalsh(m)[0] >= 0)  # almost surely False
        else:
            # controlled spectrum: one eigenvalue sits just off zero, on a
            # known side, clear of both procedures' tolerance bands
            q, _ = np.linalg.qr(b)
            eigs = rng.uniform(0.1, 2.0, size=n)
            eigs[0] = 1e-4 if trial % 2 == 0 else -5e-3
            m = (q * eigs) @ q.conj().T
            m = (m + m.conj().T) / 2.0
            expected = trial % 2 == 0
        ok, _ = is_positive(m, tol=1e-9)
        assert ok == expected
        assert chol_psd_oracle(m) == expected


def test_is_positive_two_by_two_hand_values():
    ok, lam = is_positive(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert ok and abs(lam - 0.5) < 1e-12
    ok, lam = is_positive(np.array([[1.0, 1.2], [1.2, 1.0]]))
    assert not ok and abs(lam + 0.2) < 1e-12


def test_is_positive_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        is_positive(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "m",
    [
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, 1e308], [1e308, 1.0]],  # finite, but M + M* overflows
        [[[1.0, 0.0], [0.0, 1.0]], [[1.0, -np.inf], [-np.inf, 1.0]]],  # one block of a stack
    ],
)
def test_is_positive_rejects_non_finite_entries(m):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotFiniteError) as info:
            is_positive(np.array(m))
    assert info.value.code == "not_finite"


def test_is_positive_relative_tolerance():
    # a tiny negative eigenvalue on a large-norm matrix passes the
    # relative gate but the same eigenvalue at unit scale fails a strict one
    m = np.diag([1e6, -1e-3])
    ok, _ = is_positive(m, tol=1e-8)
    assert ok
    ok, _ = is_positive(np.diag([1.0, -1e-3]), tol=1e-8)
    assert not ok


def test_algebra_element_dense_layout():
    st2 = BlockStructure([2, 1])
    x = AlgebraElement(st2, [[[1, 2], [3, 4]], [[5]]])
    assert np.array_equal(x.dense(), [[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    with pytest.raises(StructureMismatchError):
        AlgebraElement(st2, [np.eye(2)])
    with pytest.raises(StructureMismatchError):
        AlgebraElement(st2, [np.eye(2), np.eye(2)])


def test_block_structure_validation():
    with pytest.raises(Exception):
        BlockStructure([0, 2])
    st = BlockStructure([2, 3])
    assert st.total_dim == 5
    assert list(st.offsets()) == [0, 2]


def test_central_element_shape_and_embedding():
    st = BlockStructure([2, 1])
    c = CentralElement(st, [1 + 1j, 2.0])
    with pytest.raises(StructureMismatchError):
        CentralElement(st, [1.0])
    emb = embed_central(c)
    assert np.array_equal(emb.blocks[0], (1 + 1j) * np.eye(2))
    assert np.array_equal(emb.blocks[1], [[2.0]])


def test_operator_matrix_flatten_layout():
    st = BlockStructure([1, 1])
    one = CentralElement.one(st)
    half = CentralElement(st, [0.5, 0.25])
    m = OperatorMatrix.from_central_grid(st, [[one, half], [half, one]])
    dense = m.flatten()
    assert dense.shape == (4, 4)
    ok, lam = is_positive(dense)
    assert ok
    # per-block eigenvalues interleave: 1 +- 0.5 and 1 +- 0.25
    assert abs(lam - 0.5) < 1e-12


def test_operator_matrix_entry_structure_mismatch():
    st = BlockStructure([1])
    st2 = BlockStructure([2])
    with pytest.raises(StructureMismatchError):
        OperatorMatrix.from_central_grid(
            st, [[CentralElement.one(st2)]]
        )


def test_tensor_algebra_embeddings_commute_and_multiply():
    s1 = BlockStructure([2])
    s2 = BlockStructure([3])
    prod, emb_l, emb_r = tensor_algebra(s1, s2)
    assert prod.block_dims == (6,)
    rng = np.random.default_rng(0)
    a = [rng.standard_normal((2, 2))]
    b = [rng.standard_normal((3, 3))]
    (left,), (right,) = emb_l(a), emb_r(b)
    assert np.abs(left @ right - right @ left).max() < 1e-12
    assert np.allclose(left @ right, np.kron(a[0], b[0]))


# ----------------------------------------------------------------------
# central stacks against the flattened reference layout

SCENARIOS = [
    "block_swap_free",
    "free_pair_z2",
    "multipartite_k12",
    "path_mixed",
    "sabotage_noninvariant",
    "sabotage_nonpd",
    "tensor_edge_z2_z3",
    "triangle_perm_z2",
]


def flat_layout(structure, stack):
    """Sum over blocks of G_k (x) P_k, P_k projecting onto block k's coordinates."""
    T = structure.total_dim
    out = np.zeros((stack.shape[1] * T, stack.shape[2] * T), dtype=complex)
    for k, (off, d) in enumerate(zip(structure.offsets(), structure.block_dims)):
        proj = np.zeros((T, T))
        proj[off : off + d, off : off + d] = np.eye(d)
        out += np.kron(stack[k], proj)
    return out


def assert_same_certificate(stack, flat, **kw):
    """Stack and flattened matrix get the same verdict and lambda_min, or both raise."""
    try:
        ok, lam = is_positive(flat, **kw)
    except NotHermitianError:
        with pytest.raises(NotHermitianError):
            is_positive(stack, **kw)
        return
    ok_stack, lam_stack = is_positive(stack, **kw)
    herm = (stack + stack.conj().swapaxes(-1, -2)) / 2.0
    scale = float(np.max(np.abs(np.linalg.eigvalsh(herm)))) if stack.size else 0.0
    assert ok_stack == ok
    assert abs(lam_stack - lam) <= 1e-12 * (1.0 + scale)


@hst.composite
def central_grids(draw):
    dims = draw(hst.lists(hst.integers(1, 3), min_size=1, max_size=3))
    n = draw(hst.integers(1, 6))
    kind = draw(hst.sampled_from(["psd", "low-rank", "hermitian", "nearly", "general"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    K = len(dims)
    b = rng.standard_normal((K, n, n)) + 1j * rng.standard_normal((K, n, n))
    adj = b.conj().swapaxes(-1, -2)
    if kind == "psd":
        z = b @ adj
    elif kind == "low-rank":
        z = b[:, :, :1] @ adj[:, :1, :]
    elif kind == "hermitian":
        z = b + adj
    elif kind == "nearly":
        # Hermitian up to a perturbation either side of the Hermitian tolerance
        z = b + adj + draw(hst.sampled_from([1e-12, 1e-6])) * b
    else:
        z = b
    structure = BlockStructure(dims)
    grid = [[CentralElement(structure, z[:, i, j]) for j in range(n)] for i in range(n)]
    return structure, grid, z


@settings(max_examples=150, deadline=None)
@given(central_grids())
def test_central_stack_certifies_like_the_flattened_matrix(case):
    structure, grid, z = case
    stack = central_stack(structure, grid)
    assert stack.shape == z.shape
    assert np.array_equal(stack, z)
    flat = OperatorMatrix.from_central_grid(structure, grid).flatten()
    assert np.array_equal(flat_layout(structure, stack), flat)
    assert_same_certificate(stack, flat, tol=1e-9)


def test_central_stack_of_an_empty_grid():
    structure = BlockStructure([2, 1])
    stack = central_stack(structure, [])
    assert stack.shape == (2, 0, 0)
    assert is_positive(stack) == (True, 0.0)


@pytest.mark.parametrize("name", SCENARIOS)
def test_kernel_matrix_matches_the_flattened_oracle(name):
    sc = build_scenario(load_config(f"scenarios/{name}.json"))
    system = sc.system
    for xs in complete_set_elements(sc):
        stack = system.kernel_matrix(xs)
        grid = [[system.kernel(x, y) for y in xs] for x in xs]
        flat = OperatorMatrix.from_central_grid(system.structure, grid).flatten()
        assert stack.shape == (system.structure.num_blocks, len(xs), len(xs))
        assert np.array_equal(flat_layout(system.structure, stack), flat)
        assert_same_certificate(stack, flat, tol=1e-8)
