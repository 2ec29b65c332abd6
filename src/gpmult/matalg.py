"""Finite-dimensional C*-algebras as block-diagonal complex matrices.

An algebra is a direct sum of full matrix blocks, fixed by a
:class:`BlockStructure`.  Elements store one dense complex array per block
and carry no arithmetic: every value the package computes is central.
Central elements are exactly the block scalars and get their own lightweight
vector representation.  An n x n matrix of central elements is gathered by
its callers as a ``(K, n, n)`` stack of scalar matrices, one per block: the
operator matrix it stands for flattens to the direct sum of G_k (x) I_{d_k}
up to a permutation, so it is positive exactly when every block G_k is, and
:func:`is_positive` certifies the whole stack with one batched eigensolve.
:class:`OperatorMatrix` keeps the flattened layout as a reference; an
independent pivoted-Cholesky cross-check lives in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotFiniteError,
    NotHermitianError,
    StructureMismatchError,
)

DEFAULT_POS_TOL = 1e-9


@dataclass(frozen=True)
class BlockStructure:
    """Dimensions d_1, ..., d_K of the matrix blocks."""

    block_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if not dims or any(d < 1 for d in dims):
            raise StructureMismatchError("block dims must be positive", dims=dims)
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def offsets(self):
        out = []
        pos = 0
        for d in self.block_dims:
            out.append(pos)
            pos += d
        return out


class AlgebraElement:
    """One dense complex matrix per block, placed by :meth:`dense`."""

    __slots__ = ("structure", "blocks")

    def __init__(self, structure: BlockStructure, blocks):
        blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)
        if len(blocks) != structure.num_blocks:
            raise StructureMismatchError(
                "wrong number of blocks",
                expected=structure.num_blocks,
                got=len(blocks),
            )
        for k, b in enumerate(blocks):
            d = structure.block_dims[k]
            if b.shape != (d, d):
                raise StructureMismatchError(
                    "block has wrong shape", block=k, expected=(d, d), got=b.shape
                )
        self.structure = structure
        self.blocks = blocks

    def dense(self) -> np.ndarray:
        """The single block-diagonal matrix of size total_dim."""
        T = self.structure.total_dim
        out = np.zeros((T, T), dtype=np.complex128)
        for off, d, b in zip(
            self.structure.offsets(), self.structure.block_dims, self.blocks
        ):
            out[off : off + d, off : off + d] = b
        return out

    def __repr__(self):
        return f"AlgebraElement(dims={self.structure.block_dims})"


@dataclass(frozen=True, eq=False)
class CentralElement:
    """A central element: one complex scalar per block."""

    structure: BlockStructure
    scalars: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scalars, dtype=np.complex128)
        if arr.shape != (self.structure.num_blocks,):
            raise StructureMismatchError(
                "need one scalar per block",
                expected=self.structure.num_blocks,
                got=arr.shape,
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "scalars", arr)

    @classmethod
    def _adopt(cls, structure, scalars: np.ndarray) -> "CentralElement":
        """Wrap a ``(K,)`` complex array the package has just computed.

        Skips validation and the defensive copy: the caller owns ``scalars``
        (a fresh arithmetic or fancy-index result), which is frozen in place.
        """
        obj = object.__new__(cls)
        scalars.flags.writeable = False
        object.__setattr__(obj, "structure", structure)
        object.__setattr__(obj, "scalars", scalars)
        return obj

    @classmethod
    def one(cls, structure) -> "CentralElement":
        return cls(structure, np.ones(structure.num_blocks))

    @classmethod
    def zero(cls, structure) -> "CentralElement":
        return cls(structure, np.zeros(structure.num_blocks))

    @classmethod
    def constant(cls, structure, value) -> "CentralElement":
        return cls(structure, np.full(structure.num_blocks, value, dtype=np.complex128))

    def conj(self) -> "CentralElement":
        return CentralElement._adopt(self.structure, self.scalars.conj())

    def __repr__(self):
        return f"CentralElement({list(self.scalars)})"


def max_residual(worst: float, d: float) -> float:
    """The larger of two residuals; NaN wins, so a NaN residual cannot pass."""
    return d if d > worst or d != d else worst


def embed_central(c: CentralElement) -> AlgebraElement:
    return AlgebraElement(
        c.structure,
        [z * np.eye(d) for z, d in zip(c.scalars, c.structure.block_dims)],
    )


class OperatorMatrix:
    """An n x n matrix with entries in the block algebra.

    Its :meth:`flatten` layout is the reference that the gathered stacks
    are tested against; certification itself works on the stacks.
    """

    __slots__ = ("structure", "n", "entries")

    def __init__(self, structure: BlockStructure, entries):
        self.structure = structure
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)
        for row in self.entries:
            if len(row) != self.n:
                raise StructureMismatchError("entry grid is not square")
            for e in row:
                if not isinstance(e, AlgebraElement) or e.structure != structure:
                    raise StructureMismatchError("entry has wrong structure")

    @classmethod
    def from_central_grid(cls, structure, grid) -> "OperatorMatrix":
        return cls(
            structure, [[embed_central(c) for c in row] for row in grid]
        )

    def flatten(self) -> np.ndarray:
        T = self.structure.total_dim
        out = np.zeros((self.n * T, self.n * T), dtype=np.complex128)
        for i in range(self.n):
            for j in range(self.n):
                out[i * T : (i + 1) * T, j * T : (j + 1) * T] = self.entries[i][
                    j
                ].dense()
        return out


def is_positive(m, tol: float = DEFAULT_POS_TOL, hermitian_tol: float | None = None):
    """Positive semidefiniteness with tolerance, over the last two axes.

    Accepts a dense ``(N, N)`` matrix or a ``(K, n, n)`` stack of block
    matrices, which is positive when every block is.  Real floating input
    is solved as real symmetric in float64, and any other input as complex
    Hermitian in complex128.  The input is
    symmetrized when its Hermitian deviation (largest entry of M - M*) is
    within ``hermitian_tol`` (default: same as ``tol``) and rejected with
    ``NotHermitianError`` otherwise.  Returns ``(ok, lambda_min)`` where
    lambda_min is the smallest eigenvalue over all blocks and the test is
    lambda_min >= -tol * (1 + largest |eigenvalue| over all blocks).  A
    non-finite entry, or one whose symmetrization overflows, raises
    ``NotFiniteError``: no eigensolve can certify it.
    """
    m = np.asarray(m)
    m = m.astype(np.float64 if m.dtype.kind == "f" else np.complex128, copy=False)
    if m.size == 0:
        return True, 0.0
    if hermitian_tol is None:
        hermitian_tol = tol
    adj = m.conj().swapaxes(-1, -2)
    herm = (m + adj) / 2.0
    if not np.isfinite(herm).all():
        raise NotFiniteError("matrix has a non-finite or overflowing entry", shape=m.shape)
    dev = float(np.max(np.abs(m - adj)))
    if dev > hermitian_tol:
        raise NotHermitianError(
            "matrix is not Hermitian within tolerance", deviation=dev, tol=hermitian_tol
        )
    eigs = np.linalg.eigvalsh(herm)
    lam_min = float(np.min(eigs[..., 0]))
    scale = float(np.max(np.abs(eigs)))
    return lam_min >= -tol * (1.0 + scale), lam_min
