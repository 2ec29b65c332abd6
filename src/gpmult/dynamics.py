"""Automorphisms of block algebras and actions of finite groups.

An automorphism of a block-diagonal algebra permutes blocks of equal
dimension and conjugates each target block by a unitary: output block k is
``U_k a_{perm^-1(k)} U_k*``.  An action assigns one automorphism per group
element.  An :class:`ActionTable` holds each automorphism's matrix on the
matrix units as the read-only ``(n, D, D)`` array ``unit_images``, D = sum
d_k^2: the image of E^j_rc lies in block k = perm(j) and is
kron(U_k, conj(U_k)) times the unit, so composing maps is a matrix product
and validation compares arrays, building no algebra element.  A phase of
U_k cancels in that product.  Automorphisms are never inverted
numerically - words are inverted at the group level instead, so inverse
actions come from inverse words.

On central elements an automorphism only permutes the block scalars: an
:class:`ActionTable` holds the index arrays of all its automorphisms as the
read-only ``(n, K)`` array ``perms``, row g mapping scalars c to c[perms[g]].
A word action on central elements is one composed index array, folded over
the letters by I(l1...lj) = perms(lj)[I(l1...l(j-1))] from I(e) = arange(K);
only integer indices move, so applying it is one fancy index.  The index
arrays of interned canonical words are rows of the value arrays of
:class:`gpmult.multipliers.MultiplierSystem`, filled by the same step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ContextMismatchError,
    EdgeViolationError,
    NotFiniteError,
    NotHomomorphismError,
    StructureMismatchError,
)
from .graphgroup import FiniteGroup
from .matalg import BlockStructure, CentralElement
from .wordcraft import GPElement, WordContext

MAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Automorphism:
    """Block permutation plus per-block unitary conjugation.

    ``block_perm[j]`` is the index of the block that source block j is sent
    to; ``unitaries[k]`` is the d_k x d_k unitary conjugating the *target*
    block k.
    """

    structure: BlockStructure
    block_perm: tuple
    unitaries: tuple
    _perm_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        perm = tuple(int(p) for p in self.block_perm)
        K = self.structure.num_blocks
        if sorted(perm) != list(range(K)):
            raise StructureMismatchError("block_perm is not a permutation", perm=perm)
        for j, k in enumerate(perm):
            if self.structure.block_dims[j] != self.structure.block_dims[k]:
                raise StructureMismatchError(
                    "block_perm mixes dimensions", source=j, target=k
                )
        unis = tuple(np.asarray(u, dtype=np.complex128) for u in self.unitaries)
        if len(unis) != K:
            raise StructureMismatchError("need one unitary per block")
        for k, u in enumerate(unis):
            d = self.structure.block_dims[k]
            if u.shape != (d, d):
                raise StructureMismatchError(
                    "unitary has wrong shape", block=k, got=u.shape
                )
            if not np.isfinite(u).all():
                raise NotFiniteError("unitary has a non-finite entry", block=k)
            if float(np.max(np.abs(u @ u.conj().T - np.eye(d)))) > 1e-10:
                raise StructureMismatchError("matrix is not unitary", block=k)
        inv = np.empty(K, dtype=np.intp)
        inv[list(perm)] = np.arange(K)
        inv.flags.writeable = False
        object.__setattr__(self, "block_perm", perm)
        object.__setattr__(self, "unitaries", unis)
        object.__setattr__(self, "_perm_inv", inv)

    @classmethod
    def identity(cls, structure: BlockStructure) -> "Automorphism":
        return cls(
            structure,
            tuple(range(structure.num_blocks)),
            tuple(np.eye(d) for d in structure.block_dims),
        )


@dataclass(frozen=True, eq=False)
class ActionTable:
    """One automorphism per element of a finite group; ``perms[g]`` is the
    index array of ``autos[g]`` on block scalars."""

    group: FiniteGroup
    structure: BlockStructure
    autos: tuple
    perms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.autos) != self.group.order:
            raise StructureMismatchError(
                "need one automorphism per group element",
                expected=self.group.order,
                got=len(self.autos),
            )
        for a in self.autos:
            if a.structure != self.structure:
                raise StructureMismatchError("automorphism on wrong structure")
        perms = np.array([a._perm_inv for a in self.autos], dtype=np.intp)
        perms.flags.writeable = False
        object.__setattr__(self, "perms", perms)

    @cached_property
    def unit_images(self) -> np.ndarray:
        """Row g is the matrix of ``autos[g]`` on matrix units, E^j_rc at
        position off_j + r d_j + c; built when validation first needs it."""
        off = np.cumsum([0, *(d * d for d in self.structure.block_dims)])
        images = np.zeros((len(self.autos), off[-1], off[-1]), dtype=np.complex128)
        for g, a in enumerate(self.autos):
            for k, (j, u) in enumerate(zip(a._perm_inv, a.unitaries)):
                images[g, off[k] : off[k + 1], off[j] : off[j + 1]] = np.kron(u, u.conj())
        images.flags.writeable = False
        return images


def _deviations(diff: np.ndarray) -> np.ndarray:
    """Largest |entry| of each matrix of a stack; NaN where one is NaN."""
    return np.abs(diff).max(axis=(-2, -1))


def validate_action(table: ActionTable) -> None:
    """Exhaustively check that the table is an action by automorphisms.

    The identity element must act as the identity map and
    ``autos[g*h] == autos[g] o autos[h]`` must hold on every matrix unit,
    each entry of each image within ``MAP_TOL`` (a NaN fails).  Per g the
    products with every h are one batched comparison; the error names the
    first failing (g, h) and the worst entry of that pair.
    """
    images = table.unit_images
    e = table.group.identity
    if not _deviations(images[e] - np.eye(len(images[e]))) <= MAP_TOL:
        raise NotHomomorphismError("identity element does not act trivially", g=e)
    for g in range(table.group.order):
        dev = _deviations(images[table.group.table[g]] - images[g] @ images)
        bad = np.flatnonzero(~(dev <= MAP_TOL))
        if bad.size:
            h = int(bad[0])
            raise NotHomomorphismError(
                "action is not multiplicative", g=g, h=h, deviation=float(dev[h])
            )


def actions_commute(t1: ActionTable, t2: ActionTable) -> bool:
    """Whether two actions on the same structure commute as maps, on every
    entry of every matrix-unit image within ``MAP_TOL`` (a NaN fails)."""
    if t1.structure != t2.structure:
        raise StructureMismatchError("actions live on different structures")
    images = t2.unit_images
    return all(
        (_deviations(a @ images - images @ a) <= MAP_TOL).all() for a in t1.unit_images
    )


class ActionSystem:
    """Words plus one validated action table per vertex, on a common algebra."""

    def __init__(self, words: WordContext, structure: BlockStructure, tables):
        tables = tuple(tables)
        if len(tables) != words.graph.n:
            raise StructureMismatchError("need one action table per vertex")
        for v, t in enumerate(tables):
            if t.structure != structure:
                raise StructureMismatchError("action on wrong structure", vertex=v)
            if t.group is not words.groups[v]:
                raise ContextMismatchError("action table group mismatch", vertex=v)
        self.words = words
        self.structure = structure
        self.tables = tables

    def validate_actions(self) -> None:
        for t in self.tables:
            validate_action(t)

    def setup_commutes_per_graph(self) -> None:
        """Check that the actions of adjacent vertices commute as maps.

        Raises ``EdgeViolationError`` naming the first offending edge.
        """
        for i, j in self.words.graph.edge_index_pairs():
            if not actions_commute(self.tables[i], self.tables[j]):
                raise EdgeViolationError(
                    "adjacent actions do not commute",
                    edge=(self.words.graph.vertices[i], self.words.graph.vertices[j]),
                )

    def act_word(self, x) -> "WordAction":
        """The composite map of a word, letters composed left to right.

        Accepts an element or a raw letter sequence; for an element the
        canonical letters are used, and when the per-edge commutation checks
        passed the result does not depend on the chosen rearrangement.
        """
        if isinstance(x, GPElement):
            if x.ctx is not self.words:
                raise ContextMismatchError("element belongs to a different context")
            letters = x.letters
        else:
            letters = tuple(x)
        return WordAction(self, letters)


class WordAction:
    """Composition alpha_{l1} o alpha_{l2} o ... o alpha_{ln} for a letter word."""

    __slots__ = ("system", "letters")

    def __init__(self, system: ActionSystem, letters):
        self.system = system
        self.letters = tuple(letters)

    def on_central(self, c: CentralElement) -> CentralElement:
        system = self.system
        if c.structure != system.structure:
            raise StructureMismatchError("element has wrong structure")
        idx = np.arange(system.structure.num_blocks)
        for l in self.letters:
            idx = system.tables[l.vertex].perms[l.elem][idx]
        return CentralElement._adopt(c.structure, c.scalars[idx])


# ----------------------------------------------------------------------
# action presets

def trivial_action(group: FiniteGroup, structure: BlockStructure) -> ActionTable:
    ident = Automorphism.identity(structure)
    return ActionTable(group, structure, tuple(ident for _ in range(group.order)))


def diagonal_phase_action(group, structure, phases) -> ActionTable:
    """Conjugation by diagonal unitaries diag(exp(i * theta)).

    ``phases[g][k]`` lists the angles for block k under element g.  The
    homomorphism property is the caller's responsibility and is what
    :func:`validate_action` checks.
    """
    autos = []
    for g in range(group.order):
        unis = []
        for k, d in enumerate(structure.block_dims):
            theta = np.asarray(phases[g][k], dtype=float)
            if theta.shape != (d,):
                raise StructureMismatchError(
                    "phase list has wrong length", element=g, block=k
                )
            unis.append(np.diag(np.exp(1j * theta)))
        autos.append(
            Automorphism(structure, tuple(range(structure.num_blocks)), tuple(unis))
        )
    return ActionTable(group, structure, tuple(autos))


def block_permutation_action(group, structure, perms) -> ActionTable:
    """Automorphisms that shuffle isomorphic blocks, with identity unitaries.

    ``perms[g]`` sends source block j to target block perms[g][j]; blocks
    connected by the permutation must have equal dimension.
    """
    autos = []
    for g in range(group.order):
        perm = tuple(int(p) for p in perms[g])
        unis = tuple(
            np.eye(structure.block_dims[k]) for k in range(structure.num_blocks)
        )
        autos.append(Automorphism(structure, perm, unis))
    return ActionTable(group, structure, tuple(autos))


def point_permutation_action(group, structure, maps) -> ActionTable:
    """Action on a commutative algebra of functions by permuting points.

    Requires all blocks one-dimensional.  ``maps[g]`` is the point map of g
    (image list); functions are moved by precomposition with the inverse, so
    the block permutation of the automorphism is the point map itself.
    """
    if any(d != 1 for d in structure.block_dims):
        raise StructureMismatchError("point permutations need all blocks of dim 1")
    return block_permutation_action(group, structure, maps)
