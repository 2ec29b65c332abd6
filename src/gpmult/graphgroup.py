"""Simplicial graphs and finite groups backed by exhaustive multiplication tables.

Vertices of a :class:`SimplicialGraph` are arbitrary hashable ids; their
position in the declared vertex list fixes the total order used for canonical
normal forms downstream.  Group elements are integers ``0..n-1`` indexing rows
of an ``n x n`` multiplication table, in the style of explicit-table group
code: validation is exhaustive (Latin square property plus all n^3
associativity triples), which is cheap at the orders this package targets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadIdentityError,
    BadInverseError,
    LoopEdgeError,
    NotAssociativeError,
    NotLatinSquareError,
    TooLargeError,
    UnknownVertexError,
)

MAX_GROUP_ORDER = 120


@dataclass(frozen=True, eq=False)
class SimplicialGraph:
    """Finite graph without loops or multi-edges.

    ``vertices`` is the ordered list of vertex ids.  Adjacency queries use
    vertex *indices* (positions in ``vertices``), which is what the word
    machinery works with.
    """

    vertices: tuple
    _index: dict = field(repr=False)
    _adj: frozenset = field(repr=False)  # ordered index pairs, both directions

    @classmethod
    def build(cls, vertices, edges) -> "SimplicialGraph":
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise UnknownVertexError("duplicate vertex id", vertices=vertices)
        adj = set()
        for e in edges:
            a, b = e
            if a not in index:
                raise UnknownVertexError("edge endpoint not declared", vertex=a)
            if b not in index:
                raise UnknownVertexError("edge endpoint not declared", vertex=b)
            if a == b:
                raise LoopEdgeError("loop edges are not allowed", vertex=a)
            adj.add((index[a], index[b]))
            adj.add((index[b], index[a]))
        return cls(vertices, index, frozenset(adj))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, vid) -> int:
        try:
            return self._index[vid]
        except KeyError:
            raise UnknownVertexError("unknown vertex id", vertex=vid) from None

    def adjacent(self, i: int, j: int) -> bool:
        """Adjacency of vertex *indices* i and j.  A vertex is never adjacent to itself."""
        return (i, j) in self._adj

    def edge_index_pairs(self):
        """Sorted list of (i, j) index pairs with i < j, one per edge."""
        return sorted((i, j) for (i, j) in self._adj if i < j)


@dataclass(eq=False)
class FiniteGroup:
    """Finite group given by its full multiplication table.

    ``table[a, b]`` is the index of the product a*b.  ``identity`` and ``inv``
    are derived during :func:`validate_group` and cached on the instance.
    """

    table: np.ndarray
    name: str = ""
    _identity: int | None = field(default=None, repr=False)
    _inv: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.int64)

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def identity(self) -> int:
        if self._identity is None:
            self._identity = _find_identity(self.table)
        return self._identity

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            self._inv = _inverse_table(self.table, self.identity)
        return self._inv

    def inverse(self, a: int) -> int:
        return int(self.inv[a])


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            return e
    raise BadIdentityError("no two-sided identity element")


def _inverse_table(table: np.ndarray, identity: int) -> np.ndarray:
    n = table.shape[0]
    inv = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        hits = np.nonzero(table[a] == identity)[0]
        if len(hits) != 1:
            raise BadInverseError("element without unique inverse", element=a)
        b = int(hits[0])
        if table[b, a] != identity:
            raise BadInverseError("left and right inverses differ", element=a)
        inv[a] = b
    return inv


def validate_group(group: FiniteGroup) -> None:
    """Exhaustively verify the multiplication table defines a group.

    Checks the order cap, shape, the Latin square property, existence of a
    two-sided identity, unique two-sided inverses, and all n^3
    associativity triples (vectorized, so fine up to the order cap, which is
    checked before anything of size n^3 is allocated).
    """
    table = group.table
    n = group.order
    if n > MAX_GROUP_ORDER:
        raise TooLargeError("group order exceeds the cap", order=n, max=MAX_GROUP_ORDER)
    if table.ndim != 2 or table.shape != (n, n):
        raise NotLatinSquareError("table is not square", shape=table.shape)
    if n == 0:
        raise BadIdentityError("empty table")
    if table.min() < 0 or table.max() >= n:
        raise NotLatinSquareError("table entries out of range")
    idx = np.arange(n)
    for a in range(n):
        if not np.array_equal(np.sort(table[a]), idx):
            raise NotLatinSquareError("row is not a permutation", row=a)
        if not np.array_equal(np.sort(table[:, a]), idx):
            raise NotLatinSquareError("column is not a permutation", column=a)
    # (a*b)*c == a*(b*c) for all triples, via fancy indexing
    lhs = table[table, :]          # lhs[a, b, c] = table[table[a, b], c]
    rhs = table[:, table]          # rhs[a, b, c] = table[a, table[b, c]]
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)[0]
        raise NotAssociativeError(
            "associativity fails", triple=tuple(int(x) for x in bad)
        )
    group.identity  # noqa: B018 - forces identity/inverse derivation
    group.inv


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1 or n > MAX_GROUP_ORDER:
        raise TooLargeError("cyclic order out of range", n=n, max=MAX_GROUP_ORDER)
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, name=f"cyclic-{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n points; elements are permutations in lexicographic order.

    Composition convention: (p*q)(x) = p(q(x)), i.e. q acts first.
    """
    if n < 1:
        raise TooLargeError("need n >= 1", n=n)
    import math

    if math.factorial(n) > MAX_GROUP_ORDER:
        raise TooLargeError(
            "symmetric group too large", n=n, order=math.factorial(n), max=MAX_GROUP_ORDER
        )
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.zeros((m, m), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return FiniteGroup(table, name=f"symmetric-{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^k first, then reflections s r^k.

    Element 2-tuples (k, f) with f in {0,1} are flattened as k + n*f; the
    product rule is (k1,f1)(k2,f2) = (k1 + (-1)^{f1} k2 mod n, f1 xor f2).
    """
    if n < 1 or 2 * n > MAX_GROUP_ORDER:
        raise TooLargeError("dihedral order out of range", n=n, max=MAX_GROUP_ORDER)
    m = 2 * n
    table = np.zeros((m, m), dtype=np.int64)
    for a in range(m):
        k1, f1 = a % n, a // n
        for b in range(m):
            k2, f2 = b % n, b // n
            k = (k1 + (k2 if f1 == 0 else -k2)) % n
            table[a, b] = k + n * (f1 ^ f2)
    return FiniteGroup(table, name=f"dihedral-{n}")


_PRESETS = {
    "cyclic": cyclic_group,
    "symmetric": symmetric_group,
    "dihedral": dihedral_group,
}


def preset_group(kind: str, n: int) -> FiniteGroup:
    """Build a named family member ("cyclic", "symmetric", "dihedral")."""
    if kind not in _PRESETS:
        raise ValueError(f"unknown group preset {kind!r}")
    group = _PRESETS[kind](n)
    validate_group(group)
    return group
