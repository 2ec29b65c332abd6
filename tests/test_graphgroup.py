"""Group tables and simplicial graphs."""

import itertools

import numpy as np
import pytest

from gpmult.errors import (
    BadIdentityError,
    LoopEdgeError,
    NotAssociativeError,
    NotLatinSquareError,
    TooLargeError,
    UnknownVertexError,
)
from gpmult.graphgroup import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    SimplicialGraph,
    cyclic_group,
    dihedral_group,
    preset_group,
    symmetric_group,
    validate_group,
)
from support import multipartite_graph


def test_graph_build_and_adjacency():
    g = SimplicialGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.n == 3
    assert g.adjacent(0, 1) and g.adjacent(1, 0)
    assert g.adjacent(1, 2)
    assert not g.adjacent(0, 2)
    assert not g.adjacent(1, 1)
    assert g.edge_index_pairs() == [(0, 1), (1, 2)]


def test_graph_rejects_loops_and_unknown_vertices():
    with pytest.raises(LoopEdgeError):
        SimplicialGraph.build(["a", "b"], [("a", "a")])
    with pytest.raises(UnknownVertexError):
        SimplicialGraph.build(["a", "b"], [("a", "zz")])
    g = SimplicialGraph.build(["a"], [])
    with pytest.raises(UnknownVertexError):
        g.vertex_index("q")


def test_multipartite_graph_k12():
    g = multipartite_graph([1, 2])
    # one hub adjacent to both spokes, spokes not adjacent to each other
    assert g.n == 3
    assert len(g.edge_index_pairs()) == 2
    assert g.adjacent(0, 1) and g.adjacent(0, 2)
    assert not g.adjacent(1, 2)


def test_cyclic_group_table():
    g = cyclic_group(5)
    validate_group(g)
    assert g.order == 5
    assert g.identity == 0
    for a in range(5):
        for b in range(5):
            assert g.table[a, b] == (a + b) % 5
        assert g.inverse(a) == (-a) % 5


def _perm_compose(p, q):
    """(p*q)(x) = p(q(x)) -- the oracle convention for symmetric_group."""
    return tuple(p[q[x]] for x in range(len(p)))


def test_symmetric_group_against_permutation_oracle():
    g = symmetric_group(3)
    validate_group(g)
    perms = sorted(itertools.permutations(range(3)))
    assert g.order == 6
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            assert perms[g.table[i, j]] == _perm_compose(p, q)


def test_dihedral_group_is_isomorphic_to_s3():
    d3 = dihedral_group(3)
    s3 = symmetric_group(3)
    validate_group(d3)
    validate_group(s3)
    # brute-force isomorphism search over all bijections of 6 points
    found = False
    for sigma in itertools.permutations(range(6)):
        if sigma[d3.identity] != s3.identity:
            continue
        if all(
            sigma[d3.table[a, b]] == s3.table[sigma[a], sigma[b]]
            for a in range(6)
            for b in range(6)
        ):
            found = True
            break
    assert found


def test_dihedral_relations():
    n = 4
    g = dihedral_group(n)
    validate_group(g)
    r, f = 1, n  # rotation by one step; the first reflection
    # r has order n, f has order 2, and f r f = r^{-1}
    x = g.identity
    for _ in range(n):
        x = g.table[x, r]
    assert x == g.identity
    assert g.table[f, f] == g.identity
    assert g.table[g.table[f, r], f] == g.inverse(r)


def test_validate_rejects_non_latin_square():
    bad = cyclic_group(3)
    table = bad.table.copy()
    table[1, 1] = 1  # duplicates 1 in row 1
    bad = type(bad)(table)
    with pytest.raises(NotLatinSquareError):
        validate_group(bad)


def test_validate_rejects_non_associative_quasigroup():
    # a 5x5 Latin square that is not a group table
    table = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    g = cyclic_group(5)
    g = type(g)(table)
    with pytest.raises((NotAssociativeError, BadIdentityError)):
        validate_group(g)


def test_order_cap_enforced():
    with pytest.raises(TooLargeError):
        preset_group("cyclic", 500)


def test_validate_caps_custom_tables_before_the_associativity_arrays():
    """A valid cyclic table one past ``MAX_GROUP_ORDER`` is refused, not
    checked through two n^3 arrays."""
    n = MAX_GROUP_ORDER + 1
    idx = np.arange(n)
    with pytest.raises(TooLargeError) as err:
        validate_group(FiniteGroup((idx[:, None] + idx[None, :]) % n))
    assert err.value.context == {"order": n, "max": MAX_GROUP_ORDER}


def test_preset_group_dispatch():
    assert preset_group("cyclic", 4).order == 4
    assert preset_group("symmetric", 3).order == 6
    assert preset_group("dihedral", 4).order == 8
    with pytest.raises(ValueError):
        preset_group("sporadic", 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_cyclic_groups_validate(n):
    validate_group(cyclic_group(n))
