"""Exactly solvable graph products as oracles that share only vertex data.

Over a complete graph the graph product is the direct product of the
vertex groups, and a word is the tuple of its letters, one per vertex, the
identity where a vertex has none.  When each vertex's values are fixed by
the other vertices' actions and the actions commute, every block of the
kernel K(x, y) = alpha_y(h(x^-1 y)) over the whole group is the Kronecker
product of the vertex Grams G_v(g, h) = alpha_h(h_v(g^-1 h)), and its least
eigenvalue is the product of theirs.  ``ball_stack(n)`` over n vertices
lists the whole group, so its Gram is checked against that product, on
the two complete committed scenarios and on random complete products with
trivial or point actions.
"""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.cli import build_scenario, load_config
from gpmult.graphgroup import SimplicialGraph, cyclic_group
from support import groupoid_from_space

ROOT = Path(__file__).resolve().parent.parent


def vertex_gram(h, table) -> np.ndarray:
    """The ``(K, n, n)`` stack G[k, a, b] = alpha_b(h(a^-1 b)) scalar k of
    one vertex, entry by entry from its group table and its action's index
    arrays."""
    grp = h.group
    n, K = grp.order, h.structure.num_blocks
    out = np.empty((K, n, n), dtype=np.complex128)
    for k in range(K):
        for a in range(n):
            for b in range(n):
                out[k, a, b] = h.scalars[grp.table[grp.inverse(a), b], table.perms[b, k]]
    return out


def complete_product_residuals(system):
    """(max |G - (x)_v G_v|, max |lambda_min(G) - prod_v lambda_min(G_v)|)
    over the blocks, G the Gram of ``ball_stack(n)`` with its rows put in
    the row-major order of the letter tuples, vertex 0 most significant."""
    words = system.words
    n = words.graph.n
    assert all(words.graph.adjacent(u, v) for u in range(n) for v in range(n) if u != v)
    orders = [grp.order for grp in words.groups]
    ball = words.ball(n)
    index = np.empty(len(ball), dtype=np.intp)
    for i, x in enumerate(ball):
        t = [grp.identity for grp in words.groups]
        for letter in x.letters:
            t[letter.vertex] = letter.elem
        index[i] = np.ravel_multi_index(t, orders)
    assert sorted(index) == list(range(int(np.prod(orders))))
    stack = system.ball_stack(n).gram
    gram = np.empty_like(stack)
    gram[:, index[:, None], index[None, :]] = stack
    grams = [vertex_gram(h, t) for h, t in zip(system.multipliers, system.actions.tables)]
    entry = lam = 0.0
    for k in range(gram.shape[0]):
        product = functools.reduce(np.kron, [g[k] for g in grams])
        entry = max(entry, float(np.abs(gram[k] - product).max()))
        lams = [np.linalg.eigvalsh(g[k])[0] for g in grams]
        lam = max(lam, abs(np.linalg.eigvalsh(gram[k])[0] - np.prod(lams)))
    return entry, lam


@pytest.mark.parametrize("name", ["tensor_edge_z2_z3", "triangle_perm_z2"])
def test_complete_scenarios_are_kronecker_products(name):
    """The entries agree bit for bit; the least eigenvalues differed by at
    most 2.8e-16."""
    sc = build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json")))
    entry, lam = complete_product_residuals(sc.system)
    assert entry == 0.0
    assert lam < 1e-15


@st.composite
def complete_products(draw):
    """1-3 joined vertices with Z/m_v, m_v <= 3, on the points of a product
    X = X_0 x X_1 x ...: vertex v acts on X_v = Z/m_v by translation, or
    trivially on one or two points, and on no other coordinate, so the
    actions commute and fix each other's values.  h_v(s) depends on the
    coordinate v alone, which its own action moves.  It is Hermitian,
    h_v(s^-1) = conj(alpha_s(h_v(s))), with h_v(e) = 1 and every other value
    below 0.9 / (m_v - 1) in modulus, so each block of the vertex Gram is
    positive definite by diagonal dominance."""
    n = draw(st.integers(1, 3))
    orders = [draw(st.integers(1, 3)) for _ in range(n)]
    moves = [draw(st.booleans()) for _ in range(n)]
    sizes = [m if move else draw(st.integers(1, 2)) for m, move in zip(orders, moves)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = np.indices(sizes).reshape(n, -1)  # coords[v, x] is point x's coordinate v
    maps, values = {}, []
    for v, (m, move) in enumerate(zip(orders, moves)):
        if move:
            maps[v] = []
            for g in range(m):
                moved = coords.copy()
                moved[v] = (moved[v] + g) % m
                maps[v].append(np.ravel_multi_index(tuple(moved), sizes).tolist())
        perms = [np.argsort(p) for p in maps.get(v, [np.arange(coords.shape[1])] * m)]
        bound = 0.9 / max(m - 1, 1)
        raw = bound * rng.uniform(0, 1, (m, sizes[v])) * np.exp(2j * np.pi * rng.uniform(0, 1, (m, sizes[v])))
        h = [None] * m
        h[0] = np.ones(coords.shape[1], dtype=np.complex128)
        for g in range(1, m):
            if h[g] is None:
                x = raw[g][coords[v]]
                gi = (m - g) % m
                if gi == g:
                    h[g] = (x + x[perms[g]].conj()) / 2.0
                else:
                    h[g], h[gi] = x, x[perms[g]].conj()
        values.append([list(row) for row in h])
    graph = SimplicialGraph.build(tuple(range(n)), [(u, v) for u in range(n) for v in range(u + 1, n)])
    groups = [cyclic_group(m) for m in orders]
    return groupoid_from_space(graph, groups, coords.shape[1], maps, values)


@settings(max_examples=60, deadline=None)
@given(complete_products())
def test_complete_products_are_kronecker_products(system):
    """The construction passes setup.  Over 500 draws the entries agreed
    bit for bit, the value recursion and the Kronecker products multiplying
    in the same vertex order, and the least eigenvalues differed by at most
    1.6e-15; the entry bound still allows a last-bit difference.  Reading
    the vertex Grams with alpha_g in place of alpha_h fails 56 of 100
    draws."""
    system.validate()
    entry, lam = complete_product_residuals(system)
    assert entry <= 1e-15
    assert lam <= 1e-13
