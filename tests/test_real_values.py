"""Real arithmetic for real systems, against complex arithmetic.

A multiplier system whose vertex values are all finite and real keeps its
value rows, kernel stacks and Gram blocks in float64, since the actions
only permute block scalars, and ``is_positive`` solves real input as real
symmetric.  On random real graph products the rows, the identity ball's
stack and ``id_stacks`` equal the complex left-to-right folds of
``test_composed_actions`` bit for bit, and the real eigensolves agree with
those of the complex128 copies of the same stacks.  A system with an
infinite value or with one complex value keeps complex128: with an
infinite value complex arithmetic makes NaN where real arithmetic does not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmult.graphgroup import SimplicialGraph, cyclic_group
from gpmult.matalg import is_positive
from gpmult.verifier import Scenario, _guarded, verify_star_symmetry
from support import assert_same_values, central_stack, groupoid_from_space
from test_ball_arrays import graph_products, scenario
from test_composed_actions import fold_gp_value, fold_kernel
from test_multipliers import _random_system


def oracle_stack(system, xs):
    """The ``(K, n, n)`` stack of the complex folds alpha_y(h(x^-1 y))."""
    return central_stack(system.structure, [[fold_kernel(system, x, y) for y in xs] for x in xs])


@settings(max_examples=25, deadline=None)
@given(graph_products(real=True), st.data())
def test_real_rows_and_stacks_are_the_complex_folds(system, data):
    """Value rows of ball(2) from the ball's arrays and from the memo, the
    ball(1) stack with its value rows, and ``id_stacks`` over drawn
    families of ball(2) words, all float64 and bit-equal to the complex
    folds after the cast."""
    words = system.words
    assert system.dtype == np.float64
    ball = words.ball(2)
    folds = np.array([fold_gp_value(system, x.letters).scalars for x in ball])
    rows, _ = system.tree_rows(words.ball_arrays(2))
    ids = [words.intern(x.letters) for x in ball]
    memo, _ = system._value_rows()
    assert rows.dtype == memo.dtype == np.float64
    assert_same_values(rows, folds)
    assert_same_values(memo[ids], folds)

    stack = system.ball_stack(1)
    inner = ball[: len(stack.values)]
    assert stack.gram.dtype == stack.values.dtype == np.float64
    assert_same_values(stack.gram, oracle_stack(system, inner))
    assert_same_values(stack.values, folds[: len(inner)])

    picks = st.lists(st.integers(0, len(ball) - 1), min_size=1, max_size=4)
    families = data.draw(st.lists(picks, min_size=1, max_size=5))
    stacks = system.id_stacks([[ids[i] for i in f] for f in families])
    for m, got in stacks.items():
        want = np.stack([oracle_stack(system, [ball[i] for i in f]) for f in families if len(f) == m])
        assert got.dtype == np.float64
        assert_same_values(got, want)


def assert_solvers_agree(stack):
    """``is_positive`` of a real stack and of its complex128 copy: the same
    verdict, and least eigenvalues within 1e-13 (1 + scale)."""
    real = is_positive(stack)
    copy = is_positive(stack.astype(np.complex128))
    scale = float(np.abs(np.linalg.eigvalsh(stack)).max())
    assert real[0] == copy[0]
    assert abs(real[1] - copy[1]) <= 1e-13 * (1.0 + scale)
    return real[0]


@settings(max_examples=25, deadline=None)
@given(graph_products(real=True))
def test_real_and_complex_eigensolves_agree_on_random_products(system):
    """The symmetric part of a random real product's ball(1) stack, mostly
    indefinite: its actions need not commute and its values are not
    positive definite."""
    gram = system.ball_stack(1).gram
    assert_solvers_agree((gram + gram.swapaxes(-1, -2)) / 2.0)


@settings(max_examples=25, deadline=None)
@given(_random_system())
def test_real_and_complex_eigensolves_agree_on_positive_systems(system):
    """The ball(2) stack of a valid product of geometric multipliers, which
    is positive: the verdict is a pass on both."""
    assert system.dtype == np.float64
    assert assert_solvers_agree(system.ball_stack(2).gram)


def test_public_values_stay_complex_on_a_real_system():
    """The central elements handed out keep complex128 on a real system."""
    system = scenario("free_pair_z2").system
    words = system.words
    assert system.dtype == np.float64
    x, y = words.ball(2)[-1], words.ball(1)[1]
    for value in (system.gp_value(x), system.gp_value_letters(x.letters), system.kernel(x, y)):
        assert value.scalars.dtype == np.complex128 and not value.scalars.imag.any()


def infinite_star():
    """Three Z/3 vertices, c joined to a and b; a and b rotate three points
    and c acts trivially, and a's value at a is infinite in block 0."""
    graph = SimplicialGraph.build((0, 1, 2), [(0, 2), (1, 2)])
    rotations = [[(p + g) % 3 for p in range(3)] for g in range(3)]
    values = [
        [[1, 1, 1], [np.inf, 0.5, 0.25], [0.5, 0.25, 0.5]],
        [[1, 1, 1], [0.5, -0.25, 0.75], [0.5, 0.75, -0.25]],
        [[1, 1, 1], [0.3, 0.3, 0.3], [0.3, 0.3, 0.3]],
    ]
    maps = {0: rotations, 1: rotations, 2: [[0, 1, 2]] * 3}
    return groupoid_from_space(graph, [cyclic_group(3)] * 3, 3, maps, values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_infinite_value_keeps_complex_arithmetic():
    """With an infinite value the system stays complex128, and
    kernel-star-symmetry reports the residual complex arithmetic gives,
    NaN, as it did before real rows existed; real arithmetic would give
    an infinity there."""
    system = infinite_star()
    assert system.dtype == np.complex128
    assert system.ball_stack(2).gram.dtype == np.complex128
    sc = Scenario("infinite", system, identity_radius=2)
    result = _guarded("kernel-star-symmetry", "lemmas", verify_star_symmetry, sc)
    assert result.to_json() == {
        "name": "kernel-star-symmetry",
        "suite": "lemmas",
        "pass": False,
        "vacuous": False,
        "residual": None,
        "counts": {"pairs": 529},
        "details": {"non_finite": {"residual": "nan"}},
    }


def test_a_complex_value_keeps_complex_arithmetic():
    """block_swap_free has a complex vertex value: its rows and stack stay
    complex128, bit-equal to the complex folds."""
    system = scenario("block_swap_free").system
    words = system.words
    assert system.dtype == np.complex128
    stack = system.ball_stack(1)
    ball = words.ball(1)
    assert stack.gram.dtype == np.complex128
    assert stack.gram.tobytes() == np.ascontiguousarray(oracle_stack(system, ball)).tobytes()
    rows, _ = system.tree_rows(words.ball_arrays(2))
    for x, row in zip(words.ball(2), rows):
        assert row.tobytes() == fold_gp_value(system, x.letters).scalars.tobytes()
