"""Modules, cocycles, Schoenberg multipliers, negative definiteness."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gpmult.cli import build_scenario, load_config
from gpmult.cocycles import (
    cocycle_build,
    cocycle_identity_residual,
    gns_build,
    negative_definite_check,
    schoenberg_is_pd,
    schoenberg_multiplier,
    spectral_gap,
    squared_norm_residual,
    sublevel,
)
from gpmult.dynamics import (
    ActionTable,
    Automorphism,
    block_permutation_action,
    trivial_action,
)
from gpmult.errors import NotFiniteError, NotPositiveError, NotUnitalError
from gpmult.graphgroup import cyclic_group, dihedral_group
from gpmult.matalg import AlgebraElement, BlockStructure, CentralElement, embed_central
from gpmult.multipliers import Multiplier, convention_flip

SCALAR = BlockStructure((1,))
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


def scalar_multiplier(group, *vals):
    return Multiplier(
        group,
        SCALAR,
        tuple(CentralElement(SCALAR, np.array([v], dtype=complex)) for v in vals),
    )


def z4_module():
    z4 = cyclic_group(4)
    h = scalar_multiplier(z4, 1.0, 0.5, 0.2, 0.5)
    return h, gns_build(h, trivial_action(z4, SCALAR))


def test_gram_matches_classical_circulant():
    """With trivial action on C the Gram matrix is the classical [h(s^-1 t)]."""
    h, mod = z4_module()
    hv = np.array([1.0, 0.5, 0.2, 0.5])
    classical = np.array([[hv[(t - s) % 4] for t in range(4)] for s in range(4)])
    got = np.array([[mod.gram[s][t].scalars[0] for t in range(4)] for s in range(4)])
    assert np.max(np.abs(classical - got)) == 0.0
    # smallest circulant eigenvalue, also the smallest DFT value of h
    assert abs(mod.lambda_min - 0.2) < 1e-12
    assert abs(mod.lambda_min - np.fft.fft(hv).real.min()) < 1e-12


def test_gns_build_rejects_nonpositive():
    z2 = cyclic_group(2)
    with pytest.raises(NotPositiveError):
        gns_build(scalar_multiplier(z2, 1.0, 1.2), trivial_action(z2, SCALAR))


def test_vector_of_identity_represents_h():
    _, mod = z4_module()
    c = cocycle_build(mod)
    hv = [1.0, 0.5, 0.2, 0.5]
    for s in range(4):
        v = mod.inner(mod.u_action(s, c.xi), c.xi)
        assert abs(v.dense()[0, 0] - hv[s]) < 1e-14


def test_u_action_preserves_the_form():
    _, mod = z4_module()
    f, g = mod.delta(1), mod.delta(2)
    lhs = mod.inner(mod.u_action(3, f), mod.u_action(3, g))
    assert lhs.maxabs_diff(mod.inner(f, g)) < 1e-14


def test_cocycle_residuals_vanish():
    _, mod = z4_module()
    c = cocycle_build(mod)
    assert cocycle_identity_residual(c) <= 1e-12
    assert squared_norm_residual(c) <= 1e-12
    assert np.max(np.abs(c.squared_norm(0).dense())) == 0.0  # b(e) = 0


def test_cocycle_needs_unital_multiplier():
    z2 = cyclic_group(2)
    mod = gns_build(scalar_multiplier(z2, 0.9, 0.3), trivial_action(z2, SCALAR))
    with pytest.raises(NotUnitalError):
        cocycle_build(mod)


def test_cocycle_on_block_swapping_action():
    """Residuals also vanish when the action permutes blocks."""
    st = BlockStructure((1, 1))
    z2 = cyclic_group(2)
    swap = block_permutation_action(z2, st, [[0, 1], [1, 0]])
    h = Multiplier(z2, st, (CentralElement.one(st), CentralElement(st, [0.4, 0.4])))
    c = cocycle_build(gns_build(h, swap))
    assert cocycle_identity_residual(c) <= 1e-12
    assert squared_norm_residual(c) <= 1e-12
    assert np.allclose(c.squared_norm(1).dense().diagonal(), [1.2, 1.2])  # 2 - 2 h(g)


def test_spectral_gap_and_sublevel():
    _, mod = z4_module()
    c = cocycle_build(mod)
    qc = [
        CentralElement(SCALAR, np.array([c.squared_norm(s).dense()[0, 0]], dtype=complex))
        for s in range(4)
    ]
    gaps = spectral_gap(qc, mod.group)
    assert gaps == {0: 0.0, 1: 1.0, 2: pytest.approx(1.6), 3: 1.0}
    assert sublevel(gaps, 0.5) == [0]
    assert sublevel(gaps, 1.1) == [0, 1, 3]


def test_schoenberg_values_and_positivity():
    _, mod = z4_module()
    c = cocycle_build(mod)
    sm = schoenberg_multiplier(c, 0.5)
    hv = np.array([1.0, 0.5, 0.2, 0.5])
    expected = np.exp(-0.5 * (2 - 2 * hv) ** 2)
    got = np.array([sm.values[g].scalars[0].real for g in range(4)])
    assert np.max(np.abs(got - expected)) < 1e-14
    ok, lam = schoenberg_is_pd(c, 0.5)
    assert ok
    # the classical oracle again: smallest DFT value of the new multiplier
    assert abs(lam - np.fft.fft(got).real.min()) < 1e-12


def test_schoenberg_tends_to_one_monotonically():
    z3 = cyclic_group(3)
    h = scalar_multiplier(z3, 1.0, 0.4, 0.4)
    c = cocycle_build(gns_build(h, trivial_action(z3, SCALAR)))
    prev_gap = np.inf
    for t in (10.0, 1.0, 0.1, 0.01):
        sm = schoenberg_multiplier(c, t)
        gap = max(
            float(np.max(np.abs(sm.values[g].scalars - 1.0))) for g in range(3)
        )
        ok, _ = schoenberg_is_pd(c, t)
        assert ok
        assert gap <= prev_gap + 1e-12
        prev_gap = gap
    assert prev_gap < 0.05  # pointwise close to 1 by t = 0.01


def test_schoenberg_square_is_not_pd_for_uneven_gaps():
    """The squared exponential can fail for small t when Q takes unequal
    nonzero values: d/dt of the lowest circulant eigenvalue at t=0 is
    2 q_1 - q_2^2 with q = (0, 1, 1.6, 1) here, which is negative.  The
    unsquared exponential exp(-t Q) stays positive definite for every t, as
    negative definiteness of Q demands."""
    _, mod = z4_module()
    c = cocycle_build(mod)
    ok, lam = schoenberg_is_pd(c, 0.1)
    assert not ok
    assert lam < -0.03
    q = np.array([c.squared_norm(s).dense()[0, 0].real for s in range(4)])
    assert np.allclose(q, [0.0, 1.0, 1.6, 1.0])
    for t in (0.01, 0.1, 1.0, 10.0):
        assert np.fft.fft(np.exp(-t * q)).real.min() > -1e-12


def test_negative_definite_check_accepts_squared_norms():
    z4 = cyclic_group(4)
    _, mod = z4_module()
    c = cocycle_build(mod)
    psi = [c.squared_norm(s) for s in range(4)]
    rep = negative_definite_check(psi, trivial_action(z4, SCALAR), trials=200, seed=5)
    assert rep.ok
    assert rep.worst_margin < 0  # strictly inside for these coefficients
    assert rep.symmetry_deviation == 0.0
    assert rep.trials == 200 and rep.mode == "random"


def test_negative_definite_check_rejects_positive_definite_function():
    """A pd multiplier itself makes the form positive - the check must say no."""
    z4 = cyclic_group(4)
    h, _ = z4_module()
    psi = [embed_central(v) for v in h.values]
    rep = negative_definite_check(psi, trivial_action(z4, SCALAR), trials=200, seed=5)
    assert not rep.ok
    assert rep.worst_margin > 1.0
    assert rep.exact_lambda_max > 0


def test_negative_definite_check_rejects_an_overflowing_form():
    z2 = cyclic_group(2)
    psi = [embed_central(CentralElement(SCALAR, [v])) for v in (0.0, 1.7e308)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotFiniteError):
            negative_definite_check(psi, trivial_action(z2, SCALAR), trials=0)


def test_negative_definite_check_sweep_mode():
    z4 = cyclic_group(4)
    _, mod = z4_module()
    c = cocycle_build(mod)
    psi = [c.squared_norm(s) for s in range(4)]
    rep = negative_definite_check(psi, trivial_action(z4, SCALAR), mode="sweep")
    assert rep.ok
    assert rep.trials == 6  # one matrix unit, six element pairs
    assert abs(rep.worst_margin + 2.0) < 1e-12


def test_negative_definite_check_flags_broken_symmetry():
    z4 = cyclic_group(4)
    h = scalar_multiplier(z4, 1.0, 0.5, 0.2, 0.3)  # h(3) != conj(h(1))
    psi = [embed_central(v) for v in h.values]
    rep = negative_definite_check(psi, trivial_action(z4, SCALAR), trials=10, seed=5)
    assert not rep.ok
    assert abs(rep.symmetry_deviation - 0.2) < 1e-14


def test_negative_definite_check_unknown_mode():
    z2 = cyclic_group(2)
    h = scalar_multiplier(z2, 1.0, 0.5)
    with pytest.raises(ValueError):
        negative_definite_check(
            [embed_central(v) for v in h.values],
            trivial_action(z2, SCALAR),
            mode="exhaustive",
        )


def test_exact_certificate_fails_without_trials():
    """With no trial drawn, the exact certificate alone rejects a pd function."""
    z4 = cyclic_group(4)
    h, _ = z4_module()
    psi = [embed_central(v) for v in h.values]
    rep = negative_definite_check(psi, trivial_action(z4, SCALAR), trials=0, seed=5)
    assert rep.trials == 0 and rep.worst_margin == 0.0
    assert not rep.ok
    # the circulant's values at the nonzero frequencies are 0.8, 0.2, 0.8
    dft = np.fft.fft([1.0, 0.5, 0.2, 0.5]).real
    assert abs(rep.exact_lambda_max - dft[1:].max()) < 1e-12
    assert abs(rep.exact_lambda_max - 0.8) < 1e-12


def test_exact_certificate_matches_the_circulant_spectrum():
    """On the sum-zero subspace a circulant's eigenvalues are its DFT values
    at the nonzero frequencies; the constant mode (a projector's spurious 0)
    must not count."""
    z4 = cyclic_group(4)
    _, mod = z4_module()
    c = cocycle_build(mod)
    psi = [c.squared_norm(s) for s in range(4)]
    rep = negative_definite_check(psi, trivial_action(z4, SCALAR), trials=1, seed=5)
    q = [0.0, 1.0, 1.6, 1.0]
    assert abs(rep.exact_lambda_max - np.fft.fft(q).real[1:].max()) < 1e-12
    assert abs(rep.exact_lambda_max + 0.4) < 1e-12
    assert rep.ok


# ----------------------------------------------------------------------
# the per-trial AlgebraElement evaluation, kept as the reference


def reference_negative_definite_check(psi, table, trials=500, seed=0, mode="random", tol=1e-8):
    """One trial at a time with generic algebra arithmetic and a dense eigensolve.

    Returns ``(ok, worst_margin, symmetry_deviation, trials)``; ok is the
    trial-and-symmetry rule without the exact certificate.
    """
    group = table.group
    structure = table.structure
    n = group.order
    psi = [psi[g] for g in range(n)]
    sym_dev = 0.0
    for s in range(n):
        lhs = table.autos[s].apply(psi[group.inverse(s)])
        sym_dev = max(sym_dev, lhs.maxabs_diff(psi[s].adjoint()))
    M = [
        [table.autos[i].apply(psi[group.mul(group.inverse(i), j)]) for j in range(n)]
        for i in range(n)
    ]

    def form_lambda_max(bs) -> float:
        acc = AlgebraElement.zero(structure)
        for i in range(n):
            bi = bs[i].adjoint()
            for j in range(n):
                acc = acc + bi * M[i][j] * bs[j]
        dense = acc.dense()
        herm = (dense + dense.conj().T) / 2.0
        return float(np.linalg.eigvalsh(herm)[-1])

    worst = -np.inf
    count = 0
    if mode == "sweep":
        units = []
        for k, d in enumerate(structure.block_dims):
            for r in range(d):
                for col in range(d):
                    units.append(AlgebraElement.matrix_unit(structure, k, r, col))
        zero = AlgebraElement.zero(structure)
        for i in range(n):
            for j in range(i + 1, n):
                for u in units:
                    bs = [zero] * n
                    bs[i] = u
                    bs[j] = -1.0 * u
                    worst = max(worst, form_lambda_max(bs))
                    count += 1
    else:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            bs = []
            for _ in range(n - 1):
                blocks = [
                    rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    for d in structure.block_dims
                ]
                bs.append(AlgebraElement(structure, blocks))
            total = AlgebraElement.zero(structure)
            for b in bs:
                total = total + b
            bs.append(-1.0 * total)
            worst = max(worst, form_lambda_max(bs))
            count += 1
    if count == 0:
        worst = 0.0
    return worst <= tol and sym_dev <= 1e-10, float(worst), sym_dev, count


def assert_matches_reference(rep, ref, tol=1e-8):
    ok, worst, sym_dev, count = ref
    assert rep.trials == count
    assert rep.symmetry_deviation == sym_dev
    assert abs(rep.worst_margin - worst) <= 1e-12 * (1.0 + abs(worst))
    assert rep.ok == (ok and rep.exact_lambda_max <= tol)


def vertex_functions(name):
    """(vertex, psi, table, trials, seed, built) as the cocycle suite checks them.

    A vertex whose module or cocycle cannot be built (``built`` false; the
    suite stops before the check there) gets 2 - h - h*, the squared norm
    its cocycle would have.
    """
    sc = build_scenario(load_config(str(SCENARIO_DIR / f"{name}.json")))
    for v in range(sc.system.words.graph.n):
        h = convention_flip(sc.system.multipliers[v])
        table = sc.system.actions.tables[v]
        try:
            coc = cocycle_build(gns_build(h, table))
            psi = [coc.squared_norm(s) for s in range(h.group.order)]
            built = True
        except (NotPositiveError, NotUnitalError):
            one = AlgebraElement.identity(h.structure)
            psi = [2.0 * one - embed_central(x) - embed_central(x).adjoint() for x in h.values]
            built = False
        yield v, psi, table, sc.nd_trials, sc.seed + 7 * v, built


@pytest.mark.parametrize("name", SCENARIOS)
def test_negative_definite_check_matches_reference_on_scenarios(name):
    for v, psi, table, trials, seed, built in vertex_functions(name):
        rep = negative_definite_check(psi, table, trials=trials, seed=seed)
        ref = reference_negative_definite_check(psi, table, trials=trials, seed=seed)
        assert_matches_reference(rep, ref)
        # added pair by pair in the single-trial order, the reported
        # residual keeps every bit
        assert rep.worst_margin == ref[1], (name, v)
        # a cocycle's squared norm is negative definite; a non-pd h's is not
        assert rep.ok is built, (name, v)
        assert (rep.exact_lambda_max <= 1e-8) is built, (name, v)


def cyclic_unitary_action(group, structure, rng):
    """g -> Ad(U_k^g) per block, U_k = W diag(exp(2 pi i q / n)) W* with W random."""
    n = group.order
    autos = []
    bases = []
    for d in structure.block_dims:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        bases.append((np.linalg.qr(z)[0], rng.integers(0, n, size=d)))
    for g in range(n):
        unis = tuple(w @ np.diag(np.exp(2j * np.pi * q * g / n)) @ w.conj().T for w, q in bases)
        autos.append(Automorphism(structure, tuple(range(structure.num_blocks)), unis))
    return ActionTable(group, structure, tuple(autos))


@hst.composite
def nd_cases(draw):
    """A group of order <= 4 acting on <= 3 blocks of size <= 3, and a random
    non-central psi: symmetrized or not, and shifted towards negative
    definiteness by c (1 - delta_e) or not."""
    dims = tuple(draw(hst.lists(hst.integers(1, 3), min_size=1, max_size=3)))
    structure = BlockStructure(dims)
    group = draw(hst.sampled_from([1, 2, 3, 4, "klein"]))
    group = dihedral_group(2) if group == "klein" else cyclic_group(group)
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    kinds = ["trivial"]
    if group.name.startswith("cyclic"):
        kinds.append("unitary")
        if group.order % 2 == 0 and len(dims) > 1 and dims[0] == dims[1]:
            kinds.append("swap")
    kind = draw(hst.sampled_from(kinds))
    if kind == "trivial":
        table = trivial_action(group, structure)
    elif kind == "unitary":
        table = cyclic_unitary_action(group, structure, rng)
    else:
        rest = list(range(2, len(dims)))
        perms = [[0, 1] + rest if g % 2 == 0 else [1, 0] + rest for g in range(group.order)]
        table = block_permutation_action(group, structure, perms)
    n = group.order
    raw = [
        AlgebraElement(
            structure,
            [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims],
        )
        for _ in range(n)
    ]
    if draw(hst.booleans()):
        raw = [
            0.5 * (raw[s] + table.autos[s].apply(raw[group.inverse(s)]).adjoint())
            for s in range(n)
        ]
    shift = draw(hst.sampled_from([0.0, 20.0]))
    one = AlgebraElement.identity(structure)
    psi = [x + (0.0 if s == group.identity else shift) * one for s, x in enumerate(raw)]
    mode = draw(hst.sampled_from(["random", "sweep"]))
    trials = draw(hst.sampled_from([0, 1, 63, 64, 65, 200]))
    return psi, table, trials, draw(hst.integers(0, 1000)), mode


@settings(max_examples=60, deadline=None)
@given(nd_cases())
def test_negative_definite_check_matches_reference(case):
    psi, table, trials, seed, mode = case
    rep = negative_definite_check(psi, table, trials=trials, seed=seed, mode=mode)
    ref = reference_negative_definite_check(psi, table, trials=trials, seed=seed, mode=mode)
    assert_matches_reference(rep, ref)
    assert rep.mode == mode
    # every trial is the compressed form at some coefficients, so a negative
    # certificate keeps every trial at or below zero
    scale = max(float(np.max(np.abs(b))) for x in psi for b in x.blocks)
    if rep.exact_lambda_max < -1e-9 * scale:
        assert rep.worst_margin <= 1e-9 * scale
