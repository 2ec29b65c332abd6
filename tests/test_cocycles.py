"""Modules, cocycles, Schoenberg multipliers, negative definiteness.

The package runs the module layer on ``(n, K)`` arrays of block scalars.
The generic module layer it replaced is kept below as the oracle: an
algebra element is a list of dense blocks, vectors are coefficient lists,
the action is applied with its unitaries, and the Gram matrix is certified
in its flattened layout.
"""

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
    squared_norm_residual,
)
from gpmult.dynamics import (
    ActionTable,
    Automorphism,
    block_permutation_action,
    diagonal_phase_action,
    trivial_action,
    validate_action,
)
from gpmult.errors import (
    GPMultError,
    NotFiniteError,
    NotPositiveError,
    NotUnitalError,
    StructureMismatchError,
    SupportEscapeError,
)
from gpmult.graphgroup import cyclic_group, dihedral_group
from gpmult.matalg import BlockStructure, CentralElement, OperatorMatrix, is_positive
from gpmult.multipliers import Multiplier, is_positive_definite
from gpmult.verifier import run_all, verify_cocycles
from support import apply_auto, apply_central, blocks_diff, convention_flip

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


def embed(structure, scalars) -> list:
    """Block scalars as the blocks z_k I_{d_k} of an algebra element."""
    return [z * np.eye(d) for z, d in zip(np.asarray(scalars, dtype=np.complex128), structure.block_dims)]


def zero(structure) -> list:
    return [np.zeros((d, d), dtype=np.complex128) for d in structure.block_dims]


def adjoint(a) -> list:
    return [x.conj().T for x in a]


def block_diag(a) -> np.ndarray:
    """The blocks of an element as one block-diagonal matrix."""
    T = sum(len(x) for x in a)
    out = np.zeros((T, T), dtype=np.complex128)
    off = 0
    for x in a:
        out[off : off + len(x), off : off + len(x)] = x
        off += len(x)
    return out


def as_coefficients(structure, v):
    """An ``(n, K)`` array of block scalars as a list of algebra elements."""
    return [embed(structure, x) for x in v]


def test_gram_matches_classical_circulant():
    """With trivial action on C the Gram matrix is the classical [h(s^-1 t)]."""
    h, mod = z4_module()
    hv = np.array([1.0, 0.5, 0.2, 0.5])
    classical = np.array([[hv[(t - s) % 4] for t in range(4)] for s in range(4)])
    assert mod.gram.shape == (4, 4, 1)
    assert np.max(np.abs(classical - mod.gram[:, :, 0])) == 0.0
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
        assert v.shape == (1,)
        assert abs(v[0] - hv[s]) < 1e-14


def test_u_action_preserves_the_form():
    _, mod = z4_module()
    f, g = mod.delta(1), mod.delta(2)
    lhs = mod.inner(mod.u_action(3, f), mod.u_action(3, g))
    assert np.max(np.abs(lhs - mod.inner(f, g))) < 1e-14


def test_u_action_rejects_elements_and_vectors_outside_the_module():
    """A negative index would otherwise wrap around to another element."""
    _, mod = z4_module()
    v = mod.delta(1)
    for s in (-1, 4):
        with pytest.raises(SupportEscapeError):
            mod.u_action(s, v)
    with pytest.raises(StructureMismatchError):
        mod.u_action(1, np.zeros((3, 1), dtype=complex))


def test_cocycle_residuals_vanish():
    _, mod = z4_module()
    c = cocycle_build(mod)
    assert c.b.shape == (4, 4, 1) and c.Q.shape == (4, 1)
    assert cocycle_identity_residual(c) <= 1e-12
    assert squared_norm_residual(c) <= 1e-12
    assert np.max(np.abs(c.Q[0])) == 0.0  # b(e) = 0


def test_cocycle_needs_unital_multiplier():
    z2 = cyclic_group(2)
    mod = gns_build(scalar_multiplier(z2, 0.9, 0.3), trivial_action(z2, SCALAR))
    with pytest.raises(NotUnitalError):
        cocycle_build(mod)


def test_a_non_hermitian_vertex_fails_only_its_own_cocycle_identity():
    """Two free Z/2 vertices: a with h = (1, 0.5), and b with h(g) = 0.3 +
    0.1i on its involution g, so b's Gram matrix is not Hermitian.  b's
    ``gns_build`` raises ``NotHermitianError``, which fails b's
    cocycle-identity alone; a's four checks are still reported, and pass."""
    cfg = {
        "graph": {"vertices": ["a", "b"]},
        "groups": {v: {"preset": "cyclic", "n": 2} for v in "ab"},
        "algebra": {"blocks": [1]},
        "actions": {v: {"preset": "trivial"} for v in "ab"},
        "multipliers": {"a": {"values": [1, 0.5]}, "b": {"values": [1, [[0.3, 0.1]]]}},
    }
    checks = run_all(build_scenario(cfg), suites=("cocycles",))["checks"]
    kinds = ("cocycle-identity", "cocycle-norm-identity", "schoenberg-positivity", "negative-definiteness")
    assert [c["name"] for c in checks] == [f"vertex-a/{k}" for k in kinds] + ["vertex-b/cocycle-identity"]
    assert all(c["pass"] for c in checks[:4])
    assert not checks[4]["pass"] and checks[4]["details"]["error"] == "not_hermitian"


def test_cocycle_on_block_swapping_action():
    """Residuals also vanish when the action permutes blocks."""
    st = BlockStructure((1, 1))
    z2 = cyclic_group(2)
    swap = block_permutation_action(z2, st, [[0, 1], [1, 0]])
    h = Multiplier(z2, st, (CentralElement.one(st), CentralElement(st, [0.4, 0.4])))
    c = cocycle_build(gns_build(h, swap))
    assert cocycle_identity_residual(c) <= 1e-12
    assert squared_norm_residual(c) <= 1e-12
    assert np.allclose(c.Q[1], [1.2, 1.2])  # 2 - 2 h(g)


def test_schoenberg_values_and_positivity():
    _, mod = z4_module()
    c = cocycle_build(mod)
    sm = schoenberg_multiplier(c, 0.5)
    hv = np.array([1.0, 0.5, 0.2, 0.5])
    expected = np.exp(-0.5 * (2 - 2 * hv) ** 2)
    assert sm.shape == (4, 1)
    got = sm[:, 0].real
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
        gap = float(np.max(np.abs(schoenberg_multiplier(c, t) - 1.0)))
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
    q = c.Q[:, 0].real
    assert np.allclose(q, [0.0, 1.0, 1.6, 1.0])
    for t in (0.01, 0.1, 1.0, 10.0):
        assert np.fft.fft(np.exp(-t * q)).real.min() > -1e-12


def test_negative_definite_check_accepts_squared_norms():
    z4 = cyclic_group(4)
    _, mod = z4_module()
    c = cocycle_build(mod)
    rep = negative_definite_check(c.Q, trivial_action(z4, SCALAR), trials=200, seed=5)
    assert rep.ok
    assert rep.worst_margin < 0  # strictly inside for these coefficients
    assert rep.symmetry_deviation == 0.0
    assert rep.trials == 200


def test_negative_definite_check_rejects_positive_definite_function():
    """A pd multiplier itself makes the form positive - the check must say no."""
    z4 = cyclic_group(4)
    h, _ = z4_module()
    rep = negative_definite_check(h.scalars, trivial_action(z4, SCALAR), trials=200, seed=5)
    assert not rep.ok
    assert rep.worst_margin > 1.0
    assert rep.exact_lambda_max > 0


def test_negative_definite_check_rejects_an_overflowing_form():
    z2 = cyclic_group(2)
    psi = np.array([[0.0], [1.7e308]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotFiniteError):
            negative_definite_check(psi, trivial_action(z2, SCALAR), trials=0)


def test_negative_definite_check_flags_broken_symmetry():
    z4 = cyclic_group(4)
    h = scalar_multiplier(z4, 1.0, 0.5, 0.2, 0.3)  # h(3) != conj(h(1))
    rep = negative_definite_check(h.scalars, trivial_action(z4, SCALAR), trials=10, seed=5)
    assert not rep.ok
    assert abs(rep.symmetry_deviation - 0.2) < 1e-14


def test_exact_certificate_fails_without_trials():
    """With no trial drawn, the exact certificate alone rejects a pd function."""
    z4 = cyclic_group(4)
    h, _ = z4_module()
    rep = negative_definite_check(h.scalars, trivial_action(z4, SCALAR), trials=0, seed=5)
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
    rep = negative_definite_check(c.Q, trivial_action(z4, SCALAR), trials=1, seed=5)
    q = [0.0, 1.0, 1.6, 1.0]
    assert abs(rep.exact_lambda_max - np.fft.fft(q).real[1:].max()) < 1e-12
    assert abs(rep.exact_lambda_max + 0.4) < 1e-12
    assert rep.ok


# ----------------------------------------------------------------------
# the per-trial evaluation on dense blocks, kept as the reference


def reference_negative_definite_check(psi, table, trials=500, seed=0, tol=1e-8):
    """One trial at a time with generic algebra arithmetic and a dense eigensolve.

    ``psi`` lists one algebra element (a list of blocks) per group element.  Returns
    ``(ok, worst_margin, symmetry_deviation, trials, exact_lambda_max)``; the
    certificate compresses each block's dense ``(n d_k, n d_k)`` matrix to
    the sum-zero subspace through an orthonormal basis from a QR
    factorization, not the package's Helmert basis.
    """
    group = table.group
    structure = table.structure
    n = group.order
    psi = [psi[g] for g in range(n)]
    sym_dev = 0.0
    for s in range(n):
        lhs = apply_auto(table.autos[s], psi[group.inverse(s)])
        sym_dev = max(sym_dev, blocks_diff(lhs, adjoint(psi[s])))
    M = [
        [apply_auto(table.autos[i], psi[group.table[group.inv[i], j]]) for j in range(n)]
        for i in range(n)
    ]

    def form_lambda_max(bs) -> float:
        acc = zero(structure)
        for i in range(n):
            bi = adjoint(bs[i])
            for j in range(n):
                acc = [a + x @ m @ y for a, x, m, y in zip(acc, bi, M[i][j], bs[j])]
        dense = block_diag(acc)
        herm = (dense + dense.conj().T) / 2.0
        return float(np.linalg.eigvalsh(herm)[-1])

    exact = 0.0  # the trivial group's sum-zero subspace is zero
    if n > 1:
        basis = np.linalg.qr(np.eye(n)[:, :-1] - np.eye(n)[:, 1:])[0]
        tops = []
        for k, d in enumerate(structure.block_dims):
            dense = np.block([[M[i][j][k] for j in range(n)] for i in range(n)])
            p = np.kron(basis, np.eye(d))
            comp = p.T @ dense @ p
            tops.append(float(np.linalg.eigvalsh((comp + comp.conj().T) / 2.0)[-1]))
        exact = max(tops)
    worst = -np.inf
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        bs = []
        for _ in range(n - 1):
            blocks = [
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in structure.block_dims
            ]
            bs.append(blocks)
        total = zero(structure)
        for b in bs:
            total = [t + x for t, x in zip(total, b)]
        bs.append([-1.0 * t for t in total])
        worst = max(worst, form_lambda_max(bs))
    count = max(trials, 0)
    if count == 0:
        worst = 0.0
    ok = worst <= tol and exact <= tol and sym_dev <= 1e-10
    return ok, float(worst), sym_dev, count, exact


def assert_matches_reference(rep, ref):
    """The central check against the reference on the embedded values."""
    ok, worst, sym_dev, count, exact = ref
    assert rep.ok == ok and rep.trials == count
    assert abs(rep.worst_margin - worst) <= 1e-12 * (1.0 + abs(worst))
    assert abs(rep.exact_lambda_max - exact) <= 1e-12 * (1.0 + abs(exact))
    assert abs(rep.symmetry_deviation - sym_dev) <= 1e-12 * (1.0 + sym_dev)


def exact_unitaries(table) -> bool:
    """Whether every automorphism of the table conjugates by identity matrices,
    so that the reference's u (z I) u* is z I without rounding."""
    return all(np.array_equal(u, np.eye(len(u))) for a in table.autos for u in a.unitaries)


def vertex_functions(name):
    """(vertex, psi, table, trials, seed, built) as the cocycle suite checks them.

    A vertex whose module or cocycle cannot be built (``built`` false; the
    suite stops before the check there) gets 2 - h - h*, the squared norm
    its cocycle would have.
    """
    sc = build_scenario(load_config(str(SCENARIO_DIR / f"{name}.json")))
    for v in range(sc.system.words.graph.n):
        h = sc.system.multipliers[v]
        table = sc.system.actions.tables[v]
        try:
            psi = cocycle_build(gns_build(h, table)).Q
            built = True
        except (NotPositiveError, NotUnitalError):
            hv = convention_flip(h).scalars
            psi = 2.0 - hv - hv.conj()
            built = False
        yield v, psi, table, sc.nd_trials, sc.seed + 7 * v, built


@pytest.mark.parametrize("name", SCENARIOS)
def test_negative_definite_check_matches_reference_on_scenarios(name):
    for v, psi, table, trials, seed, built in vertex_functions(name):
        rep = negative_definite_check(psi, table, trials=trials, seed=seed)
        elements = as_coefficients(table.structure, psi)
        ref = reference_negative_definite_check(elements, table, trials=trials, seed=seed)
        assert_matches_reference(rep, ref)
        if exact_unitaries(table):
            # the same twisted matrix, added pair by pair in the single-trial
            # order: the reported residual keeps every bit
            assert rep.worst_margin == ref[1], (name, v)
        # a cocycle's squared norm is negative definite and exactly symmetric;
        # a non-pd h's is not negative definite
        assert rep.ok is built, (name, v)
        assert (rep.exact_lambda_max <= 1e-8) is built, (name, v)
        if built:
            assert rep.symmetry_deviation == 0.0, (name, v)


@pytest.mark.parametrize("name", SCENARIOS)
def test_cocycle_identity_verdict_is_the_vertex_certificate(name):
    """``cocycle-identity`` passes exactly when ``is_positive_definite``
    certifies the unital vertex multiplier, and then its residual is 0.0
    and its ``module_lambda_min`` the certificate's least eigenvalue."""
    sc = build_scenario(load_config(str(SCENARIO_DIR / f"{name}.json")))
    results = {r.name: r for r in verify_cocycles(sc)}
    for v, vid in enumerate(sc.system.words.graph.vertices):
        h = sc.system.multipliers[v]
        ok, lam = is_positive_definite(h, sc.system.actions.tables[v])
        check = results[f"vertex-{vid}/cocycle-identity"]
        assert check.passed == (ok and h.is_unital), (name, vid)
        if check.passed:
            assert check.residual == 0.0, (name, vid)
            assert check.details == {"module_lambda_min": lam}, (name, vid)


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
    central psi as an ``(n, K)`` array: symmetrized or not, and shifted
    towards negative definiteness by c (1 - delta_e) or not."""
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
    psi = rng.standard_normal((n, len(dims))) + 1j * rng.standard_normal((n, len(dims)))
    if draw(hst.booleans()):
        # alpha_s(psi(s^-1)) = psi(s)*, with alpha_s the index array perms[s]
        flipped = psi[group.inv[:, None], table.perms].conj()
        psi = 0.5 * (psi + flipped)
    shift = np.full(n, draw(hst.sampled_from([0.0, 20.0])))
    shift[group.identity] = 0.0
    psi = psi + shift[:, None]
    trials = draw(hst.sampled_from([0, 1, 63, 64, 65, 200]))
    return psi, table, trials, draw(hst.integers(0, 1000))


@settings(max_examples=60, deadline=None)
@given(nd_cases())
def test_negative_definite_check_matches_reference(case):
    psi, table, trials, seed = case
    rep = negative_definite_check(psi, table, trials=trials, seed=seed)
    elements = as_coefficients(table.structure, psi)
    assert_matches_reference(rep, reference_negative_definite_check(elements, table, trials, seed))
    # every trial is the compressed form at some coefficients, so a negative
    # certificate keeps every trial at or below zero
    scale = float(np.max(np.abs(psi)))
    if rep.exact_lambda_max < -1e-9 * scale:
        assert rep.worst_margin <= 1e-9 * scale


# ----------------------------------------------------------------------
# the module layer on dense blocks, kept as the oracle


class OracleModule:
    """Module of a row-convention multiplier with dense algebra coefficients.

    A vector is a list of one algebra element (a list of blocks) per group element; the
    action applies each automorphism with its unitaries, and the Gram matrix
    is certified in its flattened ``(nT) x (nT)`` layout.
    """

    def __init__(self, h, table, tol=1e-9):
        group = h.group
        n = group.order
        self.h, self.table, self.group, self.structure = h, table, group, h.structure
        grid = [
            [apply_central(table.autos[s], h.values[group.table[group.inv[s], t]])
             for t in range(n)]
            for s in range(n)
        ]
        flat = OperatorMatrix.from_central_grid(h.structure, grid).flatten()
        ok, self.lambda_min = is_positive(flat, tol=tol)
        if not ok:
            raise NotPositiveError("Gram matrix of the multiplier is not positive")
        self.gram = [[embed(h.structure, c.scalars) for c in row] for row in grid]

    def delta(self, g):
        v = [zero(self.structure) for _ in range(self.group.order)]
        v[g] = embed(self.structure, np.ones(self.structure.num_blocks))
        return v

    def inner(self, f, g):
        out = zero(self.structure)
        for s in range(self.group.order):
            gs = adjoint(g[s])
            for t in range(self.group.order):
                out = [o + x @ m @ y for o, x, m, y in zip(out, gs, self.gram[s][t], f[t])]
        return out

    def u_action(self, s, v):
        s_inv = self.group.inverse(s)
        auto = self.table.autos[s]
        return [apply_auto(auto, v[self.group.table[s_inv, t]]) for t in range(self.group.order)]


def coefficient_diff(u, v):
    """Largest entrywise difference of two coefficient lists."""
    return max(blocks_diff(a, b) for a, b in zip(u, v))


def oracle_cocycle(mod):
    """(Q, cocycle-identity residual, squared-norm residual) of xi = delta_e."""
    n = mod.group.order
    xi = mod.delta(mod.group.identity)
    b = [[[p - q for p, q in zip(x, y)] for x, y in zip(xi, mod.u_action(s, xi))] for s in range(n)]
    Q = [mod.inner(bs, bs) for bs in b]
    res = 0.0
    for s in range(n):
        for t in range(n):
            rhs = [[p + q for p, q in zip(x, y)] for x, y in zip(b[s], mod.u_action(s, b[t]))]
            res = max(res, coefficient_diff(b[mod.group.table[s, t]], rhs))
    res2 = 0.0
    for s in range(n):
        hs = embed(mod.structure, mod.h.values[s].scalars)
        want = [2.0 * np.eye(len(x)) - x - x.conj().T for x in hs]
        res2 = max(res2, blocks_diff(Q[s], want))
    return Q, res, res2


def oracle_schoenberg(Q, t):
    """exp(-t Q(s)^2) per block, after checking that every Q(s) is central."""
    out = []
    for q in Q:
        scalars = []
        for blk in q:
            d = blk.shape[0]
            z = np.trace(blk) / d
            assert np.linalg.norm(blk - z * np.eye(d)) <= 1e-9
            scalars.append(z)
        qc = np.array(scalars)
        out.append(np.exp(-t * (qc * qc)))
    return np.array(out)


def outcome(build):
    """(value, None) or (None, error class) of a build that may raise."""
    try:
        return build(), None
    except GPMultError as err:
        return None, type(err)


def assert_matches_oracle(h, table):
    """The module of a multiplier h against the oracle module of its flip."""
    mod, err = outcome(lambda: gns_build(h, table))
    ref, ref_err = outcome(lambda: OracleModule(convention_flip(h), table))
    assert err is ref_err
    if err is not None:
        return
    assert abs(mod.lambda_min - ref.lambda_min) <= 1e-12 * (1.0 + abs(ref.lambda_min))
    # the action and the form on vectors that are not block-constant, where
    # the block permutation of each alpha_s shows
    st = h.structure
    f, g = np.random.default_rng(0).standard_normal((2, h.group.order, st.num_blocks, 2)) @ [1, 1j]
    scale = 1.0 + float(np.max(np.abs(mod.gram)))
    for s in range(h.group.order):
        us_f = as_coefficients(st, mod.u_action(s, f))
        assert coefficient_diff(us_f, ref.u_action(s, as_coefficients(st, f))) <= 1e-12
        # <u_s f|u_s g> = alpha_s(<f|g>)
        form = mod.inner(mod.u_action(s, f), mod.u_action(s, g))
        assert np.max(np.abs(form - mod.inner(f, g)[table.autos[s]._perm_inv])) <= 1e-12 * scale
    ref_form = ref.inner(as_coefficients(st, f), as_coefficients(st, g))
    assert coefficient_diff([ref_form], as_coefficients(st, [mod.inner(f, g)])) <= 1e-12 * scale
    c, c_err = outcome(lambda: cocycle_build(mod))
    if c_err is not None:
        assert c_err is NotUnitalError
        return
    Q, res, res2 = oracle_cocycle(ref)
    assert coefficient_diff(Q, as_coefficients(st, c.Q)) <= 1e-12
    for t in (0.1, 1.0, 10.0):
        sch = schoenberg_multiplier(c, t)
        assert np.max(np.abs(sch - oracle_schoenberg(Q, t))) <= 1e-12
    assert res <= 1e-12 and res2 <= 1e-12
    assert cocycle_identity_residual(c) <= 1e-12
    assert squared_norm_residual(c) <= 1e-12


@pytest.mark.parametrize("name", SCENARIOS)
def test_module_layer_matches_the_oracle_on_scenarios(name):
    sc = build_scenario(load_config(str(SCENARIO_DIR / f"{name}.json")))
    for v in range(sc.system.words.graph.n):
        assert_matches_oracle(sc.system.multipliers[v], sc.system.actions.tables[v])


def row_hermitian_values(group, table, rng, scale):
    """Unital values with h(u^-1) = alpha_{u^-1}(h(u))*, so the Gram matrix
    is Hermitian; off-identity values have size about ``scale``."""
    K = table.structure.num_blocks
    perm = [a._perm_inv for a in table.autos]
    vals = [None] * group.order
    for u in range(group.order):
        ui = group.inverse(u)
        x = scale * (rng.standard_normal(K) + 1j * rng.standard_normal(K))
        if u == group.identity:
            vals[u] = np.ones(K, dtype=complex)
        elif ui == u:
            vals[u] = (x + x[perm[u]].conj()) / 2.0
        elif u < ui:
            vals[u], vals[ui] = x, x[perm[ui]].conj()
    return vals


@hst.composite
def module_cases(draw):
    """A cyclic or dihedral group of order <= 6 acting trivially, by swapping
    blocks 0 and 1, or by diagonal phases on K <= 3 blocks of size <= 2,
    with a unital row-Hermitian multiplier that may or may not be pd."""
    kind, m = draw(hst.sampled_from(
        [("cyclic", m) for m in range(1, 7)] + [("dihedral", m) for m in range(1, 4)]
    ))
    group = cyclic_group(m) if kind == "cyclic" else dihedral_group(m)
    # a character chi: G -> Z_q, the rotation index or the reflection bit
    q = m if kind == "cyclic" else 2
    chi = [g % q if kind == "cyclic" else g // m for g in range(group.order)]
    dims = draw(hst.lists(hst.integers(1, 2), min_size=1, max_size=3))
    actions = ["trivial", "phase"]
    if len(dims) > 1 and q % 2 == 0:
        actions.append("swap")
    action = draw(hst.sampled_from(actions))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    if action == "swap":
        dims[1] = dims[0]
    structure = BlockStructure(tuple(dims))
    if action == "trivial":
        table = trivial_action(group, structure)
    elif action == "swap":
        rest = list(range(2, len(dims)))
        perms = [([1, 0] if chi[g] % 2 else [0, 1]) + rest for g in range(group.order)]
        table = block_permutation_action(group, structure, perms)
    else:
        freqs = [rng.integers(0, q, size=d) for d in dims]
        phases = [[2 * np.pi * f * chi[g] / q for f in freqs] for g in range(group.order)]
        table = diagonal_phase_action(group, structure, phases)
    validate_action(table)
    scale = draw(hst.sampled_from([0.0, 0.1, 0.3, 1.0]))
    vals = row_hermitian_values(group, table, rng, scale)
    h = Multiplier(group, structure, tuple(CentralElement(structure, v) for v in vals))
    return h, table


@settings(max_examples=80, deadline=None)
@given(module_cases())
def test_module_layer_matches_the_oracle(case):
    h_row, table = case
    assert_matches_oracle(convention_flip(h_row), table)
