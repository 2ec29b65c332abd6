"""Inner-product modules, cocycles, and negative definiteness for one group.

A vertex multiplier h is positive definite in the package's column
convention, ``alpha_{x_j}(h(x_i^-1 x_j))``, and :func:`gns_build` takes it
as it is: it certifies h with ``is_positive_definite`` and builds the module
of h~(s) = h(s^-1)*, which is positive definite in the row-twisted convention
``alpha_{x_i}(h~(x_i^-1 x_j))``.  Its row-twisted Gram matrix is the
conjugate transpose of h's column-twisted one, so the two certificates agree.
Everything below works on h~.

The module is represented concretely by its Gram matrix
``gram[s, t] = alpha_s(h~(s^-1 t))`` over the full group (no null-space
quotient is formed; all identities are checked through inner products).
Every quantity on this path is central: xi = delta_e has coefficient 1 and
alpha_s(1) = 1.  So the Gram matrix is an ``(n, n, K)`` array of block
scalars, a vector is an ``(n, K)`` array, and the left regular action
``(u_s v)(t) = alpha_s(v(s^-1 t))`` is one fancy index by the group table
and the block permutation of alpha_s.  It acts unitarily for the twisted
form (``<u_s f|u_s g> = alpha_s(<f|g>)``), and for unital h the vector xi
has ``<u_s xi | xi> = h~(s)``.  The associated cocycle ``b(s) = xi - u_s xi``
satisfies b(st) = b(s) + u_s b(t) and ``Q(s) = <b(s)|b(s)> = 2 - h~(s) -
h~(s)*``.  The first holds by construction once the module is built: it
says u_{st} = u_s u_t, which setup checks of the action.  The second
follows from <u_s xi|xi> = h~(s) and <xi|u_s xi> = h~(s)*, so it holds only
as far as the Gram matrix is Hermitian, which setup checks to 1e-8.

Negative definiteness of psi = Q (Schoenberg: every exp(-t psi) is then
positive definite) is checked on the same ``(n, K)`` block scalars: the
twisted matrix ``M_ij = alpha_{g_i}(psi(g_i^-1 g_j))`` is one row-twisted
gather, and block k of it is the ``(n, n, d_k, d_k)`` stack m_ij I_{d_k}.
Seeded random sum-zero coefficients are drawn and evaluated in fixed chunks
of trials, with the same stream and rounding as one trial at a time, and an
exact certificate compresses each block to the sum-zero subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ActionTable
from .errors import (
    NotFiniteError,
    NotPositiveError,
    NotUnitalError,
    StructureMismatchError,
    SupportEscapeError,
)
from .matalg import DEFAULT_POS_TOL, is_positive
from .multipliers import Multiplier, is_positive_definite


def _row_twisted(values: np.ndarray, table: ActionTable) -> np.ndarray:
    """The ``(n, n, K)`` gather ``alpha_s(h(s^-1 t))`` of ``(n, K)`` values."""
    group = table.group
    return values[group.table[group.inv][:, :, None], table.perms[:, None, :]]


class GNSModule:
    """Inner-product module of h~(s) = h(s^-1)* for a multiplier h.

    The support is always the whole (finite) group, so the twisted left
    regular action never escapes it.  ``scalars`` holds the ``(n, K)`` block
    scalars of h~, ``src[s, t] = s^-1 t`` and ``table.perms[s]`` is the
    index array of alpha_s on block scalars.
    """

    def __init__(self, h: Multiplier, table: ActionTable):
        group = h.group
        self.h = h
        self.table = table
        self.group = group
        self.structure = h.structure
        self.src = group.table[group.inv]
        self.scalars = h.scalars[group.inv].conj()
        self.gram = _row_twisted(self.scalars, table)
        self.lambda_min = None  # set once gns_build has certified h

    # -- vectors --

    def delta(self, g: int) -> np.ndarray:
        v = np.zeros((self.group.order, self.structure.num_blocks), dtype=np.complex128)
        v[g] = 1.0
        return v

    def inner(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Twisted form <f|g> = sum_{s,t} g(s)* gram[s,t] f(t), per block.

        A cumulative sum adds the terms one by one in (s, t) order to zero,
        so the rounding does not depend on how numpy would split a sum.
        """
        K = self.structure.num_blocks
        terms = ((g.conj()[:, None] * self.gram) * f[None, :]).reshape(-1, K)
        start = np.zeros((1, K), dtype=np.complex128)
        return np.cumsum(np.concatenate([start, terms]), axis=0)[-1]

    def u_action(self, s: int, v: np.ndarray) -> np.ndarray:
        """(u_s v)(t) = alpha_s(v(s^-1 t)), so <u_s f|u_s g> = alpha_s(<f|g>).

        ``v`` is one ``(n, K)`` vector or a stack of them.
        """
        if v.shape[-2:] != self.gram.shape[1:]:
            raise StructureMismatchError("vector has the wrong shape", shape=v.shape)
        if not (0 <= s < self.group.order):
            raise SupportEscapeError("group element outside the support", element=s)
        return v[..., self.src[s], :][..., self.table.perms[s]]


def gns_build(h: Multiplier, table: ActionTable) -> GNSModule:
    """Module of a multiplier that ``is_positive_definite`` certifies.

    Raises ``NotPositiveError`` when h is not positive definite relative to
    the action; ``lambda_min`` is the certified smallest eigenvalue.
    """
    ok, lam = is_positive_definite(h, table)
    if not ok:
        raise NotPositiveError(
            "Gram matrix of the multiplier is not positive", lambda_min=lam
        )
    module = GNSModule(h, table)
    module.lambda_min = lam
    return module


class Cocycle:
    """b(s) = xi - u_s xi for xi = delta_e, defined for unital multipliers.

    ``b`` is the ``(n, n, K)`` stack of the vectors b(s) and ``Q[s]`` the
    block scalars of <b(s)|b(s)>.
    """

    def __init__(self, module: GNSModule):
        self.module = module
        self.xi = module.delta(module.group.identity)
        n = module.group.order
        self.b = np.stack([self.xi - module.u_action(s, self.xi) for s in range(n)])
        self.Q = np.array([module.inner(bs, bs) for bs in self.b])


def cocycle_build(module: GNSModule) -> Cocycle:
    if not module.h.is_unital:
        raise NotUnitalError("cocycle needs a unital multiplier")
    return Cocycle(module)


def cocycle_identity_residual(c: Cocycle) -> float:
    """Worst coefficientwise residual of b(st) = b(s) + u_s b(t) over all pairs."""
    mod = c.module
    worst = 0.0
    for s in range(mod.group.order):
        rhs = c.b[s] + mod.u_action(s, c.b)  # row t: b(s) + u_s b(t)
        worst = max(worst, float(np.max(np.abs(c.b[mod.group.table[s]] - rhs))))
    return worst


def squared_norm_residual(c: Cocycle) -> float:
    """Worst deviation of <b(s)|b(s)> from 2 - h~(s) - h~(s)* over the group."""
    hv = c.module.scalars
    return float(np.max(np.abs(c.Q - (2.0 - hv - hv.conj()))))


@dataclass
class NDReport:
    ok: bool
    worst_margin: float
    symmetry_deviation: float
    trials: int
    exact_lambda_max: float


# Trials evaluated per batch: bounds the coefficient arrays a check holds at once.
_CHUNK = 64


def _draw(rng, dims, n, m):
    """m seeded coefficient tuples summing to zero, per block ``(m, n, d, d)``.

    One ``standard_normal`` call yields the stream of per-trial draws: per
    trial, per coefficient, per block, real then imaginary part.  The last
    coefficient is minus the sum of the others, added in order.
    """
    per_coeff = sum(2 * d * d for d in dims)
    raw = rng.standard_normal((m, n - 1, per_coeff))
    out, off = [], 0
    for d in dims:
        part = raw[:, :, off : off + 2 * d * d].reshape(m, n - 1, 2, d, d)
        off += 2 * d * d
        b = np.zeros((m, n, d, d), dtype=np.complex128)
        b[:, :-1] = part[:, :, 0] + 1j * part[:, :, 1]
        b[:, -1] = -1.0 * sum(b[:, c] for c in range(n - 1))
        out.append(b)
    return out


def _form_lambda_max(mk, bk) -> float:
    """Largest eigenvalue of Herm(sum_ij b_i* M_ij b_j) over a batch, in one block.

    ``mk`` is the block's ``(n, n, d, d)`` stack of M and ``bk`` holds the
    batch's ``(m, n, d, c)`` coefficients.  Terms are added pair by pair in
    the order of the single-trial sum, so each trial rounds as it would alone.
    """
    bh = bk.conj().swapaxes(-1, -2)
    acc = 0.0
    for i in range(mk.shape[0]):
        for j in range(mk.shape[0]):
            acc = acc + (bh[:, i] @ mk[i, j]) @ bk[:, j]
    herm = (acc + acc.conj().swapaxes(-1, -2)) / 2.0
    if not np.isfinite(herm).all():
        raise NotFiniteError("negative-definiteness form is not finite", shape=herm.shape)
    return float(np.max(np.linalg.eigvalsh(herm)))


def negative_definite_check(
    psi: np.ndarray, table: ActionTable, trials: int = 500, seed: int = 0
) -> NDReport:
    """Evidence and an exact certificate that psi is row-twisted negative definite.

    ``psi`` is the ``(n, K)`` array of block scalars of a central function.
    Checks the symmetry ``alpha_s(psi(s^-1)) = psi(s)*`` exactly, then
    evaluates the form ``sum_{i,j} b_i* alpha_{g_i}(psi(g_i^-1 g_j)) b_j``
    over tuples (g_i) = G with seeded random coefficients summing to zero,
    and records the largest eigenvalue of the Hermitian part (should stay
    below 1e-8).  The twisted matrix is held per block as an
    ``(n, n, d_k, d_k)`` stack; trials are evaluated ``_CHUNK`` at a time
    with batched products and eigensolves.

    The exact certificate ``exact_lambda_max`` is the form at the
    coefficients V (x) I_{d_k}, V an orthonormal basis of {sum c_i = 0}: the
    largest eigenvalue over blocks of the compressed Hermitian matrix, which
    is <= 0 exactly when the form is for all sum-zero coefficients (a
    projector in place of V would add a spurious 0 eigenvalue).  ``ok``
    requires the trials, the certificate and the symmetry to pass.
    """
    group = table.group
    dims = table.structure.block_dims
    n = group.order
    # M[i, j] = alpha_{g_i}(psi(g_i^-1 g_j)); M[s, e] = alpha_s(psi(s^-1))
    M = _row_twisted(psi, table)
    sym_dev = float(np.max(np.abs(M[:, group.identity] - psi.conj())))
    stacks = [M[:, :, k, None, None] * np.eye(d) for k, d in enumerate(dims)]
    exact = 0.0  # the trivial group's sum-zero subspace is zero
    if n > 1:
        V = np.zeros((n, n - 1))  # Helmert columns (1, ..., 1, -a, 0, ...) / |.|
        for a in range(1, n):
            V[: a + 1, a - 1] = np.append(np.ones(a), -a) / np.sqrt(a * (a + 1))
        exact = max(
            _form_lambda_max(mk, np.kron(V, np.eye(d)).reshape(1, n, d, -1))
            for mk, d in zip(stacks, dims)
        )
    rng = np.random.default_rng(seed)
    worst = -np.inf
    count = 0
    for start in range(0, trials, _CHUNK):
        m = min(_CHUNK, trials - start)
        bs = _draw(rng, dims, n, m)
        worst = max(worst, *(_form_lambda_max(mk, bk) for mk, bk in zip(stacks, bs)))
        count += m
    if count == 0:
        worst = 0.0
    return NDReport(
        ok=(worst <= 1e-8 and exact <= 1e-8 and sym_dev <= 1e-10),
        worst_margin=float(worst),
        symmetry_deviation=sym_dev,
        trials=count,
        exact_lambda_max=exact,
    )


def schoenberg_multiplier(c: Cocycle, t: float) -> np.ndarray:
    """The ``(n, K)`` block scalars of s -> exp(-t Q(s)^2), row convention."""
    return np.exp(-t * (c.Q * c.Q))


def schoenberg_is_pd(c: Cocycle, t: float):
    """Positivity of the Schoenberg multiplier, in the row convention.

    The row-twisted stack R is certified directly: the column-twisted stack
    of the flipped multiplier is R*, which symmetrizes to the same matrix.
    """
    gram = _row_twisted(schoenberg_multiplier(c, t), c.module.table)
    return is_positive(np.moveaxis(gram, -1, 0), tol=DEFAULT_POS_TOL)
