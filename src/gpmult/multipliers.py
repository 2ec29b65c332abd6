"""Positive definite multipliers, their graph products, and kernels.

A multiplier assigns a central algebra element to each element of a finite
group.  Positive definiteness is relative to an action: the matrix with
entries ``alpha_{x_j}(h(x_i^-1 x_j))`` over a tuple of group elements must be
positive in the matrix algebra over A.  The graph product of one multiplier
per vertex is evaluated on reduced expressions by twisting each letter's
value with the inverse action of its right tail and multiplying; when the
per-edge commutation requirements hold (adjacent actions commute as maps, and
each vertex action fixes the multipliers of its neighbours), the value does
not depend on the chosen expression.  Values are held as the read-only
``(n, K)`` array ``scalars``, and on central values each twist is an index
array.  The kernel ``K(x, y) = alpha_y(h(x^-1 y))`` is positive on all
finite tuples exactly when h is positive definite, and the identities
verified in :mod:`gpmult.verifier` are all phrased through K.

Values and actions of words are rows of ``(N, K)`` arrays V and P, computed
from the right by one prefix recursion, value(x' l) = value(x')[p(l^-1)] *
h(l) and P[x' l] = p(l)[P[x']], p(l) the index array of the letter's action;
an index array distributes over elementwise products, so this is bit-equal
to the left-to-right product.  ``tree_rows`` takes one step per length over
a prefix tree of arrays from :mod:`gpmult.wordcraft`: a ball, or its
expression table, which lists every reduced expression of every ball word,
so rearrangement independence and the witness bound are read off rows.
The interned words are such a tree too, each id with its length, and get
rows in a growing cache, the new ids one length at a time; a kernel matrix
over x_0, ..., x_{n-1} is one gather ``G[k, i, j] = V[prod[i, j], P[x_j,
k]]``, prod the ids of the products x_i^-1 x_j from the successor memo,
x_i^-1 walked from x_i's letters; many families share one fill, and those
of one size one gather.  Rows and stacks are in the system's dtype, fixed from the
vertex values when it is built: float64 when every value is finite and
real, complex128 otherwise.  Actions only permute block scalars, so real
values give real rows and kernel stacks, bit-equal to the real parts of
complex arithmetic; the central elements handed out stay complex128.  The
identity ball's stack takes its products and the rows of ball(2r) from the
ball arrays, so it interns no word.  ``ball_stack``
returns it as one record, ``BallStack``, with the tables the checks read:
the ball's inverse indices and value rows, the products Q[a, y] = a y
as ball(2r) indices and the action rows of ball(2r).  A stack over left
translates c u_0, ..., c u_{m-1} of ball words is one more gather from
it, with no word and no covariance of the action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import ActionSystem, ActionTable
from .errors import (
    BadIdentityValueError,
    ContextMismatchError,
    EdgeViolationError,
    HypothesisViolatedError,
    NormTooLargeError,
    NotUnitalError,
    StructureMismatchError,
)
from .graphgroup import FiniteGroup
from .matalg import DEFAULT_POS_TOL, BlockStructure, CentralElement, is_positive
from .wordcraft import DEFAULT_BUDGET, GPElement

UNITAL_TOL = 1e-12
COMMUTE_TOL = 1e-12
WELL_DEFINED_TOL = 1e-10
# entries per chunk of a gather over ball rows
GATHER_ELEMENTS = 1 << 21


@dataclass(frozen=True, eq=False)
class Multiplier:
    """Central-valued function on a finite group; row g of ``scalars`` holds
    the block scalars of ``values[g]``."""

    group: FiniteGroup
    structure: BlockStructure
    values: tuple  # one CentralElement per group element
    scalars: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.values) != self.group.order:
            raise StructureMismatchError(
                "need one value per group element",
                expected=self.group.order,
                got=len(self.values),
            )
        for v in self.values:
            if v.structure != self.structure:
                raise StructureMismatchError("value has wrong structure")
        scalars = np.array([v.scalars for v in self.values], dtype=np.complex128)
        scalars.flags.writeable = False
        object.__setattr__(self, "scalars", scalars)

    @property
    def is_unital(self) -> bool:
        return float(np.abs(self.scalars[self.group.identity] - 1.0).max()) <= UNITAL_TOL

    def off_identity_sup(self) -> float:
        """Largest block scalar modulus off the identity; NaN if any is NaN."""
        off = np.abs(np.delete(self.scalars, self.group.identity, axis=0))
        return float(off.max()) if off.size else 0.0


def delta_multiplier(group: FiniteGroup, structure: BlockStructure) -> Multiplier:
    """1 at the identity, 0 elsewhere; positive definite for every action."""
    vals = [
        CentralElement.one(structure)
        if g == group.identity
        else CentralElement.zero(structure)
        for g in range(group.order)
    ]
    return Multiplier(group, structure, tuple(vals))


def geometric_multiplier(group: FiniteGroup, structure: BlockStructure, c: float) -> Multiplier:
    """c^(cyclic distance to the identity) on a cyclic group.

    Only defined for the cyclic presets, where element k has distance
    min(k, n-k) to the identity.
    """
    n = group.order
    idx = np.arange(n)
    expected = (idx[:, None] + idx[None, :]) % n
    if not np.array_equal(group.table, expected):
        raise StructureMismatchError("geometric preset needs a cyclic group table")
    vals = [
        CentralElement.constant(structure, complex(c) ** min(k, n - k))
        for k in range(n)
    ]
    return Multiplier(group, structure, tuple(vals))


def is_positive_definite(h: Multiplier, table: ActionTable):
    """Positive definiteness of a multiplier relative to an action.

    Gathers the matrix with entries ``alpha_{x_j}(h(x_i^-1 x_j))`` over the
    whole group as the ``(K, n, n)`` stack of block scalar matrices
    ``h.scalars[x_i^-1 x_j, perms[x_j, k]]`` and certifies every block.
    Returns ``(ok, lambda_min)``.
    """
    if table.group is not h.group or table.structure != h.structure:
        raise ContextMismatchError("multiplier and action do not match")
    prod = h.group.table[h.group.inv]  # prod[i, j] = i^-1 j
    stack = h.scalars[prod[None, :, :], table.perms.T[:, None, :]]
    return is_positive(stack, tol=DEFAULT_POS_TOL)


def unitalize(h: Multiplier) -> Multiplier:
    """Replace the identity value by 1, keeping all other values.

    Requires every off-identity value to have norm at most 1/2 and the
    identity value to be positive and at most 1; under those constraints the
    result of a positive definite multiplier is again positive definite.
    """
    e = h.group.identity
    tol = UNITAL_TOL
    sup = h.off_identity_sup()
    # both conditions are written so that a NaN fails them
    if not sup <= 0.5 + tol:
        raise NormTooLargeError(
            "off-identity values must have norm at most 1/2", sup=sup
        )
    he = h.scalars[e]
    if not np.all((np.abs(he.imag) <= tol) & (-tol <= he.real) & (he.real <= 1 + tol)):
        raise BadIdentityValueError(
            "identity value must satisfy 0 <= h(e) <= 1", value=list(he)
        )
    vals = list(h.values)
    vals[e] = CentralElement.one(h.structure)
    return Multiplier(h.group, h.structure, tuple(vals))


@dataclass
class WellDefinedReport:
    ok: bool
    max_deviation: float
    word: tuple | None
    checked_words: int
    checked_expressions: int


@dataclass
class WitnessReport:
    ok: bool
    max_off_norm: float
    threshold: float
    f_size: int
    ball_size: int


class MultiplierSystem:
    """A full graph-product setup: words, actions, and one multiplier per vertex."""

    def __init__(self, actions: ActionSystem, multipliers):
        multipliers = tuple(multipliers)
        words = actions.words
        if len(multipliers) != words.graph.n:
            raise StructureMismatchError("need one multiplier per vertex")
        for v, h in enumerate(multipliers):
            if h.group is not words.groups[v]:
                raise ContextMismatchError("multiplier group mismatch", vertex=v)
            if h.structure != actions.structure:
                raise StructureMismatchError("multiplier on wrong structure", vertex=v)
        self.actions = actions
        self.words = words
        self.structure = actions.structure
        self.multipliers = multipliers
        self._kernel = KernelTable(self)
        self._ball_stacks: dict = {}  # radius -> BallStack
        # per letter slot of the word context: the index arrays of the
        # letter's action and of the inverse letter's, and the letter's value
        # (the identity's at an identity slot, which no letter uses)
        K = self.structure.num_blocks
        self._slot_actions = np.array(
            [p for t in actions.tables for p in t.perms], dtype=np.int32
        ).reshape(-1, K)
        self._slot_perms = np.array(
            [p for t in actions.tables for p in t.perms[t.group.inv]], dtype=np.intp
        ).reshape(-1, K)
        values = np.array(
            [v for h in multipliers for v in h.scalars], dtype=np.complex128
        ).reshape(-1, K)
        # the system's dtype: real when every value is finite and real (with
        # an infinite value, complex arithmetic makes NaN of inf * 0 in an
        # imaginary part where real arithmetic gives a number)
        if np.isfinite(values).all() and not values.imag.any():
            values = values.real.copy()
        self.dtype = values.dtype
        self._slot_values = values
        self._value_cache = _ValueRows(K, self.dtype)

    # ------------------------------------------------------------------
    # setup validation

    def validate(self) -> None:
        """Run every setup check; raises on the first failure."""
        self.actions.validate_actions()
        self.actions.setup_commutes_per_graph()
        for v, h in enumerate(self.multipliers):
            ok, lam = is_positive_definite(h, self.actions.tables[v])
            if not ok:
                raise HypothesisViolatedError(
                    "vertex multiplier is not positive definite",
                    vertex=self.words.graph.vertices[v],
                    lambda_min=lam,
                )
        multipliers_commute(self)

    # ------------------------------------------------------------------
    # evaluation

    def gp_value(self, x: GPElement) -> CentralElement:
        """The product multiplier on x's canonical expression (its value row)."""
        if x.ctx is not self.words:
            raise ContextMismatchError("element belongs to a different context")
        i = self.words.intern(x.letters)
        return CentralElement._adopt(self.structure, self._value_rows()[0][i].astype(np.complex128))

    def _value_rows(self) -> tuple:
        """Values and actions of all interned words: arrays V and P, row i
        those of word i.

        Rows are filled by ``_fill_rows`` for every id without them, one
        word length at a time as ``tree_rows`` fills a tree: the ids are
        sorted stably by their lengths, and each length that has ids is one
        round, so every prefix has its row before its extensions.
        """
        rows = self._value_cache
        words = self.words
        lo, n = rows.filled, len(words._id_prefix)
        if lo == n:
            return rows.values[:n], rows.perms[:n]
        if n > len(rows.values):
            rows.grow(max(n, 2 * len(rows.values)))
        V, P = rows.values, rows.perms
        if lo == 0:
            V[0], P[0] = 1.0, np.arange(self.structure.num_blocks)
            lo = 1
        prefix = np.array(words._id_prefix[lo:n], dtype=np.intp)
        slot = np.array(words._id_last[lo:n], dtype=np.intp)
        length = np.array(words._id_len[lo:n], dtype=np.intp)
        # keyed in the smallest dtype that holds them (numpy radix-sorts 8- and 16-bit keys)
        order = np.argsort(length.astype(np.min_scalar_type(length.max(initial=0))), kind="stable")
        ends = np.cumsum(np.bincount(length))
        takes = (order[a:b] for a, b in zip((0, *ends[:-1]), ends) if a < b)
        self._fill_rows(V, P, ((lo + t, prefix[t], slot[t]) for t in takes))
        rows.filled = n
        return V[:n], P[:n]

    def _fill_rows(self, V, P, rounds) -> None:
        """Fill value and action rows round by round, each round ``(ids,
        prefixes, last slots)`` of words whose prefixes have rows:
        V[i] = V[prefix][p(l^-1)] * h(l) and P[i] = p(l)[P[prefix]] for the
        last letter l, and a one-letter word copies h(l)."""
        acts, perms, values = self._slot_actions, self._slot_perms, self._slot_values
        for ids, p, s in rounds:
            v = V[p[:, None], perms[s]] * values[s]
            one = p == 0
            v[one] = values[s[one]]
            V[ids] = v
            P[ids] = acts[s[:, None], P[p]]

    def gp_value_letters(self, letters) -> CentralElement:
        """Evaluate on one specific reduced expression l_0 ... l_{m-1}.

        Letter j is twisted by the action of its inverted right tail, the raw
        letters (l_{m-1}^-1, ..., l_{j+1}^-1); no tail is normalized.  This
        is the step of the value rows along the raw prefixes,
        out = out[p(l^-1)] * h(l) from a copy of h(l_0), so it is bit-equal
        to multiplying the twisted factors left to right.

        ``gp_value`` reads the canonical expression's value row instead; this
        scalar loop is the tests' oracle for raw expressions, canonical or
        not, and the benchmark's tracer times it.
        """
        offset, perms, values = self.words._slot_offset, self._slot_perms, self._slot_values
        out = np.ones(self.structure.num_blocks, dtype=self.dtype)
        for j, l in enumerate(letters):
            s = offset[l.vertex] + l.elem
            out = values[s].copy() if j == 0 else out[perms[s]] * values[s]
        return CentralElement._adopt(self.structure, out.astype(np.complex128, copy=False))

    def kernel(self, x: GPElement, y: GPElement) -> CentralElement:
        return self._kernel.get(x, y)

    def kernel_matrix(self, xs) -> np.ndarray:
        """Kernel Gram matrix over xs as a ``(K, n, n)`` stack of block
        scalars in the system's dtype: ``id_stacks`` over the one family of
        their ids."""
        words = self.words
        xs = list(xs)
        words._check_ctx(*xs)
        return self.id_stacks([[words.intern(x.letters) for x in xs]])[len(xs)][0]

    def id_stacks(self, families) -> dict:
        """Kernel Gram matrices over many families of words, grouped by
        size: per family size m the ``(F, K, m, m)`` stack, in the system's
        dtype, of the F families of m words in their given order, each
        family a list of word ids.

        Each family's inverses come from ``WordContext.inverse_ids`` and its
        products x_i^-1 x_j from ``WordContext.product_ids``, one walk per
        distinct inverse over the successor table; then one value-row fill
        serves every family, and each size is one gather from the value rows
        of the products at the action rows of the x_j.  No pair gets a
        central element of its own.
        """
        words = self.words
        by_size: dict = {}  # m -> (word ids, product ids) per family of m words
        for ids in families:
            group = by_size.setdefault(len(ids), ([], []))
            group[0].append(ids)
            group[1].append(words.product_ids(words.inverse_ids(ids), ids))
        values, perms = self._value_rows()
        out = {}
        for m, (ids, prods) in by_size.items():
            F = len(ids)
            prod = np.array(prods, dtype=np.intp).reshape(F, m, m, 1)
            act = perms[np.array(ids, dtype=np.intp).reshape(F, 1, m)]
            out[m] = values[prod, act].transpose(0, 3, 1, 2)
        return out

    def ball_stack(self, radius: int, budget: int = DEFAULT_BUDGET) -> "BallStack":
        """The kernel stack of the word ball of ``radius`` with the tables
        kept beside it, built once per radius; ``budget`` bounds the ball."""
        self.words.ball_arrays(radius, budget)
        stack = self._ball_stacks.get(radius)
        if stack is None:
            stack = self._ball_stacks[radius] = self._gather_ball_stack(radius)
        return stack

    def tree_rows(self, tree) -> tuple:
        """Value and action rows of every node of a prefix tree of arrays, a
        ball's (``BallArrays``) or its expressions' (``ExpressionTable``):
        two ``(N, K)`` arrays, values in the system's dtype and actions
        ``int32``, row 0 that of the empty word, filled by ``_fill_rows``
        one length at a time."""
        V = np.empty((len(tree.prefix), self.structure.num_blocks), dtype=self.dtype)
        P = np.empty(V.shape, dtype=np.int32)
        V[0], P[0] = 1.0, np.arange(V.shape[1])
        levels = zip(tree.ends[:-1], tree.ends[1:])
        self._fill_rows(V, P, ((slice(a, b), tree.prefix[a:b], tree.last[a:b]) for a, b in levels))
        return V, P

    def _gather_ball_stack(self, radius: int) -> "BallStack":
        """The kernel stack over the ball from the arrays of ball(2 radius),
        with no word interned.

        Q[a, y] = a y over the ball is one gather from the successor table
        per sphere of y, Q[:, y] = succ[Q[:, prefix(y)], last(y)], and the
        inverse of a is the y with Q[a, y] the identity.  The stack
        G[k, i, j] = V[Q[x_i^-1, j], P[x_j, k]] is gathered from the rows of
        ball(2 radius) in row chunks.
        """
        arrays = self.words.ball_arrays(2 * radius)
        n, K = len(self.words.ball_arrays(radius).prefix), self.structure.num_blocks
        prod = np.empty((n, n), dtype=np.int32)
        prod[:, 0] = np.arange(n)
        for a, b in arrays.spheres(radius):
            prod[:, a:b] = arrays.succ[prod[:, arrays.prefix[a:b]], arrays.last[a:b]]
        inverse = prod.argmin(axis=1)
        V, P = self.tree_rows(arrays)
        gram = np.empty((K, n, n), dtype=V.dtype)
        act = P[:n].T[:, None, :]
        step = max(1, GATHER_ELEMENTS // (K * n))
        for a in range(0, n, step):
            gram[:, a : a + step] = V[prod[inverse[a : a + step]][None], act]
        gram.flags.writeable = False
        return BallStack(gram, inverse, V[:n].copy(), prod, P)


class BallStack(NamedTuple):
    """The identity ball's kernel stack and the tables kept with it, over
    the N words of ball(r) in ball order (see ``MultiplierSystem.ball_stack``);
    the stack and the value rows are in the system's dtype."""

    gram: np.ndarray  # (K, N, N) kernel stack, read-only
    inverse: np.ndarray  # ball index of each word's inverse
    values: np.ndarray  # (N, K) value rows
    products: np.ndarray  # int32 (N, N): Q[a, y], the ball(2 r) index of a y
    actions: np.ndarray  # int32 action rows of ball(2 r), those of ball(r) first

    def translates(self, c, u) -> np.ndarray:
        """Kernel stacks over left translates of ball words: with ball
        indices c of shape (F,) and u of shape (F, m), the ``(F, K, m, m)``
        stack over c_f u_{f,0}, ..., c_f u_{f,m-1}, one gather from G.

        K(c u_i, c u_j) = alpha_{c u_j}(h(u_i^-1 u_j)), and G holds
        alpha_{u_j}(h(u_i^-1 u_j)): its block k is G's block
        P[u_j]^-1[P[c u_j, k]], P[c u_j] the action row of the ball(2 r)
        word Q[c, u_j].  Action rows are permutations, so this is index
        arithmetic on the same value rows whether or not the actions
        compose.
        """
        u = np.asarray(u, dtype=np.intp)
        act = self.actions[self.products[np.asarray(c, dtype=np.intp)[:, None], u]]
        block = np.take_along_axis(np.argsort(self.actions[u], axis=-1), act, axis=-1)
        return self.gram[block.swapaxes(1, 2)[:, :, None, :], u[:, None, :, None], u[:, None, None, :]]


class _ValueRows:
    """Values and action index arrays of interned words as the rows of two
    growing ``(N, K)`` arrays, values in the system's dtype; ids below
    ``filled`` have theirs, and ``len()`` counts them."""

    def __init__(self, num_blocks: int, dtype):
        self.values = np.empty((0, num_blocks), dtype=dtype)
        self.perms = np.empty((0, num_blocks), dtype=np.int32)
        self.filled = 0

    def grow(self, size: int) -> None:
        for name in ("values", "perms"):
            old = getattr(self, name)
            new = np.empty((size, old.shape[1]), dtype=old.dtype)
            new[: self.filled] = old[: self.filled]
            setattr(self, name, new)

    def __len__(self):
        return self.filled


class KernelTable:
    """Lazy memoized kernel K(x, y) = alpha_y(h(x^-1 y)); a pair's entry is
    read from the kernel matrix over (x, y)."""

    def __init__(self, system: MultiplierSystem):
        self.system = system
        self.cache: dict = {}

    def get(self, x: GPElement, y: GPElement) -> CentralElement:
        key = (x.letters, y.letters)
        val = self.cache.get(key)
        if val is None:
            pair = self.system.kernel_matrix([x, y])[:, 0, 1].astype(np.complex128)
            val = self.cache[key] = CentralElement._adopt(self.system.structure, pair)
        return val


def multipliers_commute(system: MultiplierSystem) -> None:
    """Check that each vertex action fixes the multipliers of its neighbours.

    For every edge (i, j), every a in G_i and b in G_j the value h_j(b) must
    be fixed by alpha_{i,a} (and symmetrically).  Raises
    ``EdgeViolationError`` with the worst deviation on the first bad edge.
    """
    graph = system.words.graph
    for i, j in graph.edge_index_pairs():
        for (src, dst) in ((i, j), (j, i)):
            h = system.multipliers[dst].scalars
            moved = h[:, system.actions.tables[src].perms]  # [b, a]: alpha_a(h(b))
            worst = float(np.max(np.abs(moved - h[:, None, :])))
            if worst > COMMUTE_TOL:
                raise EdgeViolationError(
                    "adjacent action moves a multiplier value",
                    edge=(graph.vertices[src], graph.vertices[dst]),
                    deviation=worst,
                )


def gp_well_defined(
    system: MultiplierSystem,
    radius: int = 4,
    budget: int = 100_000,
) -> WellDefinedReport:
    """Compare the product evaluation across all reduced expressions of all
    short words: the rows of the expression table of ``ball(radius)``
    against the ball's rows.

    Runs regardless of whether the setup checks passed, so it doubles as a
    detector for broken setups: the witness is the least letter sequence of
    the first word, in ball order, with the worst deviation (a NaN wins).
    """
    words = system.words
    table = words.expression_table(radius, budget)
    values, _ = system.tree_rows(words.ball_arrays(radius))
    exprs, _ = system.tree_rows(table)
    dev = np.abs(exprs - values[table.word]).max(axis=1)
    worst = float(dev.max())
    witness = None
    if not worst <= 0.0:  # a deviation, or a NaN
        hits = np.flatnonzero(np.isnan(dev) if worst != worst else dev == worst)
        tied = hits[table.word[hits] == table.word[hits[0]]]
        e, slots = tied, []  # the tied expressions' last slots, read back along their prefixes
        while e[0] > 0:
            slots.append(table.last[e])
            e = table.prefix[e]
        witness = min(tuple(words._slot_letter[s] for s in reversed(r)) for r in zip(*slots))
    return WellDefinedReport(
        ok=worst <= WELL_DEFINED_TOL,
        max_deviation=worst,
        word=witness,
        checked_words=len(values),
        checked_expressions=len(exprs),
    )


def haagerup_witness_ball(
    system: MultiplierSystem,
    K: int,
    eps: float,
    L: int,
    budget: int = DEFAULT_BUDGET,
) -> WitnessReport:
    """Certify smallness of the product multiplier off a finite witness set.

    The witness set F consists of all elements of length at most K (the
    identity included).  Preconditions: every vertex multiplier is unital
    with off-identity values of norm at most 1/2, ``2^-K <= eps``, and
    ``L > K``.  Reports the largest multiplier norm over the radius-L ball
    outside F, read off its value rows, and whether it stays below eps;
    ``budget`` caps the ball.

    The preconditions decide the verdict.  A word outside F has at least
    K + 1 letters, each with a value of modulus at most 1/2 + ``UNITAL_TOL``
    = t, and twisting only permutes block scalars, so every block scalar of
    its value has modulus at most (1/2 + t)^(K+1) < 2^-K <= eps.  So ``ok``
    is true whenever no precondition raises (a NaN or an infinite value
    fails the norm precondition), and the report certifies the
    preconditions and the measured largest norm.
    """
    for v, h in enumerate(system.multipliers):
        if not h.is_unital:
            raise NotUnitalError("vertex multiplier is not unital", vertex=v)
        sup = h.off_identity_sup()
        if not sup <= 0.5 + UNITAL_TOL:  # a NaN fails too
            raise NormTooLargeError(
                "off-identity values must have norm at most 1/2", vertex=v, sup=sup
            )
    if 2.0 ** (-K) > eps:
        raise HypothesisViolatedError("need 2^-K <= eps", K=K, eps=eps)
    if L <= K:
        raise HypothesisViolatedError("need L > K", K=K, L=L)
    arrays = system.words.ball_arrays(L, budget)
    values, _ = system.tree_rows(arrays)
    f_size = arrays.ends[min(K, len(arrays.ends) - 1)] if K >= 0 else 0
    worst = float(np.abs(values[f_size:]).max(initial=0.0))  # NaN if one is NaN
    return WitnessReport(
        ok=worst < eps,
        max_off_norm=worst,
        threshold=eps,
        f_size=f_size,
        ball_size=len(values),
    )
