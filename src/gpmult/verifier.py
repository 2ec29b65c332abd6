"""Numerical certification of kernel positivity and the kernel identities.

Each check consumes a :class:`Scenario` (a validated multiplier system plus
verification parameters) and produces a :class:`CheckResult`.  Checks whose
hypotheses a scenario does not meet are reported as *vacuous* rather than
passed-by-silence; genuine computations record the certified quantity
(smallest eigenvalue or worst residual) together with problem sizes and
counts.  All randomness is drawn from seeded generators derived from the
scenario seed, so reports are reproducible bit for bit.  A non-finite
certified quantity fails its check and is reported as ``null`` with the
reason under ``details.non_finite``, so reports stay strict JSON.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cocycles import (
    cocycle_build,
    cocycle_identity_residual,
    gns_build,
    negative_definite_check,
    schoenberg_is_pd,
    schoenberg_multiplier,
    squared_norm_residual,
)
from .errors import (
    BudgetExceededError,
    GPMultError,
    NotFiniteError,
    NotHermitianError,
    NotPositiveError,
    NotUnitalError,
)
from .matalg import is_positive, max_residual
from .multipliers import (
    GATHER_ELEMENTS,
    MultiplierSystem,
    gp_well_defined,
    haagerup_witness_ball,
)

KERNEL_TOL = 1e-10
PEEL_TOL = 1e-12
PSD_TOL = 1e-8
ABS_PSD_TOL = 1e-8


@dataclass
class Scenario:
    """A multiplier system with verification parameters and provenance echo."""

    name: str
    system: MultiplierSystem
    seed: int = 42
    ball_radius: int = 4
    identity_radius: int = 3
    max_set_size: int = 60
    max_flat_dim: int = 1500
    num_sets: int = 3
    sample_size: int = 8
    tuple_target: int = 60
    schoenberg_t: tuple = (0.1, 1.0, 10.0)
    nd_trials: int = 500
    budget: int = 100_000
    witness: dict | None = None
    expanded_config: dict | None = None


@dataclass
class CheckResult:
    name: str
    suite: str
    passed: bool
    vacuous: bool = False
    lambda_min: float | None = None
    residual: float | None = None
    sizes: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    ms: float | None = field(default=None, repr=False, compare=False)  # wall time, for timing

    def __post_init__(self):
        # a non-finite certified quantity certifies nothing
        for val in (self.lambda_min, self.residual):
            if val is not None and not math.isfinite(val):
                self.passed = False

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "suite": self.suite,
            "pass": bool(self.passed),
            "vacuous": bool(self.vacuous),
        }
        non_finite: dict = {}
        for key in ("lambda_min", "residual"):
            val = getattr(self, key)
            if val is not None:
                out[key] = null_non_finite(float(val), key, non_finite)
        if self.sizes:
            out["sizes"] = self.sizes
        if self.counts:
            out["counts"] = self.counts
        details = null_non_finite(self.details, "details", non_finite)
        if non_finite:
            details = {**details, "non_finite": non_finite}
        if details:
            out["details"] = details
        return out


def null_non_finite(value, path: str, non_finite: dict):
    """``value`` with every non-finite float replaced by None, each recorded
    in ``non_finite`` under its path (its repr, e.g. "nan" or "inf")."""
    if isinstance(value, float) and not math.isfinite(value):
        non_finite[path] = repr(value)
        return None
    if isinstance(value, dict):
        return {k: null_non_finite(v, f"{path}/{k}", non_finite) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [null_non_finite(v, f"{path}/{i}", non_finite) for i, v in enumerate(value)]
    return value


def _failure(name, suite, err: GPMultError, **extra) -> CheckResult:
    details = {"error": err.code, "message": str(err)}
    details.update(extra)
    return CheckResult(name=name, suite=suite, passed=False, details=details)


def _vacuous(name, suite, reason: str, counts: dict | None = None) -> CheckResult:
    return CheckResult(
        name=name,
        suite=suite,
        passed=True,
        vacuous=True,
        counts=counts or {},
        details={"reason": reason},
    )


# ----------------------------------------------------------------------
# main suite

def verify_setup(sc: Scenario) -> CheckResult:
    """All structural validation: groups act properly, edges commute, vertex
    multipliers are positive definite and fixed by neighbouring actions."""
    try:
        sc.system.validate()
    except GPMultError as err:
        return _failure("setup", "main", err)
    return CheckResult(
        name="setup",
        suite="main",
        passed=True,
        details={"valid_actions": True, "valid_multipliers": True},
    )


def verify_well_defined(sc: Scenario) -> CheckResult:
    """Rearrangement independence of the product multiplier on a ball.

    Runs even when setup failed, which is what makes it a usable detector
    for broken commutation data.
    """
    rep = gp_well_defined(sc.system, radius=sc.ball_radius, budget=sc.budget)
    return CheckResult(
        name="product-well-defined",
        suite="main",
        passed=rep.ok,
        residual=rep.max_deviation,
        counts={
            "words": rep.checked_words,
            "expressions": rep.checked_expressions,
        },
        details={"witness": sc.system.words.to_pairs(rep.word)} if not rep.ok else {},
    )


def _complete_sets(sc: Scenario):
    """Seeded complete sets as word ids: closures of random ball samples,
    size-capped, each sorted by (length, letters).

    Each set is the closure of its base and of the longest prefix of its
    sample that keeps it within the cap.  A base that does not fit raises
    the closure's budget error with the set's index and both caps.
    """
    words = sc.system.words
    n_ball = len(words.ball_arrays(sc.ball_radius, sc.budget).prefix)
    rng = np.random.default_rng([sc.seed, 101])
    cap = min(sc.max_set_size, sc.max_flat_dim // sc.system.structure.total_dim)
    sets = []
    for k in range(sc.num_sets):
        base = words.ball_word_ids(1, range(len(words.ball_arrays(1).prefix))) if k == 0 else []
        n_draw = min(sc.sample_size, n_ball)
        idx = sorted(int(i) for i in rng.choice(n_ball, size=n_draw, replace=False))
        sample = words.ball_word_ids(sc.ball_radius, idx)
        try:
            sets.append(words.complete_closure_ids(base, max_size=cap, optional=sample))
        except BudgetExceededError as err:
            caps = {"set": k, "max_set_size": sc.max_set_size, "max_flat_dim": sc.max_flat_dim}
            raise BudgetExceededError(err.args[0], **err.context, **caps) from err
    return sets


def verify_main_theorem(sc: Scenario, threads: int = 1) -> CheckResult:
    """Positivity of the kernel Gram matrix over seeded complete sets.

    The stacks of all sets are gathered from their word ids at once (one
    ``id_stacks`` call: one value-row fill, one gather per set size), and
    each set is certified on its own.  ``threads`` is accepted for
    compatibility and has no effect.
    """
    sets = _complete_sets(sc)
    if not sets:
        return _vacuous("kernel-gram-positive", "main", "no complete set (num_sets is 0)")
    worst = np.inf
    sizes = []
    all_ok = True
    T = sc.system.structure.total_dim
    stacks = {m: iter(grams) for m, grams in sc.system.id_stacks(sets).items()}
    for ids in sets:
        try:
            ok, lam = is_positive(next(stacks[len(ids)]), tol=PSD_TOL)
        except GPMultError as err:
            return _failure(
                "kernel-gram-positive", "main", err, set_size=len(ids)
            )
        sizes.append([len(ids), len(ids) * T])
        worst = min(worst, lam)
        all_ok = all_ok and ok
    return CheckResult(
        name="kernel-gram-positive",
        suite="main",
        passed=all_ok,
        lambda_min=worst,
        sizes=sizes,
        counts={"sets": len(sets)},
    )


# ----------------------------------------------------------------------
# kernel identity suite

def _max_over_rows(gram, n: int, residual) -> float:
    """The largest of ``residual(rows)`` over chunks of ``range(n)``, each
    row a ``(K, N)`` gather from the ``(K, N, N)`` kernel stack ``gram`` and
    a chunk at most ``GATHER_ELEMENTS`` entries; 0.0 over none, NaN when one
    is NaN."""
    worst = 0.0
    step = max(1, GATHER_ELEMENTS // (gram.shape[0] * gram.shape[2]))
    for a in range(0, n, step):
        worst = max_residual(worst, float(residual(slice(a, a + step))))
    return worst


def _factor_residual(gram, x, c, keep) -> float:
    """The factorization residual max |K(x_i, z) - K(x_i, c_i) K(c_i, z)|
    over the ball indices x_i, c_i and the ball words z, in row chunks of
    ``_max_over_rows``; ``keep(rows)`` masks the (i, z) pairs of a chunk."""

    def residual(rows):
        xs, cs = x[rows], c[rows]
        diff = gram[:, xs] - gram[:, xs, cs][:, :, None] * gram[:, cs]
        return np.where(keep(rows), np.abs(diff), 0.0).max()

    return _max_over_rows(gram, len(x), residual)


def verify_star_symmetry(sc: Scenario) -> CheckResult:
    """K(x, y) = K(y, x)* over all pairs from the identity-check ball.

    The residual is max |G - G^H| over the blocks of the ball's kernel stack,
    taken over row blocks against the matching column blocks.  The system
    builds the stack once per radius, and every lemma check reads it or the
    tables kept with it.
    """
    gram = sc.system.ball_stack(sc.identity_radius, sc.budget).gram
    n = gram.shape[1]
    worst = _max_over_rows(
        gram, n, lambda rows: np.abs(gram[:, rows] - gram[:, :, rows].conj().swapaxes(-1, -2)).max()
    )
    return CheckResult(
        name="kernel-star-symmetry",
        suite="lemmas",
        passed=worst <= KERNEL_TOL,
        residual=worst,
        counts={"pairs": n**2},
    )


def verify_peel_off(sc: Scenario) -> CheckResult:
    """First-letter factorization of the product multiplier.

    For every reduced expression l r' of every ball element x, the value
    must equal h(l) twisted by the action of t^-1 times the value of t,
    where t = l^-1 x is the element of the tail r': h(l)[P[t^-1]] * V[t]
    with the value and action rows V and P of the ball, h(l) the row of
    the one-letter word.  The expressions are the word context's
    expression table and their values its rows; the first letter is carried
    down its prefix column, and t = Q[l^-1, x] is read off the ball's products.
    """
    sys_ = sc.system
    stack = sys_.ball_stack(sc.identity_radius, sc.budget)
    table = sys_.words.expression_table(sc.identity_radius, sc.budget)
    if len(table.prefix) == 1:
        return _vacuous(
            "peel-first-letter",
            "lemmas",
            "no nontrivial element in the identity-check ball",
            {"expressions": 0},
        )
    first = table.word.copy()  # the ball index of each expression's first letter
    for a, b in zip(table.ends[1:-1], table.ends[2:]):
        first[a:b] = first[table.prefix[a:b]]
    lhs, _ = sys_.tree_rows(table)
    first, t = first[1:], stack.products[stack.inverse[first[1:]], table.word[1:]]
    rhs = stack.values[first[:, None], stack.actions[stack.inverse[t]]] * stack.values[t]
    worst = float(np.abs(lhs[1:] - rhs).max())  # NaN if one is NaN
    return CheckResult(
        name="peel-first-letter",
        suite="lemmas",
        passed=worst <= PEEL_TOL,
        residual=worst,
        counts={"expressions": len(rhs)},
    )


def _reduced_pairs(lasts, inverse) -> np.ndarray:
    """``(N, N)`` booleans over a ball: whether x_i^-1 x_j is reduced.

    It is reduced exactly when x_i and x_j share no first vertex.  The first
    vertices of x are the last vertices of x^-1, so the matrix is one
    integer product of the ``(N, V)`` first-vertex incidence matrix, read
    off the last vertices ``lasts`` at the inverses, with its transpose.
    """
    first = lasts[inverse].astype(np.intp)
    return first @ first.T == 0


def verify_drop_last(sc: Scenario) -> CheckResult:
    """Kernel factorization through the last letter.

    When x^-1 y is reduced (length adds), K(x, head) K(head, y) must equal
    K(x, y) for the head of every reduced expression of x.  The heads are x
    with one of its last letters deleted, each as many times as the class
    of the head has sequences, read off the ball's last-letter table; x^-1 y
    is reduced exactly when x and y share no first vertex, the last
    vertices of their inverses.  The instances are gathered from the ball's
    kernel stack over (x, head) pairs in row chunks.
    """
    sys_ = sc.system
    stack = sys_.ball_stack(sc.identity_radius, sc.budget)
    heads, _, sizes = sys_.words.last_letter_table(sc.identity_radius, sc.budget)
    reduced = _reduced_pairs(heads >= 0, stack.inverse)
    x, u = np.nonzero(heads >= 0)
    h = heads[x, u]
    n_checked = int((sizes[h] * reduced[x].sum(axis=1)).sum())
    if n_checked == 0:
        return _vacuous(
            "drop-last-letter",
            "lemmas",
            "no x != e and y in the identity-check ball with x^-1 y reduced",
            {"instances": 0},
        )
    worst = _factor_residual(stack.gram, x, h, lambda rows: reduced[x[rows]])
    return CheckResult(
        name="drop-last-letter",
        suite="lemmas",
        passed=worst <= KERNEL_TOL,
        residual=worst,
        counts={"instances": n_checked},
    )


def verify_cross_terms(sc: Scenario) -> CheckResult:
    """Factorization K(x, z) = K(x, yc) K(yc, z) under the two order conditions.

    x ranges over ball elements containing the distinguished vertex, with
    standard form x = y c a b; pairs (x, z) qualify when the down-set count
    of z is strictly smaller, or equal with a different y vertex word.  The
    classes, the counts and the ball index of yc come from the word
    context's standard-form table of the ball.  yc is a truncation of x, so
    per vertex the residuals are gathered from the ball's kernel stack in
    row chunks of x, over all z with the non-qualifying pairs masked.
    """
    sys_ = sc.system
    gram = sys_.ball_stack(sc.identity_radius, sc.budget).gram
    worst = 0.0
    n1 = n2 = 0
    for ycls, yc, nc in sys_.words.standard_form_table(sc.identity_radius, sc.budget):
        rows = np.flatnonzero(ycls >= 0)
        cond1 = nc[None, :] < nc[rows, None]
        cond2 = (nc[None, :] == nc[rows, None]) & (ycls >= 0) & (ycls[None, :] != ycls[rows, None])
        n1 += int(cond1.sum())
        n2 += int(cond2.sum())
        qualify = cond1 | cond2
        worst = max_residual(worst, _factor_residual(gram, rows, yc[rows], qualify.__getitem__))
    if n1 == n2 == 0:
        return _vacuous(
            "cross-terms",
            "lemmas",
            "no pair (x, z) meets either order condition",
            {"smaller-count": 0, "different-prefix": 0},
        )
    return CheckResult(
        name="cross-terms",
        suite="lemmas",
        passed=worst <= KERNEL_TOL,
        residual=worst,
        counts={"smaller-count": n1, "different-prefix": n2},
    )


def _dominance_margin(gram):
    """Dominance differences K(x_i, x_j) - K(x_i, p_i) K(p_i, p_j) K(p_j, x_j)
    over a leading family axis, and each family's largest |entry|.

    Every entry is read from ``gram``, the ``(F, K, 2n, 2n)`` kernel stacks
    over x_0..x_{n-1} then p_0..p_{n-1}; the product is formed left to
    right, as the central products it stands for.
    """
    n = gram.shape[-1] // 2
    left = gram[..., :n, n:].diagonal(axis1=-2, axis2=-1)
    right = gram[..., n:, :n].diagonal(axis1=-2, axis2=-1)
    diff = gram[..., :n, :n] - left[..., :, None] * gram[..., n:, n:] * right[..., None, :]
    return diff, np.abs(diff).max(axis=(-3, -2, -1), initial=0.0)


def _cross_kernels_factor(gram: np.ndarray) -> np.ndarray:
    """Per family, whether K(x_i, p_j) = K(x_i, p_i) K(p_i, p_j) for all
    i != j, read from the ``(F, K, 2n, 2n)`` kernel stacks over x_0..x_{n-1}
    then p_0..p_{n-1}: per pair the largest block deviation (NaN when one
    is NaN) is within KERNEL_TOL."""
    n = gram.shape[-1] // 2
    cross = gram[..., :n, n:]
    left = cross.diagonal(axis1=-2, axis2=-1)
    dev = np.abs(cross - left[..., :, None] * gram[..., n:, n:]).max(axis=-3)
    dev[..., range(n), range(n)] = 0.0
    return ~(dev > KERNEL_TOL).any(axis=(-2, -1))


def _least_eigenvalue(groups) -> float:
    """Smallest eigenvalue over the dominance differences of a chunk's
    families, np.inf for none: one eigensolve per group, each ``(draw
    positions, (F, K, n, n) differences)`` of one family size.

    A group that raises is certified again family by family in draw order
    over all groups, so the error raised is the first failing family's own.
    """
    groups = [(pos, diff) for pos, diff in groups if len(diff)]
    try:
        return min(
            (is_positive(diff, tol=ABS_PSD_TOL)[1] for _, diff in groups),
            default=np.inf,
        )
    except GPMultError:
        drawn = sorted(
            ((p, diff[k]) for pos, diff in groups for k, p in enumerate(pos)), key=lambda t: t[0]
        )
        for _, diff in drawn:
            is_positive(diff, tol=ABS_PSD_TOL)
        raise


def _dominance_check(name, families, stacks, tuple_target, no_family, vanishes, rejected=False):
    """The dominance bound over lazily drawn families, as a check result.

    Families are taken from the ``families`` iterator in chunks of as many
    as could still be needed, so each chunk is drawn whole and the stop
    rule (``tuple_target`` non-vacuous families) is met only at its end.
    A family is a pair of n-tuples; a chunk's families are grouped by n in
    order of first appearance, and ``stacks(families)`` returns, for the
    families of one n, a mask of the accepted ones and the ``(F, K, 2n, 2n)``
    kernel stacks over x_0..x_{n-1} then p_0..p_{n-1} of all of them.  The
    accepted families' differences are computed over the family axis and
    share one eigensolve per size.  The reasons ``no_family`` and
    ``vanishes`` make the result vacuous when nothing was accepted or every
    difference vanished, and a ``tuple_target`` of 0, which draws nothing,
    says so; ``rejected`` counts the drawn families that were not accepted.
    """
    worst = np.inf
    drawn = accepted = non_vacuous = 0
    all_ok = True
    while chunk := list(itertools.islice(families, max(0, tuple_target - non_vacuous))):
        drawn += len(chunk)
        by_size: dict = {}  # n -> draw positions
        for i, (first, _) in enumerate(chunk):
            by_size.setdefault(len(first), []).append(i)
        groups = []
        for pos in by_size.values():
            ok, gram = stacks([chunk[i] for i in pos])
            pos = np.array(pos)[ok]
            diff, maxdiff = _dominance_margin(gram[ok])
            accepted += len(diff)
            non_vacuous += int((maxdiff > 1e-13).sum())
            groups.append((pos, diff))
        lam = _least_eigenvalue(groups)
        worst = min(worst, lam)
        all_ok = all_ok and (lam >= -ABS_PSD_TOL)
    if accepted == 0:
        return _vacuous(name, "lemmas", no_family if tuple_target else "no family drawn (tuple_target is 0)")
    counts = {"families": accepted, "non_vacuous": non_vacuous}
    if rejected:
        counts["rejected"] = drawn - accepted
    if non_vacuous == 0 and all_ok:
        return _vacuous(name, "lemmas", vanishes, counts)
    return CheckResult(
        name=name, suite="lemmas", passed=all_ok, lambda_min=float(worst), counts=counts
    )


def verify_schwarz(sc: Scenario) -> CheckResult:
    """Schwarz-type dominance for families (c_i, b_i) with factoring cross kernels.

    Families are included only after the per-tuple hypothesis
    K(c_i b_i, c_j) = K(c_i b_i, c_i) K(c_i, c_j) is verified numerically;
    the certified quantity is the smallest eigenvalue of LHS - RHS over all
    accepted families, the dominance difference with x_i = c_i b_i and
    p_i = c_i.  Tuples whose difference vanishes identically are counted as
    vacuous.  At most ``60 * tuple_target`` families are drawn, as indices
    into the identity-check ball, and no word is built.  A family with one
    c is the left translate by c of (b_0, ..., e, ...), so its stack is a
    gather from the ball's kernel stack (``BallStack.translates``); the
    others go by word ids (``MultiplierSystem.id_stacks``), the ids of
    x_i = Q[c_i, b_i] read off the ball's product table Q and interned
    with the p_i.  The families of one size share one stack, and the
    hypothesis is tested over the family axis.
    """
    sys_ = sc.system
    radius = sc.identity_radius
    stack = sys_.ball_stack(radius, sc.budget)
    Q = stack.products
    size = len(Q)
    rng = np.random.default_rng([sc.seed, 104])

    def draw():
        for _ in range(60 * sc.tuple_target):
            n = int(rng.integers(2, 4))
            if rng.integers(0, 2) == 0:
                cs = [int(rng.integers(0, size))] * n
            else:
                cs = [int(rng.integers(0, size)) for _ in range(n)]
            yield cs, [int(rng.integers(0, size)) for _ in range(n)]

    def stacks(families):
        c, b = (np.array(f) for f in zip(*families))
        n = c.shape[1]
        gram = np.empty((len(c), sys_.structure.num_blocks, 2 * n, 2 * n), dtype=sys_.dtype)
        one = (c == c[:, :1]).all(axis=1)
        u = np.hstack([b, np.zeros_like(b)])[one]  # (b_0, ..., e, ...)
        gram[one] = stack.translates(c[one, 0], u)
        if not one.all():
            c, b = c[~one], b[~one]
            at = np.hstack([Q[c, b], c])  # per family the ball(2 r) indices of x then p
            ids = np.reshape(sys_.words.ball_word_ids(2 * radius, at.ravel().tolist()), (-1, 2 * n))
            gram[~one] = sys_.id_stacks(ids.tolist())[2 * n]
        return _cross_kernels_factor(gram), gram

    return _dominance_check(
        "schwarz-inequality",
        draw(),
        stacks,
        sc.tuple_target,
        "no admissible family found",
        "LHS - RHS vanishes on every admissible family",
        rejected=True,
    )


def verify_y1_square(sc: Scenario) -> CheckResult:
    """Square dominance for families sharing the prefix vertex word.

    Every family member x_i = y_i c_i a_i b_i is put in standard form at a
    common vertex; families require equal y vertex words.  The certified
    quantity is the smallest eigenvalue of the dominance difference with
    p_i = y_i c_i.  Requires all multiplier values to be positive central
    elements.  Classes and the ball indices of y_i c_i are read from the
    word context's standard-form table of the ball.  x_i and its truncation
    y_i c_i lie in the identity-check ball, so a chunk's family stacks of
    one size are one gather from the ball's kernel stack.
    """
    sys_ = sc.system
    for h in sys_.multipliers:
        if np.max(np.abs(h.scalars.imag)) > 1e-12 or np.min(h.scalars.real) < -1e-12:
            return _vacuous(
                "shared-prefix-square-bound",
                "lemmas",
                "multiplier values are not positive central elements",
            )
    gram = sys_.ball_stack(sc.identity_radius, sc.budget).gram
    rng = np.random.default_rng([sc.seed, 105])
    class_lists = []  # per class its members, as ball indices (x, y c)
    for cls, yc, _ in sys_.words.standard_form_table(sc.identity_radius, sc.budget):
        for k in range(cls.max() + 1):
            class_lists.append([(i, yc[i]) for i in np.flatnonzero(cls == k)])
    per_class = max(8, -(-2 * sc.tuple_target // max(1, len(class_lists))))

    def draw():
        for members in class_lists:
            yield tuple(zip(*members[:6]))
            # random sub-multisets with repetition, for tuple volume
            for _ in range(per_class):
                n = int(rng.integers(1, 4))
                yield tuple(zip(*[members[int(rng.integers(0, len(members)))] for _ in range(n)]))

    def stacks(families):
        at = np.array([xs + ps for xs, ps in families])  # ball indices of x then y c
        return np.ones(len(at), dtype=bool), gram[:, at[:, :, None], at[:, None, :]].swapaxes(0, 1)

    return _dominance_check(
        "shared-prefix-square-bound",
        draw(),
        stacks,
        sc.tuple_target,
        "no family with the vertex found",
        "LHS - RHS vanishes on every family",
    )


# ----------------------------------------------------------------------
# witness suite

def verify_witness(sc: Scenario) -> CheckResult:
    """Finite witness set for smallness of the product multiplier."""
    if not sc.witness:
        return _vacuous("haagerup-witness", "haagerup", "no witness parameters configured")
    params = sc.witness
    rep = haagerup_witness_ball(
        sc.system,
        K=int(params["K"]),
        eps=float(params["eps"]),
        L=int(params["L"]),
        budget=sc.budget,
    )
    return CheckResult(
        name="haagerup-witness",
        suite="haagerup",
        passed=rep.ok,
        residual=rep.max_off_norm,
        counts={"witness_set": rep.f_size, "ball": rep.ball_size},
        details={"threshold": rep.threshold},
    )


# ----------------------------------------------------------------------
# cocycle suite

def verify_cocycles(sc: Scenario) -> list:
    """Per-vertex module and cocycle checks on each vertex multiplier h.

    ``cocycle-identity`` certifies what setup does: it fails exactly when
    ``is_positive_definite`` rejects h or raises (a non-finite or
    non-Hermitian Gram matrix) or h is not unital, failing that vertex
    alone, and otherwise its
    residual is exactly 0.0, since b(s) = delta_e - delta_s has entries 0
    and +-1; its ``module_lambda_min`` is the certified smallest eigenvalue
    of h's Gram matrix.  ``cocycle-norm-identity`` holds by construction for
    unital h with an exactly Hermitian Gram matrix, up to the rounding of
    the form; setup accepts one that is Hermitian within 1e-8, and the
    identity then misses by as much.  Each result's ``ms`` is the wall time
    since the previous result.
    """
    out = []
    t_last = time.perf_counter()

    def add(result: CheckResult) -> None:
        nonlocal t_last
        now = time.perf_counter()
        result.ms = (now - t_last) * 1000.0
        t_last = now
        out.append(result)

    sys_ = sc.system
    graph = sys_.words.graph
    for v in range(graph.n):
        vid = graph.vertices[v]
        table = sys_.actions.tables[v]
        prefix = f"vertex-{vid}"
        try:
            module = gns_build(sys_.multipliers[v], table)
            coc = cocycle_build(module)
        except (NotFiniteError, NotHermitianError, NotPositiveError, NotUnitalError) as err:
            add(
                _failure(f"{prefix}/cocycle-identity", "cocycles", err)
            )
            continue
        res = cocycle_identity_residual(coc)
        add(
            CheckResult(
                name=f"{prefix}/cocycle-identity",
                suite="cocycles",
                passed=res <= 1e-10,
                residual=res,
                details={"module_lambda_min": module.lambda_min},
            )
        )
        res2 = squared_norm_residual(coc)
        add(
            CheckResult(
                name=f"{prefix}/cocycle-norm-identity",
                suite="cocycles",
                passed=res2 <= 1e-12,
                residual=res2,
            )
        )
        lam_worst = np.inf
        sch_ok = True
        mono_ok = True
        ts = sorted(float(t) for t in sc.schoenberg_t)
        prev = None
        for t in sorted(ts, reverse=True):
            ok, lam = schoenberg_is_pd(coc, t)
            sch_ok = sch_ok and ok
            lam_worst = min(lam_worst, lam)
            gap = float(np.max(np.abs(1.0 - schoenberg_multiplier(coc, t))))
            if prev is not None and gap > prev + 1e-12:
                mono_ok = False
            prev = gap
        add(
            CheckResult(
                name=f"{prefix}/schoenberg-positivity",
                suite="cocycles",
                passed=sch_ok and mono_ok,
                lambda_min=float(lam_worst),
                details={"t_grid": ts, "monotone": mono_ok},
            )
        )
        rep = negative_definite_check(coc.Q, table, trials=sc.nd_trials, seed=sc.seed + 7 * v)
        if rep.trials == 0 and rep.ok and module.group.order == 1:
            add(
                _vacuous(
                    f"{prefix}/negative-definiteness",
                    "cocycles",
                    "trivial group (sum-zero subspace is 0) and no random trial drawn",
                )
            )
            continue
        # with no trial drawn, exact_lambda_max alone certifies the check
        add(
            CheckResult(
                name=f"{prefix}/negative-definiteness",
                suite="cocycles",
                passed=rep.ok,
                residual=rep.worst_margin if rep.trials else None,
                counts={"trials": rep.trials},
                details={
                    "symmetry_deviation": rep.symmetry_deviation,
                    "exact_lambda_max": rep.exact_lambda_max,
                },
            )
        )
    return out


# ----------------------------------------------------------------------
# driver

SUITES = ("main", "lemmas", "haagerup", "cocycles")


def _guarded(name, suite, fn, *args, **kwargs):
    """Run one check; an escaping domain error becomes a recorded failure.

    Broken setups legitimately produce non-Hermitian kernels and similar
    conditions deep inside a check, and those must land in the report
    rather than abort the run.
    """
    try:
        return fn(*args, **kwargs)
    except BudgetExceededError:
        raise
    except GPMultError as err:
        return _failure(name, suite, err)


def _suite_checks(suite: str) -> list:
    """(name, check function) pairs of one suite, in report order.

    The functions are looked up at call time, so wrappers installed on this
    module's names take effect.
    """
    if suite == "main":
        return [
            ("setup", verify_setup),
            ("product-well-defined", verify_well_defined),
            ("kernel-gram-positive", verify_main_theorem),
        ]
    if suite == "lemmas":
        return [
            ("kernel-star-symmetry", verify_star_symmetry),
            ("peel-first-letter", verify_peel_off),
            ("drop-last-letter", verify_drop_last),
            ("cross-terms", verify_cross_terms),
            ("schwarz-inequality", verify_schwarz),
            ("shared-prefix-square-bound", verify_y1_square),
        ]
    if suite == "haagerup":
        return [("haagerup-witness", verify_witness)]
    if suite == "cocycles":
        return [("cocycle-modules", verify_cocycles)]
    raise ValueError(f"unknown suite {suite!r}")


def run_suite(sc: Scenario, suite: str) -> list:
    """Run one suite; every result carries its wall time in ``ms``."""
    out = []
    for name, fn in _suite_checks(suite):
        t0 = time.perf_counter()
        result = _guarded(name, suite, fn, sc)
        if isinstance(result, list):  # the cocycle checks time themselves
            out.extend(result)
        else:
            result.ms = (time.perf_counter() - t0) * 1000.0
            out.append(result)
    return out


def run_all(sc: Scenario, suites=SUITES, threads: int = 1) -> dict:
    """Run the requested suites in order and assemble the JSON report.

    Wall-clock data lives only under the "timing" key so that the rest of
    the report is reproducible byte for byte for a fixed seed: per suite
    (``suite_ms``), per check name (``check_ms``; names are unique within a
    report) and in total.  ``threads`` is accepted for compatibility and has
    no effect.
    """
    checks = []
    timing = {}
    t0 = time.perf_counter()
    # an overflow or NaN lands in the report as a failed check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for suite in suites:
            t_suite = time.perf_counter()
            results = run_suite(sc, suite)
            for r in results:
                checks.append(r)
            timing[suite] = round((time.perf_counter() - t_suite) * 1000.0, 3)
    total_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    report = {
        "schema": "gpmult-report/1",
        "scenario": sc.name,
        "seed": sc.seed,
        "suites": list(suites),
        "pass": all(c.passed for c in checks),
        "checks": [c.to_json() for c in checks],
    }
    if sc.expanded_config is not None:
        report["config"] = sc.expanded_config
    report["timing"] = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "suite_ms": timing,
        "check_ms": {c.name: round(c.ms, 3) for c in checks},
        "total_ms": total_ms,
    }
    return report
