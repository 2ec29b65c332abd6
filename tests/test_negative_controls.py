"""Negative controls: for each kind of check ``run_all`` can emit, the
smallest input that fails it, or why none can.

A ``pass`` is evidence only if some input would have failed the check.
A row is a config where one exists, run through every suite, with whether
it passes ``check-setup``: the main and lemma checks hold whenever setup
does, so their controls break setup.  Where no system reaches a check's
failing branch, the row calls the function the check reads.  A row with
neither says why the check cannot fail once setup passes.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from gpmult.cli import build_scenario, load_config
from gpmult.cocycles import cocycle_build, gns_build, negative_definite_check, schoenberg_is_pd
from gpmult.dynamics import trivial_action
from gpmult.graphgroup import cyclic_group
from gpmult.verifier import SUITES, _suite_checks, run_all, verify_setup
from test_cocycles import SCALAR, scalar_multiplier
from test_thresholds import swap_edge_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def kind(name: str) -> str:
    """A check's name with its vertex id replaced by ``*``."""
    return re.sub(r"^vertex-[^/]+/", "vertex-*/", name)


def one_vertex(n: int, values) -> dict:
    """One Z/n vertex acting trivially on C with the given values."""
    return {
        "graph": {"vertices": ["a"]},
        "groups": {"a": {"preset": "cyclic", "n": n}},
        "algebra": {"blocks": [1]},
        "actions": {"a": {"preset": "trivial"}},
        "multipliers": {"a": {"values": values}},
    }


def free_pair(a_values) -> dict:
    """The scenario free_pair_z2 with the values of vertex a replaced."""
    cfg = load_config(str(ROOT / "scenarios" / "free_pair_z2.json"))
    cfg["multipliers"]["a"] = {"values": a_values}
    return cfg


def peel_config() -> dict:
    """The swap edge with a third Z/2 vertex c joined to neither."""
    cfg = swap_edge_config(0.1)
    cfg["graph"]["vertices"].append("c")
    cfg["groups"]["c"] = {"preset": "cyclic", "n": 2}
    cfg["actions"]["c"] = {"preset": "trivial"}
    cfg["multipliers"]["c"] = {"values": [[1, 1], [1, 1]]}
    return cfg


# h(g) = 1.5 > h(e) on Z/2: the Gram matrix [[1, 1.5], [1.5, 1]] has eigenvalue -0.5.
NOT_PD = one_vertex(2, [1, 1.5])
# h(g) = 0.3 + 0.1i on Z/2, where g is its own inverse: h(g^-1) is not conj(h(g)).
NOT_STAR = one_vertex(2, [1, [[0.3, 0.1]]])


def schoenberg_overflow() -> dict:
    """free_pair_z2 with a = (1, 0.5) and the one Schoenberg exponent
    t = -1000, which the config accepts: exp(1000 Q^2) overflows."""
    cfg = free_pair([1, 0.5])
    cfg["verify"]["schoenberg_t"] = [-1000]
    return cfg


# kind -> (config, whether it passes check-setup, error code of the failure or None)
CONFIG_CONTROLS = {
    "setup": (NOT_PD, False, "hypothesis_violated"),
    # b moves under a's swap, so a b and b a give two values
    "product-well-defined": (swap_edge_config(0.1), False, None),
    "kernel-gram-positive": (NOT_PD, False, None),
    "kernel-star-symmetry": (NOT_STAR, False, None),
    "peel-first-letter": (peel_config(), False, None),
    "drop-last-letter": (swap_edge_config(0.1), False, None),
    "cross-terms": (swap_edge_config(0.1), False, None),
    "schwarz-inequality": (NOT_PD, False, None),
    "shared-prefix-square-bound": (NOT_PD, False, None),
    # 0.6 > 1/2 off the identity: no finite witness set for K = 4, eps = 1/16
    "haagerup-witness": (free_pair([1, 0.6]), True, "norm_too_large"),
    # h(e) = 0.9: positive definite, so setup passes, but no cocycle
    "vertex-*/cocycle-identity": (free_pair([0.9, 0.3]), True, "not_unital"),
    # the overflow escapes verify_cocycles, past the guard around gns_build
    "cocycle-modules": (schoenberg_overflow(), True, "not_finite"),
}


def schoenberg_control() -> bool:
    """Q = (0, -1 + 2i, -1 - 2i) on Z/3 is no squared norm, which is real
    and >= 0.  Off the identity |exp(-t Q^2)| = e^(3t) and |exp(-t Q)| =
    e^t both exceed the value 1 at the identity, so neither exponent is
    positive definite for any t > 0."""
    h = scalar_multiplier(cyclic_group(3), 1.0, 0.5, 0.5)
    cocycle = cocycle_build(gns_build(h, trivial_action(h.group, SCALAR)))
    cocycle.Q = np.array([[0.0], [-1 + 2j], [-1 - 2j]])
    ok, lam = schoenberg_is_pd(cocycle, 1.0)
    assert lam < -1.0
    return ok


def negative_definiteness_control() -> bool:
    """A positive definite function makes the form positive: h = (1, 0.5)
    on Z/2, whose exact certificate is the DFT value 1 - 0.5."""
    h = scalar_multiplier(cyclic_group(2), 1.0, 0.5)
    rep = negative_definite_check(h.scalars, trivial_action(h.group, SCALAR), trials=8, seed=0)
    assert abs(rep.exact_lambda_max - 0.5) < 1e-12
    return rep.ok


# The cocycle checks past cocycle-identity run only on a module of a unital
# positive definite h, and the Q of such a module is a squared norm, so no
# system fails these two; each calls its function on an input of its own.
DIRECT_CONTROLS = {
    "vertex-*/schoenberg-positivity": schoenberg_control,
    "vertex-*/negative-definiteness": negative_definiteness_control,
}

CANNOT_FAIL = {
    "vertex-*/cocycle-norm-identity": (
        "it runs only after cocycle-identity built the cocycle of a unital "
        "positive definite h, and then <b(s)|b(s)> = 2 - h(s) - h(s)* holds "
        "by construction, up to a few ulps of the form's rounding"
    ),
}

TABLE = {**CONFIG_CONTROLS, **DIRECT_CONTROLS, **CANNOT_FAIL}


def test_every_check_kind_has_a_row():
    """Each kind in a report of the committed scenarios, and each name of a
    suite's check function (``cocycle-modules`` appears only on failure),
    has exactly one row, and no row names anything else."""
    emitted = {
        kind(c["name"])
        for path in GOLDEN.glob("*.json")
        for c in json.loads(path.read_text(encoding="utf-8"))["checks"]
    }
    listed = {name for suite in SUITES for name, _ in _suite_checks(suite)}
    assert len(TABLE) == len(CONFIG_CONTROLS) + len(DIRECT_CONTROLS) + len(CANNOT_FAIL)
    assert set(TABLE) == emitted | listed


@pytest.mark.parametrize("name", sorted(CONFIG_CONTROLS))
def test_config_control_fails_its_check(name):
    cfg, passes_setup, error = CONFIG_CONTROLS[name]
    sc = build_scenario(cfg)
    assert verify_setup(sc).passed is passes_setup
    failed = [c for c in run_all(sc)["checks"] if kind(c["name"]) == name and not c["pass"]]
    assert failed
    assert all(c.get("details", {}).get("error") == error for c in failed)


@pytest.mark.parametrize("name", sorted(DIRECT_CONTROLS))
def test_direct_control_fails_its_check(name):
    assert DIRECT_CONTROLS[name]() is False


def test_setup_passing_controls_fail_only_what_they_name():
    """free_pair_z2 with a = (1, 0.6) fails the witness alone; with
    a = (0.9, 0.3) the witness also needs a unital h; the Schoenberg
    overflow fails the cocycle suite alone."""
    failing = {
        key: sorted(c["name"] for c in run_all(build_scenario(cfg))["checks"] if not c["pass"])
        for key, cfg in (
            ("wide", free_pair([1, 0.6])),
            ("non-unital", free_pair([0.9, 0.3])),
            ("overflow", schoenberg_overflow()),
        )
    }
    assert failing == {
        "wide": ["haagerup-witness"],
        "non-unital": ["haagerup-witness", "vertex-a/cocycle-identity"],
        "overflow": ["cocycle-modules"],
    }
