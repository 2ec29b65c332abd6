"""Negative controls: for each kind of check ``run_all`` can emit, the
smallest input that fails it, or why none can.

A ``pass`` is evidence only if some input would have failed the check.
A row is a config where one exists, run through every suite, with whether
it passes ``check-setup``.  Setup accepts a Gram matrix that is Hermitian
within ``HERMITIAN_TOL`` = 1e-8, while ``kernel-star-symmetry`` and the
cocycle identities hold to 1e-10 or 1e-12, so a near-Hermitian h passes
setup and still fails them.  Where no config in the table reaches a
check's failing branch, the row calls the function the check reads.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from gpmult.cli import build_scenario, load_config
from gpmult.cocycles import cocycle_build, gns_build, schoenberg_is_pd
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
# On Z/3, h(g^-1) is conj(h(g)) only up to 4e-9, inside the 1e-8 to which
# setup symmetrizes: in the real part, and in the imaginary part.
NEAR_STAR = one_vertex(3, [1, 0.3, 0.3 + 4e-9])
NEAR_STAR_IMAG = one_vertex(3, [1, [[0.3, 4e-9]], 0.3])


def near_star_modules() -> dict:
    """h = (1, 0.999 + 9e-9i, 0.999) on Z/3 and the Schoenberg exponent
    t = 125000: the Gram matrix of exp(-t Q^2) is 5e-6 from Hermitian."""
    cfg = one_vertex(3, [1, [[0.999, 9e-9]], 0.999])
    cfg["verify"] = {"schoenberg_t": [125000]}
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
    # <b(s)|b(s)> misses 2 - h~(s) - h~(s)* by the 4e-9 setup let through
    "vertex-*/cocycle-norm-identity": (NEAR_STAR, True, None),
    # the imaginary part leaves Q 8e-9 from its star symmetry; the check allows 1e-10
    "vertex-*/negative-definiteness": (NEAR_STAR_IMAG, True, None),
    # schoenberg_is_pd raises past the guard around gns_build
    "cocycle-modules": (near_star_modules(), True, "not_hermitian"),
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


# schoenberg-positivity runs only on the module of a unital h that setup
# certified; no config in the table fails it, so its row calls
# schoenberg_is_pd on a Q that is no squared norm.
DIRECT_CONTROLS = {
    "vertex-*/schoenberg-positivity": schoenberg_control,
}

TABLE = {**CONFIG_CONTROLS, **DIRECT_CONTROLS}


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
    assert len(TABLE) == len(CONFIG_CONTROLS) + len(DIRECT_CONTROLS)
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
    a = (0.9, 0.3) the witness also needs a unital h.  A near-Hermitian h
    also fails the star symmetry, and with 9e-9 in two entries the Schwarz
    inequality's matrices are 1.8e-8 from Hermitian, past setup's 1e-8."""
    failing = {
        key: sorted(c["name"] for c in run_all(build_scenario(cfg))["checks"] if not c["pass"])
        for key, cfg in (
            ("wide", free_pair([1, 0.6])),
            ("non-unital", free_pair([0.9, 0.3])),
            ("near-star", NEAR_STAR),
            ("near-star-imag", NEAR_STAR_IMAG),
            ("near-star-modules", near_star_modules()),
        )
    }
    assert failing == {
        "wide": ["haagerup-witness"],
        "non-unital": ["haagerup-witness", "vertex-a/cocycle-identity"],
        "near-star": ["kernel-star-symmetry", "vertex-a/cocycle-norm-identity"],
        "near-star-imag": [
            "kernel-star-symmetry",
            "vertex-a/cocycle-norm-identity",
            "vertex-a/negative-definiteness",
        ],
        "near-star-modules": ["cocycle-modules", "kernel-star-symmetry", "schwarz-inequality"],
    }
