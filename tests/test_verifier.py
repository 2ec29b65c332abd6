"""End-to-end verification suites: reports, determinism, targeted failures."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from gpmult.cli import build_scenario, load_config, main
from gpmult.errors import BudgetExceededError
from gpmult.matalg import AlgebraElement
from gpmult.verifier import (
    CheckResult,
    Scenario,
    _complete_sets,
    run_all,
    verify_cross_terms,
    verify_drop_last,
    verify_main_theorem,
    verify_peel_off,
    verify_y1_square,
)
from gpmult.wordcraft import GPElement
from support import complete_set_elements, count_elements, id_closure, is_complete, k4_z2_config

ALL_SUITES = ("main", "lemmas", "haagerup", "cocycles")
SCENARIOS = sorted(p.stem for p in Path("scenarios").glob("*.json"))


def scenario(name):
    return build_scenario(load_config(f"scenarios/{name}.json"))


@pytest.mark.parametrize("name", SCENARIOS)
def test_run_all_builds_no_element(monkeypatch, capsys, name):
    """Every suite reads words as ids and ball arrays, so verifying a
    committed scenario builds no ``GPElement``; normalize and eval, which
    hand a word back, still build one."""
    built = count_elements(monkeypatch)
    sc = build_scenario(load_config(f"scenarios/{name}.json"), seed=42)
    run_all(sc, suites=ALL_SUITES, threads=1)
    assert built == []
    words = sc.system.words
    x = words.normalize([(0, 1)])
    assert isinstance(x, GPElement) and len(x) == 1 and len(built) == 1
    word = json.dumps([[words.graph.vertices[0], 1]])
    assert main(["eval", f"scenarios/{name}.json", "--word", word]) == 0
    assert json.loads(capsys.readouterr().out)["canonical"] == [[words.graph.vertices[0], 1]]
    assert len(built) > 1


@pytest.fixture(scope="module")
def free_pair_report():
    return run_all(scenario("free_pair_z2"), suites=ALL_SUITES, threads=1)


def by_name(report):
    return {c["name"]: c for c in report["checks"]}


def test_free_pair_passes_everything(free_pair_report):
    rep = free_pair_report
    assert rep["pass"] is True
    assert rep["schema"] == "gpmult-report/1"
    assert rep["scenario"] == "free_pair_z2"
    assert rep["seed"] == 42
    assert list(rep["suites"]) == list(ALL_SUITES)
    assert all(c["pass"] for c in rep["checks"])
    names = set(by_name(rep))
    assert {
        "setup",
        "product-well-defined",
        "kernel-gram-positive",
        "kernel-star-symmetry",
        "peel-first-letter",
        "drop-last-letter",
        "cross-terms",
        "schwarz-inequality",
        "shared-prefix-square-bound",
        "haagerup-witness",
    } <= names
    # one cocycle block per vertex
    assert "vertex-a/cocycle-identity" in names
    assert "vertex-b/negative-definiteness" in names
    assert sorted(rep["timing"]) == ["check_ms", "generated_at", "suite_ms", "total_ms"]
    assert rep["config"]["name"] == "free_pair_z2"


def test_free_pair_key_numbers(free_pair_report):
    checks = by_name(free_pair_report)
    assert checks["kernel-gram-positive"]["lambda_min"] > 0.3
    assert checks["kernel-star-symmetry"]["residual"] == 0.0
    assert checks["peel-first-letter"]["residual"] == 0.0
    assert checks["drop-last-letter"]["residual"] == 0.0
    assert checks["cross-terms"]["residual"] == 0.0
    wit = checks["haagerup-witness"]
    assert wit["residual"] == 0.5**5
    assert wit["counts"] == {"witness_set": 9, "ball": 13}
    # psi = 2 - 2 h(a) = 1 off the identity of Z/2; the sum-zero unit vector
    # (1, -1)/sqrt(2) gives the form -psi(a)
    for v in "ab":
        nd = checks[f"vertex-{v}/negative-definiteness"]
        assert abs(nd["details"]["exact_lambda_max"] + 1.0) < 1e-12


def test_tuple_targets_are_met(free_pair_report):
    checks = by_name(free_pair_report)
    assert checks["schwarz-inequality"]["counts"]["non_vacuous"] >= 60
    assert checks["schwarz-inequality"]["lambda_min"] >= -1e-8
    assert checks["shared-prefix-square-bound"]["counts"]["non_vacuous"] >= 60
    assert checks["shared-prefix-square-bound"]["lambda_min"] >= -1e-8


def test_report_is_deterministic_modulo_timing(free_pair_report):
    again = run_all(scenario("free_pair_z2"), suites=ALL_SUITES, threads=1)
    a = {k: v for k, v in free_pair_report.items() if k != "timing"}
    b = {k: v for k, v in again.items() if k != "timing"}
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_threads_do_not_change_the_report(free_pair_report):
    threaded = run_all(scenario("free_pair_z2"), suites=ALL_SUITES, threads=4)
    a = {k: v for k, v in free_pair_report.items() if k != "timing"}
    b = {k: v for k, v in threaded.items() if k != "timing"}
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_verify_builds_no_algebra_element(monkeypatch):
    """Every check works on arrays: over every suite of the 9 committed
    scenarios, the two sabotaged ones included, no ``AlgebraElement`` is
    constructed."""
    built = []
    init = AlgebraElement.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraElement, "__init__", counting)
    assert len(SCENARIOS) == 9
    for name in SCENARIOS:
        run_all(scenario(name), suites=ALL_SUITES)
    assert len(built) == 0
    structure = scenario("free_pair_z2").system.structure
    AlgebraElement(structure, [np.eye(d) for d in structure.block_dims])
    assert len(built) == 1  # the counter counts


def wide_gram_config():
    """Three Z/3 vertices with one edge on C^6 + C^6, each fixing both
    blocks, with geometric values: complete sets of 70, 70 and 68 words."""
    decay = {"a": (0.3, 0.2), "b": (0.25, 0.4), "c": (0.15, 0.35)}
    return {
        "name": "wide_gram",
        "graph": {"vertices": list("abc"), "edges": [["a", "b"]]},
        "groups": {v: {"preset": "cyclic", "n": 3} for v in "abc"},
        "algebra": {"blocks": [6, 6]},
        "actions": {v: {"preset": "block-permutation", "perms": [[0, 1]] * 3} for v in "abc"},
        "multipliers": {v: {"values": [[c ** min(g, 3 - g) for c in cs] for g in range(3)]} for v, cs in decay.items()},
        "verify": {"seed": 1, "ball_radius": 4, "max_set_size": 70, "max_flat_dim": 1500, "sample_size": 40},
    }


def test_main_theorem_builds_no_word_element(monkeypatch):
    """``kernel-gram-positive`` samples, closes, inverts and gathers on word
    ids: on a system with sets of about 70 words and on the 9 committed
    scenarios, the two sabotaged ones included, no ``GPElement`` is
    constructed."""
    systems = [build_scenario(wide_gram_config()), *map(scenario, SCENARIOS)]
    built = []
    init = GPElement.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(GPElement, "__init__", counting)
    assert len(SCENARIOS) == 9
    results = [verify_main_theorem(sc) for sc in systems]
    assert len(built) == 0
    assert results[0].passed and [s[0] for s in results[0].sizes] == [70, 70, 68]
    systems[0].system.words.normalize([])
    assert len(built) == 1  # the counter counts


def test_nonpositive_vertex_multiplier_hits_the_gram_check():
    rep = run_all(scenario("sabotage_nonpd"), suites=ALL_SUITES, threads=1)
    assert rep["pass"] is False
    checks = by_name(rep)
    assert not checks["setup"]["pass"]
    assert checks["setup"]["details"]["error"] == "hypothesis_violated"
    # the product is still well defined - positivity is what breaks
    assert checks["product-well-defined"]["pass"]
    gram = checks["kernel-gram-positive"]
    assert not gram["pass"]
    assert gram["lambda_min"] <= -0.1
    # word-level identities survive: the failure is localized to positivity
    for name in ("kernel-star-symmetry", "peel-first-letter", "drop-last-letter", "cross-terms"):
        assert checks[name]["pass"], name


def test_noninvariant_edge_multiplier_hits_the_well_defined_check():
    rep = run_all(scenario("sabotage_noninvariant"), suites=ALL_SUITES, threads=1)
    assert rep["pass"] is False
    checks = by_name(rep)
    assert checks["setup"]["details"]["error"] == "edge_violation"
    wd = checks["product-well-defined"]
    assert not wd["pass"]
    assert wd["residual"] >= 1e-3
    assert wd["details"]["witness"]  # the offending rearrangement is reported
    # per-vertex data is fine on its own
    assert checks["peel-first-letter"]["pass"]
    assert checks["shared-prefix-square-bound"]["pass"]
    for name, c in checks.items():
        if name.startswith("vertex-"):
            assert c["pass"], name


def test_zero_trials_negative_definiteness_keeps_the_exact_certificate():
    """With no random trial, exact_lambda_max still certifies a nontrivial group."""
    sc = dataclasses.replace(scenario("free_pair_z2"), nd_trials=0)
    rep = run_all(sc, suites=("cocycles",))
    nd = [c for c in rep["checks"] if c["name"].endswith("/negative-definiteness")]
    assert len(nd) == 2
    for c in nd:
        assert c["pass"] is True
        assert c["vacuous"] is False
        assert c["counts"] == {"trials": 0}
        assert "residual" not in c
        assert c["details"]["exact_lambda_max"] < 0


def test_zero_trials_on_the_trivial_group_is_vacuous():
    cfg = load_config("scenarios/free_pair_z2.json")
    cfg["groups"]["b"] = {"preset": "cyclic", "n": 1}
    cfg["multipliers"]["b"] = {"values": [1]}
    cfg["verify"] = {"nd_trials": 0}
    checks = by_name(run_all(build_scenario(cfg), suites=("cocycles",)))
    trivial = checks["vertex-b/negative-definiteness"]
    assert trivial["pass"] is True
    assert trivial["vacuous"] is True
    assert trivial["details"]["reason"]
    assert "counts" not in trivial
    assert checks["vertex-a/negative-definiteness"]["vacuous"] is False


def test_shared_prefix_with_vanishing_difference_is_vacuous(free_pair_report):
    """Multipliers [1, 1] make LHS = RHS on every family, so nothing is examined."""
    cfg = load_config("scenarios/free_pair_z2.json")
    for vid in ("a", "b"):
        cfg["multipliers"][vid] = {"values": [1, 1]}
    cfg["verify"] = {}
    checks = by_name(run_all(build_scenario(cfg), suites=("lemmas",)))
    for name in ("shared-prefix-square-bound", "schwarz-inequality"):
        c = checks[name]
        assert c["pass"] is True
        assert c["vacuous"] is True
        assert c["details"]["reason"]
        assert c["counts"]["non_vacuous"] == 0
        assert c["counts"]["families"] > 0
    committed = by_name(free_pair_report)["shared-prefix-square-bound"]
    assert committed["vacuous"] is False
    assert committed["counts"]["non_vacuous"] == 60


@pytest.fixture(scope="module")
def radius_zero_report():
    sc = dataclasses.replace(scenario("free_pair_z2"), identity_radius=0)
    return by_name(run_all(sc, suites=("lemmas",)))


@pytest.mark.parametrize(
    "name, counts",
    [
        ("peel-first-letter", {"expressions": 0}),
        ("drop-last-letter", {"instances": 0}),
        ("cross-terms", {"smaller-count": 0, "different-prefix": 0}),
        ("schwarz-inequality", {"non_vacuous": 0}),
    ],
)
def test_zero_evidence_lemma_checks_are_vacuous(
    name, counts, radius_zero_report, free_pair_report
):
    """At identity_radius 0 the ball is the identity alone, so these checks
    examine nothing; at the scenario's own radius they stay non-vacuous."""
    c = radius_zero_report[name]
    assert c["pass"] is True
    assert c["vacuous"] is True
    assert c["details"]["reason"]
    assert counts.items() <= c["counts"].items()
    assert by_name(free_pair_report)[name]["vacuous"] is False


def sampler_inputs(sc):
    """Per complete set the base, the seeded ball sample and the cap, drawn
    as ``_complete_sets`` draws them."""
    words = sc.system.words
    ball = words.ball(sc.ball_radius, budget=sc.budget)
    rng = np.random.default_rng([sc.seed, 101])
    cap = min(sc.max_set_size, sc.max_flat_dim // sc.system.structure.total_dim)
    for k in range(sc.num_sets):
        base = list(words.ball(1)) if k == 0 else [words.normalize([])]
        n_draw = min(sc.sample_size, len(ball))
        idx = sorted(int(i) for i in rng.choice(len(ball), size=n_draw, replace=False))
        yield base, [ball[i] for i in idx], cap


def retry_complete_sets(sc):
    """The sampler as it was first written: the closure of base and whole
    sample, retried with one sample element fewer while the cap overflows."""
    words = sc.system.words
    sets = []
    for base, sample, cap in sampler_inputs(sc):
        while True:
            try:
                closure = id_closure(words, base + sample, max_size=cap)
                break
            except BudgetExceededError as err:
                if not sample or "max_size" not in err.context:
                    raise
                sample = sample[:-1]
        sets.append(closure)
    return sets


def prefix_complete_sets(sc):
    """Reference sampler: per set, the closure of base and of the longest
    prefix of the sample whose uncapped closure fits under the cap."""
    words = sc.system.words
    sets = []
    for base, sample, cap in sampler_inputs(sc):
        closures = [
            id_closure(words, base + sample[:m], max_size=10**9)
            for m in range(len(sample) + 1)
        ]
        fits = [c for c in closures if len(c) <= cap]
        sets.append(fits[-1] if fits else id_closure(words, base, max_size=cap))
    return sets


def set_ids(sc, sets):
    """The word ids of the elements of each set, in their order."""
    return [[sc.system.words.intern(x.letters) for x in xs] for xs in sets]


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("max_set_size", [None, 8, 12, 16])
def test_complete_sets_take_the_longest_sample_prefix_that_fits(name, max_set_size):
    sc = scenario(name)
    if max_set_size is None:
        assert _complete_sets(sc) == set_ids(sc, retry_complete_sets(sc))
        return
    sc = dataclasses.replace(sc, max_set_size=max_set_size, sample_size=12)

    def outcome(sampler):
        try:
            return sampler(sc)
        except BudgetExceededError as err:
            return err.args[0], err.context

    want = outcome(lambda sc: set_ids(sc, prefix_complete_sets(sc)))
    if isinstance(want, tuple):  # only the first set has a base that can overflow
        caps = {"max_set_size": max_set_size, "max_flat_dim": sc.max_flat_dim}
        want = want[0], {**want[1], "set": 0, **caps}
    assert outcome(_complete_sets) == want


def test_complete_sets_are_complete_and_capped():
    sc = scenario("triangle_perm_z2")
    sets = complete_set_elements(sc)
    assert len(sets) == sc.num_sets
    ctx = sc.system.words
    for xs in sets:
        assert len(xs) <= sc.max_set_size
        assert is_complete(ctx, xs)
    identity = ctx.normalize([])
    assert identity in sets[0]
    for x in ctx.ball(1):
        assert x in sets[0]  # the first set always carries the radius-1 ball


def test_budget_propagates_out_of_run_all():
    sc = dataclasses.replace(scenario("free_pair_z2"), budget=5)
    with pytest.raises(BudgetExceededError):
        run_all(sc, suites=("main",), threads=1)


def test_budget_bounds_every_lemma_check():
    """(Z/2)^4 as the complete graph K4 at identity radius 4: the ball has 16
    words, but the rearrangement class of abcd has 24 sequences, so a
    budget of 20 stops every check that enumerates it.  Cross-terms and the
    shared-prefix bound read standard forms off the letter order and
    enumerate nothing, so the budget leaves their results unchanged."""
    cfg = k4_z2_config(identity_radius=4, budget=20)
    sc = build_scenario(cfg)
    assert len(sc.system.words.ball(4, budget=20)) == 16
    for check in (verify_peel_off, verify_drop_last):
        with pytest.raises(BudgetExceededError):
            check(sc)
    with pytest.raises(BudgetExceededError):
        run_all(sc, suites=("lemmas",))
    wide = dataclasses.replace(build_scenario(cfg), budget=24)
    for check in (verify_cross_terms, verify_y1_square):
        assert check(sc).to_json() == check(wide).to_json()
    assert all(c["pass"] for c in run_all(wide, suites=("lemmas",))["checks"])


def test_witnessless_scenario_reports_vacuous_witness():
    rep = run_all(scenario("tensor_edge_z2_z3"), suites=("haagerup",), threads=1)
    assert rep["pass"] is True
    (wit,) = rep["checks"]
    assert wit["name"] == "haagerup-witness"
    assert wit["vacuous"] is True
    assert "reason" in wit["details"]


def test_single_suite_restricts_the_checks():
    rep = run_all(scenario("free_pair_z2"), suites=("haagerup",), threads=1)
    assert [c["suite"] for c in rep["checks"]] == ["haagerup"]
    assert rep["pass"] is True


def test_check_result_json_omits_empty_fields():
    c = CheckResult(name="x", suite="main", passed=True)
    out = c.to_json()
    assert sorted(out) == ["name", "pass", "suite", "vacuous"]


def test_check_result_reports_non_finite_quantities_as_null_with_a_reason():
    c = CheckResult(
        name="x",
        suite="lemmas",
        passed=True,
        residual=float("nan"),
        details={"bound": float("-inf"), "grid": [1.0, float("inf")]},
    )
    assert c.passed is False
    out = c.to_json()
    json.dumps(out, allow_nan=False)
    assert out["pass"] is False
    assert out["residual"] is None
    assert out["details"]["bound"] is None
    assert out["details"]["grid"] == [1.0, None]
    assert out["details"]["non_finite"] == {
        "residual": "nan",
        "details/bound": "-inf",
        "details/grid/1": "inf",
    }
    finite = CheckResult(name="y", suite="main", passed=True, lambda_min=0.5)
    assert finite.passed is True
    assert "details" not in finite.to_json()


def test_scenario_defaults():
    sc = Scenario(name="bare", system=scenario("free_pair_z2").system)
    assert sc.seed == 42
    assert sc.ball_radius == 4
    assert sc.schoenberg_t == (0.1, 1.0, 10.0)
    assert sc.witness is None
