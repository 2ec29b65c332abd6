"""Command line surface: golden outputs, config validation, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpmult.cli import MAX_UNIT_DIM, _emit, main
from gpmult.graphgroup import MAX_GROUP_ORDER
from support import k4_z2_config

FREE_PAIR = "scenarios/free_pair_z2.json"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_free_pair():
    with open(FREE_PAIR, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_normalize_golden(capsys):
    code, out, _ = run(
        capsys, ["normalize", FREE_PAIR, "--word", '[["a",1],["a",1],["b",1]]']
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "canonical": [["b", 1]],
        "vertex_word": ["b"],
        "length": 1,
        "is_identity": False,
        "rearrangements": 1,
    }


def test_eval_golden(capsys):
    code, out, _ = run(capsys, ["eval", FREE_PAIR, "--word", '[["a",1],["b",1]]'])
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical"] == [["a", 1], ["b", 1]]
    assert payload["value"] == [[0.25, 0.0]]
    assert payload["blocks"] == [1]


def test_check_setup_valid(capsys):
    code, out, _ = run(capsys, ["check-setup", FREE_PAIR])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True


def test_check_setup_invalid(capsys):
    code, out, _ = run(capsys, ["check-setup", "scenarios/sabotage_noninvariant.json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["error"] == "edge_violation"


def test_verify_single_suite_and_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["verify", FREE_PAIR, "--suite", "haagerup", "--out", str(out_path)]
    )
    assert code == 0
    assert out == ""  # written to the file instead
    report = json.loads(out_path.read_text())
    assert report["pass"] is True
    assert [c["suite"] for c in report["checks"]] == ["haagerup"]


def test_verify_seed_override(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["verify", FREE_PAIR, "--suite", "haagerup", "--seed", "7", "--out", str(out_path)],
    )
    assert code == 0
    assert json.loads(out_path.read_text())["seed"] == 7


def test_verify_negative_seed_is_a_usage_error(capsys):
    """Rejected at argument parsing with exit 2, as ``/verify/seed`` is."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", FREE_PAIR, "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be >= 0, got -1" in captured.err
    assert "Traceback" not in captured.err


def test_unwritable_out_path_is_a_usage_error(tmp_path):
    """An ``--out`` under a missing directory ends with exit 2 and one line
    naming the path, as a usage error does, not a traceback and exit 1."""
    out_path = tmp_path / "missing" / "report.json"
    proc = run_child(["verify", FREE_PAIR, "--suite", "main", "--out", str(out_path)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot write {out_path}: No such file or directory\n"
    assert "Traceback" not in proc.stderr
    assert not out_path.parent.exists()


def test_verify_failing_scenario_exits_one(capsys):
    code, out, _ = run(
        capsys, ["verify", "scenarios/sabotage_nonpd.json", "--suite", "main"]
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_budget_exhaustion_exits_three(capsys, tmp_path):
    cfg = load_free_pair()
    cfg.setdefault("verify", {})["budget"] = 5
    code, _, err = run(capsys, ["verify", write_config(tmp_path, cfg), "--suite", "main"])
    assert code == 3
    assert "budget exceeded" in err
    # (Z/2)^4 on K4: ball(4) has 16 words, but abcd has 24 rearrangements,
    # so product-well-defined stops before any complete set is built
    k4 = write_config(tmp_path, k4_z2_config(ball_radius=4, budget=20), "k4.json")
    code, out, err = run(capsys, ["verify", k4, "--suite", "main"])
    assert code == 3
    assert out == ""
    assert "rearrangement class exceeds budget" in err


def test_gram_sets_never_exceed_max_set_size(capsys, tmp_path):
    """The first complete set holds ball(1), three words on the free pair:
    under a cap of 2 verify stops with exit code 3 instead of certifying a
    3-word Gram matrix."""
    cfg = load_free_pair()
    cfg["verify"]["max_set_size"] = 2
    code, out, err = run(capsys, ["verify", write_config(tmp_path, cfg), "--suite", "main"])
    assert code == 3
    assert out == ""
    assert "closure exceeds size budget" in err


def test_complete_set_budget_error_names_the_set_and_both_caps(capsys, tmp_path):
    """One Z/61 vertex: ball(1) and the identity are 61 words, one past the
    default cap of 60, so the first set stops before its search starts."""
    cfg = {
        "graph": {"vertices": ["a"]},
        "groups": {"a": {"preset": "cyclic", "n": 61}},
        "algebra": {"blocks": [1]},
        "actions": {"a": {"preset": "trivial"}},
        "multipliers": {"a": {"preset": "geometric", "c": 0.3}},
    }
    code, out, err = run(capsys, ["verify", write_config(tmp_path, cfg), "--suite", "main"])
    assert (code, out) == (3, "")
    assert err == (
        "budget exceeded: closure exceeds size budget "
        "[max_size=60, words=61, set=0, max_set_size=60, max_flat_dim=1500]\n"
    )


def test_witness_ball_obeys_the_configured_budget(capsys, tmp_path):
    # the witness ball (L = 6) has 13 words
    cfg = load_free_pair()
    cfg.setdefault("verify", {})["budget"] = 5
    code, _, err = run(capsys, ["verify", write_config(tmp_path, cfg), "--suite", "haagerup"])
    assert code == 3
    assert "ball exceeds budget" in err
    assert "radius_reached=" in err and "words=6" in err


def test_bad_word_is_a_config_error(capsys):
    code, _, err = run(capsys, ["normalize", FREE_PAIR, "--word", '[["zzz",0]]'])
    assert code == 2
    assert "config error at /word/0/0" in err

    code, _, err = run(capsys, ["normalize", FREE_PAIR, "--word", '[["a",5]]'])
    assert code == 2
    assert "/word/0/1" in err


def test_unknown_top_level_key(capsys, tmp_path):
    cfg = load_free_pair()
    cfg["bogus"] = 1
    code, _, err = run(capsys, ["check-setup", write_config(tmp_path, cfg)])
    assert code == 2
    assert "config error at /bogus" in err


def test_missing_required_section(capsys, tmp_path):
    cfg = load_free_pair()
    del cfg["groups"]
    code, _, err = run(capsys, ["check-setup", write_config(tmp_path, cfg)])
    assert code == 2
    assert "missing required key 'groups'" in err


def test_wrong_multiplier_length(capsys, tmp_path):
    cfg = load_free_pair()
    cfg["multipliers"]["a"]["values"] = [1.0, 0.5, 0.5]
    code, _, err = run(capsys, ["check-setup", write_config(tmp_path, cfg)])
    assert code == 2
    assert "config error at /multipliers/a/values: expected 2 entries, got 3" in err


def test_unknown_edge_vertex(capsys, tmp_path):
    cfg = load_free_pair()
    cfg["graph"]["edges"] = [["a", "zzz"]]
    code, _, err = run(capsys, ["check-setup", write_config(tmp_path, cfg)])
    assert code == 2
    assert "config error at /graph/edges/0/1" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("x", "config error at /actions/u/phases/1/0/3: expected a number"),
        ([0.0] * 5, "config error at /actions/u/phases/1/0: expected 6 entries, got 5"),
    ],
)
def test_action_list_errors_name_the_entry(capsys, tmp_path, entry, message):
    """An error inside an action list keeps its own pointer, with no copy
    of it in brackets after the action's."""
    with open("scenarios/tensor_edge_z2_z3.json", "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if isinstance(entry, list):
        cfg["actions"]["u"]["phases"][1][0] = entry
    else:
        cfg["actions"]["u"]["phases"][1][0][3] = entry
    code, out, err = run(capsys, ["check-setup", write_config(tmp_path, cfg)])
    assert code == 2 and out == ""
    assert err.strip() == message


@pytest.mark.parametrize("blocks", [[10**20], [16, 1], [1] * 257])
def test_oversized_algebra_is_a_config_error(capsys, tmp_path, blocks):
    """Block dimensions whose squares sum past ``MAX_UNIT_DIM`` exit 2 with
    a pointer before any array is built; ``10**20`` used to escape as a
    numpy traceback."""
    cfg = load_free_pair()
    cfg["algebra"]["blocks"] = blocks
    code, out, err = run(capsys, ["verify", write_config(tmp_path, cfg)])
    assert code == 2 and out == ""
    assert f"config error at /algebra/blocks: the squared block dimensions must sum to at most {MAX_UNIT_DIM}" in err


def test_algebra_at_the_size_cap_is_accepted(capsys, tmp_path):
    cfg = load_free_pair()
    cfg["algebra"]["blocks"] = [16]
    assert 16 * 16 == MAX_UNIT_DIM
    code, out, _ = run(capsys, ["check-setup", write_config(tmp_path, cfg)])
    assert code == 0 and json.loads(out)["valid"] is True


def test_custom_group_past_the_order_cap_is_a_config_error(capsys, tmp_path):
    """A custom table of order 121, one past the presets' cap, used to pass
    check-setup; it is refused before the n^3 associativity arrays."""
    cfg = load_free_pair()
    n = MAX_GROUP_ORDER + 1
    cfg["groups"]["a"] = {"table": [[(i + j) % n for j in range(n)] for i in range(n)]}
    cfg["multipliers"]["a"] = {"preset": "delta"}
    code, out, err = run(capsys, ["check-setup", write_config(tmp_path, cfg)])
    assert code == 2 and out == ""
    assert "config error at /groups/a/table: group order exceeds the cap" in err


def test_verify_report_echoes_expanded_config(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, ["verify", FREE_PAIR, "--suite", "main", "--out", str(out_path)]
    )
    assert code == 0
    config = json.loads(out_path.read_text())["config"]
    # multipliers are echoed fully expanded, one [re, im] per block per element
    assert config["multipliers"]["a"]["values"] == [[[1.0, 0.0]], [[0.5, 0.0]]]
    assert config["groups"]["a"] == {"name": "cyclic-2", "order": 2}
    assert config["verify"]["budget"] == 100000


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_zero_sets_gram_check_is_vacuous_and_report_is_strict_json(capsys, tmp_path):
    cfg = load_free_pair()
    cfg.setdefault("verify", {})["num_sets"] = 0
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["verify", write_config(tmp_path, cfg), "--suite", "main", "--out", str(out_path)],
    )
    assert code == 0
    report = json.loads(out_path.read_text(), parse_constant=_reject_constant)
    gram = {c["name"]: c for c in report["checks"]}["kernel-gram-positive"]
    assert gram["vacuous"] is True
    assert "lambda_min" not in gram
    assert gram["details"]["reason"]


def test_emit_refuses_non_finite_floats():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            _emit({"x": bad})


@pytest.mark.parametrize(
    "raw, shown",
    [("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"), ("1e400", "1e400")],
)
def test_non_finite_config_number_is_a_config_error(capsys, tmp_path, raw, shown):
    cfg = load_free_pair()
    cfg["multipliers"]["a"]["values"] = [1, "PLACEHOLDER"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"PLACEHOLDER"', raw))
    code, out, err = run(capsys, ["verify", str(path), "--seed", "42"])
    assert code == 2
    assert out == ""
    assert "config error at /multipliers/a/values/1" in err
    assert err.count("/multipliers/a/values/1") == 1  # the pointer is not repeated
    assert f"non-finite number {shown}" in err
    assert "Traceback" not in err


def test_overflowing_multiplier_gives_a_strict_json_report(capsys, tmp_path):
    """Finite values whose products overflow: typed failures, null residuals."""
    cfg = load_free_pair()
    cfg["multipliers"]["a"]["values"] = [1, 1e308]
    out_path = tmp_path / "report.json"
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(
            capsys,
            ["verify", write_config(tmp_path, cfg), "--seed", "42", "--out", str(out_path)],
        )
    assert code == 1
    assert "Traceback" not in err
    report = json.loads(out_path.read_text(), parse_constant=_reject_constant)
    checks = {c["name"]: c for c in report["checks"]}
    assert report["pass"] is False
    for name in ("setup", "kernel-gram-positive", "vertex-a/cocycle-identity"):
        assert checks[name]["pass"] is False
        assert checks[name]["details"]["error"] == "not_finite"
    # residuals that overflow are null with a reason, and fail
    for name in ("product-well-defined", "kernel-star-symmetry", "drop-last-letter", "cross-terms"):
        assert checks[name]["pass"] is False
        assert checks[name]["residual"] is None
        assert checks[name]["details"]["non_finite"] == {"residual": "nan"}
    assert checks["vertex-b/negative-definiteness"]["pass"] is True


def run_child(argv):
    """``python -m gpmult.cli <argv>`` in a child process, with numpy's
    default error handling, so a floating-point warning reaches stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "gpmult.cli", *argv], capture_output=True, text=True, env=env
    )


def test_overflowing_products_leave_stderr_empty(tmp_path):
    """``eval`` writes a value that overflows as null, with its path under
    ``non_finite``, and exits 0; ``verify`` writes its strict report and
    exits 1; ``check-setup`` reports the overflow as ``not_finite`` and
    exits 1.  None prints a warning or a traceback."""
    cfg = load_free_pair()
    cfg["multipliers"]["a"]["values"] = [1, 1e308]
    path = write_config(tmp_path, cfg)
    proc = run_child(["eval", path, "--word", '[["a",1],["b",1],["a",1]]'])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout, parse_constant=_reject_constant) == {
        "canonical": [["a", 1], ["b", 1], ["a", 1]],
        "value": [[None, 0.0]],
        "blocks": [1],
        "non_finite": {"value/0/0": "inf"},
    }
    proc = run_child(["verify", path, "--seed", "42"])
    assert (proc.returncode, proc.stderr) == (1, "")
    report = json.loads(proc.stdout, parse_constant=_reject_constant)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["product-well-defined"]["details"]["non_finite"] == {"residual": "nan"}
    assert checks["haagerup-witness"]["details"]["error"] == "norm_too_large"
    proc = run_child(["check-setup", path])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"] == "not_finite"
