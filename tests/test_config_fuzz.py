"""Mutated configs: every command ends in an exit code, never a traceback.

Each committed scenario, with its ball and identity radii set to 2, gets
fixed-seed mutations of one edit each: a key deleted, a value replaced by
"x", by [value], by 1.5 or by -1, or a list's last entry dropped or
repeated.  ``check-setup``, ``eval --word []`` and ``verify --suite all``
must each exit 0 to 3 without an exception escaping ``main``, and a run
that exits 0 or 1 prints strict JSON.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from gpmult.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
MUTATIONS = 40  # per scenario
COMMANDS = (["check-setup"], ["eval", "--word", "[]"], ["verify", "--suite", "all"])


def entries(x, at=()):
    """The path (keys and indices) of every entry below x, in document order."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield at + (k,)
        yield from entries(v, at + (k,))


def mutate(cfg, rng: random.Random) -> dict:
    """A copy of cfg with one edit at an entry drawn from ``rng``."""
    cfg = copy.deepcopy(cfg)
    path = rng.choice(list(entries(cfg)))
    parent = cfg
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    value = parent[key]
    edits = [("set", "x"), ("set", [value]), ("set", 1.5), ("set", -1)]
    if isinstance(parent, dict):
        edits.append(("delete", None))
    if isinstance(value, list) and value:
        edits += [("drop", None), ("repeat", None)]
    op, new = rng.choice(edits)
    if op == "set":
        parent[key] = new
    elif op == "delete":
        del parent[key]
    elif op == "drop":
        value.pop()
    else:
        value.append(copy.deepcopy(value[-1]))
    return cfg


def mutated_configs(path: Path) -> list:
    """One-edit mutations of the scenario at ``path`` with its radii at 2."""
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg.setdefault("verify", {}).update(ball_radius=2, identity_radius=2)
    rng = random.Random(0)
    return [mutate(cfg, rng) for _ in range(MUTATIONS)]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_mutations_cover_every_edit():
    """The draws include each kind of edit and leave the source untouched."""
    cfg = {"a": [1, 2], "b": {"c": 3}}
    seen = {json.dumps(mutate(cfg, random.Random(s)), sort_keys=True) for s in range(200)}
    assert cfg == {"a": [1, 2], "b": {"c": 3}}
    assert {
        '{"b": {"c": 3}}',  # a key deleted
        '{"a": "x", "b": {"c": 3}}',
        '{"a": [[1, 2]], "b": {"c": 3}}',
        '{"a": [1, 2], "b": {"c": 1.5}}',
        '{"a": [1, -1], "b": {"c": 3}}',
        '{"a": [1], "b": {"c": 3}}',  # the last entry dropped
        '{"a": [1, 2, 2], "b": {"c": 3}}',  # the last entry repeated
    } <= seen


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_mutated_configs_exit_cleanly(scenario, tmp_path, capsys):
    codes = set()
    for i, cfg in enumerate(mutated_configs(scenario)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for command in COMMANDS:
            code = main([command[0], str(path), *command[1:]])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), (i, command, err)
            assert "Traceback" not in err
            if code in (0, 1):
                json.loads(out, parse_constant=_reject_constant)
            codes.add(code)
    assert 2 in codes and codes & {0, 1}
