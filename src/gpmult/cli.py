"""Command line front end.

Scenario configs are JSON files describing the graph, the vertex groups,
the coefficient algebra, the actions and the multipliers, plus optional
verification parameters.  Configs are validated by hand so that every
complaint carries a JSON-pointer to the offending entry; presets are
expanded before use and the expansion is echoed into verification reports.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 invalid configuration, 3 a search budget was exhausted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .dynamics import (
    ActionSystem,
    block_permutation_action,
    diagonal_phase_action,
    point_permutation_action,
    trivial_action,
)
from .errors import BudgetExceededError, ConfigError, GPMultError
from .graphgroup import FiniteGroup, SimplicialGraph, preset_group, validate_group
from .matalg import BlockStructure, CentralElement
from .multipliers import (
    Multiplier,
    MultiplierSystem,
    delta_multiplier,
    geometric_multiplier,
)
from .verifier import SUITES, Scenario, null_non_finite, run_all, verify_setup
from .wordcraft import WordContext

GROUP_PRESETS = ("cyclic", "symmetric", "dihedral")
ACTION_PRESETS = (
    "trivial",
    "diagonal-phases",
    "block-permutation",
    "point-permutation",
)
# Largest D, the sum of the squared block dimensions: an action's (n, D, D)
# complex matrix-unit images then stay near 126 MB at the largest group order.
MAX_UNIT_DIM = 256


# ----------------------------------------------------------------------
# low-level shape checks

def _want(cond, pointer, message, code=None):
    if not cond:
        raise ConfigError(pointer, message, code=code)


def _as_dict(x, pointer):
    _want(isinstance(x, dict), pointer, "expected an object")
    return x


def _as_list(x, pointer, length=None):
    _want(isinstance(x, list), pointer, "expected an array")
    if length is not None:
        _want(len(x) == length, pointer, f"expected {length} entries, got {len(x)}")
    return x


def _as_str(x, pointer):
    _want(isinstance(x, str), pointer, "expected a string")
    return x


def _as_int(x, pointer, at_least=None):
    _want(isinstance(x, int) and not isinstance(x, bool), pointer, "expected an integer")
    if at_least is not None:
        _want(x >= at_least, pointer, f"must be at least {at_least}")
    return x


def _as_num(x, pointer):
    _want(
        isinstance(x, (int, float)) and not isinstance(x, bool),
        pointer,
        "expected a number",
    )
    return float(x)


def _keys(d, pointer, allowed, required=()):
    for k in d:
        if k not in allowed:
            raise ConfigError(f"{pointer}/{k}", "unknown key", code="config_unknown_key")
    for k in required:
        _want(k in d, pointer, f"missing required key {k!r}", code="config_missing_key")
    return d


# ----------------------------------------------------------------------
# section builders

def _build_graph(cfg) -> SimplicialGraph:
    g = _as_dict(cfg.get("graph"), "/graph")
    _keys(g, "/graph", {"vertices", "edges"}, required=("vertices",))
    vs = _as_list(g["vertices"], "/graph/vertices")
    _want(len(vs) > 0, "/graph/vertices", "need at least one vertex")
    names = []
    for i, v in enumerate(vs):
        names.append(_as_str(v, f"/graph/vertices/{i}"))
    edges = []
    for i, e in enumerate(_as_list(g.get("edges", []), "/graph/edges")):
        pair = _as_list(e, f"/graph/edges/{i}", length=2)
        a = _as_str(pair[0], f"/graph/edges/{i}/0")
        b = _as_str(pair[1], f"/graph/edges/{i}/1")
        for side, name in enumerate((a, b)):
            _want(
                name in names,
                f"/graph/edges/{i}/{side}",
                f"unknown vertex {name!r}",
            )
        edges.append((a, b))
    try:
        return SimplicialGraph.build(names, edges)
    except GPMultError as err:
        raise ConfigError("/graph", str(err)) from err


def _build_group(spec, pointer) -> FiniteGroup:
    d = _as_dict(spec, pointer)
    if "table" in d:
        _keys(d, pointer, {"table", "name"})
        table = _as_list(d["table"], f"{pointer}/table")
        try:
            arr = np.asarray(table, dtype=np.int64)
            group = FiniteGroup(arr, name=str(d.get("name", "custom")))
            validate_group(group)
        except (GPMultError, ValueError) as err:
            raise ConfigError(f"{pointer}/table", str(err)) from err
        return group
    _keys(d, pointer, {"preset", "n"}, required=("preset", "n"))
    kind = _as_str(d["preset"], f"{pointer}/preset")
    _want(
        kind in GROUP_PRESETS,
        f"{pointer}/preset",
        f"unknown preset {kind!r}; choose from {', '.join(GROUP_PRESETS)}",
    )
    n = _as_int(d["n"], f"{pointer}/n", at_least=1)
    try:
        return preset_group(kind, n)
    except (GPMultError, ValueError) as err:
        raise ConfigError(f"{pointer}/n", str(err)) from err


def _build_structure(cfg) -> BlockStructure:
    a = _as_dict(cfg.get("algebra"), "/algebra")
    _keys(a, "/algebra", {"blocks"}, required=("blocks",))
    blocks = _as_list(a["blocks"], "/algebra/blocks")
    _want(len(blocks) > 0, "/algebra/blocks", "need at least one block")
    dims = [_as_int(b, f"/algebra/blocks/{i}", at_least=1) for i, b in enumerate(blocks)]
    _want(
        sum(d * d for d in dims) <= MAX_UNIT_DIM,
        "/algebra/blocks",
        f"the squared block dimensions must sum to at most {MAX_UNIT_DIM}",
    )
    return BlockStructure(tuple(dims))


def _build_action(spec, pointer, group, structure):
    d = _as_dict(spec, pointer)
    _keys(
        d,
        pointer,
        {"preset", "phases", "perms", "maps"},
        required=("preset",),
    )
    kind = _as_str(d["preset"], f"{pointer}/preset")
    _want(
        kind in ACTION_PRESETS,
        f"{pointer}/preset",
        f"unknown preset {kind!r}; choose from {', '.join(ACTION_PRESETS)}",
    )

    def _perm_lists(key):
        rows = _as_list(d.get(key), f"{pointer}/{key}", length=group.order)
        out = []
        for g, row in enumerate(rows):
            row = _as_list(row, f"{pointer}/{key}/{g}", length=structure.num_blocks)
            out.append([_as_int(p, f"{pointer}/{key}/{g}/{i}") for i, p in enumerate(row)])
        return out

    try:
        if kind == "trivial":
            _keys(d, pointer, {"preset"})
            return trivial_action(group, structure)
        if kind == "diagonal-phases":
            _keys(d, pointer, {"preset", "phases"}, required=("phases",))
            rows = _as_list(d["phases"], f"{pointer}/phases", length=group.order)
            phases = []
            for g, row in enumerate(rows):
                row = _as_list(
                    row, f"{pointer}/phases/{g}", length=structure.num_blocks
                )
                per_block = []
                for k, angles in enumerate(row):
                    angles = _as_list(
                        angles,
                        f"{pointer}/phases/{g}/{k}",
                        length=structure.block_dims[k],
                    )
                    per_block.append(
                        [
                            _as_num(t, f"{pointer}/phases/{g}/{k}/{i}")
                            for i, t in enumerate(angles)
                        ]
                    )
                phases.append(per_block)
            return diagonal_phase_action(group, structure, phases)
        if kind == "block-permutation":
            _keys(d, pointer, {"preset", "perms"}, required=("perms",))
            return block_permutation_action(group, structure, _perm_lists("perms"))
        # point-permutation
        _keys(d, pointer, {"preset", "maps"}, required=("maps",))
        return point_permutation_action(group, structure, _perm_lists("maps"))
    except GPMultError as err:
        raise ConfigError(pointer, str(err)) from err


def _central_value(entry, structure, pointer) -> CentralElement:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return CentralElement.constant(structure, float(entry))
    blocks = _as_list(entry, pointer, length=structure.num_blocks)
    scalars = []
    for k, item in enumerate(blocks):
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            scalars.append(complex(item))
        else:
            pair = _as_list(item, f"{pointer}/{k}", length=2)
            re = _as_num(pair[0], f"{pointer}/{k}/0")
            im = _as_num(pair[1], f"{pointer}/{k}/1")
            scalars.append(complex(re, im))
    return CentralElement(structure, np.asarray(scalars))


def _build_multiplier(spec, pointer, group, structure) -> Multiplier:
    d = _as_dict(spec, pointer)
    if "values" in d:
        _keys(d, pointer, {"values"})
        rows = _as_list(d["values"], f"{pointer}/values", length=group.order)
        vals = tuple(
            _central_value(row, structure, f"{pointer}/values/{g}")
            for g, row in enumerate(rows)
        )
        return Multiplier(group, structure, vals)
    _keys(d, pointer, {"preset", "c"}, required=("preset",))
    kind = _as_str(d["preset"], f"{pointer}/preset")
    if kind == "delta":
        _keys(d, pointer, {"preset"})
        return delta_multiplier(group, structure)
    if kind == "geometric":
        _keys(d, pointer, {"preset", "c"}, required=("c",))
        c = _as_num(d["c"], f"{pointer}/c")
        try:
            return geometric_multiplier(group, structure, c)
        except GPMultError as err:
            raise ConfigError(f"{pointer}/preset", str(err)) from err
    raise ConfigError(
        f"{pointer}/preset", f"unknown preset {kind!r}; choose delta or geometric"
    )


# The verification parameters are the Scenario fields past the system and
# before the provenance echo; their order is the order of the echoed config.
_VERIFY_FIELDS = tuple(
    f for f in dataclasses.fields(Scenario) if f.name not in ("name", "system", "expanded_config")
)
_INT_PARAMS = tuple(f.name for f in _VERIFY_FIELDS if f.name not in ("schoenberg_t", "witness"))


def _verify_params(cfg) -> dict:
    out: dict = {}
    v = cfg.get("verify")
    if v is None:
        return out
    v = _as_dict(v, "/verify")
    _keys(v, "/verify", {f.name for f in _VERIFY_FIELDS})
    for key in _INT_PARAMS:
        if key in v:
            out[key] = _as_int(v[key], f"/verify/{key}", at_least=0)
    if "schoenberg_t" in v:
        ts = _as_list(v["schoenberg_t"], "/verify/schoenberg_t")
        _want(len(ts) > 0, "/verify/schoenberg_t", "need at least one value")
        out["schoenberg_t"] = tuple(
            _as_num(t, f"/verify/schoenberg_t/{i}") for i, t in enumerate(ts)
        )
    if "witness" in v:
        w = _as_dict(v["witness"], "/verify/witness")
        _keys(w, "/verify/witness", {"K", "eps", "L"}, required=("K", "eps", "L"))
        out["witness"] = {
            "K": _as_int(w["K"], "/verify/witness/K", at_least=1),
            "eps": _as_num(w["eps"], "/verify/witness/eps"),
            "L": _as_int(w["L"], "/verify/witness/L", at_least=1),
        }
    return out


def _echo_config(name, graph, groups, structure, cfg, multipliers, params):
    """Fully expanded config: presets resolved, every default made explicit."""
    actions_cfg = cfg["actions"]
    mult_echo = {}
    for vid, h in zip(graph.vertices, multipliers):
        mult_echo[vid] = {"values": [_complex_pairs(row) for row in h.scalars]}
    return {
        "name": name,
        "graph": {
            "vertices": list(graph.vertices),
            "edges": sorted(
                sorted(graph.vertices[i] for i in e) for e in graph.edge_index_pairs()
            ),
        },
        "groups": {
            vid: {"name": groups[v].name, "order": int(groups[v].order)}
            for v, vid in enumerate(graph.vertices)
        },
        "algebra": {"blocks": list(structure.block_dims)},
        "actions": {vid: actions_cfg[vid] for vid in graph.vertices},
        "multipliers": mult_echo,
        "verify": {**params, "schoenberg_t": list(params["schoenberg_t"])},
    }


class _NonFinite:
    """Placeholder for a JSON number that is not a finite float."""

    def __init__(self, text: str):
        self.text = text


def _parse_float(text: str):
    value = float(text)
    return value if np.isfinite(value) else _NonFinite(text)


def _reject_non_finite(x, pointer: str) -> None:
    if isinstance(x, _NonFinite):
        raise ConfigError(
            pointer or "/",
            f"non-finite number {x.text} is not allowed",
            code="config_non_finite",
        )
    if isinstance(x, dict):
        for k, v in x.items():
            _reject_non_finite(v, f"{pointer}/{k}")
    elif isinstance(x, list):
        for i, v in enumerate(x):
            _reject_non_finite(v, f"{pointer}/{i}")


def load_config(path: str) -> dict:
    """Parse a config file.  ``NaN``, ``Infinity`` and numbers that overflow
    a float are rejected with a pointer to where they occur."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_NonFinite, parse_float=_parse_float)
    except OSError as err:
        raise ConfigError("/", f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("/", f"invalid JSON: {err}") from err
    _reject_non_finite(cfg, "")
    return _as_dict(cfg, "/")


def build_scenario(cfg, seed: int | None = None) -> Scenario:
    _keys(
        cfg,
        "",
        {"name", "graph", "groups", "algebra", "actions", "multipliers", "verify"},
        required=("graph", "groups", "algebra", "actions", "multipliers"),
    )
    name = _as_str(cfg.get("name", "scenario"), "/name")
    graph = _build_graph(cfg)
    structure = _build_structure(cfg)

    groups_cfg = _as_dict(cfg["groups"], "/groups")
    _keys(groups_cfg, "/groups", set(graph.vertices), required=tuple(graph.vertices))
    groups = [
        _build_group(groups_cfg[vid], f"/groups/{vid}") for vid in graph.vertices
    ]
    words = WordContext(graph, groups)

    actions_cfg = _as_dict(cfg["actions"], "/actions")
    _keys(actions_cfg, "/actions", set(graph.vertices), required=tuple(graph.vertices))
    tables = [
        _build_action(actions_cfg[vid], f"/actions/{vid}", groups[v], structure)
        for v, vid in enumerate(graph.vertices)
    ]
    try:
        actions = ActionSystem(words, structure, tables)
    except GPMultError as err:
        raise ConfigError("/actions", str(err)) from err

    mult_cfg = _as_dict(cfg["multipliers"], "/multipliers")
    _keys(mult_cfg, "/multipliers", set(graph.vertices), required=tuple(graph.vertices))
    multipliers = [
        _build_multiplier(mult_cfg[vid], f"/multipliers/{vid}", groups[v], structure)
        for v, vid in enumerate(graph.vertices)
    ]
    system = MultiplierSystem(actions, multipliers)

    params = {f.name: f.default for f in _VERIFY_FIELDS}
    params.update(_verify_params(cfg))
    if seed is not None:
        params["seed"] = seed
    echo = _echo_config(name, graph, groups, structure, cfg, multipliers, params)
    return Scenario(name=name, system=system, expanded_config=echo, **params)


# ----------------------------------------------------------------------
# word I/O

def _parse_word(text, words: WordContext):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("/word", f"invalid JSON: {err}") from err
    pairs = _as_list(raw, "/word")
    letters = []
    for i, p in enumerate(pairs):
        pair = _as_list(p, f"/word/{i}", length=2)
        vid = _as_str(pair[0], f"/word/{i}/0")
        _want(
            vid in words.graph.vertices, f"/word/{i}/0", f"unknown vertex {vid!r}"
        )
        v = words.graph.vertex_index(vid)
        e = _as_int(pair[1], f"/word/{i}/1")
        _want(
            0 <= e < words.groups[v].order,
            f"/word/{i}/1",
            f"element out of range for group of order {words.groups[v].order}",
        )
        letters.append((vid, e))
    return words.from_pairs(letters)


def _complex_pairs(scalars):
    return [[float(s.real), float(s.imag)] for s in scalars]


# ----------------------------------------------------------------------
# commands

def _emit(payload, out_path=None):
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_normalize(args, sc: Scenario) -> int:
    words = sc.system.words
    x = _parse_word(args.word, words)
    payload = {
        "canonical": words.to_pairs(x.letters),
        "vertex_word": [words.graph.vertices[v] for v in x.vertex_word],
        "length": len(x.letters),
        "is_identity": not x.letters,
        "rearrangements": len(words.rearrangements(x)),
    }
    _emit(payload, args.out)
    return 0


def cmd_check_setup(args, sc: Scenario) -> int:
    result = verify_setup(sc)
    _emit({"valid": result.passed, **result.details}, args.out)
    return 0 if result.passed else 1


def cmd_eval(args, sc: Scenario) -> int:
    words = sc.system.words
    x = _parse_word(args.word, words)
    val = sc.system.gp_value(x)
    non_finite: dict = {}
    payload = {
        "canonical": words.to_pairs(x.letters),
        "value": null_non_finite(_complex_pairs(val.scalars), "value", non_finite),
        "blocks": list(sc.system.structure.block_dims),
    }
    if non_finite:
        payload["non_finite"] = non_finite
    _emit(payload, args.out)
    return 0


def cmd_verify(args, sc: Scenario) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    report = run_all(sc, suites=suites)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def nonnegative_int(text: str) -> int:
    """An integer >= 0, as ``/verify/seed`` requires of a seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpmult",
        description="Graph products of group actions: evaluation and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical form of a word")
    p.add_argument("config")
    p.add_argument("--word", required=True, help='JSON like [["a",1],["b",2]]')
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("check-setup", help="validate actions and multipliers")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_setup)

    p = sub.add_parser("eval", help="evaluate the product multiplier on a word")
    p.add_argument("config")
    p.add_argument("--word", required=True, help='JSON like [["a",1],["b",2]]')
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run certification suites, emit a JSON report")
    p.add_argument("config")
    p.add_argument(
        "--suite",
        choices=list(SUITES) + ["all"],
        default="all",
    )
    p.add_argument("--seed", type=nonnegative_int, default=None)
    p.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; no effect"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # an overflow or NaN lands in the command's output, not in a warning
        with np.errstate(over="ignore", invalid="ignore"):
            sc = build_scenario(load_config(args.config), getattr(args, "seed", None))
            return args.func(args, sc)
    except ConfigError as err:
        print(f"config error at {err.pointer}: {err.args[0]}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 3
    except GPMultError as err:
        print(f"error [{err.code}]: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
