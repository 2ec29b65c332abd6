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


def _as_num(x, pointer, at_least=None):
    _want(isinstance(x, (int, float)) and not isinstance(x, bool), pointer, "expected a number")
    if at_least is not None:
        _want(x >= at_least, pointer, f"must be at least {at_least}")
    return float(x)


def _as_preset(x, pointer, presets):
    kind = _as_str(x, pointer)
    _want(kind in presets, pointer, f"unknown preset {kind!r}; choose from {', '.join(presets)}")
    return kind


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
    kind = _as_preset(d["preset"], f"{pointer}/preset", GROUP_PRESETS)
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


def _angles(x, pointer, dim):
    """One block's entry of ``phases``: the angles of its ``dim`` diagonal units."""
    return [_as_num(t, f"{pointer}/{i}") for i, t in enumerate(_as_list(x, pointer, length=dim))]


def _index(x, pointer, dim):
    """One block's entry of ``perms`` or ``maps``: an integer."""
    return _as_int(x, pointer)


# action preset -> (key of its [group order][block] lists, entry reader, builder)
_ACTION_LISTS = {
    "diagonal-phases": ("phases", _angles, diagonal_phase_action),
    "block-permutation": ("perms", _index, block_permutation_action),
    "point-permutation": ("maps", _index, point_permutation_action),
}
ACTION_PRESETS = ("trivial", *_ACTION_LISTS)


def _build_action(spec, pointer, group, structure):
    d = _as_dict(spec, pointer)
    _keys(d, pointer, {"preset", "phases", "perms", "maps"}, required=("preset",))
    kind = _as_preset(d["preset"], f"{pointer}/preset", ACTION_PRESETS)
    try:
        if kind == "trivial":
            _keys(d, pointer, {"preset"})
            return trivial_action(group, structure)
        key, entry, build = _ACTION_LISTS[kind]
        _keys(d, pointer, {"preset", key}, required=(key,))
        at, dims = f"{pointer}/{key}", structure.block_dims
        lists = [
            [
                entry(x, f"{at}/{g}/{k}", dims[k])
                for k, x in enumerate(_as_list(row, f"{at}/{g}", length=len(dims)))
            ]
            for g, row in enumerate(_as_list(d[key], at, length=group.order))
        ]
        return build(group, structure, lists)
    except ConfigError:
        raise
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
            _as_num(t, f"/verify/schoenberg_t/{i}", at_least=0) for i, t in enumerate(ts)
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


def _per_vertex(cfg, key, vids, build) -> list:
    """Section ``key``: an object with one entry per vertex id, all
    required, built by ``build(v, entry, pointer)`` in vertex order."""
    at = f"/{key}"
    section = _keys(_as_dict(cfg[key], at), at, set(vids), required=tuple(vids))
    return [build(v, section[vid], f"{at}/{vid}") for v, vid in enumerate(vids)]


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

    vids = graph.vertices
    groups = _per_vertex(cfg, "groups", vids, lambda v, x, at: _build_group(x, at))
    words = WordContext(graph, groups)
    tables = _per_vertex(
        cfg, "actions", vids, lambda v, x, at: _build_action(x, at, groups[v], structure)
    )
    try:
        actions = ActionSystem(words, structure, tables)
    except GPMultError as err:
        raise ConfigError("/actions", str(err)) from err
    multipliers = _per_vertex(
        cfg, "multipliers", vids, lambda v, x, at: _build_multiplier(x, at, groups[v], structure)
    )
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


_WORD = ("--word", dict(required=True, help='JSON like [["a",1],["b",2]]'))
# (subcommand, function, help, arguments between the config and --out)
_COMMANDS = (
    ("normalize", cmd_normalize, "canonical form of a word", (_WORD,)),
    ("check-setup", cmd_check_setup, "validate actions and multipliers", ()),
    ("eval", cmd_eval, "evaluate the product multiplier on a word", (_WORD,)),
    (
        "verify",
        cmd_verify,
        "run certification suites, emit a JSON report",
        (
            ("--suite", dict(choices=list(SUITES) + ["all"], default="all")),
            ("--seed", dict(type=nonnegative_int, default=None)),
            ("--threads", dict(type=int, default=1, help="accepted for compatibility; no effect")),
        ),
    ),
)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpmult",
        description="Graph products of group actions: evaluation and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, extra in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config")
        for flag, options in extra:
            p.add_argument(flag, **options)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
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
