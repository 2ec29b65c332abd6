"""Every name a package module imports is used in that module, every
module-level UPPER_CASE constant of the package is loaded somewhere in
``src/``, ``tests/`` or ``bench/``, every function, method and class of the
package is named there outside its own definition, and also by another
package module, the benchmark or the acceptance gate, every parameter
with a default is passed by some call there, every
``GPMultError`` subclass in ``errors.py`` is named by some other file
there, only the algebra layer uses full algebra elements,
only the word and value layers read the internals of a word context,
only the word layer names the truncation search, neither the value
layer nor the checks name the rearrangement search, the word layer
reads the vertex groups' multiplication only to build its merge table,
the checks multiply, invert and normalize no word, only the value
layer reads the internals of a multiplier system, and every message
literal raised in the package is raised with one error class."""

import ast
import math
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gpmult"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def imported_names(tree):
    """Bound name -> line of every import outside ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    """Names loaded anywhere, including inside string annotations and ``__all__``."""
    used = set()
    strings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            strings.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            strings.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            strings.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for ann in strings:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        (line, name) for name, line in imported_names(tree).items() if name not in used
    )


def test_scanner_finds_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "from .m import Thing, Other\n"
        "def f(x: 'Thing') -> int:\n"
        "    return np.size(x)\n"
        "@dataclass\n"
        "class C:\n"
        "    y: int = 0\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "field"), (5, "Other")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def defined_constants(source: str):
    """Name -> line of every module-level assignment to an UPPER_CASE name."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for t in targets:
            if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id):
                out[t.id] = node.lineno
    return out


def loaded_names(source: str):
    """Names read as variables or as attributes anywhere in the source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unloaded_constants(module: str, loaded):
    """Constants the module defines that are not in the loaded names, by line."""
    return sorted(
        (line, name) for name, line in defined_constants(module).items() if name not in loaded
    )


def test_constant_scanner_finds_unloaded_constants():
    module = (
        "import numpy as np\n"
        "UNITAL_TOL = 1e-12\n"
        "HERMITIAN_ID_TOL = 1e-10\n"
        "_CHUNK: int = 64\n"
        "ELSEWHERE = 3\n"
        "lower_case = 4\n"
        "def f(x):\n"
        "    LOCAL = 5\n"
        "    return x[:_CHUNK] <= UNITAL_TOL\n"
    )
    other = "from pkg import mod\nprint(mod.ELSEWHERE)\nHERMITIAN_ID_TOL = 0\n"
    both = loaded_names(module) | loaded_names(other)
    assert unloaded_constants(module, both) == [(3, "HERMITIAN_ID_TOL")]
    expected = [(3, "HERMITIAN_ID_TOL"), (5, "ELSEWHERE")]
    assert unloaded_constants(module, loaded_names(module)) == expected


@pytest.fixture(scope="module")
def project_loads():
    """Names loaded by any Python file under src/, tests/ or bench/."""
    out = set()
    for d in ("src", "tests", "bench"):
        for p in (ROOT / d).rglob("*.py"):
            out |= loaded_names(p.read_text(encoding="utf-8"))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_unloaded_constants(module, project_loads):
    source = (SRC / module).read_text(encoding="utf-8")
    assert unloaded_constants(source, project_loads) == []


DUNDER = re.compile(r"__\w+__")


def defined_callables(source: str):
    """(name, first line, last line) of every function, method and class at
    any depth, decorators included; dunder methods, which Python itself
    calls, are left out."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not DUNDER.fullmatch(node.name):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out.append((node.name, start, node.end_lineno))
    return out


def name_sites(source: str):
    """Name -> lines where it appears as a Name, an Attribute or a string
    (``tracing.py`` wraps methods it fetches by ``__dict__["name"]``)."""
    out = defaultdict(list)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out[node.id].append(node.lineno)
        elif isinstance(node, ast.Attribute):
            out[node.attr].append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value].append(node.lineno)
    return out


def unnamed_definitions(source: str, elsewhere):
    """Definitions named neither in ``elsewhere`` (the names of other files)
    nor in their own module outside their own lines, by line."""
    sites = name_sites(source)
    return sorted(
        (start, name)
        for name, start, end in defined_callables(source)
        if name not in elsewhere and all(start <= line <= end for line in sites.get(name, ()))
    )


def test_definition_scanner_finds_unnamed_definitions():
    module = (
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1)\n"
        "    @property\n"
        "    def by_string(self):\n"
        "        return 2\n"
        "def orphan():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner()\n"
        "x = Used()\n"
    )
    other = "getattr(obj, 'by_string')\nprint('recursive here')\n"
    assert unnamed_definitions(module, set(name_sites(other))) == [(6, "recursive"), (11, "orphan")]
    assert unnamed_definitions(module, {"orphan", "recursive"}) == [(8, "by_string")]


@pytest.fixture(scope="module")
def project_sites():
    """Per Python file under src/, tests/ or bench/, the names it mentions."""
    return {
        p: set(name_sites(p.read_text(encoding="utf-8")))
        for d in ("src", "tests", "bench")
        for p in (ROOT / d).rglob("*.py")
    }


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_named_outside_itself(module, project_sites):
    path = SRC / module
    elsewhere = set().union(*(names for p, names in project_sites.items() if p != path))
    assert unnamed_definitions(path.read_text(encoding="utf-8"), elsewhere) == []


# A definition that only the unit tests name is test support and belongs
# under tests/: every definition of the package is named by another package
# module, by the benchmark or by the acceptance gate.
GATE = ROOT / "tests" / "test_acceptance.py"


def reaching_names(sites, path):
    """Names mentioned by the files of ``sites`` (path -> names) under src/
    or bench/, or by the acceptance gate, other than ``path``."""
    reaching = (ROOT / "src", ROOT / "bench")
    return set().union(
        *(
            names
            for p, names in sites.items()
            if p != path and (p == GATE or any(d in p.parents for d in reaching))
        )
    )


def test_reaching_scanner_flags_definitions_only_tests_name():
    module = (
        "def shipped():\n"
        "    return 1\n"
        "def gated():\n"
        "    return 2\n"
        "def benched():\n"
        "    return 3\n"
        "def tested():\n"
        "    return 4\n"
    )
    path = SRC / "m.py"
    sites = {
        path: set(name_sites(module)),
        SRC / "cli.py": {"shipped"},
        GATE: {"gated"},
        ROOT / "bench" / "tracing.py": {"benched"},
        ROOT / "tests" / "test_m.py": {"tested"},
    }
    assert unnamed_definitions(module, reaching_names(sites, path)) == [(7, "tested")]
    everywhere = set().union(*(names for p, names in sites.items() if p != path))
    assert unnamed_definitions(module, everywhere) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_named_by_the_package_the_gate_or_the_benchmark(module, project_sites):
    path = SRC / module
    assert unnamed_definitions(path.read_text(encoding="utf-8"), reaching_names(project_sites, path)) == []


# Nor does the package keep a parameter that only the tests set: every
# parameter with a default is passed, by keyword or by position, by some
# call in src/, bench/ or the acceptance gate.  Calls are matched by the
# name called, so a call of another definition of the same name counts too.
# The two budgets README names are the exceptions.
TEST_ONLY_PARAMETERS = {("rearrangements", "budget"), ("standard_form_candidates", "budget")}


def defaulted_parameters(source: str):
    """(line, name, parameter, position) of every parameter with a default
    of every function and method, ``__init__`` under its class's name;
    ``position`` counts the arguments a call passes by position (a method's
    ``self`` or ``cls`` is not one) and is None for a keyword-only one."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                bound = int(cls is not None and not static)
                name = cls if node.name == "__init__" else node.name
                first = len(positional) - len(args.defaults)
                for i, a in enumerate(positional[first:], first):
                    out.append((a.lineno, name, a.arg, i - bound))
                for a, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((a.lineno, name, a.arg, None))
                visit(node.body, None)

    visit(ast.parse(source).body, None)
    return sorted(out)


def passed_arguments(sources):
    """Per name called (a bare name or an attribute), the keywords its calls
    pass (None for ``**kwargs``) and the most arguments one passes by
    position (infinite with ``*args``)."""
    keywords, positions = defaultdict(set), defaultdict(int)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positions[name] = max(positions[name], math.inf if starred else len(node.args))
                keywords[name].update(k.arg for k in node.keywords)
    return keywords, positions


def unpassed_parameters(source: str, passed, allowed=frozenset()):
    """(line, name, parameter) of every parameter with a default in the
    source that no call in ``passed`` (from ``passed_arguments``) sets and
    that is not in ``allowed``."""
    keywords, positions = passed
    return [
        (line, name, param)
        for line, name, param, pos in defaulted_parameters(source)
        if (name, param) not in allowed
        and not ({param, None} & keywords.get(name, set()))
        and not (pos is not None and positions.get(name, 0) > pos)
    ]


def test_parameter_scanner_flags_parameters_no_call_sets():
    module = (
        "def by_keyword(x, budget=10):\n"
        "    return x\n"
        "def by_position(x, y=1, *, z=2):\n"
        "    def inner(w=3):\n"
        "        return w\n"
        "    return inner()\n"
        "class Table:\n"
        "    def __init__(self, size=4):\n"
        "        self.size = size\n"
        "    def get(self, key, default=None):\n"
        "        return default\n"
        "    @staticmethod\n"
        "    def make(n=5):\n"
        "        return n\n"
        "def splatted(a=6, b=7):\n"
        "    return a\n"
    )
    caller = (
        "by_keyword(1, budget=3)\n"
        "by_position(1, 2)\n"
        "t = Table()\n"
        "t.get('k')\n"
        "Table.make(5)\n"
        "splatted(*args)\n"
        "doc = 'by_position(z=1)'\n"
    )
    passed = passed_arguments([caller])
    expected = [(3, "by_position", "z"), (4, "inner", "w"), (8, "Table", "size"), (10, "get", "default")]
    assert unpassed_parameters(module, passed) == expected
    allowed = {("inner", "w"), ("Table", "size")}
    assert unpassed_parameters(module, passed, allowed) == [(3, "by_position", "z"), (10, "get", "default")]
    assert unpassed_parameters(module, passed_arguments([caller, "by_position(z=0)\nTable(size=2)\n"])) == [
        (4, "inner", "w"),
        (10, "get", "default"),
    ]


@pytest.fixture(scope="module")
def reaching_arguments():
    """The arguments passed by the calls in src/, bench/ and the gate."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py"), GATE]
    return passed_arguments(p.read_text(encoding="utf-8") for p in paths)


@pytest.mark.parametrize("module", MODULES)
def test_every_defaulted_parameter_is_passed_by_the_package_the_gate_or_the_benchmark(module, reaching_arguments):
    source = (SRC / module).read_text(encoding="utf-8")
    assert unpassed_parameters(source, reaching_arguments, TEST_ONLY_PARAMETERS) == []


def test_the_allowlisted_parameters_are_still_test_only(reaching_arguments):
    """An allowlisted parameter that a call in the package comes to set
    leaves the list."""
    flagged = {
        (name, param)
        for module in MODULES
        for _, name, param in unpassed_parameters((SRC / module).read_text(encoding="utf-8"), reaching_arguments)
    }
    assert flagged == TEST_ONLY_PARAMETERS


def error_classes(source: str):
    """Name -> line of every class in the source that derives, directly or
    through another class there, from ``GPMultError``."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and (b.id == "GPMultError" or b.id in out)
            for b in node.bases
        ):
            out[node.name] = node.lineno
    return out


def referenced_names(source: str):
    """Names loaded as variables or attributes, or imported by name."""
    return loaded_names(source) | set(imported_names(ast.parse(source)))


def unreferenced_errors(errors_source: str, names):
    return sorted((line, n) for n, line in error_classes(errors_source).items() if n not in names)


def test_error_scanner_finds_unreferenced_subclasses():
    errors = (
        "class GPMultError(Exception):\n"
        "    code = 'error'\n"
        "class RaisedError(GPMultError):\n"
        "    code = 'raised'\n"
        "class ImportedError(GPMultError):\n"
        "    pass\n"
        "class OrphanError(GPMultError):\n"
        "    pass\n"
        "class OrphanChildError(RaisedError):\n"
        "    pass\n"
        "class Unrelated(Exception):\n"
        "    pass\n"
    )
    user = (
        "from .errors import ImportedError\n"
        "def f():\n"
        "    raise RaisedError('x')\n"
        "OrphanError_doc = 'OrphanError'\n"
    )
    expected = [(7, "OrphanError"), (9, "OrphanChildError")]
    assert unreferenced_errors(errors, referenced_names(user)) == expected


def test_every_error_class_is_named_outside_its_module():
    names = set()
    for d in ("src", "tests", "bench"):
        for p in (ROOT / d).rglob("*.py"):
            if p != SRC / "errors.py":
                names |= referenced_names(p.read_text(encoding="utf-8"))
    assert unreferenced_errors((SRC / "errors.py").read_text(encoding="utf-8"), names) == []


# Full algebra elements are the flattened layout's reference; every other
# module works on central values as arrays of block scalars.
ALGEBRA_NAMES = {"AlgebraElement", "embed_central"}
ALGEBRA_LAYER = {"matalg.py"}


def algebra_uses(source: str):
    """(line, name) of every import of an algebra-element name and every
    read of one as a module attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, a.name) for a in node.names if a.name in ALGEBRA_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in ALGEBRA_NAMES:
            out.append((node.lineno, node.attr))
    return sorted(out)


def test_algebra_scanner_finds_imports_and_attributes():
    source = (
        "from .matalg import CentralElement, embed_central\n"
        "from . import matalg\n"
        "x = matalg.AlgebraElement\n"
        "y = CentralElement.one\n"
        "doc = 'AlgebraElement'\n"
    )
    assert algebra_uses(source) == [(1, "embed_central"), (3, "AlgebraElement")]


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ALGEBRA_LAYER])
def test_only_the_algebra_layer_uses_algebra_elements(module):
    assert algebra_uses((SRC / module).read_text(encoding="utf-8")) == []


# Word ids, the successor memo and the other internals of a WordContext are
# read only by the word layer and by the value rows built on its ids; every
# other module goes through the public word operations.
WORD_LAYER = {"wordcraft.py", "multipliers.py"}
CONTEXT_NAMES = {"words", "ctx"}


def private_reads(source: str, owners=CONTEXT_NAMES):
    """(line, attribute) of every underscore attribute read from a name in
    ``owners`` (by default ``words`` or ``ctx``), or from an attribute of
    that name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            name = getattr(owner, "id", None) or getattr(owner, "attr", None)
            if name in owners and not DUNDER.fullmatch(node.attr):
                out.append((node.lineno, node.attr))
    return sorted(out)


def test_word_internals_scanner_finds_private_reads():
    source = (
        "tail = words._push(r[1:])\n"
        "n = len(sc.system.words._id_prefix)\n"
        "self.ctx._succ.clear()\n"
        "x = words.normalize(r)\n"
        "y = other._ids\n"
        "z = words.__class__\n"
        "doc = 'words._push'\n"
    )
    assert private_reads(source) == [(1, "_push"), (2, "_id_prefix"), (3, "_succ")]


@pytest.mark.parametrize("module", [m for m in MODULES if m not in WORD_LAYER])
def test_only_the_word_layer_reads_word_internals(module):
    assert private_reads((SRC / module).read_text(encoding="utf-8")) == []


# The exhaustive standard-form search and the truncation order stay inside
# the word layer, where the acceptance gate and the tests reach them; the
# checks read standard forms and down-set maxima off the letter order.
SEARCH_NAMES = {"standard_form_candidates", "_leq", "_truncation_ids"}


def search_mentions(source: str, names=SEARCH_NAMES):
    """(line, name) of every import or mention of one of ``names``, by
    default the truncation-search names."""
    sites = name_sites(source)
    out = [(line, name) for name in names for line in sites.get(name, ())]
    imports = imported_names(ast.parse(source))
    return sorted(out + [(line, name) for name, line in imports.items() if name in names])


def test_search_scanner_finds_names_attributes_and_strings():
    source = (
        "forms = words.standard_form_candidates(x, 0)\n"
        "from .wordcraft import _leq\n"
        "f = getattr(words, '_truncation_ids')\n"
        "sf = words.standard_form(x, 0)\n"
        "_leq(x, y, 10)\n"
    )
    expected = [
        (1, "standard_form_candidates"),
        (2, "_leq"),
        (3, "_truncation_ids"),
        (5, "_leq"),
    ]
    assert search_mentions(source) == expected


@pytest.mark.parametrize("module", [m for m in MODULES if m != "wordcraft.py"])
def test_only_the_word_layer_names_the_truncation_search(module):
    assert search_mentions((SRC / module).read_text(encoding="utf-8")) == []


# The checks and the value layer read every reduced expression off the word
# context's expression table, so neither enumerates a rearrangement class.
ENUMERATION_NAMES = {"rearrangements", "_rearrangements_seq"}


def test_enumeration_scanner_finds_names_attributes_and_strings():
    source = (
        '"""Every rearrangements of x."""\n'
        "seqs = words.rearrangements(x)\n"
        "from .wordcraft import _rearrangements_seq\n"
        "f = getattr(words, 'rearrangements')\n"
        "rearrangements_count = len(seqs)\n"
        "table = words.expression_table(3)\n"
    )
    expected = [(2, "rearrangements"), (3, "_rearrangements_seq"), (4, "rearrangements")]
    assert search_mentions(source, ENUMERATION_NAMES) == expected


@pytest.mark.parametrize("module", ["multipliers.py", "verifier.py"])
def test_checks_and_values_name_no_rearrangement_search(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert search_mentions(source, ENUMERATION_NAMES) == []



# The rule that merges two letters of one vertex is one slot table that
# WordContext.__init__ builds from the vertex groups; successor and the
# ball's successor table both read it, and nothing else in the word layer
# reads a group's multiplication.


def group_table_reads(source: str):
    """Lines of every ``.table`` attribute outside ``WordContext.__init__``."""
    tree = ast.parse(source)
    inits = [
        (f.lineno, f.end_lineno)
        for c in tree.body
        if isinstance(c, ast.ClassDef) and c.name == "WordContext"
        for f in c.body
        if isinstance(f, ast.FunctionDef) and f.name == "__init__"
    ]
    lines = (node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "table")
    return sorted(line for line in lines if not any(a <= line <= b for a, b in inits))


def test_group_table_scanner_finds_reads_outside_the_constructor():
    source = (
        "class WordContext:\n"
        "    def __init__(self, groups):\n"
        "        self.t = [g.table for g in groups]\n"
        "    def successor(self, grp, a, b):\n"
        "        return grp.table[a, b]\n"
        "def fill(grp):\n"
        "    rows = grp.table.ravel()\n"
        "    doc = 'grp.table'\n"
        "    return rows, self._merge[a]\n"
        "class Other:\n"
        "    def __init__(self, grp):\n"
        "        self.t = grp.table\n"
    )
    assert group_table_reads(source) == [5, 7, 12]


def test_word_layer_reads_group_tables_only_in_its_constructor():
    assert group_table_reads((SRC / "wordcraft.py").read_text(encoding="utf-8")) == []


# The checks take their words as ball indices and word ids from the word and
# value layers' tables, so none multiplies, inverts or normalizes a word.
# Records may carry fields of those names (``BallStack.inverse``), so only
# calls and the attributes of a word context are word operations.
WORD_OPERATIONS = {"multiply", "inverse", "normalize"}
WORD_CONTEXTS = {"words", "ctx"}


def word_operation_uses(source: str, names=WORD_OPERATIONS):
    """(line, name) of every call of an attribute or a bare name in
    ``names``, and of every attribute in ``names`` read from a word context
    (a name or attribute in ``WORD_CONTEXTS``), called or not."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in names:
                out.add((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            if getattr(node.value, "id", getattr(node.value, "attr", None)) in WORD_CONTEXTS:
                out.add((node.lineno, node.attr))
    return sorted(out)


def test_word_operation_scanner_finds_calls_and_attributes():
    source = (
        "x = words.multiply(a, b)\n"
        "y = sc.system.words.inverse(x)\n"
        "z = normalize(raw)\n"
        "f = words.multiply\n"
        "doc = 'words.normalize(r)'\n"
        "gram, inverse, *_ = system.ball_stack(3)\n"
        "t = words.ball_word_ids(6, stack.products[stack.inverse[b], c])\n"
        "g = ctx.inverse\n"
        "h = group.inverse(a)\n"
        "i = sys_.words.normalize\n"
    )
    expected = [
        (1, "multiply"),
        (2, "inverse"),
        (3, "normalize"),
        (4, "multiply"),
        (8, "inverse"),
        (9, "inverse"),
        (10, "normalize"),
    ]
    assert word_operation_uses(source) == expected


def test_checks_multiply_invert_and_normalize_no_word():
    assert word_operation_uses((SRC / "verifier.py").read_text(encoding="utf-8")) == []


# The value layer keeps its caches and slot tables behind the methods of a
# multiplier system; the checks and the command line read the ball stack and
# the rows through ``ball_stack``, ``tree_rows`` and the other public methods.
SYSTEM_NAMES = {"system", "sys_"}


def test_system_internals_scanner_finds_private_reads():
    source = (
        "stack = sys_._ball_stacks[3]\n"
        "rows = sc.system._value_rows()\n"
        "self.system._kernel.cache.clear()\n"
        "stack = sys_.ball_stack(3)\n"
        "y = other._slot_values\n"
        "z = system.__class__\n"
        "doc = 'system._ball_stacks'\n"
    )
    assert private_reads(source, SYSTEM_NAMES) == [(1, "_ball_stacks"), (2, "_value_rows"), (3, "_kernel")]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "multipliers.py"])
def test_only_the_value_layer_reads_system_internals(module):
    assert private_reads((SRC / module).read_text(encoding="utf-8"), SYSTEM_NAMES) == []


# The package takes the words of a ball as indices into ``ball_arrays`` and
# their ids from ``ball_word_ids``, so no module lists a ball as elements;
# ``ball`` itself is a definition, not an attribute read.


def ball_listings(source: str):
    """Line of every ``.ball`` attribute, called or not."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and node.attr == "ball"
    )


def test_ball_scanner_finds_calls_and_attributes():
    source = (
        "ball = words.ball(3)\n"
        "xs = sc.system.words.ball(sc.ball_radius, budget=sc.budget)\n"
        "arrays = words.ball_arrays(3, sc.budget)\n"
        "f = words.ball\n"
        "doc = 'words.ball(2)'\n"
        "stack = system.ball_stack(2).gram\n"
        "ball(4)\n"
    )
    assert ball_listings(source) == [1, 2, 4]


@pytest.mark.parametrize("module", MODULES)
def test_checks_list_no_ball_as_elements(module):
    assert ball_listings((SRC / module).read_text(encoding="utf-8")) == []


# One condition, one error class: a message literal raised in the package
# names one condition, so every raise of it uses the same class, and a
# report's error code follows from its message.


def raised_messages(source: str):
    """(message, class name, line) of every ``raise C("literal", ...)``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        call = node.exc
        first = call.args[0] if call.args else None
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            name = call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
            out.append((first.value, name, node.lineno))
    return sorted(out, key=lambda m: m[2])


def messages_with_several_classes(sources):
    """Message -> sorted class names, for every message literal that the
    sources raise with more than one class."""
    classes = defaultdict(set)
    for source in sources:
        for message, name, _ in raised_messages(source):
            classes[message].add(name)
    return {m: sorted(c) for m, c in classes.items() if len(c) > 1}


def test_message_scanner_finds_one_message_under_two_classes():
    first = (
        "def f(x):\n"
        "    if x:\n"
        "        raise AError('shared', value=x)\n"
        "    raise AError('own')\n"
        "def g(err):\n"
        "    raise err\n"
    )
    second = (
        "from . import errors\n"
        "def h(x):\n"
        "    raise errors.BError('shared')\n"
        "    raise AError('own', value=x)\n"
        "    raise CError(f'formatted {x}')\n"
        "    raise DError(x, 'formatted {x}')\n"
        "    raise AError\n"
        "    doc = CError('shared')\n"
    )
    assert raised_messages(first) == [("shared", "AError", 3), ("own", "AError", 4)]
    assert messages_with_several_classes([first, second]) == {"shared": ["AError", "BError"]}


def test_every_raised_message_has_one_error_class():
    sources = [(SRC / m).read_text(encoding="utf-8") for m in MODULES]
    assert messages_with_several_classes(sources) == {}
