"""Package hygiene: every exported name resolves, no module imports a name
it never uses, the CLI loads no layer but ``jsonio`` with itself, every
function is named somewhere, and all but a listed few outside the unit
tests, every defaulted parameter is set outside the unit tests, and every
demo runs."""

import ast
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import voablocks

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(voablocks.__path__))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"voablocks.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def unused_imports(source: str) -> list:
    """Module-level imported names that the module neither reads nor lists in
    ``__all__``; ``__future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_catches_a_leftover():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from .graded import vec_add_into, vec_max_weight as vmw, weight_of\n"
              "__all__ = ['weight_of']\n"
              "def f(x):\n"
              "    return sys.argv, vec_add_into(x, {}, 1)\n")
    assert unused_imports(source) == [(2, "os"), (3, "vmw")]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # MODULES leaves out __init__, which imports nothing
    path = ROOT / "src" / "voablocks" / f"{name}.py"
    assert unused_imports(path.read_text()) == []


def load_time_layers(source: str) -> list:
    """The package modules a source imports when it loads: relative and
    ``voablocks`` imports anywhere but inside a function body."""
    out = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x
                out.update(alias.name for alias in node.names)
            elif node.level or node.module.startswith("voablocks."):
                out.add(node.module.split(".")[-1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("voablocks."))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(out)


def test_load_time_layer_check_catches_a_leftover():
    source = ("import sys\n"
              "from .jsonio import dumps\n"
              "from . import series\n"
              "import voablocks.models\n"
              "if sys.argv:\n"
              "    from voablocks.blocks import INFINITY\n"
              "def run():\n"
              "    from .sewing import torus_character\n"
              "    return torus_character\n")
    assert load_time_layers(source) == ["blocks", "jsonio", "models", "series"]


def test_cli_loads_no_layer_but_jsonio():
    # each subcommand imports the layers it calls when it runs
    source = (ROOT / "src" / "voablocks" / "cli.py").read_text()
    assert load_time_layers(source) == ["jsonio"]


def walk_outside(tree, dead) -> list:
    """The nodes of ``tree`` outside the bodies of the functions named in
    ``dead``: such a function's own def is kept, and nothing inside it,
    nested functions included."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not (isinstance(node, ast.FunctionDef) and node.name in dead):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def unnamed_functions(defined: dict, readers: list, dead=frozenset()) -> list:
    """(file, line, name) of each function or method, public or private but
    not a dunder, in the ``defined`` sources (file name -> text) that no
    ``ast.Name`` or ``ast.Attribute`` in the ``readers`` sources names.  The
    bodies of the functions named in ``dead`` neither name nor define one."""
    named = set()
    for source in readers:
        for node in walk_outside(ast.parse(source), dead):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted((file, node.lineno, node.name)
                  for file, source in defined.items()
                  for node in walk_outside(ast.parse(source), dead)
                  if isinstance(node, ast.FunctionDef)
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in named)


def test_unnamed_function_check_catches_a_leftover():
    source = ("class A:\n"
              "    def used(self):\n"
              "        return self.helper()\n"
              "    def helper(self):\n"
              "        return 1\n"
              "    def _private(self):\n"
              "        return 2\n"
              "    def leftover(self):\n"
              "        return 3\n"
              "def entry():\n"
              "    return A().used()\n"
              "class B:\n"
              "    def __repr__(self):\n"
              "        return 'B'\n")
    # a dunder is named by the language, not by a reader; a private
    # function that nothing calls is a leftover like a public one
    caller = "from m import entry\nentry()\n"
    assert unnamed_functions({"m.py": source}, [source, caller]) == [("m.py", 6, "_private"),
                                                                     ("m.py", 8, "leftover")]
    assert unnamed_functions({"m.py": source}, [source]) == [("m.py", 6, "_private"),
                                                             ("m.py", 8, "leftover"),
                                                             ("m.py", 10, "entry")]


def test_every_public_function_is_named():
    # a function, public or private, that no library, test or demo code names
    # is dead code
    src = sorted((ROOT / "src" / "voablocks").glob("*.py"))
    readers = [p.read_text() for d in ("src", "tests", "demos")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unnamed_functions({p.name: p.read_text() for p in src}, readers) == []


def library_readers(root: Path) -> list:
    """The sources that use the library as a program does: the library
    itself, the demos, the benchmark and the acceptance tests, but no unit
    test."""
    paths = [p for d in ("src", "demos", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    return [p.read_text() for p in paths + [root / "tests" / "test_acceptance.py"]]


def test_library_reader_check_catches_a_leftover(tmp_path):
    files = {"src/voablocks/m.py": "def run():\n    return 1\ndef bench_only():\n    return 2\n"
                                   "def unit_tested():\n    return 3\n",
             "demos/d.py": "from voablocks.m import run\nrun()\n",
             "perfbench/ops.py": "from voablocks.m import bench_only\nbench_only()\n",
             "tests/test_acceptance.py": "from voablocks.m import run\n",
             "tests/test_m.py": "from voablocks.m import unit_tested\nunit_tested()\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # a function that only a unit test names is reported; one that only the
    # benchmark names is not
    defined = {"m.py": files["src/voablocks/m.py"]}
    assert unnamed_functions(defined, library_readers(tmp_path)) == [("m.py", 5, "unit_tested")]


def test_transitive_unnamed_check_catches_a_leftover():
    source = ("def construction():\n"
              "    def step():\n"
              "        return helper()\n"
              "    return step()\n"
              "def helper():\n"
              "    return inner()\n"
              "def inner():\n"
              "    return 1\n"
              "def run():\n"
              "    return 2\n")
    caller = "from m import run\nrun()\n"
    # a helper named only inside a listed construction is a leftover too, and
    # so is what only that helper names; the construction's nested step goes
    # with it
    assert unnamed_functions({"m.py": source}, [source, caller]) == [("m.py", 1, "construction")]
    assert unnamed_functions({"m.py": source}, [source, caller], {"construction"}) == [
        ("m.py", 1, "construction"), ("m.py", 5, "helper")]
    assert unnamed_functions({"m.py": source}, [source, caller], {"construction", "helper"}) == [
        ("m.py", 1, "construction"), ("m.py", 5, "helper"), ("m.py", 7, "inner")]


# Functions that no library, demo, benchmark or acceptance code names outside
# the bodies of the functions listed here, and why each stays.
UNIT_TESTED_ONLY = {
    # the paper's block of a module map T: W1 -> W2'; identity_hom is its
    # T = identity case and builds the pairing without the intertwiner check
    "hom_block",
    # the sewing series by its definition, a sum over a basis of M(n): the
    # reference route that torus_character's traces are tested against
    "sew",
    # the self-sewable three-point fixture that sew runs on
    "character_block",
    # the gamma_xi relation of U(rho), a paper identity checked on its own
    "gamma_relation_check",
    # the closed form of U(rho) on the conformal vector through the
    # Schwarzian, (rho'(0)^2, (c/12) S(rho)(0)): a paper construction
    "conformal_transition",
    # _Parser.error: argparse calls it on input it rejects
    "error",
    # the three-point block <Y(v, z0) w, w'> as a functional on
    # (P^1; 0, z0, infinity): the block that character_block sews
    "vertex_block",
    # gamma_xi(z) = 1/(xi+z) - 1/xi, the coordinate change of the gamma_xi
    # relation that gamma_relation_check tests
    "gamma_series",
    # the weight-n part of a vector: conformal_transition reads the weight-2
    # part of U(rho) omega
    "vec_weight_project",
}


def test_no_library_code_only_unit_tests_call():
    # a function that only its own unit tests reach is dead code, unless it
    # is one of the constructions or hooks above; a function named only in
    # their bodies is reached only through them, so it is listed too
    src = sorted((ROOT / "src" / "voablocks").glob("*.py"))
    unnamed = unnamed_functions({p.name: p.read_text() for p in src}, library_readers(ROOT),
                                UNIT_TESTED_ONLY)
    assert sorted(name for _, _, name in unnamed) == sorted(UNIT_TESTED_ONLY)


def unset_defaults(defined: dict, readers: list) -> list:
    """(file, line, function, parameter) of each defaulted parameter of a
    public function, method or nested function in the ``defined`` sources
    that no call in the ``readers`` sources passes, by position or by keyword.
    Calls match by the name called (``f(...)`` or ``x.f(...)``), an
    ``__init__`` by its class name; a ``*args`` call passes every position
    and a ``**kwargs`` call every keyword."""
    positions, keywords = {}, {}
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                star = any(isinstance(a, ast.Starred) for a in node.args)
                positions[name] = max(positions.get(name, 0), math.inf if star else len(node.args))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    out = []
    for file, source in defined.items():
        tree = ast.parse(source)
        owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
            if fn.name.startswith("_") and fn.name != "__init__":
                continue
            name = owner[fn] if fn.name == "__init__" else fn.name
            # a method call does not pass self or cls
            bound = fn in owner and "staticmethod" not in {getattr(d, "id", None)
                                                          for d in fn.decorator_list}
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            defaulted = [(i - bound, a.arg) for i, a in enumerate(args) if i >= first]
            defaulted += [(math.inf, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            kws = keywords.get(name, set())
            out += [(file, fn.lineno, name, arg) for pos, arg in defaulted
                    if positions.get(name, 0) <= pos and arg not in kws and None not in kws]
    return sorted(out)


def test_unset_default_check_catches_a_leftover():
    source = ("class A:\n"
              "    def __init__(self, x, y=1):\n"
              "        self.x = x\n"
              "    def scaled(self, s=2, *, shift=0):\n"
              "        return self.x * s + shift\n"
              "def make(x, var='z', order=3):\n"
              "    def record(name, witness=None):\n"
              "        return name, witness\n"
              "    record('made')\n"
              "    return A(x, order).scaled(shift=1)\n")
    assert unset_defaults({"m.py": source}, [source]) == [("m.py", 4, "scaled", "s"),
                                                          ("m.py", 6, "make", "order"),
                                                          ("m.py", 6, "make", "var"),
                                                          ("m.py", 7, "record", "witness")]
    caller = ("from m import make\nmake(1, 'w', 5)\nA(0).scaled(**{'s': 3})\n"
              "record('seen', witness={})\n")
    assert unset_defaults({"m.py": source}, [source, caller]) == []


def test_unset_default_check_reads_library_readers_only(tmp_path):
    files = {"src/voablocks/m.py": "def run(x, var='z', order=3, scale=1):\n    return x\n",
             "demos/d.py": "from voablocks.m import run\nrun(1, 'w')\n",
             "perfbench/ops.py": "from voablocks.m import run\nrun(1, order=5)\n",
             "tests/test_acceptance.py": "from voablocks.m import run\n",
             "tests/test_m.py": "from voablocks.m import run\nrun(1, scale=2)\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # a default that only a unit test sets is reported; one that only the
    # benchmark sets is not
    defined = {"m.py": files["src/voablocks/m.py"]}
    assert unset_defaults(defined, library_readers(tmp_path)) == [("m.py", 1, "run", "scale")]


def test_every_default_parameter_is_set():
    # a default that no library, demo, benchmark or acceptance call
    # overrides is a fixed value: a knob that only unit tests turn
    src = sorted((ROOT / "src" / "voablocks").glob("*.py"))
    assert unset_defaults({p.name: p.read_text() for p in src}, library_readers(ROOT)) == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # -W error: the pytest warning filter does not reach a child interpreter
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
