"""What ``import voablocks`` and each CLI subcommand load.

The package binds no names of its layers; each is imported by its module.
Each check runs in a fresh interpreter, so that no earlier import in the
test session decides which submodules are loaded or in what order."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import voablocks

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(voablocks.__path__))


def child(code: str, *argv, cwd=ROOT) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def passes(code: str):
    proc = child(code)
    assert proc.returncode == 0, proc.stderr


def test_package_loads_no_layer():
    # a plain package: ``import voablocks`` binds no layer, and an imported
    # submodule is the package's attribute, also ``schwarzian``, which
    # shares its name with a function of its own
    passes("""
import sys, voablocks
assert not [m for m in sys.modules if m.startswith("voablocks.")]
import voablocks.schwarzian
from voablocks import schwarzian
m = sys.modules["voablocks.schwarzian"]
assert voablocks.schwarzian is m and schwarzian is m
assert callable(m.schwarzian) and m.schwarzian.__name__ == "schwarzian"
""")


def test_unknown_name_raises_attribute_error():
    passes("""
import voablocks
try:
    voablocks.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("no AttributeError")
assert not hasattr(voablocks, "partitions")  # public in models, not on the package
""")


# runs one CLI command and prints, after its output, the voablocks modules
# it loaded
RUN_CLI = """
import json, sys
from voablocks.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("voablocks."))
print(json.dumps({"code": code, "loaded": loaded}))
"""

ONE = {"num": "1", "den": "1"}
TAIL = {"var": "t", "floor": 0, "order": 1, "coeffs": [ONE]}
FIXTURES = {
    "glue.json": {"at0": TAIL, "atz0": TAIL, "atinf": {**TAIL, "var": "w"}, "z0": ONE},
    "mat.json": {"entries": [[{"var": "q", "floor": 0, "order": 6,
                               "coeffs": [{"num": "0", "den": "1"}] + [ONE] * 5}]],
                 "seeds": {"0": [ONE]}},
}


@pytest.mark.parametrize("argv, code, needs, not_loaded", [
    (["ode", "solve", "--matrix", "mat.json", "--order", "4"], 0,
     {"odepole", "linalg"}, set(MODULES) - {"cli", "jsonio", "series", "odepole", "linalg"}),
    (["coord", "extract", "--series", "z+z^2", "--order", "6"], 0,
     {"coordchange"}, {"blocks", "sewing", "odepole"}),
    (["blocks", "glue", "--fixture", "glue.json"], 0,
     {"blocks"}, {"sewing", "coordchange", "odepole"}),
    (["character", "--model", "heisenberg", "--cap", "lots"], 2,
     set(), set(MODULES) - {"cli", "jsonio", "series"}),
], ids=["ode-solve", "coord-extract", "blocks-glue", "argparse-rejected"])
def test_subcommand_loads_only_its_layers(tmp_path, argv, code, needs, not_loaded):
    for name, fixture in FIXTURES.items():
        (tmp_path / name).write_text(json.dumps(fixture))
    proc = child(RUN_CLI, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.splitlines()[-1])
    loaded = set(run["loaded"])
    assert run["code"] == code and needs <= loaded
    assert not loaded & not_loaded, sorted(loaded & not_loaded)

