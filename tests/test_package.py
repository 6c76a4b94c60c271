"""The documented top level of the package, checked in fresh interpreters:
every public name is the object of its home submodule, however it is
imported, and the README's library example runs as written."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# each public name and the submodule it lives in; a module names itself
HOME = {
    "ActionSpec": "groups",
    "SpecError": "groups",
    "make_spec": "groups",
    "parse_spec": "groups",
    "components": "inertia",
    "assemble": "sod",
    "msodc_plan": "sod",
    "report_to_dict": "sod",
    "gram_report": "euler",
    "apply_script": "mutations",
    "identity_sequence": "mutations",
    "mutations": "mutations",
    "presets": "presets",
    "verify": "verify",
}

# reads the public names one way, then checks each against its home module
SURFACE = """
import importlib, json, sys
home = json.loads(sys.argv[1])
how = sys.argv[2]
import mu2sod
got = {}
if how == "getattr":
    got = {name: getattr(mu2sod, name) for name in home}
elif how == "from":
    for name in home:
        exec(f"from mu2sod import {name}", got)
    del got["__builtins__"]
else:
    exec("from mu2sod import *", got)
    del got["__builtins__"]
    assert sorted(got) == sorted(mu2sod.__all__), sorted(got)
assert sorted(mu2sod.__all__) == sorted(home), mu2sod.__all__
for name, sub in home.items():
    module = importlib.import_module(f"mu2sod.{sub}")
    assert got[name] is (module if name == sub else getattr(module, name)), name
try:
    mu2sod.no_such_name
except AttributeError as exc:
    assert "mu2sod" in str(exc) and "no_such_name" in str(exc), exc
else:
    raise AssertionError("mu2sod.no_such_name did not raise")
"""


def run_fresh(*argv: str) -> str:
    """``python`` with these arguments in a child process, src/ on the path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("how", ["getattr", "from", "star"])
def test_public_names_are_their_home_objects(how):
    run_fresh("-c", SURFACE, json.dumps(HOME), how)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from mu2sod import" in code
    run_fresh("-c", code)


# runs a statement, then prints the mu2sod submodules it loaded
LOADS = """
import json, sys
{}
print(json.dumps(sorted(n.split(".", 1)[1] for n in sys.modules if n.startswith("mu2sod."))))
"""
ALL_NINE = ["cli", "euler", "groups", "inertia", "loci", "mutations", "presets", "sod", "verify"]


@pytest.mark.parametrize("statement, loaded", [
    ("import mu2sod; assert 'assemble' in dir(mu2sod)", []),
    ("from mu2sod.presets import pn_full", ["groups", "presets"]),
    ("from mu2sod import mutations", ["mutations"]),
    # the benchmark clears the caches of the modules loaded with cli
    ("import mu2sod.cli", ALL_NINE),
])
def test_import_loads_only_what_it_names(statement, loaded):
    assert json.loads(run_fresh("-c", LOADS.format(statement))) == loaded


# traced names whose functions are gone; the benchmark's tracer skips them,
# and their metrics read 0 until its layer list drops them
DEAD_LAYERS = {
    "inertia.burnside_average",
    "loci.refine_piece",
    "loci.fixed_pieces_subgroup",
    "loci.sectors",
    "groups.projective_kernel",
    "euler.euler_pairing",
    "euler.koszul",
    "mutations.pairing",
    "mutations.blocks_orthogonal",
}


def test_traced_layers_are_callables_of_the_package():
    # read as text: importing the benchmark would write under its directory
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    for name in layers:
        module, function = name.split(".")
        resolved = callable(getattr(importlib.import_module(f"mu2sod.{module}"), function, None))
        assert resolved == (name not in DEAD_LAYERS), name
    assert "inertia.classify_piece" in layers


def test_only_sod_knows_the_component_record_layout():
    # the record writer and the label and smoothness rules it reads stay private to sod
    private, found = {"_label_name", "_smoothness", "_component_records"}, []
    others = [path for path in (ROOT / "src" / "mu2sod").glob("*.py") if path.name != "sod.py"]
    assert any(path.name == "cli.py" for path in others)
    for path in sorted(others):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in private:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found
