"""What the package loads and binds, each case in a fresh interpreter where
the import matters: the import itself loads no submodule, numpy is the only
third-party module the package loads, and only the numeric exports and
subcommands load it; every export still resolves.
And what its source leaves behind: no module imports a name it never uses,
and every module-level private name is read somewhere in the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pinchlab

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pinchlab").glob("*.py"))
SUBMODULES = ("certified", "congruence", "convergence", "errors", "hyperbolic", "traceformula")


def _fresh(code: str, result: str):
    """Run ``code`` in a fresh interpreter with warnings raised as errors,
    then evaluate ``result`` there and return it through JSON, as the last
    line of stdout. The interpreter may write nothing to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = f"import json, sys; {code}; print(json.dumps({result}))"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded(code: str, top: str) -> list[str]:
    """The modules of package ``top`` loaded after ``code`` ran in a fresh interpreter."""
    return _fresh(code, f"sorted(m for m in sys.modules if m.split('.')[0] == {top!r})")


def test_import_loads_no_submodule():
    assert _loaded("import pinchlab", "pinchlab") == ["pinchlab"]


def test_import_loads_no_scipy():
    assert _loaded("from pinchlab import *", "scipy") == []


def test_exact_layer_loads_no_numpy():
    assert _loaded("import pinchlab; pinchlab.surface_data(7)", "numpy") == []


@pytest.mark.parametrize("argv", [
    ["survey", "--n-min", "3", "--n-max", "12"],
    ["systole", "--level", "5", "--entry-bound", "2900", "--format", "json"],
])
def test_exact_subcommands_load_no_numpy(argv):
    assert _loaded(f"from pinchlab.cli import main; main({argv!r})", "numpy") == []


def test_schedule_loads_numpy(tmp_path):
    # the checks above can see an import: the numeric subcommands do load numpy
    config = tmp_path / "schedule.json"
    config.write_text('{"name": "r", "levels": {"kind": "range", "start": 3, "stop": 6},'
                      ' "pinch": {"rule": "reciprocal"}}')
    argv = ["schedule", "--config", str(config), "--radius", "1", "--j-max", "4"]
    assert "numpy" in _loaded(f"from pinchlab.cli import main; main({argv!r})", "numpy")


def test_every_export_is_its_module_object():
    # touched first on the package, then compared with every submodule that holds the name
    code = ("import importlib, pinchlab; "
            "got = {n: getattr(pinchlab, n) for n in pinchlab.__all__}; "
            f"subs = [importlib.import_module('pinchlab.' + m) for m in {SUBMODULES!r}]")
    result = ("[n for n in pinchlab.__all__ "
              "if not [s for s in subs if hasattr(s, n)] "
              "or any(getattr(s, n) is not got[n] for s in subs if hasattr(s, n))]")
    assert _fresh(code, result) == []


def test_star_import_and_dir_list_every_export():
    code = "import pinchlab; listed = dir(pinchlab); ns = {}; exec('from pinchlab import *', ns)"
    result = "[sorted(set(pinchlab.__all__) - set(listed)), sorted(set(pinchlab.__all__) - set(ns))]"
    assert _fresh(code, result) == [[], []]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'pinchlab' has no attribute 'no_such'$"):
        pinchlab.no_such
    with pytest.raises(ImportError):
        from pinchlab import no_such  # noqa: F401


def _reads(tree: ast.Module, exports: bool) -> set[str]:
    """The names a module reads: loaded names and attributes, and, where
    ``exports`` is set, the string constants, which list its exports by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif exports and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _bound(statement) -> list[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def test_source_has_no_unused_imports_or_private_names():
    # an import is read in its own module; a private name in any module,
    # since another module that imports it must read it too
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    reads = {name: _reads(tree, name == "__init__") for name, tree in trees.items()}
    read_anywhere = set().union(*reads.values())
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{name}: import {bound}" for bound in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if bound not in reads[name]]
        unused += [f"{name}: {bound}" for statement in tree.body for bound in _bound(statement)
                   if bound.startswith("_") and not bound.startswith("__")
                   and bound not in read_anywhere]
    assert unused == []
