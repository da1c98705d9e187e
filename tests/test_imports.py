"""Unused-import check for the package, its tests, its demos, its tools and
the benchmark harness, and a dead-helper check for the package, standing in
for a linter.

A module-level import is unused when its name appears nowhere else in the
module.  Names listed in the module's __all__ (re-exports) and imports
marked "# noqa: F401" on any of their lines are exempt.

A helper is a module-level function or class of the package whose name
starts with "_" (dunder names excepted).  It is dead when no module of the
package names it, as a name or as an attribute, anywhere but its own
definition.

The package reads no environment: no module names os.environ or
os.getenv (or imports either), so its results depend only on the
arguments of its functions.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sigmadelta"


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = set()
    imported = {}  # bound name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[i - 1]
               for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted([*(ROOT / "tests").glob("*.py"),
                                         *(ROOT / "demos").glob("*.py"),
                                         *(ROOT / "perfbench").glob("*.py"),
                                         *(ROOT / "tools").glob("*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_test_or_demo_imports(path):
    assert unused_imports(path) == []


def test_check_finds_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import csv\nimport json\nimport os  # noqa: F401\n"
                   "from math import pi\n__all__ = ['pi']\n"
                   "json.dumps(1)\n")
    assert unused_imports(mod) == ["mod.py:1: csv"]


def dead_helpers(paths):
    trees = {path: ast.parse(path.read_text()) for path in paths}
    named = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
    return sorted(f"{path.name}:{node.lineno}: {node.name}"
                  for path, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.name.startswith("_")
                  and not node.name.endswith("__")
                  and node.name not in named)


def test_no_dead_helpers():
    assert dead_helpers(sorted(SRC.glob("*.py"))) == []


def test_check_finds_a_dead_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\n"
        "class _Dead:\n    pass\n\n\ndef __getattr__(name):\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n\n\ndef _helper():\n    pass\n\n\n"
        "a._used()\n_helper()\n")
    assert dead_helpers([tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a.py:5: _dead", "a.py:9: _Dead"]


def environment_reads(path):
    """Lines of path that name os.environ or os.getenv, as an attribute or
    by import."""
    names = {"environ", "getenv"}
    hits = []
    for n in ast.walk(ast.parse(path.read_text())):
        if isinstance(n, ast.Attribute) and n.attr in names:
            hits.append((n.lineno, n.attr))
        elif isinstance(n, ast.ImportFrom) and n.module == "os":
            hits += [(n.lineno, a.name) for a in n.names if a.name in names]
    return [f"{path.name}:{line}: {name}" for line, name in sorted(hits)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_reads_no_environment(path):
    assert environment_reads(path) == []


def test_check_finds_an_environment_read(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom os import getenv\n"
                   "a = os.environ.get('A')\nb = getenv('B')\n"
                   "c = os.getenv('C')\nd = os.path.join('x')\n")
    assert environment_reads(mod) == [
        "mod.py:2: getenv", "mod.py:3: environ", "mod.py:5: getenv"]
