"""Static checks on the source tree, made with the standard-library ast.

- Every name an import binds in src/modinv, scripts or tests is used in
  its module or listed in that module's __all__.
- Every module-level _private name of src/modinv is referenced somewhere
  other than its own definition: in its module, another module, a script,
  a test or perfbench (which reaches names such as builder._delta_matrix).
  A string equal to the name counts, as monkeypatch.setattr takes one.
- Every method of a src/modinv class, dunders aside, is referenced the same
  way, or overrides a name of a base class, which the base calls
  (namedtuple's _make, argparse's error).
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modinv"
CHECKED = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _all_names(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _references(node) -> set:
    """Names read under node: plain names, attributes, imported names and
    strings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _defined(stmt) -> set:
    """Names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = _tree(path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    assert sorted(bound - used - _all_names(tree)) == []


def test_every_private_name_is_referenced():
    referenced, private = set(), []
    for path in CHECKED + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in _tree(path).body:
            defined = _defined(stmt)
            referenced |= _references(stmt) - defined
            if path.parent == PACKAGE:
                private += [f"{path.name}:{name}" for name in sorted(defined)
                            if name.startswith("_") and not name.startswith("__")]
    assert [entry for entry in private if entry.split(":")[1] not in referenced] == []


def test_every_method_is_referenced_or_overrides():
    referenced = set()
    for path in CHECKED + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in _tree(path).body:
            referenced |= _references(stmt) - _defined(stmt)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _tree(path).body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            cls = getattr(importlib.import_module(f"modinv.{path.stem}"), stmt.name)
            dead += [f"{path.name}:{stmt.name}.{node.name}" for node in stmt.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not (node.name.startswith("__") and node.name.endswith("__"))
                     and node.name not in referenced
                     and not any(node.name in vars(base) for base in cls.__mro__[1:])]
    assert dead == []
