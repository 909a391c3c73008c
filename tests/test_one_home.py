"""Every name has one home: each ``__all__`` entry is defined in its own
module, and each ``from .m import name`` names the module that defines it.
The only exceptions are the ``matlie`` bindings that perfbench reads."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import idealkit
from idealkit import matlie

PKG = Path(idealkit.__file__).resolve().parent
ROOT = PKG.parents[1]
MODULES = sorted(path.stem for path in PKG.glob("*.py"))

# (module, name) reached through a module that does not define it: the file
# that reads it there.
ALLOWED = {
    ("matlie", "RationalMatrix"): "tests/test_tracer_entry_points.py",
    ("matlie", "bracket"): "perfbench/tracer.py",
    ("matlie", "direct_sum"): "perfbench/make_algebras.py",
    ("matlie", "make_algebra"): "perfbench/make_algebras.py",
    ("matlie", "save_algebra"): "perfbench/make_algebras.py",
    ("matlie", "sp_standard"): "perfbench/make_algebras.py",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))


def _defined(module: str) -> set:
    """Names a module's top-level statements define; the package's are its
    submodules."""
    if module == "__init__":
        return set(MODULES) - {"__init__"}
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _all(module: str) -> list:
    for node in _tree(module).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_are_defined_in_their_module(module):
    defined = _defined(module)
    foreign = [name for name in _all(module)
               if name not in defined and (module, name) not in ALLOWED]
    assert foreign == []


@pytest.mark.parametrize("module", MODULES)
def test_imports_name_the_defining_module(module):
    wrong = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            home = node.module or "__init__"
            defined = _defined(home)
            wrong += [f"{node.lineno}: {alias.name} from {home}"
                      for alias in node.names if alias.name not in defined]
    assert wrong == []


def test_allowlist_is_exactly_what_perfbench_reads():
    foreign_all = {("matlie", name) for name in _all("matlie")
                   if name not in _defined("matlie")}
    served = {("matlie", name) for name in matlie._CATALOG_NAMES}
    assert foreign_all | served == set(ALLOWED)
    for (module, name), reader in ALLOWED.items():
        assert name in (ROOT / reader).read_text(encoding="utf-8"), (name, reader)
        assert callable(getattr(matlie, name))
