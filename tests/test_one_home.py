"""Every name has one home: each ``__all__`` entry is defined in its own
module, and each ``from .m import name`` names the module that defines it.
The only exceptions are the ``matlie`` bindings that perfbench reads.  Span
membership has one home too: only ``ratlinalg`` reads an echelon's rows;
so has the matrix format: only ``ratlinalg`` reads ``_data`` or calls
``_make``; so has the rate format: only ``rates`` reads exponent vectors; and so has
the file format: only ``base`` opens files.  Imports between ``cli`` and its
group modules run one way."""

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


def _imported_submodules(module: str) -> set:
    """The idealkit submodules a module imports, in any import form."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("idealkit."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "idealkit"):
            parts = [p for p in (node.module or "").split(".")[0 if node.level else 1:] if p]
            found.update(parts[:1] or [alias.name for alias in node.names])
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m.startswith("cli_")])
def test_group_modules_do_not_import_cli(module):
    """Imports between ``cli`` and the group modules run one way: ``cli.main``
    imports ``cli_<group>``, and no group module imports ``cli`` back."""
    assert "cli" not in _imported_submodules(module)


def test_allowlist_is_exactly_what_perfbench_reads():
    foreign_all = {("matlie", name) for name in _all("matlie")
                   if name not in _defined("matlie")}
    served = {("matlie", name) for name in matlie._CATALOG_NAMES}
    assert foreign_all | served == set(ALLOWED)
    for (module, name), reader in ALLOWED.items():
        assert name in (ROOT / reader).read_text(encoding="utf-8"), (name, reader)
        assert callable(getattr(matlie, name))


@pytest.mark.parametrize("module", [m for m in MODULES if m != "ratlinalg"])
def test_echelon_rows_are_read_in_ratlinalg_only(module):
    """Span membership and coordinates go through ``SparseEchelon``'s methods:
    no other module reads the held rows ``_rows`` (a plain name such as
    matlie's function ``_rows`` is not an attribute read)."""
    reads = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Attribute) and node.attr == "_rows"]
    assert reads == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "ratlinalg"])
def test_matrix_rows_are_read_in_ratlinalg_only(module):
    """A matrix enters and leaves other modules through ``RationalMatrix``'s
    views and constructors: no other module reads its stored rows ``_data``
    or wraps rows with ``_make``."""
    reads = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Attribute) and node.attr in ("_data", "_make")]
    assert reads == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "rates"])
def test_rate_vectors_are_read_in_rates_only(module):
    """A rate's exponent vector and its coprime base are the rates module's
    format: no other module reads ``.vector`` or calls ``_coprime_base`` or
    ``_over``."""
    reads = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Attribute) and node.attr == "vector"
             or isinstance(node, ast.Name) and node.id in ("_coprime_base", "_over")
             or isinstance(node, ast.alias) and node.name in ("_coprime_base", "_over")]
    assert reads == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "base"])
def test_files_are_read_and_written_in_base_only(module):
    """Every file goes through ``base.read_json`` and ``base.write_json``: no
    other module calls ``open``, ``json.load`` or ``json.dump``, and only
    ``cli``, which prints its reports, imports ``json``."""
    calls, imports = [], []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open"
                    or isinstance(func, ast.Attribute) and func.attr == "open"
                    or isinstance(func, ast.Attribute) and func.attr in ("load", "dump")
                    and isinstance(func.value, ast.Name) and func.value.id == "json"):
                calls.append(node.lineno)
        elif isinstance(node, ast.Import):
            imports += [node.lineno for alias in node.names if alias.name == "json"]
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            imports.append(node.lineno)
    assert calls == []
    assert imports == [] or module == "cli"
