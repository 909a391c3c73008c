"""Every name has one home: each ``__all__`` entry is defined in its own
module, and each ``from .m import name`` names the module that defines it.
The only exceptions are the ``matlie`` bindings that perfbench reads.  Span
membership has one home too: only ``ratlinalg`` reads an echelon's rows;
so has the matrix format: only ``ratlinalg`` reads ``_data`` or calls
``_make``; so has the rate format: only ``rates`` reads exponent vectors; and so has
the file format: only ``base`` opens files.  Imports between ``cli`` and its
group modules run one way.  And every definition has a caller in the package
or in the benchmark scripts that import it, and no run of three lines is
written twice.  In the tests, every command-line call has one home too:
``conftest.run_main``, which runs it under a budget."""

from __future__ import annotations

import ast
from collections import Counter
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


# Definitions whose callers are outside src/ and perfbench/: the console
# script that pyproject.toml names, and the group handlers that cli.main
# reaches through import_module.
CALLED_FROM_OUTSIDE = {("cli", "main")} | {(m, "handle") for m in MODULES if m.startswith("cli_")}


def _references(node) -> Counter:
    """Names a subtree reads: loaded names and attributes, imported names,
    and identifier strings (perfbench's tracer names its entry points as
    strings), except the strings of an ``__all__`` list."""
    found = Counter()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found[node.value] += 1
        stack.extend(ast.iter_child_nodes(node))
    return found


def _imports_idealkit(tree: ast.Module) -> bool:
    return any(isinstance(n, ast.Import) and any(a.name.startswith("idealkit") for a in n.names)
               or isinstance(n, ast.ImportFrom) and (n.module or "").startswith("idealkit")
               for n in ast.walk(tree))


def _definitions(module: str):
    """(qualified name, name, node) of each top-level definition of a module
    and each public method of its classes."""
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m.name, m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def test_every_definition_has_a_caller():
    """A module-level definition or public method that nothing in src/ or in
    a perfbench script that imports idealkit reads outside its own body is
    API that only tests use; dunders and CALLED_FROM_OUTSIDE are exempt."""
    readers = [_tree(m) for m in MODULES]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if _imports_idealkit(tree):
            readers.append(tree)
    total = sum((_references(tree) for tree in readers), Counter())
    orphans = [f"{module}.{qualified}" for module in MODULES
               for qualified, name, node in _definitions(module)
               if not (name.startswith("__") and name.endswith("__"))
               and (module, name) not in CALLED_FROM_OUTSIDE
               and total[name] == _references(node)[name]]
    assert orphans == []


def test_no_three_lines_repeat():
    """No run of three consecutive stripped lines appears twice across the
    package, counting only runs whose every line has at least 13 characters
    and opens neither a comment nor a docstring: a rule written out twice
    gets one home instead."""
    first, repeats = {}, []
    for module in MODULES:
        lines = [line.strip() for line in
                 (PKG / f"{module}.py").read_text(encoding="utf-8").splitlines()]
        for i in range(len(lines) - 2):
            run = tuple(lines[i:i + 3])
            if all(len(line) >= 13 and not line.startswith(("#", '"""')) for line in run):
                where = f"{module}.py:{i + 1}"
                if first.setdefault(run, where) != where:
                    repeats.append(f"{first[run]} {where}")
    assert repeats == []


def test_tests_call_the_cli_under_a_bound():
    """No test module but conftest calls ``cli.main``: in process, a test
    goes through ``run_main`` and its budget.  Every ``subprocess.run`` and
    ``communicate`` in the tests carries ``timeout=``.  The ``-c`` probes that
    mention ``cli.main`` are strings, not calls."""
    unbounded = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value.id if isinstance(node.func.value, ast.Name) else None
            call = (owner, node.func.attr)
            timed = any(keyword.arg == "timeout" for keyword in node.keywords)
            if (call == ("cli", "main") and path.name != "conftest.py"
                    or call == ("subprocess", "run") and not timed
                    or call[1] == "communicate" and not timed):
                unbounded.append(f"{path.name}:{node.lineno} {owner}.{call[1]}")
    assert unbounded == []
