"""Every name that a module of the package imports is used in that module,
every name in a module's ``__all__`` is bound in that module, and no module
imports scipy: numpy is the package's only runtime dependency.

No linter ships with the package's test dependencies, so this check parses
each module with the standard ``ast`` module.  ``__init__.py`` is left out
of the unused-import check: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nesslsi"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a; "from m import x as y" binds y
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_import_check_sees_an_unused_name():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math", "path"]


@pytest.mark.parametrize("module", sorted(p.name for p in _PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_imports_no_unused_name(module):
    assert _unused_imports((_PACKAGE / module).read_text()) == []


def _unbound_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level statement of the module binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound.update(names)
            if "__all__" in names:
                exported = [ast.literal_eval(elt) for elt in node.value.elts]
    return sorted(name for name in exported if name not in bound)


def test_unbound_export_check_sees_a_stale_name():
    assert _unbound_exports("import os\nx = 1\ndef f(): pass\n"
                            "__all__ = ['os', 'x', 'f', 'gone']\n") == ["gone"]


@pytest.mark.parametrize("module", sorted(p.name for p in _PACKAGE.glob("*.py")))
def test_module_all_names_are_bound(module):
    assert _unbound_exports((_PACKAGE / module).read_text()) == []


def _scipy_imports(source: str) -> list[int]:
    """Line numbers of the imports of scipy or a scipy submodule, at any depth."""
    tree = ast.parse(source)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_scipy_import_check_sees_nested_imports():
    source = ("import scipy.special\nimport scipyx\n"
              "def f():\n    from scipy.optimize import linear_sum_assignment\n"
              "    import os, scipy\n")
    assert _scipy_imports(source) == [1, 4, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in _PACKAGE.glob("*.py")))
def test_module_imports_no_scipy(module):
    assert _scipy_imports((_PACKAGE / module).read_text()) == []
