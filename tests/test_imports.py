"""Every name that a module of the package imports is used in that module.

No linter ships with the package's test dependencies, so this check parses
each module with the standard ``ast`` module.  ``__init__.py`` is left out:
it imports names to re-export them.
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
