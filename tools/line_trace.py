"""The statements of ``src/nesslsi`` that the test suite never runs.

    python3 tools/line_trace.py

Runs pytest on ``tests/`` in this process under ``sys.settrace`` and
``threading.settrace``, recording the line events of frames whose code lies
in ``src/nesslsi``, and then prints, per module, each statement (found with
``ast``) that never ran, with its line number and first line of source.  A
compound statement (``if``, ``for``, ``try``, ...) counts as run when its
header or any statement inside it ran.  Left out, since they run at import
or emit no line event: docstrings, ``def`` and ``class`` lines, imports, and
``nonlocal`` and ``global`` statements.  Code run only in a subprocess that
a test starts (``python -m nesslsi.cli`` or ``python -c``) is not traced.

It uses the standard library and pytest only, and takes no options.  The
traced suite runs about twice as long as the untraced one.  The exit code
is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nesslsi"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Nonlocal, ast.Global)


def trace_suite() -> tuple[int, dict[str, set[int]]]:
    """Run the suite traced; return pytest's exit code and the lines run
    per file of ``src/nesslsi``."""
    import pytest

    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}
    lines_of: dict[str, set[int] | None] = {}  # by co_filename, which may be relative

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            real = os.path.realpath(name)
            lines_of[name] = ran.setdefault(real, set()) if real.startswith(prefix) else None
        seen = lines_of[name]
        if seen is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def _children(node: ast.stmt) -> list[ast.stmt]:
    return [c for field in ("body", "orelse", "finalbody") for c in getattr(node, field, [])] + [
        c for h in getattr(node, "handlers", []) for c in h.body] + [
        c for case in getattr(node, "cases", []) for c in case.body]


def unrun(tree: ast.Module, ran: set[int]) -> list[ast.stmt]:
    """The statements of tree that never ran, in source order."""
    missed: list[ast.stmt] = []

    def visit(stmts: list[ast.stmt], may_have_docstring: bool) -> bool:
        """Report the unrun statements of stmts; return whether any ran."""
        any_ran = False
        for i, node in enumerate(stmts):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str) and i == 0 and may_have_docstring:
                continue  # docstring
            if isinstance(node, _SKIPPED):
                visit(getattr(node, "body", []), True)  # a def or class body
                continue
            children = _children(node)
            if children:
                end = min(c.lineno for c in children) - 1
                inner = visit(children, False)
                here = inner or any(n in ran for n in range(node.lineno, max(end, node.lineno) + 1))
            else:
                here = any(n in ran for n in range(node.lineno, node.end_lineno + 1))
            if not here:
                missed.append(node)
            any_ran = any_ran or here
        return any_ran

    visit(tree.body, True)
    return sorted(missed, key=lambda n: n.lineno)


def main() -> int:
    code, ran = trace_suite()
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        missed = unrun(ast.parse(source), ran.get(str(path), set()))
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} never ran")
        for node in missed:
            print(f"  {node.lineno}: {lines[node.lineno - 1].strip()}")
    print(f"total: {total} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
