"""Print the package's statements that the tier-1 suite never runs.

    PYTHONPATH=src python tests/line_coverage.py

Runs the tests under tests/ in this process with a sys.settrace line tracer
on every file of src/planarlp, then lists each statement of those files on
which no line event fired, as path:line and the statement's first line, in
file order.  It prints the count last, as "<missed> of <statements>
statements never ran".  A statement is every ast.stmt but a docstring and
the body of an "if TYPE_CHECKING:" block.  A statement has run when a line
event fired on any of its lines, so a compound statement (if, for, def, ...)
counts as run with its header, and a branch that never runs shows as its
own body's statements.  Code in the CLI's subprocesses is not traced, and
neither is an import that happens before the tracer starts.  Hypothesis
runs with seed 0, so that two trees draw the same examples.  This is a
script rather than a test because it needs no coverage package and because
its count moves with every new test.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planarlp"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement, in file order."""
    out = []

    def visit(parent: ast.AST) -> None:
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, (ast.stmt, ast.excepthandler)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                out.append((node.lineno, node.lineno))
                continue
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                decorators = [d.lineno for d in getattr(node, "decorator_list", ())]
                out.append((min([node.lineno, *decorators]), node.end_lineno))
            visit(node)

    visit(ast.parse(source))
    return sorted(out)


def main() -> None:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = total = 0
    for name, path in files.items():
        text = path.read_text()
        lines = text.splitlines()
        for first, last in statements(text):
            total += 1
            if not any(k in hits[name] for k in range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements never ran")


if __name__ == "__main__":
    main()
