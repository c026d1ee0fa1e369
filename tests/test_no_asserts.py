"""No `assert` guards a result in the library: `python -O` strips them.

A correctness check must raise a real exception.  The allowlist names each
remaining assert by module, enclosing function and the asserted expression.
"""

import ast
import pathlib

import grammate

ALLOWED: set[tuple[str, str, str]] = set()


def _asserts(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, ast.Assert):
                    found.append((path.name, func, ast.unparse(child.test), child.lineno))
                visit(child, func)

    visit(tree, None)
    return found


def test_no_asserts_outside_allowlist():
    src = pathlib.Path(grammate.__file__).parent
    found = [a for p in sorted(src.rglob("*.py")) for a in _asserts(p)]
    unexpected = [a for a in found if a[:3] not in ALLOWED]
    assert not unexpected, f"assert statements in src/grammate: {unexpected}"
