"""The package's modules form one chain of layers, and cli reads each name
from the module that defines it.

A module imports only from the layers before it in LAYERS, so no import
runs back up the chain.  A name that cli reads as `module.name` must be
defined in that module, not imported into it: a re-export gives one object
two homes, and patching one home (say, a module constant in a test) does
not reach a caller that reads the other.
"""

import ast
import pathlib

import grammate

LAYERS = ("matrix_core", "gram", "gale_ryser", "rank_forms", "combinators", "iso", "oracle", "cli")
SRC = pathlib.Path(grammate.__file__).parent


def _tree(module):
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree):
    """The grammate modules that tree imports, at any depth, with line numbers."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                found += [(alias.name, node.lineno) for alias in node.names]
            elif node.level == 1:
                found.append((node.module.split(".")[0], node.lineno))
            elif node.level == 0 and (node.module or "").startswith("grammate."):
                found.append((node.module.split(".")[1], node.lineno))
        elif isinstance(node, ast.Import):
            found += [(alias.name.split(".")[1], node.lineno) for alias in node.names
                      if alias.name.startswith("grammate.")]
    return found


def _defined_names(tree):
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_layers_name_every_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_follow_the_layers():
    back = []
    for i, module in enumerate(LAYERS):
        for target, line in _imported_modules(_tree(module)):
            if target not in LAYERS[:i]:
                back.append(f"{module}.py:{line} imports {target}")
    assert not back, back


def test_cli_reads_each_name_from_its_home():
    tree = _tree("cli")
    homes = {alias.asname or alias.name: _defined_names(_tree(alias.name))
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
             for alias in node.names}
    borrowed = sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                       and node.value.id in homes and node.attr not in homes[node.value.id]})
    assert not borrowed, f"cli reads names its modules only import: {borrowed}"
