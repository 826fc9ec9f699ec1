"""Every module-level import in the package is read or re-exported.

No linter ships with the test extra, so this walks each module's syntax
tree: a name bound by a top-level import must be read somewhere in the
module or be listed in its ``__all__``.  Package ``__init__`` files are
exempt, since their imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tfmbe"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """'name (line n)' for each top-level import that is never read."""
    tree = ast.parse(source)
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read and name not in exported]


def test_detector():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "from math import pi as PI, tau\nimport sys\n__all__ = ['tau']\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == ["os (line 3)", "PI (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
