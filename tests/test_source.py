"""Static checks on the package source (no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

import hardedge

SOURCES = sorted(Path(hardedge.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import math\nimport os.path\nfrom x import y as z, w\n__all__ = ['w']\nos.sep\n"
    assert unused_imports(source) == ["math", "z"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
