"""Static checks on the package source that no installed linter covers."""

import ast
from pathlib import Path

import pytest

import nvreadout as nv

MODULES = sorted(p for p in Path(nv.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, except on ``noqa`` lines."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []
