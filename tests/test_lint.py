"""Static checks on the package source that no installed linter covers."""

import ast
import importlib.util
from pathlib import Path

import pytest

import nvreadout as nv
from nvreadout import pumpsim

SOURCES = sorted(Path(nv.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def imported_names(path: Path):
    """(name, line number, source line) of every name a module imports."""
    source = path.read_text()
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0], alias.lineno,
                       lines[alias.lineno - 1])


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, except on ``noqa`` lines."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line, text in sorted(imported_names(path))
            if "noqa" not in text and name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_imports_are_kept_only_for_the_tracer():
    # an import kept with ``noqa: F401`` must be a call site the benchmark's
    # tracer patches, so it goes when the tracer drops the patch
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = {(module, attr) for module, attr, _ in tracer.PATCHES}
    kept = [(path.stem, name, line) for path in SOURCES
            for name, line, text in imported_names(path)
            if "noqa: F401" in text]
    assert [k for k in kept if k[:2] not in patched] == []


def expm_call_sites(path: Path):
    """(module, top-level function or None) of every call to ``expm``."""
    tree = ast.parse(path.read_text())
    owner = {id(node): top.name for top in tree.body
             if isinstance(top, ast.FunctionDef) for node in ast.walk(top)}
    return [(path.stem, owner.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "expm" in (getattr(node.func, "id", None),
                           getattr(node.func, "attr", None))]


def imported_modules(path: Path):
    """The dotted name of every module ``path`` imports from."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_pumpsim_calls_expm_once_in_its_builder():
    # every propagator of the package comes from one stacked exponential, so
    # the exponential can be replaced in one place; pumpsim keeps it as a
    # module-level name, which the benchmark's tracer patches
    calls = [site for path in SOURCES for site in expm_call_sites(path)]
    assert calls == [("pumpsim", "_build_blocks")]
    assert [path.stem for path in SOURCES
            if any(module.split(".")[0] == "scipy"
                   for module in imported_modules(path))] == ["pumpsim"]
    assert "expm" in vars(pumpsim)
