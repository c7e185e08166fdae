"""Static checks on the package source that no installed linter covers."""

import ast
import importlib.util
from pathlib import Path

import pytest

import nvreadout as nv
from nvreadout import config, pumpsim

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


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name inside its own module
    private = [f"{path.name}:{alias.lineno}: {alias.name}" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("nvreadout"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def calls_with_branches(path: Path, name: str):
    """(top-level function or class, branch conditions) of every call to
    ``name``, a bare or attribute name: the test of each ``if`` and the
    iterable of each ``for`` in whose body the call sits, as source text,
    innermost first."""
    source = path.read_text()
    found = []

    def visit(node, top, branches):
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((top, branches))
        for child in ast.iter_child_nodes(node):
            inner = branches
            if isinstance(node, (ast.If, ast.For)) and child in node.body:
                condition = node.test if isinstance(node, ast.If) else node.iter
                inner = [ast.get_source_segment(source, condition), *branches]
            visit(child, top, inner)

    for top in ast.parse(source).body:
        visit(top, getattr(top, "name", None), [])
    return found


def uses(path: Path, name: str):
    """The top-level function or class of every read of ``name``, a bare or
    attribute name, outside the imports: each call to it, and each time it
    is passed on."""
    return [getattr(top, "name", None)
            for top in ast.parse(path.read_text()).body
            for node in ast.walk(top)
            if name in (getattr(node, "id", None), getattr(node, "attr", None))]


def imported_modules(path: Path):
    """The dotted name of every module ``path`` imports from."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_pumpsim_calls_expm_once_in_its_builder():
    # every propagator of the package comes from one exponential entry
    # point, pumpsim.expm, so the exponential can be replaced in one place;
    # pumpsim keeps it as a module-level name, which the benchmark's tracer
    # patches
    def calls(name):
        return [(path.stem, top) for path in SOURCES
                for top, _ in calls_with_branches(path, name)]
    assert calls("expm") == [("pumpsim", "_build_blocks")]
    # it is the stacked Padé kernel itself, in numpy, so no module imports
    # scipy's linear algebra; the one scipy import is the bare package the
    # CLI reads its version from
    assert [(path.stem, module) for path in SOURCES
            for module in imported_modules(path)
            if module.split(".")[0] == "scipy"] == [("cli", "scipy")]
    assert "expm" in vars(pumpsim)


def test_whole_vector_bound_checks_stay_out_of_the_query_path():
    # a point is checked against the box in full where it enters: the
    # search's starting point and a waveform's constructor; the objective
    # checks only the pieces a trial changes, once per query
    contains = [(path.stem, top) for path in SOURCES
                for top, _ in calls_with_branches(path, "contains")]
    assert contains == [("optimizer", "hj_optimize"),
                        ("waveform", "PiecewiseWaveform")]


def test_the_search_alone_records_and_judges_its_queries():
    # one loop builds every query record, accepted or not, and rejects
    # every value that is not finite
    for name in ("QueryRecord", "ObjectiveError"):
        sites = [(path.stem, top) for path in SOURCES
                 for top, _ in calls_with_branches(path, name)]
        assert sites == [("optimizer", "hj_optimize")], name


def test_the_olo_summary_file_is_named_once():
    # the optimize command writes it and rabi reads it, by one name
    literals = [path.stem for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant)
                and node.value == "olo_summary.json"]
    assert literals == ["io"]


def test_lstsq_only_behind_the_ill_conditioned_branches():
    # the fit solves its normal equations in closed form, and where they
    # are ill-conditioned by Gram-Schmidt, not by lstsq: the first call of
    # a LAPACK routine pages 0.6-1.1 MB into the process, so numpy.linalg
    # gives only expm's solve and norms
    lstsq = [(path.stem, top) for path in SOURCES
             for top, _ in calls_with_branches(path, "lstsq")]
    assert lstsq == []
    linalg = [(path.stem, getattr(top, "name", None), node.attr)
              for path in SOURCES for top in ast.parse(path.read_text()).body
              for node in ast.walk(top) if isinstance(node, ast.Attribute)
              and ast.unparse(node.value).endswith("linalg")]
    assert {attr for _, _, attr in linalg} <= {"solve", "norm"}
    assert [site for site in linalg if site[2] == "solve"] == [
        ("pumpsim", "expm", "solve")]
    fallbacks = [(path.stem, top, branches) for path in SOURCES
                 for top, branches in calls_with_branches(path, "_linear_fit_at")]
    assert {(module, top) for module, top, _ in fallbacks} == {
        ("metrics", "_fit_at"), ("metrics", "_grid_residuals")}
    assert all(branches and "_ILL_CONDITIONED" in branches[0]
               for _, _, branches in fallbacks)


def test_each_stream_is_keyed_in_one_place():
    # the seed rule has one home per sampling stream: the OLO objective
    # keys OLO_STREAM and the scheme comparison RABI_STREAM, so no two
    # draws of a run can share a key by accident
    sites = [(path.stem, top) for path in SOURCES
             for top, _ in calls_with_branches(path, "sampling_seed")]
    assert sites == [("harness", "make_snr_objective"),
                     ("rabi", "compare_schemes")]
    streams = [(path.stem, ast.unparse(node.args[1])) for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "sampling_seed"]
    assert streams == [("harness", "OLO_STREAM"), ("rabi", "RABI_STREAM")]


def test_every_setting_is_read():
    # a setting of config.SETTINGS that no code reads would be checked and
    # recorded in every manifest, yet change nothing; the table itself
    # names its keys as dict keys, not as subscripts
    read = {node.slice.value for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}
    unread = [(section, key) for section, entry in config.SETTINGS.items()
              for key in (entry if isinstance(entry, dict) else [section])
              if not {section, key} <= read]
    assert unread == []


def test_cli_builds_no_model_object():
    # the run's model objects have one home, config.load_config, which
    # checks a setting by building what it configures: the CLI takes
    # nothing else from config, replaces no field of what it gets, and
    # reads no waveform and builds no pulse of its own
    cli = Path(nv.__file__).parent / "cli.py"
    from_config = [alias.name for node in ast.walk(ast.parse(cli.read_text()))
                   if isinstance(node, ast.ImportFrom)
                   and node.module in ("config", "nvreadout.config")
                   for alias in node.names]
    assert from_config == ["load_config"]
    for name in ("replace", "read_waveform_csv", "make_constant"):
        assert uses(cli, name) == [], name
    assert "replace" not in {name for name, _, _ in imported_names(cli)}


def test_the_config_alone_reads_a_waveform_file():
    # the rabi command's OLO scheme is read at load, so every command
    # checks the file
    sites = [(path.stem, top) for path in SOURCES
             for top in uses(path, "read_waveform_csv")]
    assert sites == [("config", "_olo_scheme")]
