import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("errors", "daft", "modem", "pilots", "channel", "estimator", "sensing", "analysis")


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy.linalg takes about 0.3 s to import; only the banded equalizer
    # solve uses it, and it imports it there
    code = "\n".join(
        ["import sys", "import afdm_isac"]
        + [f"import afdm_isac.{name}" for name in MODULES]
        + ["print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"]
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_modules_import_only_earlier_modules():
    # MODULES lists the layers bottom-up, so the package has no import cycle
    for i, name in enumerate(MODULES):
        tree = ast.parse((SRC / "afdm_isac" / f"{name}.py").read_text())
        imported = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
        }
        assert imported <= set(MODULES[:i]), (name, imported - set(MODULES[:i]))


def test_only_channel_imports_private_daft_names():
    # every other module reads a delayed copy through waveform_samples, so the
    # chirp-periodic extension and its whole-delay reader have one caller outside daft
    for name in MODULES:
        tree = ast.parse((SRC / "afdm_isac" / f"{name}.py").read_text())
        private = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module == "daft"
            for alias in node.names
            if alias.name.startswith("_")
        }
        assert name == "channel" or not private, (name, private)


def test_only_channel_reads_the_path_taps():
    # PathChannel.images is the one place the DAFT-domain taps meet a vector,
    # and regularized_solve the one reader of the time taps
    for name in MODULES:
        tree = ast.parse((SRC / "afdm_isac" / f"{name}.py").read_text())
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert name == "channel" or not read & {"_daft_taps", "_time_taps"}, name


def test_no_module_calls_the_dense_daft_matrix():
    # the N x N DAFT matrix is a test oracle: the package transforms by FFT
    for path in sorted((SRC / "afdm_isac").glob("*.py")):
        tree = ast.parse(path.read_text())
        called = {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert "build_daft_matrix" not in called, path.name


def test_only_daft_reads_the_chirp_rates():
    # every chirp phase reads AfdmConfig's tables, so c1 and c2 are read in one module
    for path in sorted((SRC / "afdm_isac").glob("*.py")):
        if path.name == "daft.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not read & {"c1", "c2"}, path.name


def test_caches_stay_where_they_are_listed():
    # one bounded cache (the estimator's pilot model), and cached properties
    # only on the two frozen types whose cached arrays are read-only
    caches, cached_properties = [], set()
    for path in sorted((SRC / "afdm_isac").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            child: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for child in ast.walk(node)
        }
        for node in ast.walk(tree):
            name = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
            name = getattr(node, name) if name else None
            if name in ("lru_cache", "cache"):
                caches.append((path.name, owner.get(node)))
            elif name == "cached_property":
                cached_properties.add(owner.get(node))
    assert caches == [("estimator.py", None)]
    assert cached_properties == {"AfdmConfig", "PathChannel"}


def test_every_imported_name_is_used():
    # the package's __init__ re-exports what it imports; elsewhere a name kept
    # only for an outside reader is marked "# noqa: F401" on its import
    for name in MODULES:
        source = (SRC / "afdm_isac" / f"{name}.py").read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            and not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (name, imported - used)


def test_argument_checks_are_defined_only_in_errors():
    # the vector, stack, scalar, count and integer-array contracts have one home
    checks = {"is_integer", "is_real", "check_vector", "check_stack", "check_nonnegative", "check_count",
              "check_integers", "_as_stack", "_integers", "_vector"}
    for name in MODULES[1:]:
        tree = ast.parse((SRC / "afdm_isac" / f"{name}.py").read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & checks, (name, defined & checks)
