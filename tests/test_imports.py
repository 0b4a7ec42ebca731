import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("errors", "daft", "modem", "pilots", "channel", "sensing", "estimator", "analysis")


def _run(code: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter that finds the package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout.strip()


LOADED_SCIPY = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def test_importing_the_package_leaves_scipy_unloaded():
    # importing scipy.linalg took 0.22-0.24 s; no module imports scipy
    # (test_no_module_imports_scipy), and the banded equalizer loads only
    # scipy's LAPACK wrapper, on its first solve
    code = "\n".join(
        ["import sys", "import afdm_isac"]
        + [f"import afdm_isac.{name}" for name in MODULES]
        + [f"print({LOADED_SCIPY})"]
    )
    assert _run(code) == "[]"


# one equalizer solve and one iterative_estimate frame, run with scipy.linalg
# imported after them or before them; prints the scipy modules the two left
# loaded, whether scipy's own lookup returns the equalizer's routines, and
# the solution and the frame's estimates as hex bytes
COLD_START = """
import sys
if SCIPY_FIRST:
    import scipy.linalg
import numpy as np
from afdm_isac import AfdmConfig, channel
from afdm_isac.channel import PathChannel, basis_grid
from afdm_isac.estimator import iterative_estimate
from afdm_isac.modem import FrameSpec
from afdm_isac.pilots import proposed_pilot

rng = np.random.default_rng(5)
cfg = AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64)
h = PathChannel(cfg, [0, 2, 3], [0, 1, -1], [1.0, 0.4j, -0.3])
z = h._daft_solve(rng.standard_normal(64) + 1j * rng.standard_normal(64), 0.1)
x_p = proposed_pilot(cfg, 64 * 30.0)
x_d = (rng.choice([-1.0, 1.0], 64) + 1j * rng.choice([-1.0, 1.0], 64)) * np.sqrt(15.0)
y = h @ (x_p + x_d) + rng.standard_normal(64) + 1j * rng.standard_normal(64)
res = iterative_estimate(y, x_p, FrameSpec(64 * 30.0, 30.0), basis_grid(3, 1), cfg, 2.0)
print(LOADED)
from scipy.linalg.lapack import get_lapack_funcs
found = get_lapack_funcs(("pbtrf", "pbtrs"), (np.empty(0, np.complex128),))
print(all(a is b for a, b in zip(found, channel._banded_cholesky(), strict=True)))
print(z.tobytes().hex(), res.alpha_hat.tobytes().hex(), res.h_eff_hat.gains.tobytes().hex())
"""


def _cold_start(scipy_first: bool) -> list[str]:
    return _run(COLD_START.replace("SCIPY_FIRST", str(scipy_first)).replace("LOADED", LOADED_SCIPY)).splitlines()


def test_the_equalizer_loads_only_the_lapack_wrapper():
    # scipy.linalg imported after the solve returns the routines the equalizer
    # loaded; imported before it, the solve and the frame are bit for bit the same
    loaded, same, solved = _cold_start(scipy_first=False)
    assert loaded == "['scipy.linalg._flapack']"
    assert same == "True"
    _, same_first, solved_first = _cold_start(scipy_first=True)
    assert same_first == "True"
    assert solved_first == solved


def test_the_equalizer_without_scipy_raises_import_error():
    # a None entry in sys.modules hides an installed package from the import system
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from afdm_isac import channel",
        "try:",
        "    channel._banded_cholesky()",
        "except ImportError as error:",
        "    print(error)",
    ])
    assert "needs scipy" in _run(code)


def test_no_module_imports_scipy():
    # channel._banded_cholesky, which loads the one extension it needs by its
    # file, is the one way into scipy: an import statement would run the
    # scipy and scipy.linalg packages
    for path in sorted((SRC / "afdm_isac").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [
            name
            for node in ast.walk(tree)
            for name in (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                else []
            )
        ]
        assert not [name for name in imported if name.partition(".")[0] == "scipy"], path.name


def test_modules_import_only_earlier_modules():
    # MODULES lists the layers bottom-up, so the package has no import cycle
    for i, name in enumerate(MODULES):
        tree = ast.parse((SRC / "afdm_isac" / f"{name}.py").read_text())
        imported = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
        }
        assert imported <= set(MODULES[:i]), (name, imported - set(MODULES[:i]))


def test_only_channel_imports_private_daft_names():
    # every other module reads a delayed copy through waveform_samples; channel's
    # paths read its whole-delay reader, and the echo checks daft's broadcast rule
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


def test_only_daft_calls_the_chirp_periodic_extension():
    # the prefix and the delayed copies are built in daft, so no module grows a
    # second delayed-copy builder of its own
    for path in sorted((SRC / "afdm_isac").glob("*.py")):
        tree = ast.parse(path.read_text())
        called = {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert path.name == "daft.py" or "_chirp_periodic" not in called, path.name


def test_only_channel_reads_the_path_taps():
    # PathChannel keeps one tap table, the DAFT-domain taps: its products, its
    # dense view and the equalizer's _daft_solve read it, and no other module does
    for name in MODULES:
        tree = ast.parse((SRC / "afdm_isac" / f"{name}.py").read_text())
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert name == "channel" or "_daft_taps" not in read, name


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


def _exp_calls(node, scope=""):
    """(qualified scope, callee) of every call of an attribute ``exp`` below ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "exp":
            yield inner, ast.unparse(child.func)
        yield from _exp_calls(child, inner)


def test_exponentials_are_called_where_listed():
    # outside daft's tables and closed form and the pilots' sequences, every phase
    # ramp is channel._doppler_ramp; the scenario's random gain phase is one per trial
    calls = {
        (name, *call)
        for name in MODULES
        if name not in ("daft", "pilots")
        for call in _exp_calls(ast.parse((SRC / "afdm_isac" / f"{name}.py").read_text()))
    }
    assert calls == {
        ("channel", "_doppler_ramp", "np.exp"),
        ("sensing", "SensingScenario._target", "np.exp"),
    }


def test_caches_stay_where_they_are_listed():
    # three caches (the banded solve's band layout and its LAPACK routines in
    # channel, the estimator's pilot model), and each cached property by name
    # (a scenario's plan keeps the ROC trials' invariants and block buffers):
    # every one is re-read by some workload, so a new one is a decision
    caches, cached_properties = [], set()
    for path in sorted((SRC / "afdm_isac").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            child: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for child in ast.walk(node)
        }
        decorated = {
            part: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            for decorator in node.decorator_list
            for part in ast.walk(decorator)
        }
        for node in ast.walk(tree):
            name = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
            name = getattr(node, name) if name else None
            if name in ("lru_cache", "cache"):
                caches.append((path.name, owner.get(node)))
            elif name == "cached_property":
                cached_properties.add((owner.get(node, path.name), decorated.get(node)))
    assert caches == [("channel.py", None)] * 2 + [("estimator.py", None)]
    assert cached_properties == {
        ("AfdmConfig", "c1_chirp"),
        ("AfdmConfig", "c2_chirp"),
        ("AfdmConfig", "dft_twiddle"),
        ("PathChannel", "_daft_taps"),
        ("SensingScenario", "_plan"),
    }


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
              "check_integers", "check_reals", "_as_stack", "_integers", "_vector"}
    for name in MODULES[1:]:
        tree = ast.parse((SRC / "afdm_isac" / f"{name}.py").read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & checks, (name, defined & checks)


# public names, and public methods and properties of public classes, with no
# reader in the package or the benchmark's workloads, each with the reason it
# stays public; a name that gains a reader must leave the table
TEST_ONLY = {
    ("analysis", "fim"): "the paper's FIM, checked against the finite-difference Hessian, also where crb raises",
    ("analysis", "ambiguity_function"): "the paper's auto-ambiguity surface; the pilot model's Gram reads the "
                                        "same correlation through sensing._gram",
    ("analysis", "ambiguity_region"): "the paper's ambiguity region [-tau_m, tau_m] x [-2 nu_m, 2 nu_m]",
    ("analysis", "ambiguity_decomposition"): "the paper's four bilinear parts of the frame's ambiguity",
    ("analysis", "interference_coefficient"): "the paper's closed-form DAFT-domain coupling of one path",
    ("analysis", "verify_theorem_3"): "the paper's Theorem 3, the 1/Nc decay of the origin variance",
    ("analysis", "equal_allocation"): "the equal-power baseline of the CRB allocations (ROADMAP item 8)",
    ("daft", "build_daft_matrix"): "the dense DAFT matrix, an oracle whose analysis binding the benchmark pins",
    ("estimator", "build_psi"): "the FFT reference of the pilot model, pinned by the benchmark's tracer test",
    ("pilots", "proposed_delay_limit"): "the paper's delay reach of the proposed comb (ROADMAP item 5)",
    ("pilots", "max_unambiguous_delay"): "the delay reach of a comb spacing (ROADMAP item 5)",
    ("channel", "sensing_echo"): "the checked target echo of one symbol or a stack; roc_curve runs its kernel",
    ("sensing", "rdf"): "the checked range-Doppler map of a caller's echo; roc_curve runs its kernel",
    ("sensing", "noise_floor"): "the checked noise floor of a caller's map; roc_curve runs its kernel",
    ("sensing", "detect"): "the cell-averaging detector of one map, for a caller's own scenario (ROADMAP item 4)",
    ("sensing", "estimate_target"): "the grid estimate that the sub-cell refinement starts from (ROADMAP item 4)",
    ("sensing", "RangeDopplerMap.at"): "a map's value at one grid point, read by the ambiguity-function tests",
    ("sensing", "RangeDopplerMap.max_off_origin"): "a map's largest sidelobe, read by the zero-sidelobe-region tests",
}


def _inventory_files() -> dict:
    """The parsed modules of the package, by name, and the benchmark's workloads."""
    files = {path.stem: ast.parse(path.read_text()) for path in sorted((SRC / "afdm_isac").glob("*.py"))}
    files["workloads"] = ast.parse((SRC.parent / "perfbench" / "workloads.py").read_text())
    return files


def _root(node):
    """The innermost value of an attribute chain such as ``np.add.at``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _public_uses() -> dict:
    """(module, name) -> number of reads, for each name in a module's ``__all__``
    and each public method or property ``Class.name`` of a public class.

    A read of a name is a loaded ``Name`` anywhere in the package or the
    benchmark's workloads, or a loaded attribute ``module.name`` of the
    defining module; a read of a method is a loaded attribute of that name
    on anything but a module that an ``import`` statement binds (``np.add.at``
    is numpy's).  Neither counts inside its own definition.  An annotation
    stores no value, the ``__all__`` strings and the imports are not reads,
    and the package's own ``__all__`` re-exports names that their modules
    list, so it adds none.
    """
    files = _inventory_files()
    public = {}
    for module, tree in files.items():
        for node in tree.body if module != "__init__" else ():
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                public.update({(module, name): 0 for name in ast.literal_eval(node.value)})
    definitions = {
        (module, node.name): (node.lineno, node.end_lineno)
        for module, tree in files.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    methods = {
        key: (node.lineno, node.end_lineno)
        for module, tree in files.items()
        if module != "workloads"
        for key, node in _public_functions(module, tree).items()
        if "." in key[1]
    }
    public.update(dict.fromkeys(methods, 0))
    definitions.update(methods)
    for module, tree in files.items():
        imported_modules = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                keys = [key for key in public if key[1] == node.id]
            elif isinstance(node, ast.Attribute):
                on_module = getattr(_root(node.value), "id", None) in imported_modules
                keys = [
                    key for key in public
                    if key == (getattr(node.value, "id", None), node.attr)
                    or (key in methods and not on_module and key[1].rpartition(".")[2] == node.attr)
                ]
            else:
                continue
            for key in keys:
                first, last = definitions.get(key, (0, -1))
                if not (module == key[0] and first <= node.lineno <= last):
                    public[key] += 1
    return public


def test_every_public_name_has_a_caller_or_a_reason():
    # a public twin kept only for the tests fails here until it has a caller or a reason
    uses = _public_uses()
    assert set(TEST_ONLY) <= set(uses), set(TEST_ONLY) - set(uses)
    unused = {key for key, count in uses.items() if count == 0}
    assert unused - set(TEST_ONLY) == set(), "public names without a caller"
    assert set(TEST_ONLY) - unused == set(), "listed names that have a caller"


# options with a default, parameters of functions and fields of dataclasses, that no
# call in the package or the benchmark's workloads passes, each with the reason it
# stays; an option that gains a caller must leave
UNPASSED = {
    ("sensing", "sensing_grid", "os_tau"): "an oversampled delay search axis (ROADMAP item 4's refinement)",
    ("sensing", "sensing_grid", "os_nu"): "an oversampled Doppler search axis (ROADMAP item 4's refinement)",
    ("pilots", "proposed_pilot", "r"): "the paper's comb design: a sparser comb of spacing K*2^r",
    ("pilots", "proposed_pilot", "zc_root"): "the paper's comb design: the comb's Zadoff-Chu root",
    ("estimator", "iterative_estimate", "prior"): "a caller's own gain prior, the input of ROADMAP item 12",
    ("estimator", "iterative_estimate", "known_data"): "the genie data feedback of ROADMAP item 12",
    ("analysis", "af_statistics_closed_form", "pilot_af"): "the off-origin mean, the pilot's own ambiguity value",
    ("daft", "AfdmConfig", "c2"): "the free second chirp rate of the transform",
    ("daft", "AfdmConfig", "delta_f"): "the subcarrier spacing, a physical unit of delay_doppler_to_range_velocity",
    ("daft", "AfdmConfig", "f_c"): "the carrier frequency, a physical unit of delay_doppler_to_range_velocity",
    ("sensing", "DetectionConfig", "guard"): "the CFAR window's guard box (ROADMAP item 18)",
    ("sensing", "DetectionConfig", "train"): "the CFAR window's training box (ROADMAP item 18)",
    ("sensing", "SensingScenario", "detection"): "the scenario's CFAR window (ROADMAP item 18)",
}


def _public_definitions(tree) -> list:
    """The top-level public functions and classes of a module: the names in
    ``__all__``, or every name without a leading underscore where it has none."""
    listed = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    ]
    public = set(listed[0]) if listed else None
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and (public is None or node.name in public)
    ]


def _public_functions(module: str, tree) -> dict:
    """(module, qualified name) -> FunctionDef of each public function and public method
    of a public class."""
    found = {}
    for node in _public_definitions(tree):
        if isinstance(node, ast.FunctionDef):
            found[(module, node.name)] = node
        for child in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(child, ast.FunctionDef) and not child.name.startswith("_"):
                found[(module, f"{node.name}.{child.name}")] = child
    return found


def _passed(call: ast.Call, params: list[str]) -> set:
    """The parameters among ``params`` (positional order) that ``call`` passes."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return set(params)
    return set(params[: len(call.args)]) | {kw.arg for kw in call.keywords}


def _init_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, whether it has a default) of each constructor field of a dataclass, in
    order; none for a class that is no dataclass."""
    if not any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None)) == "dataclass"
               for d in node.decorator_list):
        return []
    fields = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        spec = isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
        options = {kw.arg: kw.value for kw in value.keywords} if spec else {}
        if "init" in options and not ast.literal_eval(options["init"]):
            continue
        defaulted = bool({"default", "default_factory"} & set(options)) if spec else value is not None
        fields.append((item.target.id, defaulted))
    return fields


def _unpassed_options() -> set:
    """(module, function, parameter) of each defaulted parameter of a public function,
    and (module, class, field) of each public defaulted field of a public dataclass
    of the package, that no call in the package or the workloads passes.  A
    ``field(default_factory=...)`` calls nothing with the fields of its factory."""
    files = _inventory_files()
    calls = [node for tree in files.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    options = []  # (key of the callee, name it is called by, parameters in order, defaulted ones)
    for module, tree in files.items():
        for (_, qualified), node in _public_functions(module, tree).items():
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args]
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if "." in qualified and not static:
                params = params[1:]  # self or cls
            defaulted = params[len(params) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            params += [a.arg for a in args.kwonlyargs]
            options.append(((module, qualified), qualified.rpartition(".")[2], params, defaulted))
        for node in _public_definitions(tree) if module != "workloads" else ():
            if isinstance(node, ast.ClassDef):
                fields = _init_fields(node)
                defaulted = [f for f, default in fields if default and not f.startswith("_")]
                options.append(((module, node.name), node.name, [f for f, _ in fields], defaulted))
    unpassed = set()
    for key, name, params, defaulted in options:
        passed = set()
        for call in calls:
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == name:
                passed |= _passed(call, params)
        unpassed |= {(*key, p) for p in defaulted if p not in passed}
    return unpassed


def test_every_option_is_passed_or_has_a_reason():
    # an option that only the tests set fails here until it has a caller or a reason
    unpassed = _unpassed_options()
    assert unpassed - set(UNPASSED) == set(), "options that no caller passes"
    assert set(UNPASSED) - unpassed == set(), "listed options that a caller passes, or that are gone"


def _unread_fields() -> set:
    """(module, class, field) of each dataclass field that its ``__post_init__`` checks
    (read as ``self.<field>`` or named by a string there) and that nothing in the
    package or the workloads reads as an attribute outside that ``__post_init__``."""
    files = _inventory_files()
    checked, inits = set(), set()
    for module, tree in files.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            fields = {
                item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            }
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                    inits.add(item)
                    named = {
                        sub.attr if isinstance(sub, ast.Attribute) else sub.value
                        for sub in ast.walk(item)
                        if (isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "self")
                        or (isinstance(sub, ast.Constant) and isinstance(sub.value, str))
                    }
                    checked |= {(module, node.name, name) for name in fields & named}
    inside = {id(sub) for init in inits for sub in ast.walk(init)}
    read = {
        node.attr
        for tree in files.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside
    }
    return {key for key in checked if key[2] not in read}


def test_every_checked_field_is_read():
    # a field that is validated and then never read ignores what a caller passes
    assert _unread_fields() == set()
