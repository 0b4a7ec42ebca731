"""Tests of the benchmark's own code: tracing, metric names and small-N workloads."""

import ast
import importlib
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from afdm_isac.errors import ConfigurationError
from perfbench import metrics, spans, workloads
from perfbench.spans import Span, self_times

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMALL = {
    "link": (workloads.link,
             workloads.LinkParams(n_sub=64, n_cpp=8, tau_m=3, nu_m=1, quality_calls=2)),
    "roc": (workloads.roc,
            workloads.RocParams(n_sub=64, n_cpp=16, tau_m=15, nu_m=1, n_thresholds=10,
                                quality_calls=1)),
    "analysis": (workloads.analysis_report,
                 workloads.AnalysisParams(n_sub=64, tau_m=3, nu_m=1, mc_frames=200,
                                          crb_draws=100, quality_calls=1)),
}


class TestSelfTime:
    def test_nested_tree(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
        tree = [Span("a", 0.0, 10.0), Span("b", 1.0, 4.0, parent=0),
                Span("d", 2.0, 3.0, parent=1), Span("c", 5.0, 9.0, parent=0)]
        assert self_times(tree) == [3.0, 2.0, 1.0, 4.0]

    def test_overlapping_children_count_once(self):
        tree = [Span("a", 0.0, 10.0), Span("b", 1.0, 6.0, parent=0),
                Span("c", 4.0, 12.0, parent=0)]
        assert self_times(tree)[0] == pytest.approx(1.0)

    def test_per_layer_values(self):
        tree = [
            Span("channel.basis_matrix", 0.0, 0.5),
            Span("daft.build_daft_matrix", 0.1, 0.3, parent=0),
            Span("estimator.iterative_estimate", 1.0, 1.010),
            Span("estimator.equalize_demod", 1.002, 1.008, parent=2, error=True),
        ]
        values = metrics.per_layer_values(tree, n_setup=2, items=2, quality={"ber": 0.25},
                                          overhead_pct=1.5)
        assert values["estimator.iterative_estimate.self_ms"] == pytest.approx(2.0)
        assert values["estimator.equalize_demod.self_ms"] == pytest.approx(3.0)
        assert values["estimator.equalize_demod.calls"] == 0.5
        assert values["estimator.self_ms"] == pytest.approx(5.0)
        assert values["estimator.errors"] == 0.5
        assert values["channel.basis_matrix.calls"] == 0.0
        assert values["setup.channel.basis_matrix.calls"] == 1.0
        assert values["setup.channel.self_ms"] == pytest.approx(300.0)
        assert values["setup.daft.build_daft_matrix.self_ms"] == pytest.approx(200.0)
        assert values["estimator.ber"] == 0.25
        assert values["sensing.pd_at_pfa_0.01"] == 0.0
        assert values["trace.overhead_pct"] == 1.5
        assert list(values) == [name for name, _, _ in metrics.per_layer()]


def _bindings() -> dict:
    """(namespace, attribute) -> function for every binding of a public layer function."""
    public = set()
    for layer in spans.LAYERS:
        module = importlib.import_module(f"afdm_isac.{layer}")
        public |= {getattr(module, name) for name in module.__all__
                   if isinstance(getattr(module, name), types.FunctionType)
                   and getattr(module, name).__module__ == module.__name__}
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "afdm_isac" or name.startswith("afdm_isac.")
        for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType) and value in public
    }


class TestTracer:
    def test_wraps_every_binding_and_restores(self):
        originals = _bindings()
        for key in [("afdm_isac.estimator", "apply_basis"),
                    ("afdm_isac.analysis", "build_daft_matrix"),
                    ("afdm_isac.sensing", "waveform_samples"),
                    ("afdm_isac", "idaft")]:
            assert key in originals
        with spans.Tracer():
            for (name, attr), original in originals.items():
                bound = getattr(sys.modules[name], attr)
                assert bound is not original and bound.__wrapped__ is original
        for (name, attr), original in originals.items():
            assert getattr(sys.modules[name], attr) is original

    def test_nested_calls_and_errors(self):
        estimator = importlib.import_module("afdm_isac.estimator")
        channel = importlib.import_module("afdm_isac.channel")
        daft = importlib.import_module("afdm_isac.daft")
        cfg = daft.AfdmConfig(n_sub=16, n_cpp=4, c1=1 / 8)
        grid = channel.basis_grid(1, 0)
        tracer = spans.Tracer()
        with tracer:
            estimator.build_psi(np.ones(16), grid, cfg)
        names = [s.name for s in tracer.spans]
        assert names[0] == "estimator.build_psi"
        assert names.count("channel.apply_basis") == 2
        assert names.count("daft.idaft") == 2 and names.count("daft.daft") == 2
        assert all(s.parent >= 0 for s in tracer.spans[1:])

        tracer = spans.Tracer()
        with tracer, pytest.raises(ConfigurationError):
            estimator.build_psi(np.ones(15), grid, cfg)
        assert [s.name for s in tracer.spans if s.error] == ["daft.idaft"]


class TestMetricNames:
    def test_names_and_units(self):
        rows = list(metrics.END_TO_END) + metrics.per_layer()
        names = [name for name, _, _ in rows]
        assert len(set(names)) == len(names)
        for name, unit, better in rows:
            assert NAME.fullmatch(name), name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
            assert better in ("lower", "higher")

    def test_benchmark_json_matches(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
            metrics.END_TO_END)
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
            metrics.per_layer())
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestWorkloads:
    def test_adapters_call_only_public_names(self):
        tree = ast.parse(Path(workloads.__file__).read_text())
        used = {(node.value.id, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in spans.LAYERS}
        assert used
        for layer, attr in used:
            assert attr in importlib.import_module(f"afdm_isac.{layer}").__all__, (layer, attr)

    @pytest.mark.parametrize("name", list(SMALL))
    def test_small_run_passes_checks(self, name):
        build, params = SMALL[name]
        session = build(params, seed=3)
        outcomes = [session.call() for _ in range(session.quality_calls)]
        quality = session.quality(outcomes)
        assert quality and all(np.isfinite(v) for v in quality.values())

    def test_quality_repeats_under_a_seed(self):
        build, params = SMALL["link"]
        runs = []
        for _ in range(2):
            session = build(params, seed=5)
            runs.append(session.quality([session.call() for _ in range(2)]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name, busy, idle", [
        ("link", "estimator.equalize_demod", "daft.waveform_samples"),
        ("roc", "daft.waveform_samples", "estimator.iterative_estimate"),
    ])
    def test_traced_layers(self, name, busy, idle):
        build, params = SMALL[name]
        tracer = spans.Tracer()
        with tracer:
            session = build(params, seed=1)
            n_setup = len(tracer.spans)
            session.call()
        values = metrics.per_layer_values(tracer.spans, n_setup, session.items_per_call, {}, 0.0)
        assert values[f"{busy}.calls"] > 0 and values[f"{busy}.self_ms"] > 0
        assert values[f"{idle}.calls"] == 0


def test_run_refuses_a_tree_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "link",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
