"""Metric definitions and the per-layer metrics of a traced run.

The names, units and better-directions here are the ones ``BENCHMARK.json``
declares; a test keeps the two in step.
"""

from __future__ import annotations

from perfbench.spans import LAYERS, Span, self_times, totals

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("call_p50_ms", "ms", "lower"),
    ("call_p90_ms", "ms", "lower"),
    ("peak_mem_mb", "MB", "lower"),
)

# Functions that get their own self time and call count; the other public
# functions of a layer count only toward the layer total.
FUNCTIONS = {
    "daft": ("idaft", "daft", "add_cpp", "remove_cpp", "waveform_samples", "build_daft_matrix"),
    "channel": ("sample_channel", "apply_channel_time", "sensing_echo", "apply_basis",
                "basis_matrix"),
    "estimator": ("iterative_estimate", "build_psi", "mmse_estimate", "posterior_variances",
                  "threshold_paths", "reconstruct_channel", "equalize_demod"),
    "sensing": ("roc_curve", "transmit_record", "rdf", "noise_floor"),
    "analysis": ("verify_theorem_2", "verify_theorem_4", "ambiguity_moments_mc",
                 "cross_ambiguity", "crb", "fim", "sensing_weights", "crb_distribution"),
}

# Quality of a layer's output: (metric, key in the workload's quality dict,
# unit, better).  A workload that does not run the layer reports 0.
QUALITY = (
    ("estimator.ber", "ber", "ratio", "lower"),
    ("estimator.gain_nmse_db", "gain_nmse_db", "dB", "lower"),
    ("estimator.support_recall", "support_recall", "ratio", "higher"),
    ("estimator.support_precision", "support_precision", "ratio", "higher"),
    ("sensing.pd_at_pfa_0.01", "pd_at_pfa_0.01", "ratio", "higher"),
    ("sensing.argmax_hit_ratio", "argmax_hit_ratio", "ratio", "higher"),
    ("analysis.amb_var_rel_err", "amb_var_rel_err", "ratio", "lower"),
)

# Set-up work a later change may move: the cold basis stack of ``link``.
SETUP_FUNCTIONS = (("channel.basis_matrix", "calls"), ("daft.build_daft_matrix", "self_ms"))


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        for fn in FUNCTIONS.get(layer, ()):
            out += [(f"{layer}.{fn}.self_ms", "ms/item", "lower"),
                    (f"{layer}.{fn}.calls", "calls/item", "lower")]
        out += [(f"{layer}.self_ms", "ms/item", "lower"),
                (f"{layer}.errors", "errors/item", "lower")]
    out += [(name, unit, better) for name, _, unit, better in QUALITY]
    out += [(f"setup.{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    out += [(f"setup.{fn}.{kind}", "ms" if kind == "self_ms" else "calls", "lower")
            for fn, kind in SETUP_FUNCTIONS]
    out.append(("trace.overhead_pct", "%", "lower"))
    return out


def per_layer_values(
    spans: list[Span], n_setup: int, items: int, quality: dict, overhead_pct: float
) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    ``spans[:n_setup]`` were recorded during set-up and give the ``setup.*``
    totals; the rest were recorded during ``items`` timed items and are
    reported per item.
    """
    self_s = self_times(spans)
    setup = totals(spans[:n_setup], self_s[:n_setup])
    timed = totals(spans[n_setup:], self_s[n_setup:])

    def row(table, name, per):
        calls, seconds, errors = table.get(name, (0, 0.0, 0))
        return {"calls": calls / per, "self_ms": 1000.0 * seconds / per, "errors": errors / per}

    def layer_sum(table, layer, kind, per):
        return sum(row(table, name, per)[kind] for name in table if name.startswith(layer + "."))

    values = {}
    for layer in LAYERS:
        for fn in FUNCTIONS.get(layer, ()):
            timed_row = row(timed, f"{layer}.{fn}", items)
            values[f"{layer}.{fn}.self_ms"] = timed_row["self_ms"]
            values[f"{layer}.{fn}.calls"] = timed_row["calls"]
        values[f"{layer}.self_ms"] = layer_sum(timed, layer, "self_ms", items)
        values[f"{layer}.errors"] = layer_sum(timed, layer, "errors", items)
    for name, key, _, _ in QUALITY:
        values[name] = quality.get(key, 0.0)
    for layer in LAYERS:
        values[f"setup.{layer}.self_ms"] = layer_sum(setup, layer, "self_ms", 1)
    for fn, kind in SETUP_FUNCTIONS:
        values[f"setup.{fn}.{kind}"] = row(setup, fn, 1)[kind]
    values["trace.overhead_pct"] = overhead_pct
    return values
