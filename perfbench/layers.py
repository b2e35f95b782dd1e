"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapped name is a public module attribute of ``mcmr``.  A name that
a later version of the program drops or renames, or a counter that can no
longer read what it counts, fails the traced run: update this file in the
same change.
"""

from __future__ import annotations

import os

from mcmr import channels, cli, clifford, liouville, micromotion, rb
from tracing import Wrap

CAMPAIGN_EXPERIMENTS = ("control", "reset", "measure-dark", "measure-bright",
                        "measure-reset-dark", "measure-reset-bright",
                        "bleed-through")


def _dir_bytes(path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total


def _cli_bytes(a, result, duration):
    argv = list(a["argv"] or ())
    if "--out" not in argv:
        return {}
    return {"cli.bytes_written": _dir_bytes(argv[argv.index("--out") + 1])}


def _io_bytes(a, result, duration):
    return {"rb.io.bytes": os.path.getsize(a["path"])}


def _experiment(a, result, duration):
    return {f"rb.experiment.{a['config'].name}.s": duration}


def _sequences(a, result, duration):
    per_length = int(a["sequences_per_length"])
    return {"rb.sequences.gates": sum((int(l) + 1) * per_length
                                      for l in a["lengths"])}


def _survival(a, result, duration):
    return {"rb.survival.steps": sum(s.length + 1 for s in a["sequences"])}


def _focus(a, result, duration):
    ops = len(a["interleaved_ops"])
    return {"rb.focus.slot_ops": sum(s.length * ops for s in a["sequences"])}


def _bootstrap(a, result, duration):
    return {"rb.bootstrap.resamples": a["n_resamples"],
            "rb.bootstrap.failures": result.failures}


def _solver(a, result, duration):
    return {"rb.fit.solver_nfev": result[2]["nfev"]}


def _scan(a, result, duration):
    return {"micromotion.scan.points": len(a["displacements"])}


def wraps() -> list:
    """The attributes to wrap, with their metric name and layer."""
    spans = [
        (cli, "main", "cli.main", "cli", _cli_bytes),
        (rb, "run_campaign", "rb.run_campaign", "rb.campaign", None),
        (rb, "run_experiment", "rb.run_experiment", "rb.experiment", _experiment),
        (rb, "analyze_dataset", "rb.analyze_dataset", "rb.analysis", None),
        (rb, "bootstrap_analysis", "rb.bootstrap_analysis", "rb.bootstrap", _bootstrap),
        (rb, "generate_sequences", "rb.generate_sequences", "rb.sequences", _sequences),
        (rb, "survival_dark_probabilities", "rb.survival_dark_probabilities",
         "rb.survival", _survival),
        (rb, "simulate_focus", "rb.simulate_focus", "rb.focus", _focus),
        (rb.RBDataset, "to_csv", "rb.RBDataset.to_csv", "rb.io", _io_bytes),
        (rb.RBDataset, "from_csv", "rb.RBDataset.from_csv", "rb.io", _io_bytes),
        (rb, "write_focus_csv", "rb.write_focus_csv", "rb.io", _io_bytes),
        (rb, "read_focus_csv", "rb.read_focus_csv", "rb.io", _io_bytes),
        (micromotion, "suppression_scan", "micromotion.suppression_scan",
         "micromotion.scan", _scan),
        (micromotion, "fit_depump", "micromotion.fit_depump",
         "micromotion.fit_depump", None),
    ]
    out = [Wrap(owner, attr, name, layer, count=count)
           for owner, attr, name, layer, count in spans]
    out.append(Wrap(rb, "curve_fit", "rb.curve_fit", "rb.fit.solver", hot=True,
                    count=_solver, full_output=True))
    hot = {
        "rb.fit": (rb, ("fit_standard", "fit_leakage")),
        "clifford": (clifford, ("clifford_table", "superop_table", "superop",
                                "compose", "inverse", "pauli_element",
                                "target_outcome", "net_element",
                                "inversion_element")),
        "liouville": (liouville, ("standard_basis", "to_supervector",
                                  "from_supervector", "kraus_to_superop",
                                  "vec_to_basis_superop", "embed_gate",
                                  "identity_supervector", "dark_effect_vector",
                                  "bright_effect_vector", "born_probability",
                                  "tp_defect", "is_trace_preserving")),
        "channels.build": (channels, ("channel_from_config",
                                      "measurement_crosstalk", "reset_crosstalk",
                                      "depolarizing", "compose",
                                      "identity_channel",
                                      "scattering_rate_matrix",
                                      "rate_scattering_channel")),
        "channels.reference": (channels, ("leakage_seepage", "decay_base")),
        "micromotion.scan": (micromotion, ("suppression_factor",
                                           "modulation_index",
                                           "displacement_for_index",
                                           "carrier_null_index",
                                           "first_null_modulation_index")),
    }
    for layer, (module, attrs) in hot.items():
        prefix = module.__name__.removeprefix("mcmr.")
        out.extend(Wrap(module, attr, f"{prefix}.{attr}", layer, hot=True)
                   for attr in attrs)
    out.append(Wrap(rb, "channel_reference", "rb.channel_reference",
                    "channels.reference", hot=True))
    return out


def metrics(tracer, untraced_s: float, traced_s: float,
            parallel_s: float | None) -> dict:
    """Per-layer metrics of one traced serial pass.

    ``untraced_s``/``traced_s`` are the same pass without and with tracing;
    ``parallel_s`` is an untraced ``--parallel 2`` pass, when the workload
    runs experiments.
    """
    layer_s, layer_calls = tracer.layer_s, tracer.layer_calls
    count = tracer.counters
    selfs = tracer.self_time_by_name()

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "trace.pass_s": traced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        "cli.s": tracer.time_s.get("cli.main", 0.0),
        "cli.self_s": selfs.get("cli.main", 0.0),
        "cli.bytes_written": count.get("cli.bytes_written", 0.0),
        "rb.bootstrap.s": layer_s.get("rb.bootstrap", 0.0),
        "rb.bootstrap.self_s": selfs.get("rb.bootstrap_analysis", 0.0),
        "rb.bootstrap.resamples": count.get("rb.bootstrap.resamples", 0.0),
        "rb.bootstrap.refit_fail_frac": ratio(count.get("rb.bootstrap.failures", 0.0),
                                              count.get("rb.bootstrap.resamples", 0.0)),
        "rb.fit.s": layer_s.get("rb.fit", 0.0),
        "rb.fit.calls": layer_calls.get("rb.fit", 0),
        "rb.fit.solver_s": layer_s.get("rb.fit.solver", 0.0),
        "rb.fit.solver_calls": layer_calls.get("rb.fit.solver", 0),
        "rb.fit.solver_nfev": count.get("rb.fit.solver_nfev", 0.0),
        "rb.sequences.s": layer_s.get("rb.sequences", 0.0),
        "rb.sequences.gates": count.get("rb.sequences.gates", 0.0),
        "rb.survival.s": layer_s.get("rb.survival", 0.0),
        "rb.survival.steps": count.get("rb.survival.steps", 0.0),
        "rb.survival.us_per_step": 1e6 * ratio(layer_s.get("rb.survival", 0.0),
                                               count.get("rb.survival.steps", 0.0)),
        "rb.focus.s": layer_s.get("rb.focus", 0.0),
        "rb.focus.slot_ops": count.get("rb.focus.slot_ops", 0.0),
        "rb.io.s": layer_s.get("rb.io", 0.0),
        "rb.io.bytes": count.get("rb.io.bytes", 0.0),
        "rb.campaign.parallel_efficiency": ratio(
            tracer.time_s.get("rb.run_experiment", 0.0), 2.0 * (parallel_s or 0.0)),
        "clifford.compose.calls": tracer.calls.get("clifford.compose", 0),
        "clifford.s": layer_s.get("clifford", 0.0),
        "liouville.calls": layer_calls.get("liouville", 0),
        "liouville.s": layer_s.get("liouville", 0.0),
        "channels.build.calls": layer_calls.get("channels.build", 0),
        "channels.build.s": layer_s.get("channels.build", 0.0),
        "channels.reference.s": layer_s.get("channels.reference", 0.0),
        "micromotion.scan.s": layer_s.get("micromotion.scan", 0.0),
        "micromotion.scan.points": count.get("micromotion.scan.points", 0.0),
        "micromotion.scan.us_per_point": 1e6 * ratio(
            tracer.time_s.get("micromotion.suppression_scan", 0.0),
            count.get("micromotion.scan.points", 0.0)),
        "micromotion.fit_depump.s": layer_s.get("micromotion.fit_depump", 0.0),
        "micromotion.fit_depump.calls": layer_calls.get("micromotion.fit_depump", 0),
    }
    for name in CAMPAIGN_EXPERIMENTS:
        key = f"rb.experiment.{name}.s"
        out[key] = count.get(key, 0.0)
    return out
