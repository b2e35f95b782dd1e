"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcmr
from mcmr import cli, micromotion, rb, varpro
from mcmr.errors import ConfigError, FitError
from synthetic import write_depump_csv_oracle, write_scan_csv_oracle

TRAP_CONFIG = {
    "rf_frequency_hz": 21.0e6,
    "secular_frequency_hz": 3.0e6,
    "linewidth_hz": 10.5e6,
    "wavelength_m": 369.5e-9,
    "beam_angle_deg": 0.0,
    "displacement_m": 1.0e-6,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def small_campaign(tmp_path, names=("measure-dark",), **overrides):
    experiments = []
    for name in names:
        experiments.append({
            "name": name,
            "interleaved_ops": ["measure"],
            "probes": {"probe": {
                "measurement": {"kind": "measurement", "gamma_t": 5e-3}}},
            "focus": {"depump_per_measure": 0.01},
            "lengths": [2, 5, 9],
            "sequences_per_length": 4,
            "shots": 20,
            **overrides,
        })
    return write_json(tmp_path / "campaign.json", {"experiments": experiments})


# ---------------------------------------------------------------------------
# scan


def test_scan_outputs_and_null_markers(tmp_path, capsys):
    config_path = write_json(tmp_path / "trap.json", TRAP_CONFIG)
    out = tmp_path / "scan_out"
    rc = cli.main(["scan", "--config", config_path, "--out", str(out),
                   "--points", "50"])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out

    lines = (out / "scan.csv").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert len(comments) == 4
    markers = dict(l[2:].split("=", 1) for l in comments)
    assert abs(float(markers["first_null_modulation_index"])
               - 2.4048255576957728) < 1e-12
    assert abs(float(markers["second_null_modulation_index"])
               - 5.5200781102863106) < 1e-12

    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    assert len(rows) == 50
    ratio = TRAP_CONFIG["rf_frequency_hz"] / TRAP_CONFIG["linewidth_hz"]
    for row in rows[::7]:
        # 17-significant-digit fields round-trip exactly
        recomputed = micromotion.suppression_factor(
            float(row["modulation_index"]), ratio)
        assert row["suppression"] == format(recomputed, ".17g")

    summary = json.loads((out / "scan.json").read_text())
    assert summary["config"] == TRAP_CONFIG
    assert summary["first_null"]["suppression"] < 0.1
    assert summary["second_null"]["modulation_index"] > 5.0
    assert summary["configured"]["displacement_m"] == 1.0e-6


def test_scan_is_deterministic(tmp_path):
    config_path = write_json(tmp_path / "trap.json", TRAP_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["scan", "--config", config_path, "--out", str(out_a)]) == 0
    assert cli.main(["scan", "--config", config_path, "--out", str(out_b)]) == 0
    assert (out_a / "scan.csv").read_bytes() == (out_b / "scan.csv").read_bytes()
    assert (out_a / "scan.json").read_bytes() == (out_b / "scan.json").read_bytes()


def test_scan_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["scan", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    for key, value in (("displacement_m", float("nan")),
                       ("beam_angle_deg", float("nan")),
                       ("rf_frequency_hz", float("inf")),
                       # finite, but the sideband weights or the index overflow
                       ("rf_frequency_hz", 1e300),
                       ("secular_frequency_hz", 1.7e308)):
        config_path = write_json(tmp_path / "bad.json",
                                 {**TRAP_CONFIG, key: value})
        rc = cli.main(["scan", "--config", config_path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2, key
        assert_one_error_line(capsys)
    config_path = write_json(tmp_path / "trap.json", TRAP_CONFIG)
    for flags in (["--points", "0"], ["--points", "1"],
                  ["--max-index", "nan"],
                  ["--points", "100000000000000"]):  # refused, never allocated
        rc = cli.main(["scan", "--config", config_path,
                       "--out", str(tmp_path / "out"), *flags])
        assert rc == 2, flags
        assert_one_error_line(capsys)


@pytest.mark.parametrize("command, config, flags, message", [
    ("scan", TRAP_CONFIG, ["--points", "1000001"],
     "--points must be from 2 to 1000000, got 1000001"),
    ("scan", TRAP_CONFIG, ["--max-index", "30.000000000000004"],
     "--max-index must be positive and at most 30, got 30.000000000000004"),
    ("scan", {**TRAP_CONFIG, "displacement_m": 8.74e-6}, [],
     "displacement_m 8.74e-06 gives modulation index 30.0257, "
     "beyond the 30 the sideband sum covers"),
    ("depump", {"gamma_per_s": 156.25, "t_max_s": 0.04, "points": 100001}, [],
     "points must be <= 100000, got 100001"),
])
def test_scan_and_depump_limits_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                       command, config, flags, message):
    """Each limit fails validation: exit 2, one line, nothing computed or written."""
    for name in ("suppression_scan", "depump_probability"):
        monkeypatch.setattr(micromotion, name,
                            lambda *a, **k: pytest.fail("work started before validation"))
    config_path = write_json(tmp_path / "config.json", config)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", config_path, "--out", str(out), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# depump


def test_depump_round_trip(tmp_path):
    config_path = write_json(tmp_path / "depump.json", {
        "gamma_per_s": 156.25, "t_max_s": 0.04, "points": 10, "shots": 1000})
    out = tmp_path / "out"
    rc = cli.main(["depump", "--config", config_path, "--out", str(out),
                   "--seed", "3"])
    assert rc == 0

    with open(out / "depump_samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert all(int(r["shots"]) == 1000 for r in rows)

    fit = json.loads((out / "depump_fit.json").read_text())
    assert fit["truth"] == {"gamma_per_s": 156.25, "shots": 1000}
    assert abs(fit["time_constant_s"] - 1.0 / 156.25) < 0.05 / 156.25
    assert fit["amplitude"] == 2.0 / 3.0
    assert not fit["free_amplitude"]


def test_depump_deterministic_by_seed(tmp_path):
    config_path = write_json(tmp_path / "depump.json", {
        "gamma_per_s": 100.0, "times_s": [0.001, 0.004, 0.008, 0.02],
        "shots": 400})
    outs = []
    for name, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        out = tmp_path / name
        assert cli.main(["depump", "--config", config_path, "--out", str(out),
                         "--seed", seed]) == 0
        outs.append((out / "depump_samples.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_depump_free_amplitude_mode(tmp_path):
    config_path = write_json(tmp_path / "depump.json", {
        "gamma_per_s": 156.25, "t_max_s": 0.05, "points": 14, "shots": 4000,
        "free_amplitude": True})
    out = tmp_path / "out"
    assert cli.main(["depump", "--config", config_path, "--out", str(out),
                     "--seed", "5"]) == 0
    fit = json.loads((out / "depump_fit.json").read_text())
    assert fit["free_amplitude"]
    assert 0.55 < fit["amplitude"] < 0.75
    assert fit["amplitude_sigma"] > 0


def test_depump_config_validation(tmp_path, capsys):
    cases = [
        {"t_max_s": 0.04},                                   # missing gamma
        {"gamma_per_s": 156.25},                             # missing times
        {"gamma_per_s": 156.25, "t_max_s": 0.04, "oops": 1},
        {"gamma_per_s": 156.25, "times_s": [0.01, 0.02]},    # too few
        {"gamma_per_s": -2.0, "t_max_s": 0.04},
        {"gamma_per_s": 156.25, "t_max_s": 0.04, "shots": 0},
        {"gamma_per_s": float("nan"), "t_max_s": 0.04},
        {"gamma_per_s": 156.25, "times_s": [0, 0.01, "nan"]},
        [1, 2],                                              # non-object root
        {"gamma_per_s": 156.25, "t_max_s": 0.04, "shots": 2.5},
        {"gamma_per_s": 156.25, "t_max_s": 0.04, "free_amplitude": "no"},
        {"gamma_per_s": 1.7e308, "times_s": [0, 0, 0]},     # 3 * gamma overflows
        {"gamma_per_s": 1e300, "t_max_s": 1e10},
    ]
    for i, payload in enumerate(cases):
        config_path = write_json(tmp_path / f"bad{i}.json", payload)
        rc = cli.main(["depump", "--config", config_path,
                       "--out", str(tmp_path / f"out{i}")])
        assert rc == 2, payload
        assert_one_error_line(capsys)


def test_depump_fit_failure_exits_4(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise FitError("synthetic")

    monkeypatch.setattr(cli.micromotion, "fit_depump", explode)
    config_path = write_json(tmp_path / "depump.json", {
        "gamma_per_s": 156.25, "t_max_s": 0.04})
    rc = cli.main(["depump", "--config", config_path,
                   "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "synthetic" in capsys.readouterr().err


@pytest.mark.parametrize("payload, code, message", [
    ({"gamma_per_s": 156.25, "times_s": [0, 0, 0]}, 3,
     "needs 1 distinct positive time(s), got 0"),
    # every fraction is 0 at the one positive time, which the curve reaches
    # only as gamma -> 0: the rate sits on its range's end, set by no data
    ({"gamma_per_s": 1e-300, "times_s": [0, 0, 0.01]}, 4, "unconstrained"),
    ({"gamma_per_s": 156.25, "times_s": [0, 0, 0.01], "free_amplitude": True}, 3,
     "needs 2 distinct positive time(s), got 1"),
])
def test_depump_unconstrained_fit_exits_3_or_4(tmp_path, capsys, payload, code, message):
    config_path = write_json(tmp_path / "depump.json", payload)
    rc = cli.main(["depump", "--config", config_path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == code and message in err, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "depump_fit.json").exists()


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_produces_per_experiment_files(tmp_path, capsys):
    config_path = small_campaign(tmp_path)
    out = tmp_path / "bench"
    rc = cli.main(["benchmark", "--config", config_path, "--out", str(out),
                   "--seed", "11", "--resamples", "0"])
    assert rc == 0
    assert "ran 1 experiments" in capsys.readouterr().out

    for name in ("measure-dark_focus.csv", "measure-dark_probe.csv",
                 "measure-dark_probe_decay.csv",
                 "measure-dark_probe_results.json", "summary.json"):
        assert (out / name).exists(), name

    dataset = rb.RBDataset.from_csv(out / "measure-dark_probe.csv")
    assert dataset.lengths == (2, 5, 9)
    assert len(dataset.records) == 12

    with open(out / "measure-dark_probe_decay.csv", newline="") as fh:
        decay_rows = list(csv.DictReader(fh))
    assert [int(r["length"]) for r in decay_rows] == [2, 5, 9]

    results = json.loads((out / "measure-dark_probe_results.json").read_text())
    assert "bootstrap" not in results
    assert results["probe"] == "probe"
    assert results["experiment"]["name"] == "measure-dark"
    ref = results["channel_reference"]
    assert ref["leakage"] == pytest.approx((1 - np.exp(-3 * 5e-3)) / 3,
                                           abs=1e-12)
    assert results["spam_report"][0]["shots"] > 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 11
    assert set(summary["experiments"]) == {"measure-dark"}
    assert set(summary["experiments"]["measure-dark"]["probe"]) == {
        "epsilon", "base", "t_minus", "leakage", "seepage",
        "scattering_standard", "scattering_leakage"}


def test_benchmark_deterministic_and_parallel_equivalent(tmp_path):
    config_path = small_campaign(tmp_path, names=("exp-a", "exp-b"))
    outputs = {}
    for label, extra in (("serial", []), ("serial2", []),
                         ("parallel", ["--parallel", "2"])):
        out = tmp_path / label
        rc = cli.main(["benchmark", "--config", config_path, "--out", str(out),
                       "--seed", "9", "--resamples", "0", *extra])
        assert rc == 0
        outputs[label] = {
            name: (out / name).read_bytes()
            for name in ("summary.json", "exp-a_probe.csv", "exp-b_probe.csv",
                         "exp-a_focus.csv")}
    assert outputs["serial"] == outputs["serial2"]
    assert outputs["serial"] == outputs["parallel"]
    # the two experiments differ only in name, and each has its own stream
    assert outputs["serial"]["exp-a_probe.csv"] != outputs["serial"]["exp-b_probe.csv"]


def test_benchmark_with_bootstrap_reports_sigmas(tmp_path):
    config_path = small_campaign(tmp_path)
    out = tmp_path / "bench"
    rc = cli.main(["benchmark", "--config", config_path, "--out", str(out),
                   "--seed", "13", "--resamples", "12"])
    assert rc == 0
    results = json.loads((out / "measure-dark_probe_results.json").read_text())
    assert results["bootstrap"]["n_resamples"] == 12
    assert "base" in results["bootstrap"]["sigmas"]


def test_benchmark_bad_campaign_exits_2(tmp_path, capsys):
    bad = tmp_path / "campaign.json"
    bad.write_text("{not json")
    rc = cli.main(["benchmark", "--config", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    capsys.readouterr()

    config_path = small_campaign(tmp_path)
    for flags in (["--resamples", "1"], ["--resamples", "-3"],
                  ["--seed", "-1"], ["--parallel", "0"], ["--parallel", "-3"],
                  ["--parallel", "65"]):
        rc = cli.main(["benchmark", "--config", config_path,
                       "--out", str(tmp_path / "out"), *flags])
        assert rc == 2, flags
        assert_one_error_line(capsys)


@pytest.mark.parametrize("error, code", [(ConfigError, 2), (FitError, 4)])
def test_benchmark_error_in_a_child_process_keeps_its_exit_code(tmp_path, capsys,
                                                                monkeypatch, error, code):
    """``exp-b`` runs in the child process of ``--parallel 2``; its error ends
    the run as it would serially, and no child outlives it."""
    real = rb._simulate

    def simulate(config, ss, resamples):
        if config.name == "exp-b":
            raise error(f"exp-b failed in process {os.getpid()}")
        return real(config, ss, resamples)

    monkeypatch.setattr(rb, "_simulate", simulate)
    config_path = small_campaign(tmp_path, names=("exp-a", "exp-b"))
    rc = cli.main(["benchmark", "--config", config_path, "--out", str(tmp_path / "out"),
                   "--resamples", "0", "--parallel", "2"])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: exp-b failed in process ") and err.count("\n") == 1, err
    assert f" {os.getpid()}\n" not in err
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("overrides", [
    {"probes": {"probe": {"gate_depolarizing": 2.0}}},
    {"probes": {"probe": {"gate_depolarizing": -0.1}}},
    {"probes": [1]},
    {"probes": {"probe": {"measurement": {"kind": "measurement",
                                          "gamma_t": "nan"}}}},
    {"probes": {"probe": {"spam": [1]}}},
    {"shots": "x"},
    {"shots": 2.7},
    {"balanced": "false"},
    {"interleaved_ops": "measure"},
    {"lengths": [5, 5, 5]},
    {"probes": {"probe": {"measurement": {"kind": "measurement",
                                          "gamma_t": 1e300}}}},
    {"lengths": [2, 2, 5, 9]},
    {"shots": 1e20},
    # its jump rates overflow float64 before the channel is built
    {"probes": {"probe": {"measurement": {"kind": "measurement",
                                          "gamma_t": 1.7e308}}}},
])
def test_benchmark_bad_config_values_exit_2(tmp_path, capsys, overrides):
    config_path = small_campaign(tmp_path, **overrides)
    rc = cli.main(["benchmark", "--config", config_path,
                   "--out", str(tmp_path / "out"), "--resamples", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    key = next(iter(overrides))
    assert key in err


@pytest.mark.parametrize("overrides, flags, message", [
    ({}, ["--resamples", "100001"], "--resamples must be 0 or from 2 to 100000, got 100001"),
    ({"lengths": [2, 5, 100001]}, [],
     "experiments[0].lengths[2] must be <= 100000, got 100001"),
    ({"lengths": list(range(1, 66))}, [],
     "experiments[0].lengths must hold at most 64 lengths, got 65"),
    ({"sequences_per_length": 100002}, [],
     "experiments[0].sequences_per_length must be <= 100000, got 100002"),
    ({"sequences_per_length": 1, "shots": 10_000_001}, [],
     "experiments[0].sequences_per_length * shots must be <= 10000000, got 10000001"),
    # each factor within its limit, 6.4e11 Clifford indices together
    ({"sequences_per_length": 100_000, "shots": 1,
      "lengths": list(range(100_000, 99_936, -1))}, [],
     "experiments[0].sequences_per_length * sum(lengths) must be <= 10000000, "
     "got 639798400000"),
    ({"sequences_per_length": 3}, [],
     "experiments[0].sequences_per_length must be even when balanced is true, got 3"),
])
def test_benchmark_size_limits_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                      overrides, flags, message):
    """Each size limit fails validation: exit 2, one line, no sequence drawn, nothing written."""
    monkeypatch.setattr(rb, "generate_sequences",
                        lambda *a, **k: pytest.fail("work started before validation"))
    config_path = small_campaign(tmp_path, **overrides)
    out = tmp_path / "out"
    rc = cli.main(["benchmark", "--config", config_path, "--out", str(out), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_benchmark_unknown_campaign_key_exits_2(tmp_path, capsys):
    with open(small_campaign(tmp_path), encoding="utf-8") as fh:
        campaign = json.load(fh)
    for root, key in (({**campaign, "seeed": 3}, "seeed"), ({"runs": []}, "experiments")):
        config_path = write_json(tmp_path / "root.json", root)
        out = tmp_path / "out"
        rc = cli.main(["benchmark", "--config", config_path, "--out", str(out),
                       "--resamples", "0"])
        assert rc == 2, root
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert key in err
        assert not out.exists()


@pytest.mark.parametrize("experiments, shared", [
    ({"a": ("focus",)}, "a_focus.csv"),
    ({"a": ("b_c",), "a_b": ("c",)}, "a_b_c.csv"),
])
def test_benchmark_shared_output_file_exits_2(tmp_path, capsys, experiments,
                                              shared):
    probe = {"measurement": {"kind": "measurement", "gamma_t": 5e-3}}
    config_path = write_json(tmp_path / "campaign.json", {"experiments": [
        {"name": name, "interleaved_ops": ["measure"],
         "probes": {label: probe for label in labels},
         "lengths": [2, 5, 9], "sequences_per_length": 4, "shots": 20}
        for name, labels in experiments.items()]})
    out = tmp_path / "out"
    rc = cli.main(["benchmark", "--config", config_path, "--out", str(out),
                   "--resamples", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert shared in err
    assert not out.exists()


def test_benchmark_file_name_too_long_exits_2_before_running(tmp_path, capsys,
                                                             monkeypatch):
    name = "x" * 300
    config_path = small_campaign(tmp_path, names=(name,))
    monkeypatch.setattr(rb, "run_campaign", None)  # must not be reached
    out = tmp_path / "out"
    rc = cli.main(["benchmark", "--config", config_path, "--out", str(out),
                   "--resamples", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert os.path.join(str(out), f"{name}_focus.csv") in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fit


def test_fit_reanalyzes_dataset(tmp_path, capsys):
    config_path = small_campaign(tmp_path)
    bench_out = tmp_path / "bench"
    assert cli.main(["benchmark", "--config", config_path,
                     "--out", str(bench_out), "--seed", "11",
                     "--resamples", "0"]) == 0
    data = bench_out / "measure-dark_probe.csv"

    fit_out = tmp_path / "refit"
    rc = cli.main(["fit", "--data", str(data), "--out", str(fit_out),
                   "--resamples", "0"])
    assert rc == 0
    assert "epsilon" in capsys.readouterr().out
    assert (fit_out / "measure-dark_probe_decay.csv").exists()
    results = json.loads(
        (fit_out / "measure-dark_probe_results.json").read_text())
    assert "channel_reference" not in results
    assert results["lengths"] == [2, 5, 9]

    bench_results = json.loads(
        (bench_out / "measure-dark_probe_results.json").read_text())
    assert results["standard"] == bench_results["standard"]


def test_fit_out_is_an_existing_file_exits_2(tmp_path, capsys):
    config_path = small_campaign(tmp_path)
    bench_out = tmp_path / "bench"
    assert cli.main(["benchmark", "--config", config_path,
                     "--out", str(bench_out), "--seed", "11",
                     "--resamples", "0"]) == 0
    capsys.readouterr()
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    rc = cli.main(["fit", "--data", str(bench_out / "measure-dark_probe.csv"),
                   "--out", str(taken), "--resamples", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_fit_missing_or_malformed_data_exits_3(tmp_path, capsys):
    rc = cli.main(["fit", "--data", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("length,whatever\n")
    rc = cli.main(["fit", "--data", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 3
    capsys.readouterr()

    bad.write_bytes(b"length,seq_id,\xff\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    for data in (bad, folder):
        rc = cli.main(["fit", "--data", str(data), "--out", str(tmp_path / "out")])
        assert rc == 3, data
        assert_one_error_line(capsys)

    # a non-positive length would otherwise be fitted like any other
    header = ",".join(rb.DATASET_HEADER)
    for length in (-2, 0):
        rows = [f"{l},{i},{p},{t},50,{25 + t},{25 - t}" for l in (length, 5, 9)
                for i, (p, t) in enumerate((("I", 0), ("X", 1), ("Z", 0), ("Y", 1)))]
        bad.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / f"out{length}"
        rc = cli.main(["fit", "--data", str(bad), "--out", str(out),
                       "--resamples", "0"])
        assert rc == 3, length
        assert_one_error_line(capsys)
        assert not out.exists()


def test_fit_bad_flags_exit_2(tmp_path, capsys):
    config_path = small_campaign(tmp_path)
    bench_out = tmp_path / "bench"
    assert cli.main(["benchmark", "--config", config_path,
                     "--out", str(bench_out), "--resamples", "0"]) == 0
    data = str(bench_out / "measure-dark_probe.csv")
    for flags in (["--resamples", "1"], ["--resamples", "-3"]):
        rc = cli.main(["fit", "--data", data, "--out", str(tmp_path / "out"),
                       *flags])
        assert rc == 2, flags
        assert_one_error_line(capsys)
    # the fits need no start point, so the flag that steered it is gone
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--data", data, "--out", str(tmp_path / "out"),
                  "--ls-ratio", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: mcmr ") and len(err) == 2
    assert err[1].endswith("error: unrecognized arguments: --ls-ratio 0.5")
    assert not (tmp_path / "out").exists()


def test_fit_duplicate_rows_exit_3(tmp_path, capsys):
    config_path = small_campaign(tmp_path)
    bench_out = tmp_path / "bench"
    assert cli.main(["benchmark", "--config", config_path,
                     "--out", str(bench_out), "--resamples", "0"]) == 0
    lines = (bench_out / "measure-dark_probe.csv").read_text().splitlines()
    dup = tmp_path / "dup.csv"
    dup.write_text("\n".join(lines + [lines[1]]) + "\n")
    rc = cli.main(["fit", "--data", str(dup), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert_one_error_line(capsys)


@pytest.mark.parametrize("resamples", ["20", "0"])
def test_fit_shots_beyond_int64_exit_3(tmp_path, capsys, resamples):
    header = ",".join(rb.DATASET_HEADER)
    big = 10 ** 20
    rows = [f"{l},{i},{p},{t},{big},{big // 2},{big // 2}" for l in (2, 5, 9)
            for i, (p, t) in enumerate((("I", 0), ("X", 1), ("Z", 0), ("Y", 1)))]
    data = tmp_path / "big.csv"
    data.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    rc = cli.main(["fit", "--data", str(data), "--out", str(out),
                   "--resamples", resamples])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "int64" in err
    assert not out.exists()


@pytest.mark.parametrize("column, value", [(0, 2 ** 63), (1, 10 ** 23)],
                         ids=["length", "seq-id"])
def test_fit_length_or_seq_id_beyond_int64_exit_3(tmp_path, capsys, column, value):
    """Each integer of a dataset row is read as int64, not only the counts."""
    header = ",".join(rb.DATASET_HEADER)
    rows = [[l, i, p, t, 50, 25 + t, 25 - t] for l in (2, 5, 9)
            for i, (p, t) in enumerate((("I", 0), ("X", 1), ("Z", 0), ("Y", 1)))]
    rows[5][column] = value
    data = tmp_path / "big.csv"
    data.write_text("\n".join([header, *(",".join(map(str, r)) for r in rows)]) + "\n")
    out = tmp_path / "out"
    rc = cli.main(["fit", "--data", str(data), "--out", str(out), "--resamples", "0"])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {data}:7: value outside the int64 range\n"
    assert not out.exists()


def test_fit_two_length_dataset_exits_3(tmp_path, capsys):
    seqs = rb.generate_sequences(lengths=(2, 9), sequences_per_length=4,
                                 seed=15)
    from mcmr import channels
    ds = rb.simulate_dataset(seqs, channels.measurement_crosstalk(5e-3),
                             shots=30, seed=16)
    path = tmp_path / "two.csv"
    ds.to_csv(path)
    rc = cli.main(["fit", "--data", str(path), "--out", str(tmp_path / "out")])
    assert rc == 3
    capsys.readouterr()


def test_fit_optimizer_failure_exits_4(tmp_path, capsys, monkeypatch):
    config_path = small_campaign(tmp_path)
    bench_out = tmp_path / "bench"
    assert cli.main(["benchmark", "--config", config_path,
                     "--out", str(bench_out), "--seed", "11",
                     "--resamples", "0"]) == 0

    def diverge(spec, lengths, means, sems):  # every lane's fit fails
        return tuple(np.full(len(means), np.nan) for _ in spec.params)

    monkeypatch.setattr(varpro, "profile_fit", diverge)
    rc = cli.main(["fit", "--data", str(bench_out / "measure-dark_probe.csv"),
                   "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "standard decay fit returned non-finite parameters" in capsys.readouterr().err


@st.composite
def dataset_csvs(draw):
    """Dataset CSV text: 3-5 distinct lengths of 1-6 sequences each, any shots,
    correct-outcome fractions that fall with length as a decay does (so the
    fitted amplitude often sits on its bound), and now and then a row whose
    target disagrees with its Pauli."""
    lengths = sorted(draw(st.lists(st.integers(1, 200), min_size=3, max_size=5, unique=True)))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=len(lengths), max_size=len(lengths)))
    rows = [",".join(rb.DATASET_HEADER)]
    for length, level in zip(lengths, sorted(levels, reverse=True)):
        for seq_id in range(draw(st.integers(1, 6))):
            pauli = draw(st.sampled_from(rb.PAULI_LABELS))
            target = rb.clifford.target_outcome(pauli)
            shots = draw(st.integers(1, 500))
            correct = min(max(round(level * shots) + draw(st.integers(-3, 3)), 0), shots)
            dark = correct if target == 0 else shots - correct
            target = draw(st.sampled_from([target] * 49 + [1 - target]))
            rows.append(f"{length},{seq_id},{pauli},{target},{shots},{dark},{shots - dark}")
    return "\n".join(rows) + "\n"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=100, deadline=None)
# a fully correct, then falling dataset whose amplitude clips at 0.75, where
# ``0.75 * den / den`` rounds one ulp high
@example("length,seq_id,pauli,target_outcome,shots,dark_counts,bright_counts\n"
         "26,0,I,0,1,1,0\n27,0,I,0,1,0,1\n78,0,I,0,1,0,1\n81,0,I,0,59,1,58\n", 0, 0)
@given(dataset_csvs(), st.sampled_from([0, 2, 20]), st.integers(0, 2 ** 32 - 1))
def test_fit_on_any_dataset_exits_0_3_or_4_with_bounded_parameters(text, resamples, seed):
    """``mcmr fit`` never ends in an internal error (exit 5); on success every
    number in the results is finite and every fitted parameter in its bounds."""
    with tempfile.TemporaryDirectory() as folder:
        data = os.path.join(folder, "probe.csv")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(folder, "out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(["fit", "--data", data, "--out", out, "--seed", str(seed),
                           "--resamples", str(resamples)])
        assert rc in (0, 3, 4), err.getvalue()
        if rc:
            return
        with open(os.path.join(out, "probe_results.json"), encoding="utf-8") as fh:
            results = json.load(fh, parse_constant=_reject_constant)
    fitted = {**results["standard"], **results["leakage"]}
    for name, (lo, hi) in rb.PARAMETER_BOUNDS.items():
        assert lo <= fitted[name] <= hi, (name, fitted[name])


#: values that no config field accepts, or that only a size limit refuses
BAD_VALUES = (-1, 0, float("nan"), float("inf"), 1e300, 1.7e308, 2 ** 63, "x", None, True,
              [], {}, 100_001, rb.MAX_SHOTS_PER_LENGTH + 1)


def _key_paths(node, path=()):
    """Key paths of every value in a JSON tree, containers included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _key_paths(child, (*path, key))


@st.composite
def corrupted(draw, config):
    """``config`` as drawn, or with one value (or an unknown key) made bad."""
    choice = draw(st.sampled_from(["keep"] * 3 + ["replace"] * 2 + ["unknown"]))
    if choice == "keep":
        return config
    paths = [p for p in _key_paths(config) if p]
    path = draw(st.sampled_from(paths))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if choice == "unknown" and isinstance(parent, dict):
        parent["typo"] = 1
    else:
        parent[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return config


probability = st.floats(0.0, 0.1)


@st.composite
def campaigns(draw):
    """Campaign JSON: 1-2 experiments of lengths <= 5, <= 6 sequences, <= 10 shots."""
    experiments = []
    for k in range(draw(st.integers(1, 2))):
        probe = {"gate_depolarizing": draw(probability)}
        if draw(st.booleans()):
            probe["measurement"] = {"kind": "measurement", "gamma_t": draw(probability)}
        if draw(st.booleans()):
            probe["reset"] = {"kind": "reset", "gamma_t": draw(probability),
                              "dark_branching": draw(st.floats(0.0, 1.0)),
                              "polarization": draw(st.lists(st.floats(0.01, 1.0),
                                                            min_size=3, max_size=3))}
        if draw(st.booleans()):
            probe["spam"] = {key: draw(probability) for key in
                             ("prep_flip", "prep_leak", "dark_to_bright", "bright_to_dark")}
        balanced = draw(st.booleans())
        experiments.append({
            "name": f"e{k}",
            "interleaved_ops": draw(st.lists(st.sampled_from(rb.INTERLEAVED_OPS), max_size=3)),
            "initial_focus_state": draw(st.sampled_from([0, 1])),
            "probes": {"p": probe},
            "focus": {key: draw(probability) for key in
                      ("prep_flip", "dark_to_bright", "bright_to_dark",
                       "depump_per_measure", "reset_error")},
            "lengths": draw(st.lists(st.integers(1, 5), min_size=3, max_size=5, unique=True)),
            "sequences_per_length": draw(st.sampled_from([2, 4, 6]) if balanced
                                         else st.integers(1, 6)),
            "shots": draw(st.integers(1, 10)),
            "balanced": balanced,
        })
    return draw(corrupted({"experiments": experiments}))


@st.composite
def trap_configs(draw):
    """Trap JSON around the documented geometry; the index reaches about 44."""
    return draw(corrupted({
        "rf_frequency_hz": draw(st.floats(1e7, 1e8)),
        "secular_frequency_hz": draw(st.floats(1e5, 5e6)),
        "linewidth_hz": draw(st.floats(1e6, 1e8)),
        "wavelength_m": draw(st.floats(2e-7, 1e-6)),
        "beam_angle_deg": draw(st.floats(-180.0, 180.0)),
        "displacement_m": draw(st.floats(0.0, 2e-6)),
    }))


@st.composite
def depump_configs(draw):
    config = {"gamma_per_s": draw(st.floats(1e-3, 1e4)), "shots": draw(st.integers(1, 1000)),
              "points": draw(st.integers(3, 20)), "free_amplitude": draw(st.booleans())}
    if draw(st.booleans()):
        config["times_s"] = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=8))
    else:
        config["t_max_s"] = draw(st.floats(1e-4, 10.0))
    return draw(corrupted(config))


def _run_config(command, config, flags):
    """Run ``mcmr command`` on a config file; exit 0 prints nothing on stderr,
    any other exit is 2, 3 or 4 with one ``error:`` line."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main([command, "--config", path,
                           "--out", os.path.join(folder, "out"), *flags])
    err = err.getvalue()
    assert rc in (0, 2, 3, 4), err
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


@settings(max_examples=100, deadline=None)
@given(campaigns(), st.sampled_from(["0", "2"]), st.integers(0, 2 ** 32 - 1))
def test_benchmark_on_any_campaign_exits_0_2_3_or_4(config, resamples, seed):
    _run_config("benchmark", config, ["--resamples", resamples, "--seed", str(seed)])


@settings(max_examples=100, deadline=None)
@given(trap_configs(), st.sampled_from(["2", "50", "1000001"]),
       st.sampled_from(["0.5", "6", "30", "30.5", "inf"]))
def test_scan_on_any_trap_config_exits_0_2_3_or_4(config, points, max_index):
    _run_config("scan", config, ["--points", points, "--max-index", max_index])


@settings(max_examples=100, deadline=None)
@given(depump_configs(), st.integers(0, 2 ** 32 - 1))
def test_depump_on_any_config_exits_0_2_3_or_4(config, seed):
    _run_config("depump", config, ["--seed", str(seed)])


# ---------------------------------------------------------------------------
# one-pass row formatting against the row-by-row csv.writer oracle

#: values whose 17-digit forms are long, short, subnormal or signed
EDGE_FLOATS = [5e-324, 1e308, 1.0 / 3.0, -0.0, 2.0 ** -1022, -1.7976931348623157e308]


def _written(write) -> bytes:
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "out.csv")
        write(path)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.lists(
           st.lists(st.floats() | st.sampled_from(EDGE_FLOATS), min_size=n, max_size=n),
           min_size=3, max_size=3)),
       st.lists(st.floats(), min_size=2, max_size=2),
       st.sampled_from([1, 2, rb._ROW_BLOCK]))
@example([EDGE_FLOATS[:3], EDGE_FLOATS[3:], EDGE_FLOATS[::-1][:3]], [2.4048255576957728, 1e308], 2)
def test_scan_csv_bytes_match_row_writer_oracle(columns, nulls, block):
    config = micromotion.TrapBeamConfig(**TRAP_CONFIG)
    columns = [np.array(c, dtype=float) for c in columns]
    with mock.patch.object(rb, "_ROW_BLOCK", block):
        ours = _written(lambda path: cli._write_scan_csv(path, config, nulls, *columns))
    assert ours == _written(lambda path: write_scan_csv_oracle(path, config, nulls, *columns))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10 ** 9).flatmap(lambda shots: st.tuples(st.just(shots), st.lists(
           st.tuples(st.floats() | st.sampled_from(EDGE_FLOATS), st.integers(0, shots)),
           max_size=9))),
       st.sampled_from([1, 2, rb._ROW_BLOCK]))
@example((3, list(zip(EDGE_FLOATS, [0, 1, 2, 3, 1, 2]))), 2)
def test_depump_csv_bytes_match_row_writer_oracle(sample, block):
    shots, rows = sample
    times = np.array([t for t, _ in rows], dtype=float)
    counts = np.array([c for _, c in rows], dtype=np.int64)
    with mock.patch.object(rb, "_ROW_BLOCK", block):
        ours = _written(lambda path: cli._write_depump_csv(path, times, shots, counts,
                                                            counts / shots))
    assert ours == _written(lambda path: write_depump_csv_oracle(path, times, shots, counts))


def test_unexpected_exception_exits_5_with_one_line(tmp_path, capsys, monkeypatch, caplog):
    def explode(args):
        raise RuntimeError("synthetic\ndefect")

    monkeypatch.setattr(cli, "_cmd_scan", explode)
    with caplog.at_level("DEBUG", logger="mcmr"):
        rc = cli.main(["scan", "--config", str(tmp_path / "trap.json"),
                       "--out", str(tmp_path / "out")])
    assert rc == 5
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: synthetic defect\n"
    assert "Traceback" not in err
    assert caplog.records[-1].exc_info[0] is RuntimeError


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_pytest_collects_from_a_checkout_without_pythonpath():
    """``python -m pytest`` from the repository root finds the package."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         os.path.join("tests", "test_config.py")],
        capture_output=True, text=True, env=env, cwd=root, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


_NO_SCIPY_RUN = """
import sys
import mcmr, mcmr.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
sys.modules["scipy"] = None  # from here on any scipy import fails
out, cfg = sys.argv[1], sys.argv[2:]
runs = [["scan", "--config", cfg[0], "--points", "20"],
        ["depump", "--config", cfg[1]], ["depump", "--config", cfg[2]],
        ["benchmark", "--config", cfg[3], "--resamples", "4"],
        ["fit", "--data", out + "/bench/measure-dark_probe.csv", "--resamples", "4"]]
for k, argv in enumerate(runs):
    code = mcmr.cli.main(argv + ["--out", out + ("/bench" if k == 3 else f"/run{k}")])
    assert code == 0, (argv, code)
"""


def _package_env() -> dict:
    src = os.path.dirname(os.path.dirname(mcmr.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_runtime_loads_no_scipy(tmp_path):
    """A fresh interpreter imports the package and the CLI without any scipy
    module, and every subcommand runs with scipy made unimportable (pytest's
    own warning filters import scipy, hence the subprocess)."""
    depump = {"gamma_per_s": 156.25, "t_max_s": 0.04}
    configs = [write_json(tmp_path / "trap.json", TRAP_CONFIG),
               write_json(tmp_path / "pinned.json", depump),
               write_json(tmp_path / "free.json", {**depump, "free_amplitude": True}),
               small_campaign(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path), *configs],
                          capture_output=True, text=True, env=_package_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run4" / "measure-dark_probe_results.json").exists()


def test_import_leaves_out_the_process_pool():
    """A fresh ``import mcmr`` loads neither ``concurrent.futures`` nor
    ``multiprocessing``: only a parallel campaign needs them."""
    probe = ("import sys, mcmr; print(sorted(m for m in ('concurrent.futures', "
             "'multiprocessing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_NO_WORK_AT_IMPORT = """
import argparse, sys
built, solved = [], []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from mcmr import micromotion
null = micromotion.carrier_null_index
def counting_null(bracket):
    solved.append(tuple(bracket))
    return null(bracket)
micromotion.carrier_null_index = counting_null
import mcmr.cli
assert not built and not solved, (built, solved)
for k in range(3):
    argv = ["scan", "--config", sys.argv[1], "--points", "20", "--out", sys.argv[2] + str(k)]
    assert mcmr.cli.main(argv) == 0
    if k == 0:
        first_built = len(built)
assert first_built > 0 and len(built) == first_built, built
assert solved == [micromotion.FIRST_NULL_BRACKET, (5.0, 6.0)], solved
"""


def test_import_builds_no_parser_and_solves_no_null(tmp_path):
    """``import mcmr.cli`` does no work (the benchmark's set-up time is the
    import alone); the parser and the two carrier nulls are made on first use
    and reused by every later call in the process."""
    config = write_json(tmp_path / "trap.json", TRAP_CONFIG)
    proc = subprocess.run([sys.executable, "-c", _NO_WORK_AT_IMPORT, config,
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


def _tree(folder) -> dict:
    return {path.relative_to(folder).as_posix(): path.read_bytes()
            for path in folder.rglob("*") if path.is_file()}


def test_repeated_in_process_calls_match_fresh_interpreters(tmp_path):
    """One process calling ``cli.main`` for a scan, an argparse error, a
    config error, a depump and the scan again writes, prints and returns
    what a fresh interpreter per call does, byte for byte."""
    trap = write_json(tmp_path / "trap.json", TRAP_CONFIG)
    depump = write_json(tmp_path / "depump.json", {"gamma_per_s": 156.25, "t_max_s": 0.04})
    runs = [["scan", "--config", trap, "--out", "scan", "--points", "50"],
            ["scan", "--config", trap, "--out", "bad", "--points", "many"],
            ["scan", "--config", str(tmp_path / "none.json"), "--out", "none"],
            ["depump", "--config", depump, "--out", "depump", "--seed", "3"],
            ["scan", "--config", trap, "--out", "again", "--points", "50"]]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    cwd = os.getcwd()
    in_process = []
    try:
        os.chdir(here)
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            in_process.append((code, out.getvalue(), err.getvalue()))
    finally:
        os.chdir(cwd)
    for argv, seen in zip(runs, in_process):
        proc = subprocess.run([sys.executable, "-m", "mcmr.cli", *argv], cwd=fresh,
                              capture_output=True, text=True, env=_package_env(), timeout=120)
        assert seen == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [code for code, _, _ in in_process] == [0, 2, 2, 0, 0]
    files = _tree(here)
    assert files == _tree(fresh)
    assert files["scan/scan.csv"] == files["again/scan.csv"]


def test_module_entry_point_runs_without_warning(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mcmr.cli",
         "scan", "--config", str(tmp_path / "none.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
