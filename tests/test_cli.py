"""End-to-end tests of the command-line interface."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mcmr
from mcmr import cli, micromotion, rb
from mcmr.errors import FitError

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
                       ("rf_frequency_hz", float("inf"))):
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
                  ["--seed", "-1"], ["--parallel", "0"], ["--parallel", "-3"]):
        rc = cli.main(["benchmark", "--config", config_path,
                       "--out", str(tmp_path / "out"), *flags])
        assert rc == 2, flags
        assert_one_error_line(capsys)


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

    def explode(dataset):
        raise FitError("synthetic")

    monkeypatch.setattr(rb, "fit_standard", explode)
    rc = cli.main(["fit", "--data", str(bench_out / "measure-dark_probe.csv"),
                   "--out", str(tmp_path / "out")])
    assert rc == 4
    capsys.readouterr()


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


def test_module_entry_point_runs_without_warning(tmp_path):
    src = os.path.dirname(os.path.dirname(mcmr.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mcmr.cli",
         "scan", "--config", str(tmp_path / "none.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
