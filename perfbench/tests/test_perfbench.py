"""Tests of the benchmark's own code (run with ``python3 -m pytest perfbench/tests``)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import special

import layers
import run
import workloads
from mcmr import channels, cli, clifford, liouville, micromotion, rb
from tracing import Aggregate, Span, Tracer, Wrap, self_times
from worker import Runner, same_tree

BENCH = Path(__file__).resolve().parent.parent
MODULES = (channels, cli, clifford, liouville, micromotion, rb, rb.RBDataset)


def _snapshot():
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}


def test_wrappers_removed_and_attributes_identical_after_traced_run(tmp_path):
    before = _snapshot()
    tracer = Tracer("test", layers.wraps())
    with tracer:
        assert rb.fit_standard is not before[("mcmr.rb", "fit_standard")]
        assert vars(rb.RBDataset)["from_csv"] is not before[("RBDataset", "from_csv")]
        config = tmp_path / "depump.json"
        config.write_text(json.dumps({"gamma_per_s": 50.0, "t_max_s": 0.04}))
        assert cli.main(["depump", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0
        with pytest.raises(ValueError):
            rb.fit_leakage(None, ls_ratio=-1.0)
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.missing == []
    assert tracer.calls["micromotion.fit_depump"] == 1
    assert tracer.calls["rb.fit_leakage"] == 1


def _worker_result(trace_missing):
    return {"layers": {}, "trace_missing": trace_missing, "attempted": 1,
            "failed": 0, "correctness": [], "determinism": [], "compared": 1,
            "peak_rss_mb": 1.0, "record": {}}


def test_missing_attribute_or_counter_fails_the_traced_run():
    class Holder:
        @staticmethod
        def there():
            return None

    broken = Wrap(Holder, "there", "holder.there", "x",
                  count=lambda a, result, duration: {"n": result.size})
    tracer = Tracer("test", [Wrap(Holder, "gone", "holder.gone", "x"), broken])
    with tracer:
        Holder.there()
    assert vars(Holder).get("gone") is None
    assert tracer.missing[0] == "holder.gone"
    assert tracer.missing[1].startswith("holder.there counter: AttributeError")

    probes = [{"import_s": 1.0, "tables_s": 0.1}]
    bad = run.summarize("x", 1, 1, _worker_result(tracer.missing), probes)
    assert bad["tracing"] and not run.verdict([bad])
    good = run.summarize("x", 1, 1, _worker_result([]), probes)
    assert run.verdict([good])


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "w"),
        Span(1, "a", 1.0, 4.0, 0, "w"),
        Span(2, "b", 3.0, 6.0, 0, "w"),      # overlaps a: children cover 1..6
        Span(3, "c", 2.0, 3.0, 1, "w"),
        Span(4, "late", 9.5, 12.0, 0, "w"),  # clipped to the parent's end
    ]
    aggregates = [Aggregate("hot", 0, count=3, total_s=2.0, covered_s=1.5),
                  Aggregate("hot", 2, count=1, total_s=0.5, covered_s=0.5)]
    assert self_times(spans, aggregates) == pytest.approx(
        {0: 10.0 - 5.0 - 0.5 - 1.5, 1: 2.0, 2: 2.5, 3: 1.0, 4: 2.5})


def test_tracer_self_time_with_nested_calls():
    clock = [0.0]

    def tick(dt):
        clock[0] += dt

    class Mod:
        @staticmethod
        def leaf():
            tick(1.0)

        @staticmethod
        def hot():
            tick(0.5)
            Mod.leaf()

        @staticmethod
        def outer():
            tick(2.0)
            Mod.hot()
            Mod.hot()
            Mod.inner()

        @staticmethod
        def inner():
            tick(3.0)
            Mod.hot()

    wraps = [Wrap(Mod, "outer", "outer", "top"),
             Wrap(Mod, "inner", "inner", "top"),
             Wrap(Mod, "hot", "hot", "hot", hot=True),
             Wrap(Mod, "leaf", "leaf", "hot", hot=True)]
    with Tracer("test", wraps, clock=lambda: clock[0]) as tracer:
        Mod.outer()
    selfs = tracer.self_time_by_name()
    assert selfs == pytest.approx({"outer": 2.0, "inner": 3.0})
    assert tracer.time_s == pytest.approx({"outer": 9.5, "inner": 4.5,
                                           "hot": 4.5, "leaf": 3.0})
    # nested calls inside one layer count once towards that layer
    assert tracer.layer_s == pytest.approx({"top": 9.5, "hot": 4.5})
    assert tracer.layer_calls == {"top": 1, "hot": 3}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_byte_identical_for_a_seed(tmp_path, name):
    prepare = workloads.WORKLOADS[name].prepare
    dirs = [tmp_path / f"in{k}" for k in range(3)]
    for d in dirs:
        d.mkdir()
    plans = [prepare(str(dirs[0]), 5), prepare(str(dirs[1]), 5),
             prepare(str(dirs[2]), 6)]
    assert os.listdir(dirs[0])
    assert same_tree(dirs[0], dirs[1])
    assert [c.ops for c in plans[0].calls] == [c.ops for c in plans[1].calls]
    if name == "physics":
        assert not same_tree(dirs[0], dirs[2])


def _depump_call(tmp_path, name, gamma):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"gamma_per_s": gamma, "t_max_s": 2.0 / gamma}))
    return workloads.Call(name, (name,), argv=(
        "depump", "--config", str(config), "--out", workloads.OUT, "--seed", "3"))


def test_failed_frac_counts_injected_failures(tmp_path):
    good = _depump_call(tmp_path, "good", 80.0)
    flagged = _depump_call(tmp_path, "flagged", 60.0)
    broken = workloads.Call("broken", ("broken",), argv=(
        "depump", "--config", str(tmp_path / "absent.json"),
        "--out", workloads.OUT))

    def check(plan, call, call_dir):
        assert os.path.isfile(os.path.join(call_dir, "depump_fit.json"))
        return {call.name: "injected" if call.name == "flagged" else None}

    plan = workloads.Plan("test", [good, flagged, broken], "pool")
    runner = Runner(workloads.Workload(None, check), plan, str(tmp_path / "work"))
    runner.run("serial", plan.calls)
    assert (runner.attempted, runner.failed) == (3, 2)
    assert any("exit code 2" in line for line in runner.correctness)
    assert any("injected" in line for line in runner.correctness)

    # a second pass whose output differs from the first fails determinism
    other = workloads.Call("good", ("good",), argv=(
        "depump", "--config", good.argv[2], "--out", workloads.OUT, "--seed", "4"))
    runner.run("serial", [other])
    assert (runner.attempted, runner.failed) == (4, 3)
    assert runner.determinism and runner.compared == 1


def test_sweep_reports_every_channel(tmp_path):
    plan = workloads.prepare_physics(str(tmp_path), 2)
    sweep = [c for c in plan.calls if c.sweep][0]
    assert workloads.run_call(sweep, str(tmp_path / "pass")) is None
    found = workloads.check_physics(plan, sweep, str(tmp_path / "pass" / sweep.name))
    assert set(found) == set(sweep.ops) and not any(found.values())


def test_scan_check_catches_a_corrupted_scan(tmp_path):
    plan = workloads.prepare_physics(str(tmp_path), 3)
    scan = plan.calls[0]
    assert workloads.run_call(scan, str(tmp_path / "pass")) is None
    call_dir = tmp_path / "pass" / scan.name
    assert workloads.check_physics(plan, scan, str(call_dir)) == {scan.name: None}
    path = call_dir / "scan.csv"
    lines = path.read_text().splitlines(keepends=True)
    header = sum(1 for line in lines if line.startswith("#")) + 1

    def corrupted(edit):
        rows = [line.rstrip("\n").split(",") for line in lines[header:]]
        for row in rows:
            edit(row)
        path.write_text("".join(lines[:header])
                        + "".join(",".join(row) + "\n" for row in rows))
        found = workloads.check_physics(plan, scan, str(call_dir))[scan.name]
        path.write_text("".join(lines))
        return found

    def carrier_only(row):
        row[2] = repr(float(special.j0(float(row[1])) ** 2))

    def bent_index(row):
        row[1] = repr(float(row[1]) * (1.0 + 1e-6 * float(row[1])))

    def above_one(row):
        if float(row[0]) > 0.0:
            row[2] = repr(float(row[2]) * 1.5)

    assert "sideband sum" in corrupted(carrier_only)
    assert "not linear" in corrupted(bent_index)
    assert "outside (0, 1]" in corrupted(above_one)
    assert "expected 1 at 0" in corrupted(lambda row: row.__setitem__(2, "0.5"))
    assert "scan rows" in corrupted(lambda row: row.clear() if row[0] != "0" else None)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = set(layers.metrics(Tracer("x", ()), 1.0, 1.0, None))
    names |= {"clifford.setup_ms", "failed_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "wall_parallel2_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "campaign", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_workload_env_pins_threads():
    env = run.workload_env()
    assert all(env[name] == "1" for name in run.PINNED_THREADS)
    assert env["PYTHONPATH"].endswith("src")
