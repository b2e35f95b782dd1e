"""The workloads: inputs made from a seed, the calls of a pass, checks.

A *pass* is every call of a workload made once.  A *call* is one timed entry
into the program (``mcmr.cli.main`` or, for the channel sweep of
``physics``, the library route ``channels`` -> ``rb.channel_reference``) and
covers one or more *operations*: one experiment analysis, one scan or
depump run, or one channel evaluation.  Each call writes into
its own directory of the pass directory, so two passes can be compared file
by file.

Workloads only use production routes of the program: the CLI, the campaign
builder ``rb.standard_experiments``, the channel builders and
``rb.channel_reference``.  They never call the test-only oracles
(``rb.decay_coefficients``, ``rb.exact_average_survival``,
``channels.twirl``, ``RateModel.from_physics``/``steady_state``) nor
anything under ``tests/``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from mcmr import channels, cli, liouville, rb

#: placeholder in a call's argv for its output directory
OUT = "{out}"

# -- sizes (README.md gives the reasons) -------------------------------------
CAMPAIGN_RESAMPLES = 200
#: trap geometries surveyed per pass; each gets one scan and one depump run
#: and a pass of ``physics`` then takes about a second
GEOMETRIES = 32
#: the scan the program documents: ``--points 400`` to the default largest
#: modulation index 6.0, which covers the first two carrier nulls
SCAN_POINTS = 400
SCAN_MAX_INDEX = 6.0
#: the depump sampling the program defaults to
DEPUMP_POINTS = 12
DEPUMP_SHOTS = 1000
SWEEP_POLARIZATIONS = 5
#: four points per decade; brackets the standard campaign's reset (2e-4) and
#: measurement (2e-3) windows
SWEEP_GAMMAS = tuple(float(g) for g in np.logspace(-4.0, -1.0, 13))
SWEEP_GATE_DEPOLARIZING = 2e-4

# -- correctness tolerances --------------------------------------------------
#: standard-route scattering estimate must lie within this many bootstrap
#: sigmas of the exact channel value (5 sigma: a healthy run fails one
#: experiment in about 10^6)
CAMPAIGN_SIGMAS = 5.0
#: measurement-only slot channels have L = S exactly
LEAKAGE_EQ_TOL = 1e-10
FIRST_NULL = 2.404825557
FIRST_NULL_TOL = 1e-8
#: sideband harmonics in the documented suppression sum
#: J0(n)^2 + 2 sum_v J_v(n)^2 / (1 + (2 v Omega / Gamma)^2)
SCAN_HARMONICS = 50
#: scan rows must match that sum, and the index its straight line, to this
SCAN_REL_TOL = 1e-12
TP_TOL = 1e-10
#: fitted depump rate within this many of its own sigmas of the truth
DEPUMP_SIGMAS = 6.0


@dataclass(frozen=True)
class Call:
    """One timed entry into the program.

    ``argv`` is the CLI argument list with :data:`OUT` standing for the
    call's output directory; a call with ``sweep`` set evaluates the channels
    of that sweep-spec file instead.
    """

    name: str
    ops: tuple
    argv: tuple = ()
    sweep: str | None = None


@dataclass
class Plan:
    """A workload's prepared inputs: its calls and what the checks need."""

    workload: str
    calls: list
    #: "program": the parallel pass adds ``--parallel 2`` to each call;
    #: "pool": the calls are spread over two worker processes
    parallel: str
    refs: dict = field(default_factory=dict)
    #: make one untimed pass before timing (worth it only for short passes)
    warm_up: bool = False

    def parallel_calls(self) -> list:
        if self.parallel != "program":
            return list(self.calls)
        return [Call(c.name, c.ops, c.argv + ("--parallel", "2"), c.sweep)
                for c in self.calls]


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


# ---------------------------------------------------------------------------
# running a call


def run_call(call: Call, pass_dir: str) -> str | None:
    """Make one call; return None on success or a one-line failure reason.

    Module-level so that worker processes of the parallel pass can run it.
    """
    out = os.path.join(pass_dir, call.name)
    try:
        if call.sweep is not None:
            _run_sweep(call.sweep, out)
            return None
        code = _quiet_cli([out if a == OUT else a for a in call.argv])
    except Exception as exc:  # a failing operation is counted, not fatal
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def _run_sweep(spec_path: str, out: str) -> None:
    """Evaluate every channel of a sweep spec through the production route."""
    os.makedirs(out, exist_ok=True)
    spec = _read_json(spec_path)
    rows = []
    for entry in spec["channels"]:
        steps = [channels.depolarizing(s["p"]) if s["kind"] == "depolarizing"
                 else channels.channel_from_config(s) for s in entry["steps"]]
        ch = channels.compose(*steps)
        ref = rb.channel_reference(ch)
        rows.append((entry["id"], liouville.tp_defect(ch.matrix), ref.base,
                     ref.leakage, ref.seepage, ref.t_minus))
    with open(os.path.join(out, "sweep.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "tp_defect", "base", "leakage", "seepage",
                         "t_minus"))
        for row in rows:
            writer.writerow((row[0],) + tuple(format(v, ".17g") for v in row[1:]))


# ---------------------------------------------------------------------------
# inputs


def prepare_campaign(inputs: str, seed: int) -> Plan:
    experiments = rb.standard_experiments()
    config = os.path.join(inputs, "campaign.json")
    _write_json(config, {"experiments": [e.to_dict() for e in experiments]})
    call = Call("campaign", tuple(e.name for e in experiments),
                argv=("benchmark", "--config", config, "--out", OUT,
                      "--seed", str(seed), "--resamples", str(CAMPAIGN_RESAMPLES)))
    refs = {e.name: {"ops": list(e.interleaved_ops),
                     "probes": sorted(e.probes)} for e in experiments}
    return Plan("campaign", [call], "program", refs)


def _trap_config(rng) -> dict:
    return {
        "rf_frequency_hz": float(rng.uniform(15e6, 40e6)),
        "secular_frequency_hz": float(rng.uniform(1e6, 4e6)),
        "linewidth_hz": float(rng.uniform(5e6, 20e6)),
        "wavelength_m": 369.5e-9,
        "beam_angle_deg": float(rng.uniform(0.0, 60.0)),
        "displacement_m": float(rng.uniform(0.2e-6, 2e-6)),
    }


def _sweep_channels(rng) -> list:
    """Single windows of both kinds and composed slot channels."""
    polarizations = [[1.0 / 3.0] * 3] + [
        [float(w) for w in rng.dirichlet((2.0, 2.0, 2.0))]
        for _ in range(SWEEP_POLARIZATIONS - 1)]
    entries = []
    for p, pol in enumerate(polarizations):
        for g, gamma_t in enumerate(SWEEP_GAMMAS):
            meas = {"kind": "measurement", "gamma_t": gamma_t, "polarization": pol}
            rst = {"kind": "reset", "gamma_t": gamma_t, "polarization": pol}
            gate = {"kind": "depolarizing", "p": SWEEP_GATE_DEPOLARIZING}
            entries.append({"id": f"measurement-p{p}-g{g}", "steps": [meas]})
            entries.append({"id": f"reset-p{p}-g{g}", "steps": [rst]})
            entries.append({"id": f"slot-p{p}-g{g}", "steps": [gate, meas, rst]})
    return entries


def prepare_physics(inputs: str, seed: int) -> Plan:
    """Per geometry a scan and a depump run, then the channel sweep."""
    rng = np.random.default_rng(seed)
    calls, traps = [], {}
    for k in range(GEOMETRIES):
        traps[f"scan{k}"] = trap = _trap_config(rng)
        path = os.path.join(inputs, f"trap{k}.json")
        _write_json(path, trap)
        calls.append(Call(f"scan{k}", (f"scan{k}",), argv=(
            "scan", "--config", path, "--out", OUT, "--points", str(SCAN_POINTS),
            "--max-index", repr(SCAN_MAX_INDEX))))
    for k in range(GEOMETRIES):
        gamma = float(rng.uniform(20.0, 200.0))
        path = os.path.join(inputs, f"depump{k}.json")
        _write_json(path, {"gamma_per_s": gamma, "t_max_s": 2.0 / gamma,
                           "points": DEPUMP_POINTS, "shots": DEPUMP_SHOTS})
        calls.append(Call(f"depump{k}", (f"depump{k}",), argv=(
            "depump", "--config", path, "--out", OUT,
            "--seed", str(int(rng.integers(0, 2**31))))))
    entries = _sweep_channels(rng)
    half = len(entries) // 2
    for k, part in enumerate((entries[:half], entries[half:])):
        path = os.path.join(inputs, f"sweep{k}.json")
        _write_json(path, {"channels": part})
        calls.append(Call(f"sweep{k}", tuple(e["id"] for e in part), sweep=path))
    return Plan("physics", calls, "pool", traps, warm_up=True)


# ---------------------------------------------------------------------------
# correctness checks of one call's output: {operation: None or the reason}


def _experiment_problems(call_dir, name, probes, problem) -> str | None:
    found = []
    for label in probes:
        res = _read_json(os.path.join(call_dir, f"{name}_{label}_results.json"))
        reason = problem(res)
        if reason:
            found.append(f"{label}: {reason}")
    return "; ".join(found) or None


def check_campaign(plan: Plan, call: Call, call_dir: str) -> dict:
    def problem(res, measurement_only):
        exact = res["channel_reference"]
        estimate = res["scattering_estimates"]["standard"]
        sigma = res["bootstrap"]["sigmas"]["scattering_standard"]
        truth = 0.75 * (1.0 - exact["base"])
        if not (sigma > 0 and abs(estimate - truth) <= CAMPAIGN_SIGMAS * sigma):
            return (f"standard estimate {estimate:.6g} vs exact {truth:.6g} "
                    f"(sigma {sigma:.3g})")
        if measurement_only and abs(exact["leakage"] - exact["seepage"]) > LEAKAGE_EQ_TOL:
            return "measurement-only channel has L != S"
        return None

    out = {}
    for name, ref in plan.refs.items():
        measurement_only = "measure" in ref["ops"] and "reset" not in ref["ops"]
        out[name] = _experiment_problems(
            call_dir, name, ref["probes"],
            lambda res: problem(res, measurement_only))
    return out


def expected_suppression(index, rf_over_linewidth: float) -> np.ndarray:
    """The documented sideband sum, evaluated here independently."""
    n = np.asarray(index, dtype=float)
    v = np.arange(1, SCAN_HARMONICS + 1)[:, None]
    weight = 1.0 / (1.0 + (2.0 * v * rf_over_linewidth) ** 2)
    return special.j0(n) ** 2 + 2.0 * np.sum(weight * special.jv(v, n) ** 2, axis=0)


def scan_problem(trap: dict, call_dir: str) -> str | None:
    """What is wrong with one ``mcmr scan`` output, or None."""
    index = _read_json(os.path.join(call_dir, "scan.json"))["first_null"]["modulation_index"]
    if not abs(index - FIRST_NULL) <= FIRST_NULL_TOL:
        return f"first null at {index!r}"
    with open(os.path.join(call_dir, "scan.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != SCAN_POINTS:
        return f"{len(rows)} scan rows, expected {SCAN_POINTS}"
    disp, idx, sup = (np.array([float(r[key]) for r in rows]) for key in
                      ("displacement_m", "modulation_index", "suppression"))
    if disp[0] != 0.0 or sup[0] != 1.0:
        return (f"suppression {float(sup[0])!r} at displacement "
                f"{float(disp[0])!r}, expected 1 at 0")
    if not np.all((sup > 0.0) & (sup <= 1.0)):
        return "suppression outside (0, 1]"
    slope = (2.0 * math.pi / trap["wavelength_m"] * math.sqrt(2.0)
             * trap["secular_frequency_hz"] / trap["rf_frequency_hz"]
             * math.cos(math.radians(trap["beam_angle_deg"])))
    line = SCAN_REL_TOL * SCAN_MAX_INDEX
    if not (np.all(np.abs(idx - slope * disp) <= line)
            and abs(idx[-1] - SCAN_MAX_INDEX) <= line):
        return "modulation index not linear in displacement up to --max-index"
    want = expected_suppression(idx, trap["rf_frequency_hz"] / trap["linewidth_hz"])
    worst = int(np.argmax(np.abs(sup - want) / want))
    if abs(sup[worst] - want[worst]) > SCAN_REL_TOL * want[worst]:
        return (f"suppression {float(sup[worst])!r} at index {float(idx[worst])!r}, "
                f"sideband sum gives {float(want[worst])!r}")
    return None


def check_physics(plan: Plan, call: Call, call_dir: str) -> dict:
    if call.name.startswith("scan"):
        return {call.name: scan_problem(plan.refs[call.name], call_dir)}
    if call.name.startswith("depump"):
        fit = _read_json(os.path.join(call_dir, "depump_fit.json"))
        miss = abs(fit["gamma_per_s"] - fit["truth"]["gamma_per_s"])
        ok = miss <= DEPUMP_SIGMAS * fit["gamma_sigma_per_s"]
        return {call.name: None if ok else f"fitted rate off by {miss:.4g} /s"}
    out = {op: "no output row" for op in call.ops}
    with open(os.path.join(call_dir, "sweep.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            defect = float(row["tp_defect"])
            out[row["id"]] = None if defect <= TP_TOL \
                else f"trace-preservation defect {defect:.3g}"
    return out


@dataclass(frozen=True)
class Workload:
    #: ``prepare(inputs_dir, seed)`` writes the inputs and returns the plan
    prepare: Callable[[str, int], Plan]
    #: ``check(plan, call, call_dir)`` returns ``{operation: None or reason}``
    check: Callable[[Plan, Call, str], dict]


WORKLOADS = {
    "campaign": Workload(prepare_campaign, check_campaign),
    "physics": Workload(prepare_physics, check_physics),
}
