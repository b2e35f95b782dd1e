"""Command-line interface.

Four subcommands, all file-driven and deterministic for a fixed ``--seed``:

* ``scan``       displacement scan of detection-light suppression,
* ``depump``     simulate and fit a bright-state depumping curve,
* ``benchmark``  simulate and analyse a benchmarking campaign,
* ``fit``        re-analyse an existing dataset CSV.

Exit codes: 0 success, 2 configuration or output-path error, 3 data-format
error, 4 fit failure, 5 internal error (a defect of the program; its
traceback is logged at debug level on the ``mcmr`` logger).  Floating-point
values in CSV output carry 17 significant digits so files round-trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import micromotion, rb
from .config import Config, checked, load_json
from .errors import AssumptionError, ConfigError, DataFormatError, FitError

DEFAULT_SCAN_POINTS = 400
DEFAULT_SCAN_MAX_INDEX = 6.0
DEFAULT_RESAMPLES = 200
#: most bootstrap resamples a run may ask for
MAX_RESAMPLES = 100_000
#: most displacements one scan may ask for
MAX_SCAN_POINTS = 1_000_000
#: most sample times a depump run may ask for
MAX_DEPUMP_POINTS = 100_000
#: most processes, the calling one included, a campaign may run at once
MAX_PARALLEL = 64
#: longest file name, in bytes, that common file systems accept
NAME_MAX = 255

DECAY_HEADER = ("length", "standard_mean", "standard_sem", "standard_fit",
                "dark_mean", "dark_sem", "dark_fit")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _ensure_out(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path


#: flag name -> (test, requirement) for values argparse's types let through
_FLAG_LIMITS = {
    "seed": (lambda v: v >= 0, "non-negative"),
    "resamples": (lambda v: v == 0 or 2 <= v <= MAX_RESAMPLES,
                  f"0 or from 2 to {MAX_RESAMPLES}"),
    "points": (lambda v: 2 <= v <= MAX_SCAN_POINTS, f"from 2 to {MAX_SCAN_POINTS}"),
    "max_index": (lambda v: 0 < v <= micromotion.MAX_MODULATION_INDEX,
                  f"positive and at most {micromotion.MAX_MODULATION_INDEX:g}"),
    "parallel": (lambda v: 1 <= v <= MAX_PARALLEL, f"from 1 to {MAX_PARALLEL}"),
}


# ---------------------------------------------------------------------------
# scan


@functools.cache
def _carrier_nulls() -> tuple[float, float]:
    """The first two carrier nulls, solved once per process."""
    return micromotion.first_null_modulation_index(), micromotion.carrier_null_index((5.0, 6.0))


def _write_scan_csv(path, config, nulls, displacements, indices, suppression) -> None:
    """``scan.csv``: the first and second of ``nulls`` (modulation indices) as
    comment lines, then one row per displacement."""
    comments = "".join(f"# {name}_null_modulation_index={index:.17g}\n"
                       f"# {name}_null_displacement_m="
                       f"{micromotion.displacement_for_index(config, index):.17g}\n"
                       for name, index in zip(("first", "second"), nulls))
    rb._write_csv(path, ("displacement_m", "modulation_index", "suppression"),
                  "%.17g,%.17g,%.17g\r\n", (displacements, indices, suppression), comments)


def _cmd_scan(args) -> int:
    config = micromotion.TrapBeamConfig.from_json(args.config)
    configured_index = micromotion.modulation_index(config)
    if not abs(configured_index) <= micromotion.MAX_MODULATION_INDEX:
        raise ConfigError(f"displacement_m {config.displacement_m!r} gives modulation "
                          f"index {configured_index:.6g}, beyond the "
                          f"{micromotion.MAX_MODULATION_INDEX:g} the sideband sum covers")
    out = _ensure_out(args.out)

    first, second = _carrier_nulls()
    ratio = config.rf_over_linewidth

    max_disp = micromotion.displacement_for_index(config, args.max_index)
    displacements = np.linspace(0.0, max_disp, args.points)
    indices, suppression = micromotion.suppression_scan(config, displacements)

    csv_path = os.path.join(out, "scan.csv")
    _write_scan_csv(csv_path, config, (first, second), displacements, indices, suppression)

    summary = {
        "config": config.to_dict(),
        "first_null": {
            "modulation_index": first,
            "displacement_m": micromotion.displacement_for_index(config, first),
            "suppression": micromotion.suppression_factor(first, ratio),
        },
        "second_null": {
            "modulation_index": second,
            "displacement_m": micromotion.displacement_for_index(config, second),
            "suppression": micromotion.suppression_factor(second, ratio),
        },
        "configured": {
            "displacement_m": config.displacement_m,
            "modulation_index": configured_index,
            "suppression": micromotion.suppression_factor(configured_index, ratio),
        },
    }
    _write_json(os.path.join(out, "scan.json"), summary)
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# depump


@dataclass(frozen=True)
class DepumpConfig(Config):
    """``mcmr depump`` input; ``times_s`` overrides ``points`` times up to ``t_max_s``."""

    gamma_per_s: float = checked(gt=0.0)
    times_s: tuple[float, ...] | None = checked(None, ge=0.0)
    t_max_s: float | None = checked(None, gt=0.0)
    points: int = checked(12, ge=3, le=MAX_DEPUMP_POINTS)
    shots: int = checked(1000, ge=1)
    free_amplitude: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.times_s is None and self.t_max_s is None:
            raise ConfigError("t_max_s is required when times_s is not given")
        if self.times_s is not None and len(self.times_s) < 3:
            raise ConfigError("times_s must list at least three times")
        t_end = self.t_max_s if self.times_s is None else max(self.times_s)
        if not math.isfinite(3.0 * self.gamma_per_s * t_end):  # the curve's exponent
            raise ConfigError(f"gamma_per_s {self.gamma_per_s!r} overflows the depump "
                              f"curve's exponent at time {t_end!r}")


def _write_depump_csv(path, times, shots: int, counts, fractions) -> None:
    rb._write_csv(path, ("time_s", "shots", "dark_counts", "dark_fraction"),
                  f"%.17g,{shots},%d,%.17g\r\n", (times, counts, fractions))


def _cmd_depump(args) -> int:
    config = DepumpConfig.from_dict(load_json(args.config, "depump config"))
    gamma, shots = config.gamma_per_s, config.shots
    if config.times_s is not None:
        times = np.asarray(config.times_s, dtype=float)
    else:
        times = np.linspace(0.0, config.t_max_s, config.points)

    rng = np.random.default_rng(args.seed)
    probs = micromotion.depump_probability(gamma, times)
    counts = rng.binomial(shots, probs)
    fractions = counts / shots

    out = _ensure_out(args.out)
    samples_path = os.path.join(out, "depump_samples.csv")
    _write_depump_csv(samples_path, times, shots, counts, fractions)

    fit = micromotion.fit_depump(times, fractions, shots=shots,
                                 free_amplitude=config.free_amplitude)
    _write_json(os.path.join(out, "depump_fit.json"), {
        "gamma_per_s": fit.gamma,
        "gamma_sigma_per_s": fit.gamma_sigma,
        "time_constant_s": fit.time_constant,
        "time_constant_sigma_s": fit.time_constant_sigma,
        "amplitude": fit.amplitude,
        "amplitude_sigma": fit.amplitude_sigma,
        "free_amplitude": fit.free_amplitude,
        "truth": {"gamma_per_s": gamma, "shots": shots},
    })
    print(f"wrote {samples_path}; fitted 1/gamma = {fit.time_constant:.6g} s")
    return 0


# ---------------------------------------------------------------------------
# benchmark / fit


def _write_decay_csv(path, analysis: rb.AnalysisResult) -> None:
    std, leak = analysis.standard, analysis.leakage_fit
    rows = [(s.length, s.mean, s.sem, rb.standard_decay(s.length, std.amplitude, std.base),
             d.mean, d.sem, rb.leakage_decay(d.length, leak.intercept, leak.asymptote,
                                             leak.t_minus))
            for s, d in zip(std.per_length, leak.per_length)]
    rb._write_csv(path, DECAY_HEADER, "%d" + ",%.17g" * 6 + "\r\n", list(zip(*rows)))


def _benchmark_files(configs, out) -> dict:
    """``{name: (focus CSV, {probe: (dataset, decay, results)})}`` file names.

    Raises ConfigError, before any work runs, when two outputs would share a
    file name or a file name in directory ``out`` is longer than
    ``NAME_MAX`` bytes.
    """
    files, seen = {}, set()
    for config in configs:
        name = config.name
        probes = {label: tuple(f"{name}_{label}{suffix}" for suffix in
                               (".csv", "_decay.csv", "_results.json"))
                  for label in config.probes}
        files[name] = (f"{name}_focus.csv", probes)
        for file in (files[name][0], *(f for names in probes.values() for f in names)):
            if file in seen:
                raise ConfigError(f"two outputs of the campaign would both write {file}")
            if len(os.fsencode(file)) > NAME_MAX:
                raise ConfigError(f"cannot write {os.path.join(out, file)}: "
                                  f"file name longer than {NAME_MAX} bytes")
            seen.add(file)
    return files


def _cmd_benchmark(args) -> int:
    configs = rb.load_campaign(args.config)
    files = _benchmark_files(configs, args.out)
    out = _ensure_out(args.out)
    results = rb.run_campaign(configs, seed=args.seed,
                              resamples=args.resamples, parallel=args.parallel)
    summary = {"seed": args.seed, "resamples": args.resamples,
               "experiments": {}}
    for result in results:
        name = result.config.name
        focus_file, probe_files = files[name]
        rb.write_focus_csv(result.focus_records, os.path.join(out, focus_file))
        experiment = result.config.to_dict()
        spam = [{"meas_index": e.meas_index, "shots": e.shots,
                 "errors": e.errors, "rate": e.rate, "sigma": e.sigma,
                 "per_length": [{"length": l, "shots": s, "errors": err,
                                 "rate": r} for (l, s, err, r) in e.per_length]}
                for e in result.spam]
        probes_summary = {}
        for label, analysis in sorted(result.analyses.items()):
            dataset_file, decay_file, results_file = probe_files[label]
            result.datasets[label].to_csv(os.path.join(out, dataset_file))
            _write_decay_csv(os.path.join(out, decay_file), analysis)
            _write_json(os.path.join(out, results_file), {
                **analysis.to_dict(), "experiment": experiment, "probe": label,
                "channel_reference": asdict(result.references[label]), "spam_report": spam})
            probes_summary[label] = {
                "epsilon": analysis.epsilon,
                "base": analysis.standard.base,
                "t_minus": analysis.leakage_fit.t_minus,
                "leakage": analysis.leakage_fit.leakage,
                "seepage": analysis.leakage_fit.seepage,
                "scattering_standard": analysis.scattering.standard,
                "scattering_leakage": analysis.scattering.leakage,
            }
        summary["experiments"][name] = probes_summary
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"ran {len(results)} experiments into {out}")
    return 0


def _cmd_fit(args) -> int:
    dataset = rb.RBDataset.from_csv(args.data)
    analysis = rb.analyze_dataset(dataset, resamples=args.resamples, seed=args.seed)
    out = _ensure_out(args.out)
    stem = os.path.splitext(os.path.basename(args.data))[0]
    _write_decay_csv(os.path.join(out, f"{stem}_decay.csv"), analysis)
    results_path = os.path.join(out, f"{stem}_results.json")
    _write_json(results_path, analysis.to_dict())
    print(f"wrote {results_path}; epsilon = {analysis.epsilon:.6g}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mcmr`` parser, built once per process: ``main`` may run many times."""
    parser = argparse.ArgumentParser(
        prog="mcmr",
        description="Mid-circuit measurement/reset crosstalk: suppression "
                    "scans, depumping curves, and randomized benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="displacement scan of light suppression")
    scan.add_argument("--config", required=True, help="trap/beam JSON config")
    scan.add_argument("--out", required=True, help="output directory")
    scan.add_argument("--points", type=int, default=DEFAULT_SCAN_POINTS)
    scan.add_argument("--max-index", type=float, default=DEFAULT_SCAN_MAX_INDEX,
                      help="largest modulation index to scan to")

    depump = sub.add_parser("depump", help="simulate and fit a depumping curve")
    depump.add_argument("--config", required=True, help="depump JSON config")
    depump.add_argument("--out", required=True, help="output directory")
    depump.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("benchmark", help="simulate and analyse a campaign")
    bench.add_argument("--config", required=True, help="campaign JSON config")
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES)
    bench.add_argument("--parallel", type=int, default=1,
                       help="processes for the experiments, this one included; "
                            f"at most the experiment count and {MAX_PARALLEL}")

    fit = sub.add_parser("fit", help="re-analyse an existing dataset CSV")
    fit.add_argument("--data", required=True, help="dataset CSV")
    fit.add_argument("--out", required=True, help="output directory")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, (test, requirement) in _FLAG_LIMITS.items():
            value = getattr(args, name, None)
            if value is not None and not test(value):
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"{flag} must be {requirement}, got {value}")
        with np.errstate(over="raise"):  # no valid input overflows a float64
            # looked up per call, so a replaced handler takes effect
            return globals()[f"_cmd_{args.command}"](args)
    except (ConfigError, AssumptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be created or written
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    # a size too large to allocate, or a value too large to compute with
    except (MemoryError, OverflowError, FloatingPointError) as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # last resort: one line, never a traceback
        logging.getLogger("mcmr").debug("internal error", exc_info=True)
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 5


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
