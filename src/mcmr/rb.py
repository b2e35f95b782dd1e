"""Interleaved randomized benchmarking with mid-circuit measurement and reset.

A benchmarking sequence of length ``l`` applies ``l`` random Clifford gates,
each followed by the interleaved operations under test (measurement and/or
reset windows on a neighbouring "focus" ion, which leak crosstalk light onto
the idle "probe" qubit), and ends with the gate that folds the whole sequence
into a net Pauli drawn from {I, X, Y, Z}.  Sequences ending in I or Z should
leave the probe dark, X or Y bright; the fraction of correct outcomes decays
as ``A * base**l + 1/2`` and the dark-outcome fraction pooled over a
*balanced* Pauli mix isolates the leakage dynamics,
``p_L(l) = intercept * t_minus**(l+1) + asymptote``.

The module provides:

* sequence generation with a balanced (or deliberately unbalanced) Pauli mix,
* exact per-sequence survival probabilities in the Liouville picture,
* closed-form decay coefficients from the channel's eigensystem,
* binomial sampling, the two decay fits, scattering-probability estimators,
  and a semi-parametric bootstrap,
* a classical per-shot simulation of the focus ion (preparation, readout,
  depumping, reset) feeding mid-circuit SPAM reports,
* experiment configuration objects and a campaign runner.

Randomness policy: every public entry point takes one ``seed`` (anything
``numpy.random.default_rng`` accepts, a ``Generator`` included); campaigns
derive independent child streams for sequence generation, shot sampling,
focus trajectories and the bootstrap, so campaign outputs are reproducible
byte for byte, serial or parallel.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from . import channels, clifford, liouville
from .channels import ChannelSpec  # rb.ChannelSpec; resolves the ProbeSpec hints
from .config import Config, checked, load_json, parse
from .errors import ConfigError, DataFormatError, FitError

DEFAULT_LENGTHS = (2, 11, 81)
DEFAULT_SEQUENCES_PER_LENGTH = 40
DEFAULT_SHOTS = 100

PAULI_LABELS = clifford.PAULI_LABELS
_DARK_PAULIS = ("I", "Z")
_BRIGHT_PAULIS = ("X", "Y")

INTERLEAVED_OPS = ("measure", "reset", "x_pi", "random_su2")

DATASET_HEADER = ("length", "seq_id", "pauli", "target_outcome",
                  "shots", "dark_counts", "bright_counts")
FOCUS_HEADER = ("length", "seq_id", "slot", "meas_index", "shots", "errors")

#: fraction of bootstrap refits allowed to fail before the analysis is
#: declared unstable
BOOTSTRAP_FAILURE_BUDGET = 0.10


# ---------------------------------------------------------------------------
# state preparation and measurement model (probe qubit)


@dataclass(frozen=True)
class SpamModel(Config):
    """Preparation and readout imperfections of the probe qubit.

    ``prep_flip`` prepares |1> instead of |0>; ``prep_leak`` prepares the
    maximally mixed extra-level state; readout confusions flip the reported
    outcome.  The two effect vectors always sum to the identity.
    """

    prep_flip: float = checked(0.0, ge=0.0, le=1.0)
    prep_leak: float = checked(0.0, ge=0.0, le=1.0)
    dark_to_bright: float = checked(0.0, ge=0.0, le=1.0)
    bright_to_dark: float = checked(0.0, ge=0.0, le=1.0)

    def __post_init__(self):
        super().__post_init__()
        if self.prep_flip + self.prep_leak > 1.0:
            raise ConfigError("prep_flip + prep_leak must not exceed 1")

    def prep_vector(self) -> np.ndarray:
        qubit = 1.0 - self.prep_leak
        rho = np.diag([
            qubit * (1.0 - self.prep_flip),
            qubit * self.prep_flip,
            self.prep_leak / 2.0,
            self.prep_leak / 2.0,
        ])
        return liouville.to_supervector(rho)

    def dark_effect(self) -> np.ndarray:
        return ((1.0 - self.dark_to_bright) * liouville.dark_effect_vector()
                + self.bright_to_dark * liouville.bright_effect_vector())

    def bright_effect(self) -> np.ndarray:
        return (self.dark_to_bright * liouville.dark_effect_vector()
                + (1.0 - self.bright_to_dark) * liouville.bright_effect_vector())


PERFECT_SPAM = SpamModel()


# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class RBSequence:
    length: int
    seq_id: int
    clifford_indices: tuple[int, ...]
    pauli: str
    inversion_index: int
    target_outcome: int


def generate_sequences(lengths=DEFAULT_LENGTHS,
                       sequences_per_length: int = DEFAULT_SEQUENCES_PER_LENGTH,
                       seed=None, balanced: bool = True) -> list[RBSequence]:
    """Draw random benchmarking sequences.

    With ``balanced=True`` (the default) exactly half of each length's
    sequences target the dark outcome (net Pauli I or Z) and half the bright
    one (X or Y), which is what makes the pooled dark fraction insensitive to
    the ordinary decay.  ``balanced=False`` draws the net Pauli uniformly at
    random per sequence, which inflates the pooled variance (useful as a
    negative control).
    """
    rng = np.random.default_rng(seed)
    lengths = tuple(int(l) for l in lengths)
    if any(l < 1 for l in lengths):
        raise ConfigError("sequence lengths must be positive")
    if sequences_per_length < 1:
        raise ConfigError("sequences_per_length must be positive")
    if balanced and sequences_per_length % 2:
        raise ConfigError("balanced sampling needs an even sequences_per_length")

    sequences = []
    for length in lengths:
        if balanced:
            half = sequences_per_length // 2
            labels = list(rng.choice(_DARK_PAULIS, half))
            labels += list(rng.choice(_BRIGHT_PAULIS, half))
            labels = [labels[i] for i in rng.permutation(sequences_per_length)]
        else:
            labels = list(rng.choice(PAULI_LABELS, sequences_per_length))
        for seq_id, label in enumerate(labels):
            indices = tuple(int(i) for i in rng.integers(0, clifford.GROUP_ORDER, length))
            inv = clifford.inversion_element(indices, label)
            sequences.append(RBSequence(
                length=length, seq_id=seq_id, clifford_indices=indices,
                pauli=str(label), inversion_index=inv.index,
                target_outcome=clifford.target_outcome(str(label))))
    return sequences


# ---------------------------------------------------------------------------
# exact survival


def survival_dark_probabilities(sequences, slot_channel,
                                spam: SpamModel = PERFECT_SPAM) -> np.ndarray:
    """Dark-outcome probability of every sequence, exactly.

    ``slot_channel`` is the error applied after every random Clifford (the
    interleaved crosstalk, composed with any gate error); the inversion gate
    is applied clean.
    """
    slot = slot_channel.matrix
    gates = clifford.superop_table()
    stepped = np.einsum("ij,njk->nik", slot, gates)
    prep = spam.prep_vector()
    effect = spam.dark_effect()
    out = np.empty(len(sequences))
    for i, seq in enumerate(sequences):
        v = prep
        for idx in seq.clifford_indices:
            v = stepped[idx] @ v
        v = gates[seq.inversion_index] @ v
        out[i] = liouville.born_probability(effect, v)
    return out


@dataclass(frozen=True)
class DecayCoefficients:
    """Closed-form survival ``A * base**l + B * t_minus**l + C`` per (pauli, outcome)."""

    base: float
    t_minus: float
    amplitudes: dict
    intercepts: dict
    asymptotes: dict
    degenerate: bool

    def survival(self, pauli: str, outcome: int, length: int) -> float:
        a = self.amplitudes[(pauli, outcome)]
        b = self.intercepts[outcome]
        c = self.asymptotes[outcome]
        return a * self.base ** length + b * self.t_minus ** length + c


def decay_coefficients(slot_channel, spam: SpamModel = PERFECT_SPAM) -> DecayCoefficients:
    """Exact decay constants and coefficients of the sequence-averaged survival.

    The Clifford average of the slot channel reduces the reachable dynamics
    to the qubit Pauli block (factor ``base`` per step) plus a 2x2 population
    exchange between the subspace identities, whose eigensystem supplies the
    ``t_minus`` branch and the constant.
    """
    tw = channels.twirl(slot_channel)
    eig = channels.decay_eigensystem(tw.leakage, tw.seepage)
    prep = spam.prep_vector()
    pair = [0, 4]  # (qubit identity, extra identity): the span the 2x2 exchange acts on

    amplitudes, intercepts, asymptotes = {}, {}, {}
    for k, effect in enumerate((spam.dark_effect(), spam.bright_effect())):
        if eig.degenerate:
            intercepts[k] = 0.0
            asymptotes[k] = float(effect[pair] @ prep[pair])
        else:
            intercepts[k] = float(effect[pair] @ eig.pi_minus @ prep[pair])
            asymptotes[k] = float(effect[pair] @ eig.pi_plus @ prep[pair])
        for label in PAULI_LABELS:
            pauli_gate = clifford.superop(clifford.pauli_element(label))
            amplitudes[(label, k)] = float(effect @ pauli_gate[:, 1:4] @ prep[1:4])
    return DecayCoefficients(base=tw.base, t_minus=eig.t_minus,
                             amplitudes=amplitudes, intercepts=intercepts,
                             asymptotes=asymptotes, degenerate=eig.degenerate)


# ---------------------------------------------------------------------------
# datasets


def _read_csv(path, header: tuple[str, ...], what: str) -> list[tuple[int, list]]:
    """``(line number, row)`` of every non-empty data row after a checked header."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path} is not a {what} CSV: {exc}") from exc
    if not rows or tuple(h.strip() for h in rows[0]) != header:
        raise DataFormatError(
            f"bad {what} header in {path}: expected {','.join(header)}")
    return [(lineno, row) for lineno, row in enumerate(rows[1:], start=2) if row]


@dataclass(frozen=True)
class DatasetRecord:
    length: int
    seq_id: int
    pauli: str
    target_outcome: int
    shots: int
    dark_counts: int

    @property
    def bright_counts(self) -> int:
        return self.shots - self.dark_counts

    @property
    def dark_fraction(self) -> float:
        return self.dark_counts / self.shots

    @property
    def correct_fraction(self) -> float:
        hits = self.dark_counts if self.target_outcome == 0 else self.bright_counts
        return hits / self.shots


@dataclass(frozen=True)
class RBDataset:
    records: tuple[DatasetRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            raise DataFormatError("dataset has no records")
        for r in self.records:
            if r.length < 1:
                raise DataFormatError(f"non-positive length in record {r}")
            if r.shots <= 0:
                raise DataFormatError(f"non-positive shots in record {r}")
            if not 0 <= r.dark_counts <= r.shots:
                raise DataFormatError(f"dark_counts outside [0, shots] in record {r}")
            if r.pauli not in PAULI_LABELS:
                raise DataFormatError(f"unknown pauli {r.pauli!r}")
            if r.target_outcome != clifford.target_outcome(r.pauli):
                raise DataFormatError(
                    f"target_outcome {r.target_outcome} inconsistent with pauli "
                    f"{r.pauli!r} (length {r.length}, seq {r.seq_id})")

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({r.length for r in self.records}))

    def by_length(self) -> dict:
        groups: dict[int, list[DatasetRecord]] = {}
        for r in self.records:
            groups.setdefault(r.length, []).append(r)
        return groups

    @classmethod
    def from_counts(cls, sequences, shots: int, dark_counts) -> "RBDataset":
        records = tuple(
            DatasetRecord(length=s.length, seq_id=s.seq_id, pauli=s.pauli,
                          target_outcome=s.target_outcome, shots=int(shots),
                          dark_counts=int(d))
            for s, d in zip(sequences, dark_counts))
        return cls(records)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(DATASET_HEADER)
            for r in self.records:
                writer.writerow([r.length, r.seq_id, r.pauli, r.target_outcome,
                                 r.shots, r.dark_counts, r.bright_counts])

    @classmethod
    def from_csv(cls, path) -> "RBDataset":
        records, seen = [], set()
        for lineno, row in _read_csv(path, DATASET_HEADER, "dataset"):
            if len(row) != len(DATASET_HEADER):
                raise DataFormatError(f"{path}:{lineno}: wrong column count")
            try:
                length, seq_id = int(row[0]), int(row[1])
                pauli = row[2].strip()
                target, shots = int(row[3]), int(row[4])
                dark, bright = int(row[5]), int(row[6])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if dark + bright != shots:
                raise DataFormatError(
                    f"{path}:{lineno}: dark + bright != shots")
            if (length, seq_id) in seen:
                raise DataFormatError(
                    f"{path}:{lineno}: repeats length {length}, seq_id {seq_id}")
            seen.add((length, seq_id))
            records.append(DatasetRecord(length, seq_id, pauli, target,
                                         shots, dark))
        try:
            return cls(tuple(records))
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def simulate_dataset(sequences, slot_channel, shots: int,
                     spam: SpamModel = PERFECT_SPAM, seed=None) -> RBDataset:
    """Binomial shot sampling of the exact per-sequence dark probabilities."""
    if shots < 1:
        raise ConfigError("shots must be positive")
    rng = np.random.default_rng(seed)
    p_dark = survival_dark_probabilities(sequences, slot_channel, spam)
    dark = rng.binomial(shots, p_dark)
    return RBDataset.from_counts(sequences, shots, dark)


# ---------------------------------------------------------------------------
# fits


@dataclass(frozen=True)
class PerLengthStats:
    length: int
    n_sequences: int
    mean: float
    sem: float


@dataclass(frozen=True)
class StandardFit:
    """Correct-outcome decay ``amplitude * base**l + 1/2``.

    The 1/2 asymptote is exact for a balanced Pauli mix (the leakage branch
    cancels between dark- and bright-targeted sequences), so it is pinned.
    """

    amplitude: float
    base: float
    per_length: tuple[PerLengthStats, ...]


@dataclass(frozen=True)
class LeakageFit:
    """Pooled dark-outcome decay ``intercept * t_minus**(l+1) + asymptote``."""

    intercept: float
    asymptote: float
    t_minus: float
    leakage: float
    seepage: float
    per_length: tuple[PerLengthStats, ...]


def _length_columns(dataset: RBDataset) -> list[tuple]:
    """``(length, shots, dark_counts, target_outcome)`` per length, in record order."""
    return [(length, *(np.array([getattr(r, name) for r in group])
                       for name in ("shots", "dark_counts", "target_outcome")))
            for length, group in sorted(dataset.by_length().items())]


def _summary(length: int, values: np.ndarray) -> PerLengthStats:
    sem = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return PerLengthStats(length, values.size, float(values.mean()), sem)


def _stats(columns) -> tuple[tuple[PerLengthStats, ...], tuple[PerLengthStats, ...]]:
    correct, dark = [], []
    for length, shots, darks, targets in columns:
        hits = np.where(targets == 0, darks, shots - darks)
        correct.append(_summary(length, hits / shots))
        dark.append(_summary(length, darks / shots))
    return tuple(correct), tuple(dark)


def per_length_stats(dataset: RBDataset) -> tuple[tuple[PerLengthStats, ...],
                                                  tuple[PerLengthStats, ...]]:
    """Per-length (correct-outcome, dark-outcome) statistics: the fits' input."""
    return _stats(_length_columns(dataset))


def _fit_sigma(stats) -> np.ndarray | None:
    sems = np.array([s.sem for s in stats])
    if np.any(sems <= 0):
        return None
    return sems


def _lengths_means(stats) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([s.length for s in stats], dtype=float),
            np.array([s.mean for s in stats]))


def _rate_guess(lengths, excess, lo: float, hi: float, default: float) -> float:
    """Per-step decay rate of ``excess`` (means above the asymptote) from its ends."""
    first, last = excess[0], excess[-1]
    if first > 1e-12 and last > 1e-12 and lengths[-1] > lengths[0]:
        return float(np.clip((last / first) ** (1.0 / (lengths[-1] - lengths[0])),
                             lo, hi))
    return default


def standard_decay(length, amplitude, base):
    """Correct-outcome decay law ``amplitude * base**length + 1/2``."""
    return amplitude * base ** length + 0.5


def leakage_decay(length, intercept, asymptote, t_minus):
    """Pooled dark-outcome decay law ``intercept * t_minus**(length+1) + asymptote``."""
    return intercept * t_minus ** (length + 1.0) + asymptote


def _decay_fit(what: str, model, stats, p0, bounds) -> list[float]:
    """Bounded, SEM-weighted ``curve_fit`` of the per-length means."""
    lengths, means = _lengths_means(stats)
    try:
        with warnings.catch_warnings():
            # parameter covariance is unused (uncertainties come from the bootstrap)
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(model, lengths, means, p0=p0,
                                sigma=_fit_sigma(stats), bounds=bounds,
                                maxfev=20000)
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"{what} decay fit failed: {exc}") from exc
    params = [float(v) for v in popt]
    if not all(np.isfinite(params)):
        raise FitError(f"{what} decay fit returned non-finite parameters")
    return params


def fit_standard(stats) -> StandardFit:
    """Fit correct-outcome fractions to ``amplitude * base**l + 1/2``.

    ``stats`` is the correct-outcome half of :func:`per_length_stats`.
    """
    if len(stats) < 2:
        raise DataFormatError("standard fit needs at least two distinct lengths")
    lengths, means = _lengths_means(stats)
    excess = means - 0.5
    base0 = _rate_guess(lengths, excess, 1e-6, 1.0, 0.9)
    amp0 = float(np.clip(excess[0] / base0 ** lengths[0] if excess[0] > 0 else 0.4,
                         1e-6, 0.75))
    amplitude, base = _decay_fit("standard", standard_decay, stats,
                                 [amp0, base0], ([0.0, 1e-9], [0.75, 1.0]))
    return StandardFit(amplitude, base, stats)


def fit_leakage(stats, ls_ratio: float = 1.0) -> LeakageFit:
    """Fit pooled dark-outcome fractions to ``B * t**(l+1) + C``.

    ``stats`` is the dark-outcome half of :func:`per_length_stats`.
    ``ls_ratio`` is the expected leakage/seepage ratio of the interleaved
    channel (1 for measurement windows, below 1 when resets repump); it only
    seeds the optimiser's starting point via
    ``C0 = 1/(2(1+ratio))``, ``B0 = 1/2 - C0``.

    Derived quantities: ``leakage = 2B(1-t)``, ``seepage = 2C(1-t)``.
    """
    if ls_ratio <= 0:
        raise ValueError("ls_ratio must be positive")
    if len(stats) < 3:
        raise DataFormatError("leakage fit needs at least three distinct lengths")
    lengths, means = _lengths_means(stats)
    c0 = 1.0 / (2.0 * (1.0 + ls_ratio))
    t0 = _rate_guess(lengths, means - c0, 1e-3, 1.0 - 1e-9, 0.95)
    intercept, asymptote, t_minus = _decay_fit(
        "leakage", leakage_decay, stats,
        [0.5 - c0, c0, t0], ([0.0, 0.0, 1e-9], [1.0, 1.0, 1.0]))
    leakage = 2.0 * intercept * (1.0 - t_minus)
    seepage = 2.0 * asymptote * (1.0 - t_minus)
    return LeakageFit(intercept, asymptote, t_minus, leakage, seepage, stats)


def average_error(base: float, leakage: float) -> float:
    """Average error per interleaved cycle, ``(1 - base + leakage) / 2``."""
    return 0.5 * (1.0 - base + leakage)


@dataclass(frozen=True)
class ScatteringEstimates:
    """Crosstalk scattering probability per window, by two routes.

    ``standard`` inverts the ordinary decay (``3(1-base)/4``), ``leakage``
    inverts the population exchange (``2(1-t_minus)/3``).
    """

    standard: float
    leakage: float


def scattering_estimates(base: float, t_minus: float) -> ScatteringEstimates:
    return ScatteringEstimates(standard=0.75 * (1.0 - base),
                               leakage=(2.0 / 3.0) * (1.0 - t_minus))


# ---------------------------------------------------------------------------
# bootstrap and analysis


_BOOTSTRAP_FIELDS = ("amplitude", "base", "intercept", "asymptote", "t_minus",
                     "leakage", "seepage", "epsilon",
                     "scattering_standard", "scattering_leakage")


@dataclass(frozen=True)
class BootstrapResult:
    n_resamples: int
    failures: int
    sigmas: dict
    samples: dict = field(repr=False)


def bootstrap_analysis(dataset: RBDataset, n_resamples: int = 200,
                       seed=None, ls_ratio: float = 1.0) -> BootstrapResult:
    """Semi-parametric bootstrap of both decay fits.

    Each resample draws sequences with replacement within every length, then
    redraws each chosen sequence's counts binomially around its empirical
    dark rate, and refits.  More than 10% failed refits raises
    :class:`FitError` (the dataset does not support a stable analysis).
    """
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    rng = np.random.default_rng(seed)
    columns = _length_columns(dataset)
    samples: dict[str, list[float]] = {k: [] for k in _BOOTSTRAP_FIELDS}
    failures = 0
    for _ in range(n_resamples):
        resampled = []
        for length, shots, darks, targets in columns:
            picks = rng.integers(0, shots.size, shots.size)
            n = shots[picks]
            resampled.append((length, n, rng.binomial(n, darks[picks] / n),
                              targets[picks]))
        correct, dark = _stats(resampled)
        try:
            std = fit_standard(correct)
            leak = fit_leakage(dark, ls_ratio=ls_ratio)
        except FitError:
            failures += 1
            continue
        est = scattering_estimates(std.base, leak.t_minus)
        values = {**vars(std), **vars(leak),
                  "epsilon": average_error(std.base, leak.leakage),
                  "scattering_standard": est.standard,
                  "scattering_leakage": est.leakage}
        for name in _BOOTSTRAP_FIELDS:
            samples[name].append(values[name])
    if failures > BOOTSTRAP_FAILURE_BUDGET * n_resamples:
        raise FitError(
            f"bootstrap unstable: {failures}/{n_resamples} refits failed")
    arrays = {k: np.array(v) for k, v in samples.items()}
    sigmas = {k: float(a.std(ddof=1)) for k, a in arrays.items()}
    return BootstrapResult(n_resamples=n_resamples, failures=failures,
                           sigmas=sigmas, samples=arrays)


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the decay analysis of one dataset produces."""

    standard: StandardFit
    leakage_fit: LeakageFit
    epsilon: float
    scattering: ScatteringEstimates
    bootstrap: BootstrapResult | None
    lengths: tuple[int, ...]
    sequences_per_length: dict
    shots: tuple[int, ...]

    def sigma(self, name: str) -> float | None:
        if self.bootstrap is None:
            return None
        return self.bootstrap.sigmas.get(name)

    def to_dict(self) -> dict:
        out = {
            "lengths": list(self.lengths),
            "sequences_per_length": {str(k): v for k, v in
                                     sorted(self.sequences_per_length.items())},
            "shots": list(self.shots),
            "standard": asdict(self.standard),
            "leakage": asdict(self.leakage_fit),
            "epsilon": self.epsilon,
            "scattering_estimates": asdict(self.scattering),
        }
        if self.bootstrap is not None:
            out["bootstrap"] = {
                "n_resamples": self.bootstrap.n_resamples,
                "failures": self.bootstrap.failures,
                "sigmas": dict(sorted(self.bootstrap.sigmas.items())),
            }
        return out


def analyze_dataset(dataset: RBDataset, ls_ratio: float = 1.0,
                    resamples: int = 200, seed=None) -> AnalysisResult:
    """Run both decay fits plus the bootstrap (``resamples=0`` skips it)."""
    correct, dark = per_length_stats(dataset)
    std = fit_standard(correct)
    leak = fit_leakage(dark, ls_ratio=ls_ratio)
    boot = None
    if resamples:
        boot = bootstrap_analysis(dataset, n_resamples=resamples, seed=seed,
                                  ls_ratio=ls_ratio)
    counts = {s.length: s.n_sequences for s in correct}
    shots = tuple(sorted({r.shots for r in dataset.records}))
    return AnalysisResult(
        standard=std, leakage_fit=leak,
        epsilon=average_error(std.base, leak.leakage),
        scattering=scattering_estimates(std.base, leak.t_minus),
        bootstrap=boot, lengths=dataset.lengths,
        sequences_per_length=counts, shots=shots)


# ---------------------------------------------------------------------------
# focus-ion trajectory simulation


@dataclass(frozen=True)
class FocusModel(Config):
    """Classical error model of the measured/reset (focus) ion.

    Per measurement window a bright shot depumps to dark with probability
    ``depump_per_measure`` (before readout, persisting until a reset);
    readout then misreports with the confusion probabilities.  A reset leaves
    the state unchanged with probability ``reset_error``.  The pi-pulse is
    treated as calibration-grade (error-free); ``random_su2`` rerandomises
    the ion and the sampled ideal bit is the reference for error counting.
    """

    prep_flip: float = checked(0.0, ge=0.0, le=1.0)
    dark_to_bright: float = checked(0.0, ge=0.0, le=1.0)
    bright_to_dark: float = checked(0.0, ge=0.0, le=1.0)
    depump_per_measure: float = checked(0.0, ge=0.0, le=1.0)
    reset_error: float = checked(0.0, ge=0.0, le=1.0)


@dataclass(frozen=True)
class FocusRecord:
    """Error tally of one in-slot measurement: ``errors`` of ``shots`` wrong."""

    length: int
    seq_id: int
    slot: int
    meas_index: int
    shots: int
    errors: int


def simulate_focus(sequences, interleaved_ops, initial_state: int,
                   model: FocusModel, shots: int, seed=None) -> list[FocusRecord]:
    """Per-shot classical trajectories of the focus ion through every sequence.

    Returns one record per (sequence, slot, in-slot measurement).  Errors are
    counted against the ideal error-free trajectory, which is tracked
    alongside (after a ``random_su2`` the sampled random bit is the ideal).
    """
    if initial_state not in (0, 1):
        raise ConfigError("initial_state must be 0 or 1")
    if shots < 1:
        raise ConfigError("shots must be positive")
    for op in interleaved_ops:
        if op not in INTERLEAVED_OPS:
            raise ConfigError(f"unknown interleaved op {op!r}")
    rng = np.random.default_rng(seed)
    records = []
    for seq in sequences:
        state = np.full(shots, initial_state, dtype=np.int8)
        ideal = np.full(shots, initial_state, dtype=np.int8)
        if model.prep_flip > 0:
            flip = rng.random(shots) < model.prep_flip
            state[flip] ^= 1
        for slot in range(1, seq.length + 1):
            meas_index = 0
            for op in interleaved_ops:
                if op == "measure":
                    if model.depump_per_measure > 0:
                        drop = (state == 1) & (rng.random(shots) < model.depump_per_measure)
                        state[drop] = 0
                    confusion = np.where(state == 1, model.bright_to_dark,
                                         model.dark_to_bright)
                    outcome = np.where(rng.random(shots) < confusion, 1 - state, state)
                    records.append(FocusRecord(
                        length=seq.length, seq_id=seq.seq_id, slot=slot,
                        meas_index=meas_index, shots=shots,
                        errors=int(np.sum(outcome != ideal))))
                    meas_index += 1
                elif op == "reset":
                    keep = rng.random(shots) < model.reset_error
                    state = np.where(keep, state, 0).astype(np.int8)
                    ideal = np.zeros(shots, dtype=np.int8)
                elif op == "x_pi":
                    state = (1 - state).astype(np.int8)
                    ideal = (1 - ideal).astype(np.int8)
                elif op == "random_su2":
                    ideal = rng.integers(0, 2, shots).astype(np.int8)
                    state = ideal.copy()
    return records


def write_focus_csv(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FOCUS_HEADER)
        for r in records:
            writer.writerow([r.length, r.seq_id, r.slot, r.meas_index,
                             r.shots, r.errors])


def read_focus_csv(path) -> list[FocusRecord]:
    records = []
    for lineno, row in _read_csv(path, FOCUS_HEADER, "focus"):
        try:
            vals = [int(x) for x in row]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if len(vals) != len(FOCUS_HEADER):
            raise DataFormatError(f"{path}:{lineno}: wrong column count")
        rec = FocusRecord(*vals)
        if rec.length < 1 or rec.shots < 1:
            raise DataFormatError(f"{path}:{lineno}: length and shots must be positive")
        if not 0 <= rec.errors <= rec.shots:
            raise DataFormatError(f"{path}:{lineno}: errors outside [0, shots]")
        records.append(rec)
    return records


@dataclass(frozen=True)
class SpamReportEntry:
    """Pooled mid-circuit readout error of one in-slot measurement position."""

    meas_index: int
    shots: int
    errors: int
    rate: float
    sigma: float
    per_length: tuple  # (length, shots, errors, rate) rows


def spam_report(records) -> tuple[SpamReportEntry, ...]:
    """Aggregate focus records per measurement position and per depth.

    The per-length breakdown is what reveals depth-dependent SPAM (for
    example a bright ion slowly depumping when it is never reset).
    """
    by_meas: dict[int, list[FocusRecord]] = {}
    for r in records:
        by_meas.setdefault(r.meas_index, []).append(r)
    entries = []
    for meas_index, group in sorted(by_meas.items()):
        shots = sum(r.shots for r in group)
        errors = sum(r.errors for r in group)
        rate = errors / shots
        sigma = float(np.sqrt(max(rate * (1 - rate), 1.0 / shots) / shots))
        per_length = []
        by_len: dict[int, list[FocusRecord]] = {}
        for r in group:
            by_len.setdefault(r.length, []).append(r)
        for length, sub in sorted(by_len.items()):
            s = sum(r.shots for r in sub)
            e = sum(r.errors for r in sub)
            per_length.append((length, s, e, e / s))
        entries.append(SpamReportEntry(meas_index, shots, errors, rate, sigma,
                                       tuple(per_length)))
    return tuple(entries)


# ---------------------------------------------------------------------------
# experiment configuration and campaign running


@dataclass(frozen=True)
class ProbeSpec(Config):
    """Per-probe channel strengths and readout model."""

    measurement: ChannelSpec | None = None
    reset: ChannelSpec | None = None
    gate_depolarizing: float = checked(0.0, ge=0.0, le=4.0 / 3.0)
    spam: SpamModel = PERFECT_SPAM

    def __post_init__(self):
        super().__post_init__()
        for slot in ("measurement", "reset"):
            spec = getattr(self, slot)
            if spec is not None and spec.kind != slot:
                raise ConfigError(f"{slot}.kind must be {slot!r}, got {spec.kind!r}")

    def slot_channel(self, interleaved_ops) -> channels.LeakageChannel:
        """The error applied after each random Clifford, in op order."""
        steps = []
        if self.gate_depolarizing > 0:
            steps.append(channels.depolarizing(self.gate_depolarizing))
        for op in interleaved_ops:
            if op == "measure" and self.measurement is not None:
                steps.append(self.measurement.build())
            elif op == "reset" and self.reset is not None:
                steps.append(self.reset.build())
        if not steps:
            return channels.identity_channel()
        return channels.compose(*steps)


@dataclass(frozen=True)
class ExperimentConfig(Config):
    """One benchmarking experiment: interleaved ops, probes, focus, sampling."""

    name: str
    interleaved_ops: tuple[str, ...] = checked((), one_of=INTERLEAVED_OPS)
    initial_focus_state: int = checked(0, one_of=(0, 1))
    probes: dict[str, ProbeSpec] = field(default_factory=dict)
    focus: FocusModel = FocusModel()
    lengths: tuple[int, ...] = checked(DEFAULT_LENGTHS, ge=1)
    sequences_per_length: int = checked(DEFAULT_SEQUENCES_PER_LENGTH, ge=1)
    shots: int = checked(DEFAULT_SHOTS, ge=1)
    balanced: bool = True

    def __post_init__(self):
        super().__post_init__()
        for label in (self.name, *self.probes):
            if not label or not all(c.isalnum() or c in "-_" for c in label):
                raise ConfigError(f"experiment and probe names must be non-empty "
                                  f"[-_ alphanumeric], got {label!r}")
        if not self.probes:
            raise ConfigError("probes must name at least one probe")


def load_campaign(path) -> list[ExperimentConfig]:
    """Read a campaign JSON file: ``{"experiments": [...]}``."""
    data = load_json(path, "campaign")
    configs = parse(tuple[ExperimentConfig, ...], data.get("experiments"),
                    "experiments")
    if not configs:
        raise ConfigError(f"{path}: 'experiments' must be a non-empty list")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: duplicate experiment names")
    for i, c in enumerate(configs):
        if len(set(c.lengths)) < 3:  # the leakage fit's minimum
            raise ConfigError(f"experiments[{i}].lengths must hold at least "
                              f"three distinct lengths, got {list(c.lengths)}")
    return list(configs)


@dataclass(frozen=True)
class ChannelReference:
    """Exact figures of merit of the constructed slot channel (ground truth)."""

    base: float
    leakage: float
    seepage: float
    epsilon: float
    t_minus: float


def channel_reference(slot_channel) -> ChannelReference:
    base = channels.decay_base(slot_channel)
    leak, seep = channels.leakage_seepage(slot_channel)
    return ChannelReference(base=base, leakage=leak, seepage=seep,
                            epsilon=average_error(base, leak),
                            t_minus=1.0 - leak - seep)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    datasets: dict
    analyses: dict
    references: dict
    focus_records: tuple
    spam: tuple


def run_experiment(config: ExperimentConfig, seed=None,
                   resamples: int = 200) -> ExperimentResult:
    """Simulate and analyse one experiment end to end.

    One set of sequences is shared by all probes (they ride the same
    circuits); each probe gets its own sampling stream.  The leakage fit's
    starting ratio is taken from the probe's exact channel, which is
    available here because the data is synthetic.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seq_ss, focus_ss, probes_ss = ss.spawn(3)
    sequences = generate_sequences(
        config.lengths, config.sequences_per_length,
        seed=seq_ss, balanced=config.balanced)

    datasets, analyses, references = {}, {}, {}
    probe_children = probes_ss.spawn(len(config.probes))
    for child, (label, probe) in zip(probe_children,
                                     sorted(config.probes.items())):
        sample_ss, boot_ss = child.spawn(2)
        try:
            slot = probe.slot_channel(config.interleaved_ops)
        except ConfigError as exc:
            raise ConfigError(f"{config.name}: probes.{label}: {exc}") from exc
        ref = channel_reference(slot)
        ratio = ref.leakage / ref.seepage if ref.seepage > 1e-15 else 1.0
        dataset = simulate_dataset(sequences, slot, config.shots,
                                   spam=probe.spam, seed=sample_ss)
        analysis = analyze_dataset(dataset, ls_ratio=max(ratio, 1e-3),
                                   resamples=resamples, seed=boot_ss)
        datasets[label] = dataset
        analyses[label] = analysis
        references[label] = ref

    focus_records = tuple(simulate_focus(
        sequences, config.interleaved_ops, config.initial_focus_state,
        config.focus, config.shots, seed=focus_ss))
    return ExperimentResult(config=config, datasets=datasets,
                            analyses=analyses, references=references,
                            focus_records=focus_records,
                            spam=spam_report(focus_records))


def _run_campaign_job(args):
    config, entropy, resamples = args
    return run_experiment(config, seed=np.random.SeedSequence(entropy),
                          resamples=resamples)


def run_campaign(configs, seed=None, resamples: int = 200,
                 parallel: int = 1) -> list[ExperimentResult]:
    """Run every experiment with independent, reproducible seed streams."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(len(configs))
    jobs = [(cfg, child.entropy, resamples)
            for cfg, child in zip(configs, children)]
    if parallel > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(parallel, len(jobs))) as pool:
            return list(pool.map(_run_campaign_job, jobs))
    return [_run_campaign_job(job) for job in jobs]


def standard_experiments() -> list[ExperimentConfig]:
    """The canonical experiment set, from bare control to bleed-through.

    Covers: no interleaved ops (control), reset only, measurement with the
    focus ion dark or bright, measurement+reset in both focus configurations
    (the bright one re-excites the ion each slot), and a double
    measure/reset slot with a randomised focus ion (bleed-through).  One
    probe, ``"probe"``: ``gamma_t`` 2e-3 per measurement and 2e-4 per reset
    window, 2e-4 gate depolarizing, every other setting at its default.
    """
    probe = ProbeSpec(measurement=ChannelSpec("measurement", 2e-3),
                      reset=ChannelSpec("reset", 2e-4), gate_depolarizing=2e-4)
    common = {"probes": {"probe": probe}}
    return [
        ExperimentConfig(name="control", interleaved_ops=(), **common),
        ExperimentConfig(name="reset", interleaved_ops=("reset",), **common),
        ExperimentConfig(name="measure-dark", interleaved_ops=("measure",),
                         **common),
        ExperimentConfig(name="measure-bright", interleaved_ops=("measure",),
                         initial_focus_state=1, **common),
        ExperimentConfig(name="measure-reset-dark",
                         interleaved_ops=("measure", "reset"), **common),
        ExperimentConfig(name="measure-reset-bright",
                         interleaved_ops=("measure", "reset", "x_pi"),
                         initial_focus_state=1, **common),
        ExperimentConfig(name="bleed-through",
                         interleaved_ops=("random_su2", "measure", "reset",
                                          "measure", "reset"), **common),
    ]
