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
* closed-form decay coefficients from the channel's figures of merit,
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
# No code in this package calls ``curve_fit``: the traced benchmark wraps
# ``rb.curve_fit`` (``perfbench/layers.py``) until ROADMAP item 1 retires that wrap.
from scipy.optimize import curve_fit  # noqa: F401

from . import channels, clifford, liouville
from .channels import ChannelSpec  # rb.ChannelSpec; resolves the ProbeSpec hints
from .config import INT64_MAX, Config, checked, load_json
from .errors import ConfigError, DataFormatError, FitError

DEFAULT_LENGTHS = (2, 11, 81)
DEFAULT_SEQUENCES_PER_LENGTH = 40
DEFAULT_SHOTS = 100
#: size limits of an experiment: the longest sequence, the number of
#: lengths and the sequences per length (each runs as long as it is asked to)
MAX_LENGTH = 100_000
MAX_LENGTHS = 64
MAX_SEQUENCES_PER_LENGTH = 100_000
#: most shots of one length, ``sequences_per_length * shots``: the focus
#: simulation holds several (sequences, shots) arrays of them at once
MAX_SHOTS_PER_LENGTH = 10_000_000

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
    if any(l < 1 for l in lengths) or len(set(lengths)) != len(lengths):
        raise ConfigError(f"sequence lengths must be positive and distinct, "
                          f"got {list(lengths)}")
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

    The Clifford average reduces the reachable dynamics to the qubit Pauli
    block (factor ``base`` per step) plus the exchange ``[[1-L, S], [L, 1-S]]``
    on the identity components ``(0, 4)``.  For effect ``e`` and preparation
    ``p`` its powers give the ``t_minus`` branch ``(e0-e4)(L p0 - S p4)/(L+S)``
    and the constant ``(S e0 + L e4)(p0+p4)/(L+S)``, or ``e0 p0 + e4 p4``
    alone when ``L + S = 0``.
    """
    tw = channels.twirl(slot_channel)
    leak, seep = tw.leakage, tw.seepage
    total = leak + seep
    degenerate = total < 1e-15
    prep = spam.prep_vector()
    p0, p4 = prep[0], prep[4]

    amplitudes, intercepts, asymptotes = {}, {}, {}
    for k, effect in enumerate((spam.dark_effect(), spam.bright_effect())):
        e0, e4 = effect[0], effect[4]
        if degenerate:
            intercepts[k] = 0.0
            asymptotes[k] = float(e0 * p0 + e4 * p4)
        else:
            intercepts[k] = float((e0 - e4) * (leak * p0 - seep * p4) / total)
            asymptotes[k] = float((seep * e0 + leak * e4) * (p0 + p4) / total)
        for label in PAULI_LABELS:
            pauli_gate = clifford.superop(clifford.pauli_element(label))
            amplitudes[(label, k)] = float(effect @ pauli_gate[:, 1:4] @ prep[1:4])
    return DecayCoefficients(base=tw.base, t_minus=tw.t_minus,
                             amplitudes=amplitudes, intercepts=intercepts,
                             asymptotes=asymptotes, degenerate=degenerate)


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
            if r.shots > INT64_MAX:
                raise DataFormatError(f"shots beyond the int64 range in record {r}")
            if r.seq_id < 0:
                raise DataFormatError(f"negative seq_id in record {r}")
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


def _mean_sem(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the mean over the last axis (0 for one value)."""
    n = values.shape[-1]
    sem = values.std(-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(values.shape[:-1])
    return values.mean(-1), sem


def _fractions(shots, darks, targets) -> tuple[np.ndarray, np.ndarray]:
    """Correct-outcome and dark-outcome fraction of every sequence."""
    return np.where(targets == 0, darks, shots - darks) / shots, darks / shots


def per_length_stats(dataset: RBDataset) -> tuple[tuple[PerLengthStats, ...],
                                                  tuple[PerLengthStats, ...]]:
    """Per-length (correct-outcome, dark-outcome) statistics: the fits' input."""
    correct, dark = [], []
    for length, shots, darks, targets in _length_columns(dataset):
        for out, values in zip((correct, dark), _fractions(shots, darks, targets)):
            out.append(PerLengthStats(length, values.size, *map(float, _mean_sem(values))))
    return tuple(correct), tuple(dark)


def standard_decay(length, amplitude, base):
    """Correct-outcome decay law ``amplitude * base**length + 1/2``."""
    return amplitude * base ** length + 0.5


def leakage_decay(length, intercept, asymptote, t_minus):
    """Pooled dark-outcome decay law ``intercept * t_minus**(length+1) + asymptote``."""
    return intercept * t_minus ** (length + 1.0) + asymptote


#: bounds of every fitted parameter; the floor of the two decay rates keeps
#: ``rate**length`` positive
PARAMETER_BOUNDS = {"amplitude": (0.0, 0.75), "base": (1e-9, 1.0),
                    "intercept": (0.0, 1.0), "asymptote": (0.0, 1.0),
                    "t_minus": (1e-9, 1.0)}
_RATE_FLOOR = PARAMETER_BOUNDS["base"][0]
#: coarse grid of the profile search, in ``-ln(rate)``: rate 1, ten points
#: per e-fold from 1e-9 on, and a hair past the floor's exponent (the rate
#: is clipped exactly onto the floor there)
_GRID = np.concatenate((
    [0.0], np.exp(np.arange(np.log(1e-9), np.log(-np.log(_RATE_FLOOR)), 0.1)),
    [-np.log(_RATE_FLOOR) + 1e-9]))
#: halvings of the refinement bracket: a bracket of two coarse spacings
#: (a fifth of its exponent) shrinks to about 2e-10 of its exponent
_BISECTIONS = 30
#: lanes per block of the coarse grid, which bounds its temporaries
_GRID_LANES = 16
#: bootstrap resamples drawn together, one length at a time
_RESAMPLE_BLOCK = 64


def _lane_weights(sems: np.ndarray) -> np.ndarray:
    """``1/sem**2`` per length, or 1 for every length of a lane with a zero SEM."""
    weighted = np.all(sems > 0, axis=-1, keepdims=True)
    return np.where(weighted, 1.0 / np.where(weighted, sems, 1.0) ** 2, 1.0)


def _weighted_cost(w, residuals):
    return (w * residuals * residuals).sum(-1)


def _clipped_ratio(num, den, hi: float):
    """``clip(num / den, 0, hi)`` for ``den >= 0``, 0 where ``den == 0``: ``num`` is
    clipped first, so no quotient overflows, and a clipped quotient is ``hi`` exactly."""
    top, positive = hi * den, den > 0
    ratio = np.divide(np.minimum(np.maximum(num, 0.0), top), den,
                      out=np.zeros(np.shape(den)), where=positive)
    return np.where(positive & (num >= top), hi, ratio)


def _lane_sums(x, v):
    """``sum x v`` over lengths as (lanes, points): ``v`` is (lanes, lengths), ``x``
    (points, lengths) shared by every lane or (lanes, points, lengths)."""
    return (x @ v[..., None])[..., 0]


def _amplitude_fit(x, y, w):
    """Bounded amplitude minimising ``sum w (y - 1/2 - A x)**2`` for every lane
    and point of ``x`` (:func:`_lane_sums`): the (lanes, points) cost and ``(A,)``.

    The cost of ``A`` is ``sum w r**2 - A (2 sum w x r - A sum w x**2)``
    with ``r = y - 1/2``.
    """
    r = y - 0.5
    wr = w * r
    sxr, sxx = _lane_sums(x, wr), _lane_sums(x * x, w)
    amplitude = _clipped_ratio(sxr, sxx, PARAMETER_BOUNDS["amplitude"][1])
    return (wr * r).sum(-1)[:, None] - amplitude * (2.0 * sxr - amplitude * sxx), (amplitude,)


def _intercept_asymptote_fit(x, y, w):
    """``(B, C)`` in [0, 1]**2 minimising ``sum w (y - B x - C)**2`` for every
    lane and point of ``x`` (:func:`_lane_sums`): the (lanes, points) cost and ``(B, C)``.

    The cost is a convex quadratic on a box, so its minimum is the free one
    when that is feasible and otherwise lies on an edge: the cheapest of
    the feasible free solution and the four edge solutions (B = 0, B = 1,
    C = 0, C = 1, each a clipped one-dimensional fit, corners included) is
    exact.  Clipping B and C one at a time is not.

    The sums hold spreads, not offsets: ``u = x - x_ref`` shifts each rate's
    ``x`` by its mean over lengths and ``y~ = y - y_mean`` centres each lane
    on its weighted mean.  With ``d = y_mean - C - B x_ref`` the cost of
    (B, C) is ``sum w (y~ - B u + d)**2 = sum w y~**2 + B (B sum w u**2
    - 2 sum w u y~ - 2 d sum w u) + d**2 sum w``.
    """
    x_ref = x.mean(-1)
    u = x - x_ref[..., None]
    sw = w.sum(-1)[:, None]
    y_mean = (w * y).sum(-1)[:, None] / sw
    y_c = y - y_mean
    su, suu, suy = _lane_sums(u, w), _lane_sums(u * u, w), _lane_sums(u, w * y_c)
    # the weighted sums of x, x**2, x y about the origin and about the means
    x_mean = x_ref + su / sw
    sxx_c = suu - su * su / sw
    sx, sxx, sxy = sw * x_mean, sxx_c + sw * x_mean * x_mean, suy + sw * x_mean * y_mean
    b, c = np.empty((5, *sxx.shape)), np.empty((5, *sxx.shape))
    b[0] = _clipped_ratio(suy, sxx_c, 1.0)
    c[0] = y_mean - b[0] * x_mean
    b[1], c[1] = 0.0, np.minimum(np.maximum(y_mean, 0.0), 1.0)
    b[2], c[2] = 1.0, np.minimum(np.maximum(y_mean - x_mean, 0.0), 1.0)
    b[3], c[3] = _clipped_ratio(sxy, sxx, 1.0), 0.0
    b[4], c[4] = _clipped_ratio(sxy - sx, sxx, 1.0), 1.0
    free = (sxx_c > 0) & (suy >= 0) & (suy <= sxx_c) & (c[0] >= 0) & (c[0] <= 1)
    d = y_mean - c - b * x_ref
    cost = (w * y_c * y_c).sum(-1)[:, None] + b * (b * suu - 2.0 * (suy + d * su)) + d * d * sw
    cost[0] = np.where(free, cost[0], np.inf)
    best = cost.min(0)
    b_best, c_best = b[4], c[4]
    for k in (3, 2, 1, 0):  # the first cheapest candidate wins (an argmin is slower)
        hit = cost[k] == best
        b_best, c_best = np.where(hit, b[k], b_best), np.where(hit, c[k], c_best)
    return best, (b_best, c_best)


@dataclass(frozen=True)
class _Law:
    """A decay law as the fits see it: linear in all parameters but its rate."""

    model: object
    #: ``linear_fit(rate**(length + exponent_offset), means, weights)``
    #: returns the (lanes, points) minimal cost and optimal linear parameters
    linear_fit: object
    exponent_offset: float
    #: parameter names in model order, rate last
    params: tuple[str, ...]


_LAWS = {"standard": _Law(standard_decay, _amplitude_fit, 0.0, ("amplitude", "base")),
         "leakage": _Law(leakage_decay, _intercept_asymptote_fit, 1.0,
                         ("intercept", "asymptote", "t_minus"))}


def _profile_slope(law: str, lengths, means, w, params) -> np.ndarray:
    """Slope of the profiled cost in ``s = -ln(rate)`` at ``params`` (the fitted
    linear parameters, then the rate, as (lanes,) arrays).

    By the envelope theorem it is the partial derivative there,
    ``2 scale sum w r e x``: the law's first parameter as ``scale``,
    residuals ``r``, ``e = lengths + exponent_offset`` and ``x = rate**e``.
    It is exactly 0 where ``scale`` is 0.
    """
    spec = _LAWS[law]
    columns = [p[..., None] for p in params]
    e = lengths + spec.exponent_offset
    residuals = means - spec.model(lengths, *columns)
    return 2.0 * params[0] * (w * residuals * e * columns[-1] ** e).sum(-1)


def _profile_fit(law: str, lengths, means, sems) -> tuple[np.ndarray, ...]:
    """Bounded weighted least squares of one decay law on every lane at once.

    Variable projection: given the decay rate ``r``, the law is linear in
    its other parameters, which its ``linear_fit`` solves in closed form.
    The profiled cost is searched over ``s = -ln r`` for ``r`` in [1e-9,
    1].  A coarse grid in ``s`` brackets its global minimum between the best
    point's two neighbours, then bisection on the sign of the cost's slope
    (:func:`_profile_slope`) halves the bracket :data:`_BISECTIONS` times,
    one point per lane and step.  The boxes of the linear parameters do not
    depend on ``s``, so the profiled cost is smooth wherever the box optimum
    is unique, also where a bound becomes active.  The cheapest of the
    final bracket's midpoint, the best coarse point and both bounds wins, a
    tie going to rate 1, then the floor, then the coarse point (a leakage
    lane with B = 0 costs the same at every rate and reports 1).  The
    coarse grid is scored by ``linear_fit``'s cost, which it forms from
    weighted sums; the final pick scores its four candidates from their
    residuals, which round less where the fit is close.  ``means`` and
    ``sems`` are (lanes, lengths) arrays; returns the law's parameters,
    rate last, as (lanes,) arrays.  A lane with non-finite statistics gets
    non-finite parameters.
    """
    w = _lane_weights(sems)
    spec = _LAWS[law]
    exponents = lengths + spec.exponent_offset

    def solve(exponent):  # (lanes, points) -> parameters, rate last, each (lanes, points)
        rate = np.clip(np.exp(-exponent), _RATE_FLOOR, 1.0)
        return (*spec.linear_fit(rate[..., None] ** exponents, means, w)[1], rate)

    n = len(means)
    x = np.clip(np.exp(-_GRID), _RATE_FLOOR, 1.0)[:, None] ** exponents
    coarse = np.concatenate([
        np.argmin(spec.linear_fit(x, means[i:i + _GRID_LANES], w[i:i + _GRID_LANES])[0],
                  axis=-1)
        for i in range(0, n, _GRID_LANES)])
    lo = _GRID[np.maximum(coarse - 1, 0)]
    hi = _GRID[np.minimum(coarse + 1, _GRID.size - 1)]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        params = [p[:, 0] for p in solve(mid[:, None])]
        rising = _profile_slope(law, lengths, means, w, params) > 0
        lo, hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
    tried = np.stack([np.full(n, _GRID[0]), np.full(n, _GRID[-1]), _GRID[coarse],
                      0.5 * (lo + hi)], axis=-1)
    params = solve(tried)
    model = spec.model(lengths, *(p[..., None] for p in params))
    pick = np.argmin(_weighted_cost(w[:, None], means[:, None] - model), axis=-1)[:, None]
    return tuple(np.take_along_axis(p, pick, -1)[:, 0] for p in params)


def _fit(law: str, stats) -> list[float]:
    """One lane of :func:`_profile_fit`."""
    lengths, means, sems = (np.array([getattr(s, f) for s in stats], dtype=float)
                            for f in ("length", "mean", "sem"))
    params = [float(p[0]) for p in _profile_fit(law, lengths, means[None], sems[None])]
    if not all(np.isfinite(params)):
        raise FitError(f"{law} decay fit returned non-finite parameters")
    return params


def fit_standard(stats) -> StandardFit:
    """Fit correct-outcome fractions to ``amplitude * base**l + 1/2``.

    ``stats`` is the correct-outcome half of :func:`per_length_stats`.
    """
    if len(stats) < 2:
        raise DataFormatError("standard fit needs at least two distinct lengths")
    amplitude, base = _fit("standard", stats)
    return StandardFit(amplitude, base, stats)


def _leakage_seepage(intercept, asymptote, t_minus):
    """``leakage = 2B(1-t)``, ``seepage = 2C(1-t)`` from the pooled dark decay."""
    return 2.0 * intercept * (1.0 - t_minus), 2.0 * asymptote * (1.0 - t_minus)


def fit_leakage(stats, ls_ratio: float = 1.0) -> LeakageFit:
    """Fit pooled dark-outcome fractions to ``B * t**(l+1) + C``.

    ``stats`` is the dark-outcome half of :func:`per_length_stats`.
    ``ls_ratio`` (the expected leakage/seepage ratio) is ignored: the
    search over ``t`` is global and needs no starting point.  It must still
    be positive.

    Derived quantities: ``leakage = 2B(1-t)``, ``seepage = 2C(1-t)``.
    """
    if ls_ratio <= 0:
        raise ValueError("ls_ratio must be positive")
    if len(stats) < 3:
        raise DataFormatError("leakage fit needs at least three distinct lengths")
    intercept, asymptote, t_minus = _fit("leakage", stats)
    return LeakageFit(intercept, asymptote, t_minus,
                      *_leakage_seepage(intercept, asymptote, t_minus), stats)


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
    """Refit samples of every resample that did not fail, and their spread.

    ``at_bound`` counts, per fitted parameter, the refits that ended on one
    of its :data:`PARAMETER_BOUNDS`; they count as successful refits.
    ``unidentified`` counts the successful leakage refits whose intercept B
    is exactly 0: their cost does not depend on ``t_minus``, which the tie
    rule of :func:`_profile_fit` then reports as 1.  Neither count is
    written to the results files.
    """

    n_resamples: int
    failures: int
    sigmas: dict
    samples: dict = field(repr=False)
    at_bound: dict = field(default_factory=dict)
    unidentified: int = 0


def _resample_stats(dataset: RBDataset, n_resamples: int, rng) -> np.ndarray:
    """Per-length statistics of every bootstrap resample.

    Each resample draws sequences with replacement within every length, then
    redraws each chosen sequence's counts binomially around its empirical
    dark rate.  Returns the (correct mean, correct SEM, dark mean, dark SEM)
    stack, shape ``(4, n_resamples, lengths)``.  Draw order: resamples come
    in blocks of at most ``_RESAMPLE_BLOCK``; per block and per length, one
    ``rng.integers`` call picks the sequences of all the block's resamples
    as a (resamples, sequences) array and one ``rng.binomial`` call redraws
    their counts, so memory is bounded by one block of one length.
    """
    columns = _length_columns(dataset)
    stats = np.empty((4, n_resamples, len(columns)))
    for start in range(0, n_resamples, _RESAMPLE_BLOCK):
        block = slice(start, min(start + _RESAMPLE_BLOCK, n_resamples))
        for k, (_, shots, darks, targets) in enumerate(columns):
            picks = rng.integers(0, shots.size, (block.stop - start, shots.size))
            n = shots[picks]
            fractions = _fractions(n, rng.binomial(n, darks[picks] / n), targets[picks])
            stats[0::2, block, k], stats[1::2, block, k] = _mean_sem(np.stack(fractions))
    return stats


def bootstrap_analysis(dataset: RBDataset, n_resamples: int = 200,
                       seed=None) -> BootstrapResult:
    """Semi-parametric bootstrap of both decay fits.

    Resamples as :func:`_resample_stats` describes, then refits both laws
    for all resamples at once (:func:`_profile_fit`).  A refit with a
    non-finite parameter fails; more than 10% failed refits raises
    :class:`FitError` (the dataset does not support a stable analysis).
    """
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    stats = _resample_stats(dataset, n_resamples, np.random.default_rng(seed))
    lengths = np.array(dataset.lengths, dtype=float)
    values = {}
    for law, means, sems in (("standard", *stats[:2]), ("leakage", *stats[2:])):
        values.update(zip(_LAWS[law].params, _profile_fit(law, lengths, means, sems)))
    values["leakage"], values["seepage"] = _leakage_seepage(
        values["intercept"], values["asymptote"], values["t_minus"])
    values["epsilon"] = average_error(values["base"], values["leakage"])
    est = scattering_estimates(values["base"], values["t_minus"])
    values["scattering_standard"], values["scattering_leakage"] = est.standard, est.leakage
    ok = np.all([np.isfinite(v) for v in values.values()], axis=0)
    failures = n_resamples - int(ok.sum())
    if failures > BOOTSTRAP_FAILURE_BUDGET * n_resamples:
        raise FitError(
            f"bootstrap unstable: {failures}/{n_resamples} refits failed")
    samples = {k: values[k][ok] for k in _BOOTSTRAP_FIELDS}
    sigmas = {k: float(a.std(ddof=1)) for k, a in samples.items()}
    at_bound = {k: int(np.isin(samples[k], bounds).sum())
                for k, bounds in PARAMETER_BOUNDS.items()}
    return BootstrapResult(n_resamples=n_resamples, failures=failures,
                           sigmas=sigmas, samples=samples, at_bound=at_bound,
                           unidentified=int(np.sum(samples["intercept"] == 0.0)))


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
    """Run both decay fits plus the bootstrap (``resamples=0`` skips it).

    ``ls_ratio`` is ignored, as by :func:`fit_leakage`, and must be positive.
    """
    correct, dark = per_length_stats(dataset)
    std = fit_standard(correct)
    leak = fit_leakage(dark, ls_ratio=ls_ratio)
    boot = None
    if resamples:
        boot = bootstrap_analysis(dataset, n_resamples=resamples, seed=seed)
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


def simulate_focus(sequences, interleaved_ops, initial_state: int,
                   model: FocusModel, shots: int, seed=None) -> np.ndarray:
    """Per-shot classical trajectories of the focus ion through every sequence.

    Returns an int64 table with columns :data:`FOCUS_HEADER`, one row per
    (sequence, slot, in-slot measurement) in that order.  Errors are counted
    against the ideal error-free trajectory, which is tracked alongside
    (after a ``random_su2`` the sampled random bit is the ideal).  All
    sequences of one length run together as ``(n_seq, shots)`` arrays, one
    length at a time in order of first appearance.
    """
    if initial_state not in (0, 1):
        raise ConfigError("initial_state must be 0 or 1")
    if shots < 1:
        raise ConfigError("shots must be positive")
    for op in interleaved_ops:
        if op not in INTERLEAVED_OPS:
            raise ConfigError(f"unknown interleaved op {op!r}")
    rng = np.random.default_rng(seed)
    n_meas = tuple(interleaved_ops).count("measure")
    if not n_meas:  # nothing is read out
        return np.empty((0, len(FOCUS_HEADER)), dtype=np.int64)
    lengths = np.array([s.length for s in sequences], dtype=np.int64)
    seq_ids = np.array([s.seq_id for s in sequences], dtype=np.int64)
    n_rows = lengths * n_meas
    first_row = np.cumsum(n_rows) - n_rows
    seq = np.repeat(np.arange(len(sequences)), n_rows)
    within = np.arange(n_rows.sum()) - first_row[seq]
    table = np.column_stack([lengths[seq], seq_ids[seq], within // n_meas + 1,
                             within % n_meas, np.full_like(seq, shots),
                             np.zeros_like(seq)])
    for length in dict.fromkeys(lengths.tolist()):
        members = np.flatnonzero(lengths == length)
        size = (members.size, shots)
        state = np.full(size, initial_state, dtype=np.int8)
        ideal = state.copy()
        if model.prep_flip > 0:
            state ^= rng.random(size) < model.prep_flip
        errors = []
        for _ in range(length):
            for op in interleaved_ops:
                if op == "measure":
                    if model.depump_per_measure > 0:
                        state[(state == 1) & (rng.random(size) < model.depump_per_measure)] = 0
                    confusion = np.where(state == 1, model.bright_to_dark,
                                         model.dark_to_bright)
                    outcome = state ^ (rng.random(size) < confusion)
                    errors.append(np.sum(outcome != ideal, axis=1))
                elif op == "reset":
                    state[rng.random(size) >= model.reset_error] = 0
                    ideal = np.zeros_like(state)
                elif op == "x_pi":
                    state, ideal = 1 - state, 1 - ideal
                elif op == "random_su2":
                    ideal = rng.integers(0, 2, size).astype(np.int8)
                    state = ideal.copy()
        rows = first_row[members, None] + np.arange(length * n_meas)
        table[rows, 5] = np.stack(errors, axis=1)
    return table


def write_focus_csv(records, path) -> None:
    """Write a focus table (columns :data:`FOCUS_HEADER`) as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FOCUS_HEADER)
        writer.writerows(np.asarray(records, dtype=np.int64).tolist())


def read_focus_csv(path) -> np.ndarray:
    """Read a focus CSV back into the int64 table :func:`simulate_focus` returns."""
    rows, linenos = [], []
    for lineno, row in _read_csv(path, FOCUS_HEADER, "focus"):
        try:
            vals = [int(x) for x in row]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if len(vals) != len(FOCUS_HEADER):
            raise DataFormatError(f"{path}:{lineno}: wrong column count")
        if any(abs(v) > INT64_MAX for v in vals):
            raise DataFormatError(f"{path}:{lineno}: value outside the int64 range")
        rows.append(vals)
        linenos.append(lineno)
    table = np.array(rows, dtype=np.int64).reshape(-1, len(FOCUS_HEADER))
    length, seq_id, slot, meas_index, shots, errors = table.T
    repeated = np.ones(len(table), dtype=bool)
    repeated[np.unique(table[:, :4], axis=0, return_index=True)[1]] = False
    for bad, what in (((length < 1) | (shots < 1), "length and shots must be positive"),
                      ((errors < 0) | (errors > shots), "errors outside [0, shots]"),
                      ((slot < 1) | (slot > length), "slot outside [1, length]"),
                      ((seq_id < 0) | (meas_index < 0),
                       "seq_id and meas_index must be non-negative"),
                      (repeated, "repeats a (length, seq_id, slot, meas_index) key")):
        if bad.any():
            raise DataFormatError(f"{path}:{linenos[int(bad.argmax())]}: {what}")
    return table


@dataclass(frozen=True)
class SpamReportEntry:
    """Pooled mid-circuit readout error of one in-slot measurement position.

    ``sigma`` is the standard error of ``rate`` over sequences: one focus
    trajectory is read out in every slot of its sequence, so its readouts
    share depumping and preparation errors and the sequence, not the
    readout, is the independent unit.
    """

    meas_index: int
    shots: int
    errors: int
    rate: float
    sigma: float
    per_length: tuple  # (length, shots, errors, rate) rows


def spam_report(records) -> tuple[SpamReportEntry, ...]:
    """Aggregate a focus table per measurement position and per depth.

    The per-length breakdown is what reveals depth-dependent SPAM (for
    example a bright ion slowly depumping when it is never reset).  The
    sigma of each pooled rate comes from the spread of the per-sequence
    error totals within each length (sequences of one length are
    independent draws of the same process), and is never below the
    binomial value ``sqrt(max(rate (1-rate), 1/shots) / shots)``.
    """
    table = np.asarray(records, dtype=np.int64).reshape(-1, len(FOCUS_HEADER))
    # one cluster per (meas_index, length, seq_id), one group per (meas_index, length)
    clusters, in_cluster = np.unique(table[:, [3, 0, 1]], axis=0, return_inverse=True)
    groups, cluster_group = np.unique(clusters[:, :2], axis=0, return_inverse=True)
    in_cluster, cluster_group = in_cluster.ravel(), cluster_group.ravel()
    # (shots, errors) per group as Python ints: int64 sums could wrap
    counts = np.zeros((len(groups), 2), dtype=object)
    np.add.at(counts, cluster_group[in_cluster], table[:, 4:].astype(object))
    # variance of each group's error total from its m sequences: m * s^2
    cluster_errors = np.bincount(in_cluster, weights=table[:, 5].astype(float))
    variance = np.zeros(len(groups))
    for g in range(len(groups)):
        errors = cluster_errors[cluster_group == g]
        if errors.size > 1:
            variance[g] = errors.size * errors.var(ddof=1)
    entries = []
    for meas_index in np.unique(groups[:, 0]).tolist():
        rows = groups[:, 0] == meas_index
        per_length = tuple((length, s, e, e / s) for (_, length), (s, e)
                           in zip(groups[rows].tolist(), counts[rows].tolist()))
        shots, errors = counts[rows].sum(axis=0).tolist()
        rate = errors / shots
        binomial = float(np.sqrt(max(rate * (1 - rate), 1.0 / shots) / shots))
        sigma = max(binomial, float(np.sqrt(variance[rows].sum())) / shots)
        entries.append(SpamReportEntry(meas_index, shots, errors, rate, sigma,
                                       per_length))
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
    lengths: tuple[int, ...] = checked(DEFAULT_LENGTHS, ge=1, le=MAX_LENGTH)
    sequences_per_length: int = checked(DEFAULT_SEQUENCES_PER_LENGTH, ge=1,
                                        le=MAX_SEQUENCES_PER_LENGTH)
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
        if len(set(self.lengths)) != len(self.lengths):
            raise ConfigError(f"lengths must not repeat a length, got {list(self.lengths)}")
        if len(self.lengths) > MAX_LENGTHS:
            raise ConfigError(f"lengths must hold at most {MAX_LENGTHS} lengths, "
                              f"got {len(self.lengths)}")
        if self.sequences_per_length * self.shots > MAX_SHOTS_PER_LENGTH:
            raise ConfigError(f"sequences_per_length * shots must be <= "
                              f"{MAX_SHOTS_PER_LENGTH}, got "
                              f"{self.sequences_per_length * self.shots}")


@dataclass(frozen=True)
class Campaign(Config):
    """The root object of a campaign JSON file."""

    experiments: tuple[ExperimentConfig, ...]


def load_campaign(path) -> list[ExperimentConfig]:
    """Read a campaign JSON file: ``{"experiments": [...]}``."""
    configs = Campaign.from_dict(load_json(path, "campaign")).experiments
    if not configs:
        raise ConfigError(f"{path}: 'experiments' must be a non-empty list")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: duplicate experiment names")
    for i, c in enumerate(configs):
        if len(c.lengths) < 3:  # the leakage fit's minimum
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
    focus_records: np.ndarray  # simulate_focus table
    spam: tuple


def run_experiment(config: ExperimentConfig, seed=None,
                   resamples: int = 200) -> ExperimentResult:
    """Simulate and analyse one experiment end to end.

    One set of sequences is shared by all probes (they ride the same
    circuits); each probe gets its own sampling stream.  The probe's exact
    channel gives the reference figures of merit; the analysis never reads
    it.
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
        dataset = simulate_dataset(sequences, slot, config.shots,
                                   spam=probe.spam, seed=sample_ss)
        datasets[label] = dataset
        analyses[label] = analyze_dataset(dataset, resamples=resamples, seed=boot_ss)
        references[label] = channel_reference(slot)

    focus_records = simulate_focus(
        sequences, config.interleaved_ops, config.initial_focus_state,
        config.focus, config.shots, seed=focus_ss)
    return ExperimentResult(config=config, datasets=datasets,
                            analyses=analyses, references=references,
                            focus_records=focus_records,
                            spam=spam_report(focus_records))


def _run_campaign_job(args):
    config, seed, resamples = args
    return run_experiment(config, seed=seed, resamples=resamples)


def run_campaign(configs, seed=None, resamples: int = 200,
                 parallel: int = 1) -> list[ExperimentResult]:
    """Run every experiment with independent, reproducible seed streams.

    Experiment ``i`` runs on child ``i`` of ``SeedSequence(seed).spawn(n)``
    (the child itself, spawn key included, so no two experiments share a
    stream), whether the campaign runs serially or in parallel.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    jobs = [(cfg, child, resamples)
            for cfg, child in zip(configs, ss.spawn(len(configs)))]
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
