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
  and a nonparametric bootstrap over sequences,
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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

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
#: most Clifford indices of one experiment, ``sequences_per_length *
#: sum(lengths)``: the sequences hold each one as a Python int, and their
#: generation one length's at a time as an int64 array
MAX_CLIFFORDS = 10_000_000

#: CSV rows formatted per write, and sequences propagated at once by
#: :func:`survival_dark_probabilities`: the text and the (rows, 16, 16) gate
#: stack held at once stay small beside a fit's arrays (65,536 CSV rows
#: raised a 100,000-point depump's peak RSS 2%)
_ROW_BLOCK = 1 << 10

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


def curve_fit(*args, **kwargs):
    """``scipy.optimize.curve_fit``, imported when called.  No code here calls
    it: it is only the name the traced benchmark wraps, until ROADMAP item 1
    retires that wrap, and this with it."""
    from scipy.optimize import curve_fit as scipy_curve_fit
    return scipy_curve_fit(*args, **kwargs)


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

    Draw order, per length: the labels, then every sequence's Clifford
    indices in one ``rng.integers`` call, row by row (the stream of one
    call per sequence).  The inversion gates of a length are folded
    together, one product-table lookup per position.
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

    product, inverse = clifford.product_table(), clifford.inverse_table()
    pauli_index = {label: clifford.pauli_element(label).index for label in PAULI_LABELS}
    sequences = []
    for length in lengths:
        if balanced:
            half = sequences_per_length // 2
            labels = list(rng.choice(_DARK_PAULIS, half))
            labels += list(rng.choice(_BRIGHT_PAULIS, half))
            labels = [str(labels[i]) for i in rng.permutation(sequences_per_length)]
        else:
            labels = [str(label) for label in rng.choice(PAULI_LABELS, sequences_per_length)]
        indices = rng.integers(0, clifford.GROUP_ORDER, (sequences_per_length, length))
        net = np.zeros(sequences_per_length, dtype=np.intp)
        for column in indices.T:
            net = product[column, net]
        inversions = product[[pauli_index[label] for label in labels], inverse[net]]
        for seq_id, (label, row, inv) in enumerate(zip(labels, indices, inversions.tolist())):
            sequences.append(RBSequence(
                length=length, seq_id=seq_id, clifford_indices=tuple(row.tolist()),
                pauli=label, inversion_index=inv,
                target_outcome=clifford.target_outcome(label)))
    return sequences


# ---------------------------------------------------------------------------
# exact survival


def survival_dark_probabilities(sequences, slot_channel,
                                spam: SpamModel = PERFECT_SPAM) -> np.ndarray:
    """Dark-outcome probability of every sequence, exactly.

    ``slot_channel`` is the error applied after every random Clifford (the
    interleaved crosstalk, composed with any gate error); the inversion gate
    is applied clean.  Sequences of one length propagate together, one
    length at a time in order of first appearance, in blocks of at most
    ``_ROW_BLOCK``: one stacked matrix-vector product per position (each
    row the product of one sequence alone, bit for bit), then one Born
    probability per sequence.
    """
    slot = slot_channel.matrix
    gates = clifford.superop_table()
    stepped = np.einsum("ij,njk->nik", slot, gates)
    prep = spam.prep_vector()
    effect = spam.dark_effect()
    lengths = np.array([s.length for s in sequences], dtype=np.int64)
    out = np.empty(len(sequences))
    for length in dict.fromkeys(lengths.tolist()):
        members = np.flatnonzero(lengths == length)
        for start in range(0, members.size, _ROW_BLOCK):
            rows = members[start:start + _ROW_BLOCK]
            block = [sequences[i] for i in rows]
            indices = np.array([s.clifford_indices for s in block],
                               dtype=np.int8).reshape(rows.size, length)
            v = np.broadcast_to(prep[:, None], (rows.size, prep.size, 1))
            for column in indices.T:
                v = stepped[column] @ v
            v = gates[[s.inversion_index for s in block]] @ v
            out[rows] = [liouville.born_probability(effect, x) for x in v[..., 0]]
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


def _read_table(path, header: tuple[str, ...], what: str, text: int | None = None):
    """The line numbers, int64 table and column ``text`` (stripped strings; []
    without one) of the non-empty data rows of a CSV whose header is checked.
    Each row needs ``len(header)`` columns and, outside column ``text``,
    integers in the int64 range; the table leaves column ``text`` out."""
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
    linenos, values, labels = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(f"{path}:{lineno}: wrong column count")
        if text is not None:
            labels.append(row.pop(text).strip())
        try:
            ints = [int(x) for x in row]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if min(ints) < -INT64_MAX or max(ints) > INT64_MAX:
            raise DataFormatError(f"{path}:{lineno}: value outside the int64 range")
        linenos.append(lineno)
        values.append(ints)
    width = len(header) - (text is not None)
    return linenos, np.array(values, dtype=np.int64).reshape(-1, width), labels


def _check_rows(path, linenos, table, checks, key_width: int, repeat: str) -> None:
    """Raise :class:`DataFormatError` at the first line of the first ``(bad rows,
    message)`` check that fails, else at the first row whose first ``key_width``
    columns repeat an earlier row's, with message ``repeat``; a message is
    formatted with its row's values."""
    order, starts = _sorted_runs(table[:, :key_width])
    repeated = np.zeros(len(table), dtype=bool)
    repeated[order[~starts[:, -1]]] = True  # every row after the first of its key
    for bad, message in (*checks, (repeated, repeat)):
        if bad.any():
            i = int(bad.argmax())
            raise DataFormatError(f"{path}:{linenos[i]}: "
                                  + message.format(*table[i].tolist()))


def _write_csv(path, header, row: str, columns, comments: str = "") -> None:
    """Write ``comments``, the ``header`` line, then one ``row % values`` line
    per entry of the equal-length 1-D ``columns``: the bytes ``csv.writer``
    writes (``\\r\\n`` line ends; no field needs quoting).  Each column is an
    array once; each block of ``_ROW_BLOCK`` rows is one ``%`` on its values
    in row order."""
    columns = [np.asarray(c) for c in columns]
    width = len(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(comments + ",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _ROW_BLOCK):
            block = [c[start:start + _ROW_BLOCK].tolist() for c in columns]
            values = [None] * (width * len(block[0]))
            for j, column in enumerate(block):
                values[j::width] = column
            fh.write((row * len(block[0])) % tuple(values))


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
        _write_csv(path, DATASET_HEADER, "%d,%d,%s,%d,%d,%d,%d\r\n",
                   [[getattr(r, name) for r in self.records] for name in DATASET_HEADER])

    @classmethod
    def from_csv(cls, path) -> "RBDataset":
        linenos, table, paulis = _read_table(path, DATASET_HEADER, "dataset", text=2)
        _, _, _, shots, dark, bright = table.T
        _check_rows(path, linenos, table, [(dark + bright != shots, "dark + bright != shots")],
                    2, "repeats length {0}, seq_id {1}")
        try:
            return cls(tuple(DatasetRecord(length, seq_id, pauli, target, n, d)
                             for (length, seq_id, target, n, d, _), pauli
                             in zip(table.tolist(), paulis)))
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


def _fraction_tables(dataset: RBDataset) -> list[tuple[int, np.ndarray]]:
    """``(length, table)`` per length: the correct-outcome and dark-outcome
    fraction of every sequence, shape ``(2, sequences)``, in record order."""
    return [(length, np.array([[r.correct_fraction for r in group],
                               [r.dark_fraction for r in group]]))
            for length, group in sorted(dataset.by_length().items())]


def _mean_sem(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the mean over the last axis (0 for one value)."""
    n = values.shape[-1]
    sem = values.std(-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(values.shape[:-1])
    return values.mean(-1), sem


def _per_length(tables, stats: np.ndarray) -> tuple[tuple[PerLengthStats, ...],
                                                    tuple[PerLengthStats, ...]]:
    """Lane 0 of :func:`_lane_stats` as (correct-outcome, dark-outcome)
    :class:`PerLengthStats`."""
    return tuple(tuple(PerLengthStats(length, table.shape[1], float(mean), float(sem))
                       for (length, table), mean, sem in zip(tables, *stats[half:half + 2, 0]))
                 for half in (0, 2))


def per_length_stats(dataset: RBDataset) -> tuple[tuple[PerLengthStats, ...],
                                                  tuple[PerLengthStats, ...]]:
    """Per-length (correct-outcome, dark-outcome) statistics: the fits' input."""
    tables = _fraction_tables(dataset)
    return _per_length(tables, _lane_stats(tables))


def _standard(x, amplitude):
    """:func:`standard_decay` at ``x = base**length``."""
    return amplitude * x + 0.5


def _leakage(x, intercept, asymptote):
    """:func:`leakage_decay` at ``x = t_minus**(length+1)``."""
    return intercept * x + asymptote


def standard_decay(length, amplitude, base):
    """Correct-outcome decay law ``amplitude * base**length + 1/2``."""
    return _standard(base ** length, amplitude)


def leakage_decay(length, intercept, asymptote, t_minus):
    """Pooled dark-outcome decay law ``intercept * t_minus**(length+1) + asymptote``."""
    return _leakage(t_minus ** (length + 1.0), intercept, asymptote)


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
#: relative tolerance of the rate search in ``-ln(rate)`` (see :func:`_profile_fit`)
_XRTOL = 1e-10
#: elements of the coarse grid's (lanes, points) cost arrays and of its
#: (points, lengths) rate-only terms: a block of 34 lanes scores all 240
#: points in 64 KiB arrays (under glibc's initial 128 KiB mmap threshold),
#: and a depump curve of more than 8,192 points one point at a time, its
#: rate-only terms then a whole row of lengths each
_GRID_BLOCK = 1 << 13
# Freeing one 8 MiB block raises glibc's mmap threshold (128 KiB at start)
# past it, and its heap trim threshold to twice that (mallopt(3)), as
# loading scipy used to.  The grid's own temporaries stay under 128 KiB,
# but a campaign without this block still takes about 1,250 minor page
# faults after the import where it takes about 340 with it, and a long
# depump curve's rate-only terms (800 KB a point at 100,000 points) would
# each be mapped afresh.
np.empty(1 << 20)
#: bootstrap resamples drawn together, one length at a time
_RESAMPLE_BLOCK = 64
#: most lanes one :func:`_profile_fit` call fits, below the 100,001 of a
#: probe at ``cli.MAX_RESAMPLES``: the canonical campaign's 1,407 lanes per
#: law fit in one call, and a call's temporaries stay small (the canonical
#: campaign at 20,000 resamples peaks at 43 MB of traced memory, and at 180
#: MB with 100,001-lane calls, in equal time)
_FIT_LANES = 1 << 13


def _lane_weights(sems: np.ndarray) -> np.ndarray:
    """``1/sem**2`` per length, or 1 for every length of a lane with a zero SEM."""
    weighted = (sems > 0).all(-1, keepdims=True)
    return np.where(weighted, 1.0 / np.where(weighted, sems, 1.0) ** 2, 1.0)


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


def _scale_terms(z):
    """The rate-only terms :func:`_scale_fit` reads: ``z`` and ``z**2``."""
    return z, z * z


def _scale_lanes(r, w):
    """The lane-only terms :func:`_scale_fit` reads: ``w``, ``w r`` and
    ``sum w r**2`` as (lanes, 1)."""
    wr = w * r
    return w, wr, (wr * r).sum(-1)[:, None]


def _scale_fit(terms, lanes, hi: float, scale=None):
    """Scale in [0, ``hi``] (or ``scale``) minimising ``sum w (r - A z)**2`` for
    every lane and point of ``z`` (``terms`` from :func:`_scale_terms`,
    ``lanes`` from :func:`_scale_lanes`; see :func:`_lane_sums`), as one
    candidate ``(A,)`` with its cost ``sum w r**2 - A (2 sum w z r - A sum w
    z**2)`` (see :class:`_Law`)."""
    z, zz = terms
    w, wr, swrr = lanes
    szr, szz = _lane_sums(z, wr), _lane_sums(zz, w)

    def cost(a):
        return swrr - a * (2.0 * szr - a * szz)

    a = _clipped_ratio(szr, szz, hi) if scale is None else np.full(szz.shape, scale)
    return cost, [(a,)], True


def _intercept_asymptote_terms(x):
    """The rate-only terms :func:`_intercept_asymptote_fit` reads: ``x``'s mean
    over lengths ``x_ref``, the spread ``u = x - x_ref`` and ``u**2``."""
    x_ref = x.sum(-1) / x.shape[-1]  # x.mean(-1), without its Python overhead
    u = x - x_ref[..., None]
    return x_ref, u, u * u


def _intercept_asymptote_lanes(y, w):
    """The lane-only terms :func:`_intercept_asymptote_fit` reads: ``w``, ``w y~``
    (``y~ = y - y_mean``), and ``sum w``, ``y_mean`` and ``sum w y~**2`` as
    (lanes, 1)."""
    sw = w.sum(-1)[:, None]
    y_mean = (w * y).sum(-1)[:, None] / sw
    y_c = y - y_mean
    wy_c = w * y_c
    return w, wy_c, sw, y_mean, (wy_c * y_c).sum(-1)[:, None]


def _intercept_asymptote_fit(terms, lanes):
    """``(B, C)`` in [0, 1]**2 minimising ``sum w (y - B x - C)**2`` for every
    lane and point of ``x`` (``terms`` from :func:`_intercept_asymptote_terms`,
    ``lanes`` from :func:`_intercept_asymptote_lanes`; see :func:`_lane_sums`),
    as five candidates (see :class:`_Law`): the free solution (feasible or
    not; B clipped into [0, 1]) and the four edges.

    The cost is a convex quadratic on a box, so its minimum is the free one
    when that is feasible and otherwise lies on an edge: the cheapest of
    the feasible free solution and the four edge solutions (B = 0, B = 1,
    C = 0, C = 1, each a clipped one-dimensional fit, corners included) is
    exact.  Clipping B and C one at a time is not.

    The sums hold spreads, not offsets: ``u = x - x_ref`` shifts each rate's
    ``x`` by its mean over lengths and ``y~ = y - y_mean`` centres each lane
    on its weighted mean.  With ``d = y_mean - C - B x_ref`` the cost of
    (B, C) is ``sum w y~**2 + B (B sum w u**2 - 2 sum w u y~ - 2 d sum w u)
    + d**2 sum w``.
    """
    x_ref, u, uu = terms
    w, wy_c, sw, y_mean, syy = lanes
    su, suu, suy = _lane_sums(u, w), _lane_sums(uu, w), _lane_sums(u, wy_c)
    # the weighted sums of x, x**2, x y about the origin and about the means
    x_mean = x_ref + su / sw
    sxx_c = suu - su * su / sw
    sx, sxx, sxy = sw * x_mean, sxx_c + sw * x_mean * x_mean, suy + sw * x_mean * y_mean
    b_free = _clipped_ratio(suy, sxx_c, 1.0)
    c_free = y_mean - b_free * x_mean
    free = (sxx_c > 0) & (suy >= 0) & (suy <= sxx_c) & (c_free >= 0) & (c_free <= 1)

    def cost(b, c):
        d = y_mean - c - b * x_ref
        return syy + b * (b * suu - 2.0 * (suy + d * su)) + d * d * sw

    # (B, C) of the free solution, B = 0, B = 1, C = 0 and C = 1
    return cost, [(b_free, c_free), (0.0, np.minimum(np.maximum(y_mean, 0.0), 1.0)),
                  (1.0, np.minimum(np.maximum(y_mean - x_mean, 0.0), 1.0)),
                  (_clipped_ratio(sxy, sxx, 1.0), 0.0),
                  (_clipped_ratio(sxy - sx, sxx, 1.0), 1.0)], free


@dataclass(frozen=True)
class _Law:
    """A decay law as the fits see it: linear in all parameters but its rate,
    which enters as ``x = rate**(length + exponent_offset)``."""

    #: ``model(x, *linear)``, the law's value
    model: object
    #: ``terms(x)``: the rate-only terms ``linear_fit`` reads of ``x``, which is
    #: (points, lengths), shared by every lane, or (lanes, points, lengths)
    terms: object
    #: ``lanes(means, weights)``: the lane-only terms ``linear_fit`` reads
    lanes: object
    #: ``linear_fit(terms, lanes)`` returns ``(cost, candidates, feasible)``:
    #: the linear parameters of K candidate solutions, each optimal on one
    #: face of the parameters' box, of which the first cheapest is the fit;
    #: ``cost(*linear)``, the (lanes, points) cost of one candidate or the
    #: (K, lanes, points) costs of a stack of them; and where the first
    #: candidate is feasible (its cost is inf elsewhere; the first
    #: candidate's parameters are full (lanes, points) arrays).
    #: :func:`_cheapest` and :func:`_stacked` read it.
    linear_fit: object
    exponent_offset: float
    #: parameter names in model order, rate last
    params: tuple[str, ...]
    #: sign of the first parameter's factor of ``x``, and the largest rate
    #: searched
    sign: float = 1.0
    ceiling: float = 1.0


_LAWS = {"standard": _Law(_standard, _scale_terms, lambda y, w: _scale_lanes(y - 0.5, w),
                          lambda terms, lanes: _scale_fit(
                              terms, lanes, PARAMETER_BOUNDS["amplitude"][1]),
                          0.0, ("amplitude", "base")),
         "leakage": _Law(_leakage, _intercept_asymptote_terms, _intercept_asymptote_lanes,
                         _intercept_asymptote_fit, 1.0, ("intercept", "asymptote", "t_minus"))}


def _cheapest(fit) -> np.ndarray:
    """The (lanes, points) cost of a ``linear_fit``'s cheapest candidate: each
    candidate's cost formed in turn and folded into a running minimum."""
    cost, (first, *rest), feasible = fit
    best = cost(*first)
    np.copyto(best, np.inf, where=np.logical_not(feasible))
    for linear in rest:
        np.minimum(best, cost(*linear), out=best)
    return best


def _stacked(fit):
    """A ``linear_fit``'s candidates as stacks: the (K, lanes, points) costs
    and the linear parameters as one (parameters, K, lanes, points) array."""
    cost, candidates, feasible = fit
    if len(candidates) == 1:  # one face, always feasible: views, no copies
        linear = [p[None] for p in candidates[0]]
        return cost(*linear), linear
    linear = np.empty((len(candidates[0]), len(candidates), *np.shape(candidates[0][0])))
    for k, params in enumerate(candidates):
        for stack, p in zip(linear, params):
            stack[k] = p
    costs = cost(*linear)
    np.copyto(costs[0], np.inf, where=np.logical_not(feasible))
    return costs, linear


def _clipped_rate(spec: _Law, s):
    """``exp(-s)`` clipped into [1e-9, ``spec.ceiling``]."""
    return np.minimum(np.maximum(np.exp(-s), _RATE_FLOOR), spec.ceiling)


def _profile_slope(spec: _Law, exponents, x, means, w, linear) -> np.ndarray:
    """Slope of the profiled cost in ``s = -ln(rate)`` at ``x = rate**exponents``
    and the fitted linear parameters ``linear`` (arrays that broadcast
    against ``x[..., 0]``), in residual form; given every candidate of a
    ``linear_fit``, each candidate's own slope.

    By the envelope theorem it is the partial derivative there,
    ``2 scale sum w r e x``: the law's first parameter times its ``sign``
    as ``scale``, residuals ``r`` and ``e = exponents``.  It is exactly 0
    where ``scale`` is 0.
    """
    residuals = means - spec.model(x, *(p[..., None] for p in linear))
    return 2.0 * spec.sign * linear[0] * (w * residuals * exponents * x).sum(-1)


def _coarse_grid(spec: _Law, exponents, lanes) -> np.ndarray:
    """Index of each lane's cheapest point of ``_GRID`` (the first, by
    :func:`_cheapest`; ``lanes`` from ``spec.lanes``), in blocks of at most
    ``_GRID_BLOCK`` (lane, point) pairs: the rate-only terms once per block
    of points, then each block of lanes against them."""
    n = len(lanes[0])
    points = min(_GRID.size, max(1, _GRID_BLOCK // exponents.size))
    block = max(1, _GRID_BLOCK // points)  # lanes
    starts = range(0, _GRID.size, points)
    least, first = np.empty((len(starts), n)), np.empty((len(starts), n), dtype=np.intp)
    for j, start in enumerate(starts):
        terms = spec.terms(_clipped_rate(spec, _GRID[start:start + points])[:, None] ** exponents)
        for i in range(0, n, block):
            cost = _cheapest(spec.linear_fit(terms, [a[i:i + block] for a in lanes]))
            least[j, i:i + block], first[j, i:i + block] = cost.min(-1), start + cost.argmin(-1)
    # the first cheapest block's first cheapest point is the first cheapest point
    return first[least.argmin(0), np.arange(n)]


def _profile_fit(spec: _Law, lengths, means, sems) -> tuple[np.ndarray, ...]:
    """Bounded weighted least squares of one decay law on every lane at once.

    Variable projection: given the decay rate ``r``, the law is linear in
    its other parameters, which its ``linear_fit`` solves in closed form as
    the first cheapest of its candidates.  The profiled cost is searched
    over ``s = -ln r`` for ``r`` in [1e-9, ``spec.ceiling``].  A coarse grid
    in ``s`` brackets its global minimum between the best point's two
    neighbours.  A lane whose slope there (:func:`_profile_slope`) does not
    rise from <= 0 to > 0 keeps its coarse point; the others find its root
    by inverse quadratic interpolation (Chandrupatla, Adv. Eng. Softw. 28,
    145, 1997), halving where that fails its test, is not finite, or the
    bracket has not halved over two steps (Brent's safeguard).

    The profiled slope is the slope of whichever candidate wins, so it
    changes formula where the box's active set changes.  On a leakage lane
    the free candidate fits three lengths exactly and its slope is almost
    flat (about -3e-10 over 0.1 in ``s``), while the B = 1 or C = 0 face
    beside it has a smooth slope of its own that crosses zero at the root;
    interpolating through values of both faces fails the test, and such a
    lane halves up to about 30 times.  So every step scores the slope of
    every candidate in one call, and the interpolation uses the slope of
    the face that wins at the newest point if that slope changes sign
    across the bracket, else that of the face winning at the other end,
    else the profiled slope.  The profiled slope alone decides the signs,
    the tolerance and which end a lane keeps.  A law of one candidate
    (standard, depump) has one face, whose slope is the profiled slope.

    A lane stops once its bracket is narrower than ``2 _XRTOL (|s| +
    _GRID[1])`` (>= 2e-19), takes its end of smaller absolute slope and
    leaves the working set.  Brackets start at most 3.6 wide and halve at
    least once in three steps, so no lane takes more than 3 x 64 = 192
    steps.  On the canonical campaign at seeds 0 and 9001 a leakage batch
    of 200 lanes scores the slope 10 to 13 times (23 to 33 on the profiled
    slope alone) and a standard one 7 times.  The cheapest of the search's
    result, the best coarse point and both bounds wins, a tie going to the
    ceiling, then the floor, then the coarse point (a leakage lane with
    B = 0 costs the same at every rate and reports 1).
    The lane-only terms (``spec.lanes``) are computed once per call.  The
    coarse grid (:func:`_coarse_grid`) keeps only the cheapest candidate's
    cost (:func:`_cheapest`), which ``linear_fit``'s cost formula forms
    from weighted sums.  The search and the final pick take every
    candidate's cost and parameters as stacks (:func:`_stacked`), and
    compute ``x = rate**e`` once per evaluation for the linear fit, the
    slope and the residuals.  The final pick scores its four candidates
    from their residuals, which round less where the fit is close.
    ``means`` and ``sems`` are (lanes, lengths) arrays; returns the law's
    parameters, rate last, as (lanes,) arrays.  A lane with non-finite
    statistics gets non-finite parameters.
    """
    w = _lane_weights(sems)
    exponents, lanes = lengths + spec.exponent_offset, spec.lanes(means, w)

    def solve(exponent, lanes):
        # (lanes, points) -> the winning candidate, the rate, x and every
        # candidate's linear parameters as (K, lanes, points)
        rate = _clipped_rate(spec, exponent)
        x = rate[..., None] ** exponents
        cost, linear = _stacked(spec.linear_fit(spec.terms(x), lanes))
        return cost.argmin(0), rate, x, linear

    n, coarse = len(means), _coarse_grid(spec, exponents, lanes)
    # the bracket: the best point's two neighbours, (lanes, 2)
    ends = _GRID[np.minimum(np.maximum(coarse[:, None] + (-1, 1), 0), _GRID.size - 1)]

    def scored(exponent, y, lanes):
        # (lanes, points) -> the winning candidate, and every candidate's slope
        # as (K, lanes, points); lanes[0] is the weights
        k, _, x, linear = solve(exponent, lanes)
        return k, _profile_slope(spec, exponents, x, y[:, None], lanes[0][:, None], linear)

    k, g = scored(ends, means, lanes)
    f = k.choose(g)
    root = _GRID[coarse]
    run = np.flatnonzero((f[:, 0] <= 0) & (f[:, 1] > 0))
    # the records of the bracket [x1, x2], x1 its newest point, and of x3, the
    # point dropped last: every candidate's slope, the profiled slope f (the
    # winner's), then x; and the winning candidates at x1 and x2
    rec, wins = np.empty((3, len(g) + 2, run.size)), k[run].T
    rec[:2] = np.concatenate((g, f[None], ends[None]))[:, run].transpose(2, 0, 1)
    y, part, lane = means[run], [a[run] for a in lanes], np.arange(run.size)
    t, dx = np.full(run.size, 0.5), rec[1, -1] - rec[0, -1]
    older = old = dx
    while run.size:
        x = rec[0, -1] + t * dx
        k, g = scored(x[:, None], y, part)
        k, g = k[:, 0], g[..., 0]
        f = k.choose(g)
        same = (f > 0) == (rec[0, -2] > 0)
        rec[1:], wins[1] = np.where(same, rec[1::-1], rec[:2]), np.where(same, wins[1], wins[0])
        rec[0, :-2], rec[0, -2], rec[0, -1], wins[0] = g, f, x, k
        x1, x2, x3, f1, f2 = rec[0, -1], rec[1, -1], rec[2, -1], rec[0, -2], rec[1, -2]
        dx = x2 - x1
        width = np.abs(dx)
        best = np.where(np.abs(f1) < np.abs(f2), x1, x2)
        # interpolate the slope of the face winning at x1 if it changes sign
        # across the bracket, else of the face winning at x2, else f (a law
        # of one candidate has one face, whose slope is f)
        h = rec[:, -2]
        if len(g) > 1:
            turns = np.not_equal(*(rec[:2, :-1] > 0))[wins, lane]
            h = rec[:, np.where(turns[0], wins[0], np.where(turns[1], wins[1], len(g))), lane]
        h1, h2, h3 = h[0], h[1], h[2]
        with np.errstate(all="ignore"):  # a non-finite step halves
            d12, d32 = h1 - h2, h3 - h2
            tlim = _XRTOL * (np.abs(best) + _GRID[1]) / width
            xi, phi = (x1 - x2) / (x3 - x2), d12 / d32
            t = h1 / d32 * (h3 / d12 + (x3 - x1) / dx * h2 / (h3 - h1))
            fits = ((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(t)
                    & (width <= 0.5 * older))  # else halve
        t = np.minimum(np.maximum(np.where(fits, t, 0.5), tlim), 1.0 - tlim)
        older, old = old, width  # the bracket's widths two steps and one step back
        done = tlim > 0.5
        if done.any():
            root[run[done]] = best[done]
            keep = ~done
            run, t, dx, older, old, y, *part = (
                a[keep] for a in (run, t, dx, older, old, y, *part))
            rec, wins, lane = rec[..., keep], wins[:, keep], lane[:run.size]
    tried = np.empty((n, 4))
    tried[:, 0], tried[:, 1], tried[:, 2], tried[:, 3] = _GRID[0], _GRID[-1], _GRID[coarse], root
    k, rate, x, linear = solve(tried, lanes)
    linear = [k.choose(p) for p in linear]
    r = means[:, None] - spec.model(x, *(p[..., None] for p in linear))
    pick = np.argmin((w[:, None] * r * r).sum(-1), axis=-1)
    return tuple(p[np.arange(n), pick] for p in (*linear, rate))


def _check_fit(law: str, per_length, ls_ratio: float = 1.0) -> None:
    """Raise unless ``law`` can be fitted to one entry of ``per_length`` per
    length: a length per parameter at least (and, for leakage, ``ls_ratio > 0``)."""
    if law == "leakage" and ls_ratio <= 0:
        raise ValueError("ls_ratio must be positive")
    least = len(_LAWS[law].params)
    if len(per_length) < least:
        raise DataFormatError(f"{law} fit needs at least "
                              f"{'two' if least == 2 else 'three'} distinct lengths")


def _point_fit(law: str, params, stats) -> StandardFit | LeakageFit:
    """The fit of ``stats`` from lane 0 of the law's ``params``, which must be finite."""
    params = [float(p[0]) for p in params]
    if not all(np.isfinite(params)):
        raise FitError(f"{law} decay fit returned non-finite parameters")
    if law == "standard":
        return StandardFit(*params, stats)
    return LeakageFit(*params, *_leakage_seepage(*params), stats)


def _one_lane(law: str, stats) -> StandardFit | LeakageFit:
    """The fit of ``stats`` by :func:`_profile_fit` as one lane."""
    lengths, means, sems = (np.array([getattr(s, f) for s in stats], dtype=float)
                            for f in ("length", "mean", "sem"))
    return _point_fit(law, _profile_fit(_LAWS[law], lengths, means[None], sems[None]), stats)


def fit_standard(stats) -> StandardFit:
    """Fit correct-outcome fractions to ``amplitude * base**l + 1/2``.

    ``stats`` is the correct-outcome half of :func:`per_length_stats`.
    """
    _check_fit("standard", stats)
    return _one_lane("standard", stats)


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
    _check_fit("leakage", stats, ls_ratio)
    return _one_lane("leakage", stats)


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


def _lane_stats(tables, n_resamples: int = 0, rng=None) -> np.ndarray:
    """One dataset's fit lanes, from its :func:`_fraction_tables`: the (correct
    mean, correct SEM, dark mean, dark SEM) stack, shape ``(4, 1 + n_resamples,
    lengths)``; lane 0 holds the dataset's own statistics, the others those
    of its bootstrap resamples.

    A nonparametric bootstrap over sequences: each resample draws sequences
    with replacement within every length and keeps their fractions as
    measured, so a length with one sequence has SEM 0 in every resample.
    Draw order: per block of at most ``_RESAMPLE_BLOCK`` resamples and per
    length, one ``rng.integers`` call picks the block's sequences as a
    (resamples, sequences) array, so memory is bounded by one block of one
    length.
    """
    stats = np.empty((4, 1 + n_resamples, len(tables)))
    for k, (_, table) in enumerate(tables):
        stats[0::2, 0, k], stats[1::2, 0, k] = _mean_sem(table)
    for start in range(1, 1 + n_resamples, _RESAMPLE_BLOCK):
        block = slice(start, min(start + _RESAMPLE_BLOCK, 1 + n_resamples))
        for k, (_, table) in enumerate(tables):
            n = table.shape[1]
            # take, unlike table[:, picks], returns each resample's fractions
            # contiguous, so numpy sums them pairwise as for lane 0
            drawn = table.take(rng.integers(0, n, (block.stop - start, n)), axis=1)
            stats[0::2, block, k], stats[1::2, block, k] = _mean_sem(drawn)
    return stats


def _bootstrap(values: dict) -> BootstrapResult:
    """The bootstrap of both laws' refits, ``values`` their parameters by name
    as (resamples,) arrays.  A refit with a non-finite parameter fails; more
    than 10% failed refits raise :class:`FitError` (the dataset does not
    support a stable analysis)."""
    values["leakage"], values["seepage"] = _leakage_seepage(
        values["intercept"], values["asymptote"], values["t_minus"])
    values["epsilon"] = average_error(values["base"], values["leakage"])
    est = scattering_estimates(values["base"], values["t_minus"])
    values["scattering_standard"], values["scattering_leakage"] = est.standard, est.leakage
    ok = np.all([np.isfinite(v) for v in values.values()], axis=0)
    n_resamples = ok.size
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


def bootstrap_analysis(dataset: RBDataset, n_resamples: int = 200,
                       seed=None) -> BootstrapResult:
    """Nonparametric bootstrap of both decay fits over sequences: the bootstrap
    of :func:`analyze_dataset` (see :func:`_lane_stats` and :func:`_bootstrap`)."""
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    return analyze_dataset(dataset, resamples=n_resamples, seed=seed).bootstrap


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


@dataclass(frozen=True)
class _Lanes:
    """A dataset, its :func:`_per_length` statistics and its :func:`_lane_stats`."""

    dataset: RBDataset
    per_length: tuple
    stats: np.ndarray


def _dataset_lanes(dataset: RBDataset, resamples: int, seed,
                   ls_ratio: float = 1.0) -> _Lanes:
    """Check that ``dataset`` can be analysed, then build its lanes from one
    build of its fraction tables; ``seed`` seeds the resamples."""
    for law in _LAWS:
        _check_fit(law, dataset.lengths, ls_ratio)
    if resamples and resamples < 2:
        raise ValueError("need at least two resamples")
    tables = _fraction_tables(dataset)
    stats = _lane_stats(tables, resamples, np.random.default_rng(seed) if resamples else None)
    return _Lanes(dataset, _per_length(tables, stats), stats)


def _analyses(probes: list[_Lanes]):
    """Yield each probe's :class:`AnalysisResult`, in order.  Every lane of a
    law and a set of lengths is fitted in one :func:`_profile_fit` call (of
    at most ``_FIT_LANES`` lanes; no lane's fit depends on its call), then
    each probe's block is split off: lane 0 the point fits, which must be
    finite, the others its bootstrap refits."""
    groups: dict[tuple, list[int]] = {}
    for i, probe in enumerate(probes):
        groups.setdefault(probe.dataset.lengths, []).append(i)
    fitted = [{} for _ in probes]
    for law, half in (("standard", 0), ("leakage", 2)):
        for lengths, members in groups.items():
            means, sems = (np.concatenate([probes[i].stats[k] for i in members])
                           for k in (half, half + 1))
            calls = [_profile_fit(_LAWS[law], np.array(lengths, dtype=float),
                                  means[a:a + _FIT_LANES], sems[a:a + _FIT_LANES])
                     for a in range(0, len(means), _FIT_LANES)]
            cuts = np.cumsum([probes[i].stats.shape[1] for i in members])[:-1]
            for i, *params in zip(members, *(np.split(np.concatenate(p), cuts)
                                             for p in zip(*calls))):
                fitted[i][law] = params
    for probe, fits in zip(probes, fitted):
        std, leak = (_point_fit(law, fits[law], half) for law, half in zip(fits, probe.per_length))
        boot = None
        if probe.stats.shape[1] > 1:
            boot = _bootstrap({name: p[1:] for law, params in fits.items()
                               for name, p in zip(_LAWS[law].params, params)})
        yield AnalysisResult(
            standard=std, leakage_fit=leak, epsilon=average_error(std.base, leak.leakage),
            scattering=scattering_estimates(std.base, leak.t_minus), bootstrap=boot,
            lengths=probe.dataset.lengths,
            sequences_per_length={s.length: s.n_sequences for s in std.per_length},
            shots=tuple(sorted({r.shots for r in probe.dataset.records})))


def analyze_dataset(dataset: RBDataset, ls_ratio: float = 1.0,
                    resamples: int = 200, seed=None) -> AnalysisResult:
    """Run both decay fits plus the bootstrap (``resamples=0`` skips it): the
    fit and split of :func:`run_campaign` on one dataset.

    ``ls_ratio`` is ignored, as by :func:`fit_leakage`, and must be positive.
    """
    return next(_analyses([_dataset_lanes(dataset, resamples, seed, ls_ratio)]))


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
    length at a time in order of first appearance.  Uniforms are drawn only
    for a probability above 0 (preparation flip, depumping, either readout
    confusion, reset error); a reset with ``reset_error`` 0 sets the state
    to 0.
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
                    outcome = state
                    if model.dark_to_bright > 0 or model.bright_to_dark > 0:
                        confusion = np.where(state == 1, model.bright_to_dark,
                                             model.dark_to_bright)
                        outcome = state ^ (rng.random(size) < confusion)
                    errors.append((outcome != ideal).sum(axis=1))
                elif op == "reset":
                    if model.reset_error > 0:
                        state[rng.random(size) >= model.reset_error] = 0
                    else:
                        state = np.zeros(size, dtype=np.int8)
                    ideal = np.zeros(size, dtype=np.int8)
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
    _write_csv(path, FOCUS_HEADER, ",".join(["%d"] * len(FOCUS_HEADER)) + "\r\n",
               np.asarray(records, dtype=np.int64).reshape(-1, len(FOCUS_HEADER)).T)


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of the 2-D integer ``keys``
    (first column most significant), and ``starts``: ``starts[i, k]`` is
    whether sorted row ``i`` begins a run of equal first ``k + 1`` columns.
    Rows of equal keys keep their input order."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(ordered.shape, dtype=bool)
    np.logical_or.accumulate(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    return order, starts


def read_focus_csv(path) -> np.ndarray:
    """Read a focus CSV back into the int64 table :func:`simulate_focus` returns."""
    linenos, table, _ = _read_table(path, FOCUS_HEADER, "focus")
    length, seq_id, slot, meas_index, shots, errors = table.T
    _check_rows(path, linenos, table, (
        ((length < 1) | (shots < 1), "length and shots must be positive"),
        ((errors < 0) | (errors > shots), "errors outside [0, shots]"),
        ((slot < 1) | (slot > length), "slot outside [1, length]"),
        ((seq_id < 0) | (meas_index < 0), "seq_id and meas_index must be non-negative")),
        4, "repeats a (length, seq_id, slot, meas_index) key")
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
    order, starts = _sorted_runs(table[:, [3, 0, 1]])
    sorted_cluster = np.cumsum(starts[:, 2]) - 1
    in_cluster = np.empty(len(table), dtype=np.intp)
    in_cluster[order] = sorted_cluster
    # each sequence's error total, summed in table order
    cluster_errors = np.bincount(in_cluster, weights=table[:, 5].astype(float))
    group_rows = np.append(np.flatnonzero(starts[:, 1]), len(table))
    group_clusters = np.append(sorted_cluster[group_rows[:-1]], len(cluster_errors))
    keys = table[order[group_rows[:-1]]][:, [3, 0]].tolist()
    # (shots, errors) per group as Python ints: int64 sums could wrap
    shots, errors = table[order, 4].tolist(), table[order, 5].tolist()
    by_index: dict[int, list] = {}
    for g, (meas_index, length) in enumerate(keys):
        rows = slice(group_rows[g], group_rows[g + 1])
        totals = cluster_errors[group_clusters[g]:group_clusters[g + 1]]
        # variance of the group's error total from its m sequences: m * s^2
        variance = totals.size * totals.var(ddof=1) if totals.size > 1 else 0.0
        by_index.setdefault(meas_index, []).append(
            (length, sum(shots[rows]), sum(errors[rows]), variance))
    entries = []
    for meas_index, groups in by_index.items():
        per_length = tuple((length, s, e, e / s) for length, s, e, _ in groups)
        n_shots, n_errors = sum(g[1] for g in groups), sum(g[2] for g in groups)
        rate = n_errors / n_shots
        binomial = float(np.sqrt(max(rate * (1 - rate), 1.0 / n_shots) / n_shots))
        spread = float(np.sqrt(np.array([g[3] for g in groups]).sum())) / n_shots
        entries.append(SpamReportEntry(meas_index, n_shots, n_errors, rate,
                                       max(binomial, spread), per_length))
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
        for what, size, limit in (
                ("shots", self.sequences_per_length * self.shots, MAX_SHOTS_PER_LENGTH),
                ("sum(lengths)", self.sequences_per_length * sum(self.lengths),
                 MAX_CLIFFORDS)):
            if size > limit:
                raise ConfigError(f"sequences_per_length * {what} must be <= {limit}, "
                                  f"got {size}")
        if self.balanced and self.sequences_per_length % 2:
            raise ConfigError(f"sequences_per_length must be even when balanced is true, "
                              f"got {self.sequences_per_length}")


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


def _simulate(config: ExperimentConfig, ss, resamples: int) -> tuple[ExperimentResult, dict]:
    """One experiment's simulate phase: its result without analyses, and its
    probes' :func:`_dataset_lanes` by label.

    One set of sequences is shared by all probes (they ride the same
    circuits); each probe gets its own sampling stream.  The probe's exact
    channel gives the reference figures of merit; the analysis never reads
    it.
    """
    seq_ss, focus_ss, probes_ss = ss.spawn(3)
    sequences = generate_sequences(
        config.lengths, config.sequences_per_length,
        seed=seq_ss, balanced=config.balanced)

    datasets, lanes, references = {}, {}, {}
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
        lanes[label] = _dataset_lanes(dataset, resamples, boot_ss)
        references[label] = channel_reference(slot)

    focus_records = simulate_focus(
        sequences, config.interleaved_ops, config.initial_focus_state,
        config.focus, config.shots, seed=focus_ss)
    return ExperimentResult(config=config, datasets=datasets, analyses={},
                            references=references, focus_records=focus_records,
                            spam=spam_report(focus_records)), lanes


def _run_share(jobs) -> list[ExperimentResult]:
    """Simulate every ``(config, SeedSequence, resamples)`` job, then fit and
    split all their probes' lanes at once (:func:`_analyses`)."""
    simulated = [_simulate(*job) for job in jobs]
    analyses = _analyses([probe for _, lanes in simulated for probe in lanes.values()])
    return [replace(result, analyses={label: next(analyses) for label in lanes})
            for result, lanes in simulated]


def _share_child(jobs, send) -> None:
    """A child process's share: sends ``(True, results)`` or ``(False, error)``."""
    try:
        send.send((True, _run_share(jobs)))
    except Exception as exc:  # raised again by run_campaign, in the caller
        send.send((False, exc))


def run_experiment(config: ExperimentConfig, seed=None,
                   resamples: int = 200) -> ExperimentResult:
    """Simulate and analyse one experiment end to end: :func:`run_campaign` of
    it alone, on ``seed`` itself."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return _run_share([(config, ss, resamples)])[0]


def run_campaign(configs, seed=None, resamples: int = 200,
                 parallel: int = 1) -> list[ExperimentResult]:
    """Run every experiment with independent, reproducible seed streams.

    Experiment ``i`` runs on child ``i`` of ``SeedSequence(seed).spawn(n)``
    (the child itself, spawn key included, so no two experiments share a
    stream), whether the campaign runs serially or in parallel.  A share of the
    experiments runs in three phases: simulate each (sequences, datasets, focus
    records, and every probe's point and resample statistics, each from its own
    stream); fit all their lanes, one :func:`_profile_fit` call per law and set
    of lengths (more past ``_FIT_LANES`` lanes); split the fits back by probe,
    the failure budget counted per probe and the first experiment's error
    raised.  Serially the share is the whole campaign; else this process runs
    the first of ``min(parallel, len(configs))`` consecutive shares, and one
    child process per other share pipes back its results or error, read in
    share order.  Every child is joined before this returns or raises.  No
    lane's fit depends on its batch, so the results agree.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    jobs = [(cfg, child, resamples)
            for cfg, child in zip(configs, ss.spawn(len(configs)))]
    workers = min(parallel, len(jobs))
    if workers <= 1:
        return _run_share(jobs)
    size, extra = divmod(len(jobs), workers)
    cuts = [k * size + min(k, extra) for k in range(workers + 1)]
    import multiprocessing  # only a parallel campaign loads it
    children = []
    try:
        for a, b in zip(cuts[1:], cuts[2:]):
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_share_child, args=(jobs[a:b], send))
            child.start()
            children.append((child, receive))
            send.close()  # the child holds the only write end: EOF once it exits
        results = _run_share(jobs[:cuts[1]])
        for k, (child, receive) in enumerate(children, 2):
            try:
                ok, reply = receive.recv()
            except EOFError:
                raise RuntimeError(f"campaign share {k} ended without a reply") from None
            if not ok:
                raise reply
            results += reply
        return results
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()


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
