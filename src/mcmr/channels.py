"""Completely positive models of detection/reset light leaking onto an idle ion.

Stray resonant light optically pumps the idle ion's ground states: during a
neighbour's measurement window every F=1 sublevel scatters toward the other
F=1 sublevels (the F=0 dark state is decoupled), while a reset window also
branches into F=0.  The builders here solve the corresponding Lindblad
equation exactly, so the returned superoperators are completely positive and
trace preserving by construction:

* populations follow the classical rate equations of the jump rates,
* a coherence between levels a and b damps by ``exp(-(T_a + T_b)/2)`` where
  ``T`` is that level's **total** scattering rate, elastic jumps included.

All channels are expressed in the 16-element Hermitian basis of
:mod:`mcmr.liouville`.  Key figures of merit:

* leakage ``L``: population leaving the qubit subspace when starting from
  the maximally mixed qubit state,
* seepage ``S``: population entering the qubit subspace when starting from
  the maximally mixed extra-level state,
* ``base``: the average of the three qubit Pauli transfer factors, the decay
  base an interleaved benchmarking experiment measures per cycle.

:func:`twirl` averages a channel over the 24 Clifford gates, after checking
the structural assumptions that make the averaged channel exactly

    diag(1-L, base, base, base) on the qubit block,
    plus L and S couplings between the two identity components,

and raises :class:`~mcmr.errors.AssumptionError` with the offending
couplings otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import clifford, liouville
from .config import Config, checked
from .errors import AssumptionError, ConfigError
from .micromotion import rate_generator

N_LEVELS = 4
POLARIZATION_BALANCED = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
DEFAULT_DARK_BRANCHING = 1.0 / 3.0

#: tolerance for the structural validation performed before twirling
STRUCTURE_TOL = 1e-8
#: internal consistency tolerance for the twirl closed form
TWIRL_MATCH_TOL = 1e-10

# supervector indices: qubit block, extra block, cross coherences
_QUBIT = slice(0, 4)
_REACHABLE = slice(0, 5)
_EXTRA_TRACELESS = slice(5, 8)
_CROSS = slice(8, 16)


@dataclass(frozen=True, eq=False)
class LeakageChannel:
    """A qubit channel with explicit extra-level dynamics.

    ``matrix`` is the real 16x16 superoperator; ``kind`` and ``params``
    record how the channel was built, for reporting and file round trips.
    """

    matrix: np.ndarray = field(repr=False)
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (liouville.N_BASIS, liouville.N_BASIS):
            raise ValueError(f"matrix must be 16x16, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def identity_channel() -> LeakageChannel:
    return LeakageChannel(np.eye(liouville.N_BASIS), kind="identity")


def compose(*steps: LeakageChannel) -> LeakageChannel:
    """Channel applying the given steps in time order (first argument first)."""
    if not steps:
        raise ValueError("need at least one channel")
    mat = steps[0].matrix
    for step in steps[1:]:
        mat = step.matrix @ mat
    if len(steps) == 1:
        return steps[0]
    return LeakageChannel(mat, kind="composite",
                          params={"steps": [s.kind for s in steps]})


# ---------------------------------------------------------------------------
# rate-equation channel builders


def _normalized_weights(polarization) -> np.ndarray:
    w = np.asarray(polarization, dtype=float)
    if w.shape != (3,):
        raise ConfigError("polarization must have three components "
                          "[w_minus, w_pi, w_plus]")
    if not np.all(w >= 0):
        raise ConfigError("polarization weights must be non-negative")
    total = w.sum()
    if not 0 < total < np.inf:
        raise ConfigError("polarization weights must be finite and not all vanish")
    return w / total


def _level_weights(polarization) -> np.ndarray:
    """Scattering weight per bright level |1>, |2>, |3>.

    pi light drives |1> (m=0), sigma+ drives |2> (m=-1), sigma- drives |3>
    (m=+1): each polarization component couples its sublevel to the m'=0
    excited state.
    """
    w_minus, w_pi, w_plus = _normalized_weights(polarization)
    return np.array([w_pi, w_plus, w_minus])


def scattering_rate_matrix(gamma_t: float, polarization=POLARIZATION_BALANCED,
                           dark_branching: float = 0.0) -> np.ndarray:
    """Dimensionless jump rates ``R[a, b]`` (level a to level b) for one window.

    ``gamma_t`` is the balanced-case scattering probability scale per final
    state; each bright level's total rate is ``9 * weight * gamma_t``, which
    reduces to ``3 * gamma_t`` per final state for balanced weights.  A
    fraction ``dark_branching`` of every jump lands in the dark state (zero
    for a measurement window), the rest spreads evenly over the bright
    levels, elastic jumps included.  The dark state never scatters.
    """
    if gamma_t < 0:
        raise ConfigError("gamma_t must be non-negative")
    if not 0.0 <= dark_branching <= 1.0:
        raise ConfigError("dark_branching must lie in [0, 1]")
    weights = _level_weights(polarization)
    rates = np.zeros((N_LEVELS, N_LEVELS))
    for a, w in zip((1, 2, 3), weights):
        total = 9.0 * w * gamma_t
        rates[a, 0] = total * dark_branching
        rates[a, 1:] = total * (1.0 - dark_branching) / 3.0
    return rates


def rate_scattering_channel(rates: np.ndarray, kind: str = "custom",
                            params: dict | None = None) -> LeakageChannel:
    """Solve the Lindblad equation for jump operators ``sqrt(R[a,b]) |b><a|``.

    Populations evolve under the 4x4 rate generator (one matrix exponential);
    every coherence damps by ``exp(-(T_a + T_b)/2)`` with ``T`` the total
    outflow including elastic jumps.  The result is CPTP by construction.
    """
    r = np.asarray(rates, dtype=float)
    if r.shape != (N_LEVELS, N_LEVELS):
        raise ValueError(f"rates must be {N_LEVELS}x{N_LEVELS}, got {r.shape}")
    if np.any(r < 0):
        raise ValueError("rates must be non-negative")
    transfer = expm(rate_generator(r))

    totals = r.sum(axis=1)
    mvec = np.zeros((liouville.N_BASIS, liouville.N_BASIS))

    def vec_index(row: int, col: int) -> int:
        return row + N_LEVELS * col

    for a in range(N_LEVELS):
        for b in range(N_LEVELS):
            if a == b:
                continue
            mvec[vec_index(a, b), vec_index(a, b)] = np.exp(-(totals[a] + totals[b]) / 2.0)
    for a in range(N_LEVELS):
        for b in range(N_LEVELS):
            mvec[vec_index(b, b), vec_index(a, a)] = transfer[b, a]
    matrix = liouville.vec_to_basis_superop(mvec)
    params = dict(params or {})
    if not np.all(np.isfinite(matrix)):
        raise ConfigError(f"{kind} channel is not finite: scattering rates too "
                          f"large (gamma_t {params.get('gamma_t', 'not given')})")
    return LeakageChannel(matrix, kind=kind, params=params)


def measurement_crosstalk(gamma_t: float,
                          polarization=POLARIZATION_BALANCED) -> LeakageChannel:
    """Crosstalk of one detection window: pumping within F=1 only.

    ``gamma_t`` is the scattering probability per final state over the window
    (balanced case); the dark state is untouched and no population returns
    to it, so leakage equals seepage for balanced polarization.
    """
    w = tuple(_normalized_weights(polarization))
    rates = scattering_rate_matrix(gamma_t, polarization, dark_branching=0.0)
    return rate_scattering_channel(
        rates, kind="measurement",
        params={"gamma_t": float(gamma_t), "polarization": w})


def reset_crosstalk(gamma_t: float, polarization=POLARIZATION_BALANCED,
                    dark_branching: float = DEFAULT_DARK_BRANCHING) -> LeakageChannel:
    """Crosstalk of one reset window: pumping with a branch into the dark state.

    Identical to :func:`measurement_crosstalk` at ``dark_branching = 0``; any
    positive branching makes the window *remove* population from the bright
    manifold, so seepage exceeds leakage (``S - L = 1 - exp(-3 b gamma_t)``
    for balanced polarization).
    """
    w = tuple(_normalized_weights(polarization))
    rates = scattering_rate_matrix(gamma_t, polarization, dark_branching)
    return rate_scattering_channel(
        rates, kind="reset",
        params={"gamma_t": float(gamma_t), "polarization": w,
                "dark_branching": float(dark_branching)})


def depolarizing(p: float) -> LeakageChannel:
    """Depolarizing error of strength ``p`` on the qubit subspace only.

    Kraus operators are the qubit Paulis extended by the identity on the
    extra levels, so extra-level populations and coherences are untouched and
    the qubit Pauli transfer factors are all ``1 - p``.
    """
    if not 0.0 <= p <= 4.0 / 3.0:
        raise ValueError("depolarizing strength must lie in [0, 4/3]")
    paulis = (
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    weights = (1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p)
    kraus = []
    for wgt, pa in zip(weights, paulis):
        op = np.zeros((N_LEVELS, N_LEVELS), dtype=complex)
        op[:2, :2] = pa
        op[2:, 2:] = np.eye(2)
        kraus.append(np.sqrt(wgt) * op)
    return LeakageChannel(liouville.kraus_to_superop(kraus),
                          kind="depolarizing", params={"p": float(p)})


@dataclass(frozen=True)
class ChannelSpec(Config):
    """JSON description of one crosstalk channel (``dark_branching``: reset only)."""

    kind: str = checked(one_of=("measurement", "reset"))
    gamma_t: float = checked(ge=0.0)
    polarization: tuple[float, ...] = POLARIZATION_BALANCED
    dark_branching: float = checked(DEFAULT_DARK_BRANCHING, ge=0.0, le=1.0)

    def __post_init__(self):
        super().__post_init__()
        _normalized_weights(self.polarization)

    def build(self) -> LeakageChannel:
        if self.kind == "reset":
            return reset_crosstalk(self.gamma_t, self.polarization,
                                   self.dark_branching)
        return measurement_crosstalk(self.gamma_t, self.polarization)

    def to_dict(self) -> dict:
        out = super().to_dict()
        if self.kind != "reset":
            del out["dark_branching"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelSpec":
        spec = super().from_dict(data)
        if spec.kind != "reset" and "dark_branching" in data:
            raise ConfigError("dark_branching only applies to reset channels")
        return spec


def channel_from_config(config: dict) -> LeakageChannel:
    """Build a crosstalk channel from its JSON description (a :class:`ChannelSpec`)."""
    return ChannelSpec.from_dict(config).build()


# ---------------------------------------------------------------------------
# figures of merit


def leakage_seepage(channel: LeakageChannel) -> tuple[float, float]:
    """(L, S) computed by applying the channel to the subspace identities.

    L is the extra-level population of the evolved maximally mixed qubit
    state; S is the qubit population of the evolved maximally mixed
    extra-level state.  These equal the matrix elements
    ``matrix[4, 0]`` / ``matrix[0, 4]`` of the superoperator.
    """
    m = channel.matrix
    qubit_identity = liouville.to_supervector(np.diag([1.0, 1.0, 0.0, 0.0]))
    extra_identity = liouville.to_supervector(np.diag([0.0, 0.0, 1.0, 1.0]))
    leaked = liouville.from_supervector(m @ qubit_identity)
    seeped = liouville.from_supervector(m @ extra_identity)
    leak = 0.5 * float(np.real(leaked[2, 2] + leaked[3, 3]))
    seep = 0.5 * float(np.real(seeped[0, 0] + seeped[1, 1]))
    return leak, seep


def decay_base(channel: LeakageChannel) -> float:
    """Average qubit Pauli transfer factor (the per-cycle decay base)."""
    m = channel.matrix
    return float((m[1, 1] + m[2, 2] + m[3, 3]) / 3.0)


def validate_leakage_form(channel: LeakageChannel) -> None:
    """Check the couplings that the Clifford-average closed form relies on.

    The benchmarking dynamics only ever populate the qubit block plus the
    extra-level identity; this validates (to ``STRUCTURE_TOL``) that the
    channel does not couple that reachable span to traceless extra operators
    or to cross-subspace coherences, that leakage is sourced only by the
    qubit identity/Z components, and that seepage lands only on them.  Raises
    :class:`AssumptionError` listing every offending coupling.
    """
    m = channel.matrix
    labels = liouville.BASIS_LABELS
    violations: list[tuple[str, float]] = []

    def scan(rows: slice, cols: slice, what: str) -> None:
        block = m[rows, cols]
        idx_rows = range(rows.start, rows.stop)
        idx_cols = range(cols.start, cols.stop)
        for i, ri in enumerate(idx_rows):
            for j, cj in enumerate(idx_cols):
                if abs(block[i, j]) > STRUCTURE_TOL:
                    violations.append(
                        (f"{what}: {labels[cj]} -> {labels[ri]}", float(abs(block[i, j]))))

    scan(_EXTRA_TRACELESS, _REACHABLE, "coupling into traceless extra operators")
    scan(_CROSS, _REACHABLE, "coupling into cross coherences")
    scan(_REACHABLE, _EXTRA_TRACELESS, "coupling from traceless extra operators")
    scan(_REACHABLE, _CROSS, "coupling from cross coherences")
    for col in (1, 2):
        if abs(m[4, col]) > STRUCTURE_TOL:
            violations.append(
                (f"leakage sourced from {labels[col]}", float(abs(m[4, col]))))
    for row in (1, 2):
        if abs(m[row, 4]) > STRUCTURE_TOL:
            violations.append(
                (f"seepage landing on {labels[row]}", float(abs(m[row, 4]))))
    if violations:
        worst = max(v for _, v in violations)
        raise AssumptionError(
            f"channel violates the incoherent-leakage block form "
            f"({len(violations)} couplings, worst {worst:.3e}; tol {STRUCTURE_TOL:.1e})",
            violations,
        )


@dataclass(frozen=True)
class TwirledChannel:
    """Clifford average of a leakage channel, reduced to five numbers.

    ``matrix`` keeps the full averaged superoperator (traceless extra
    operators pass through the average untouched).
    """

    base: float
    leakage: float
    seepage: float
    qubit_identity: float
    extra_identity: float
    matrix: np.ndarray = field(repr=False)

    @property
    def t_minus(self) -> float:
        return 1.0 - self.leakage - self.seepage


def twirl(channel: LeakageChannel) -> TwirledChannel:
    """Average the channel over the 24 Clifford gates.

    Validates the block structure first (see :func:`validate_leakage_form`),
    performs the explicit 24-element average, and verifies that the averaged
    matrix matches the closed form on the reachable block before returning
    the extracted coefficients.  A channel that passes the structure check
    yet misses the closed form by more than ``TWIRL_MATCH_TOL`` (an imbalance
    just under ``STRUCTURE_TOL``) raises :class:`AssumptionError` too.
    """
    validate_leakage_form(channel)
    gates = clifford.superop_table()
    m = channel.matrix
    averaged = np.einsum("nij,jk,nlk->il", gates, m, gates) / gates.shape[0]

    base = float((averaged[1, 1] + averaged[2, 2] + averaged[3, 3]) / 3.0)
    leakage = float(averaged[4, 0])
    seepage = float(averaged[0, 4])
    qubit_identity = float(averaged[0, 0])
    extra_identity = float(averaged[4, 4])

    predicted = np.zeros((5, 5))
    predicted[0, 0] = qubit_identity
    predicted[1, 1] = predicted[2, 2] = predicted[3, 3] = base
    predicted[4, 0] = leakage
    predicted[0, 4] = seepage
    predicted[4, 4] = extra_identity
    mismatch = averaged[_REACHABLE, _REACHABLE] - predicted
    deviations = {
        "block mismatch": float(np.max(np.abs(mismatch))),
        "spill": max(float(np.max(np.abs(averaged[5:, :5]))),
                     float(np.max(np.abs(averaged[:5, 5:])))),
        "axis spread": float(max(abs(averaged[1, 1] - averaged[2, 2]),
                                 abs(averaged[2, 2] - averaged[3, 3]))),
    }
    if max(deviations.values()) > TWIRL_MATCH_TOL:
        raise AssumptionError(
            "Clifford average deviates from its closed form ("
            + ", ".join(f"{k} {v:.3e}" for k, v in deviations.items()) + ")",
            [(k, v) for k, v in deviations.items() if v > TWIRL_MATCH_TOL])
    return TwirledChannel(base, leakage, seepage, qubit_identity,
                          extra_identity, averaged)


@dataclass(frozen=True)
class DecayEigensystem:
    """Spectral pieces of the 2x2 population-exchange matrix [[1-L, S], [L, 1-S]].

    ``pi_plus`` projects onto the stationary direction, ``pi_minus`` onto the
    decaying one; powers of the matrix are ``pi_plus + t_minus**l * pi_minus``.
    Both projectors are ``None`` in the degenerate L = S = 0 case, where the
    matrix is the identity and the split is undefined.
    """

    t_plus: float
    t_minus: float
    pi_plus: np.ndarray | None
    pi_minus: np.ndarray | None
    degenerate: bool


def decay_eigensystem(leakage: float, seepage: float) -> DecayEigensystem:
    if leakage < 0 or seepage < 0:
        raise ValueError("leakage and seepage must be non-negative")
    total = leakage + seepage
    if total < 1e-15:
        return DecayEigensystem(1.0, 1.0, None, None, True)
    pi_plus = np.array([[seepage, seepage], [leakage, leakage]]) / total
    pi_minus = np.array([[leakage, -seepage], [-leakage, seepage]]) / total
    return DecayEigensystem(1.0, 1.0 - total, pi_plus, pi_minus, False)
