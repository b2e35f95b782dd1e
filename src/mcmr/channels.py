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

Each is read in one place, :func:`leakage_seepage` and :func:`decay_base`;
the population-exchange decay factor is ``t_minus = 1 - L - S``.

:func:`twirl` averages a channel over the 24 Clifford gates, after checking
the structural assumptions that make the averaged channel exactly

    diag(1-L, base, base, base) on the qubit block,
    plus L and S couplings between the two identity components,

and raises :class:`~mcmr.errors.AssumptionError` with the offending
couplings otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import clifford, liouville
from .config import Config, checked
from .errors import AssumptionError, ConfigError

N_LEVELS = 4
POLARIZATION_BALANCED = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
DEFAULT_DARK_BRANCHING = 1.0 / 3.0

#: tolerance for the structural validation performed before twirling
STRUCTURE_TOL = 1e-8
#: internal consistency tolerance for the twirl closed form
TWIRL_MATCH_TOL = 1e-10
#: largest jump rate per window a channel is built for (about where the
#: ``scipy.linalg.expm`` of earlier versions stopped being finite)
MAX_JUMP_RATE = 1e38
#: Taylor coefficients ``1/k!`` of :func:`expm` in two blocks of eight, and
#: the norms up to which one or both sum exp to rounding (remainder <= 2**-53)
_TAYLOR_BLOCKS = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(2, 8)
_TAYLOR_REACH = (0.038, 0.682)

# supervector indices: qubit block, extra block, cross coherences
_REACHABLE = slice(0, 5)
_EXTRA_TRACELESS = slice(5, 8)
_CROSS = slice(8, 16)

#: (rows, cols, description) of every coupling the twirl's closed form forbids
_FORBIDDEN_COUPLINGS = (
    (_EXTRA_TRACELESS, _REACHABLE, "coupling into traceless extra operators: {col} -> {row}"),
    (_CROSS, _REACHABLE, "coupling into cross coherences: {col} -> {row}"),
    (_REACHABLE, _EXTRA_TRACELESS, "coupling from traceless extra operators: {col} -> {row}"),
    (_REACHABLE, _CROSS, "coupling from cross coherences: {col} -> {row}"),
    (slice(4, 5), slice(1, 3), "leakage sourced from {col}"),
    (slice(1, 3), slice(4, 5), "seepage landing on {row}"),
)


@dataclass(frozen=True, eq=False)
class LeakageChannel:
    """A qubit channel with explicit extra-level dynamics: ``matrix`` is its
    real, read-only 16x16 superoperator."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (liouville.N_BASIS, liouville.N_BASIS):
            raise ValueError(f"matrix must be 16x16, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def identity_channel() -> LeakageChannel:
    return LeakageChannel(np.eye(liouville.N_BASIS))


def compose(*steps: LeakageChannel) -> LeakageChannel:
    """Channel applying the given steps in time order (first argument first)."""
    if not steps:
        raise ValueError("need at least one channel")
    if len(steps) == 1:
        return steps[0]
    mat = steps[0].matrix
    for step in steps[1:]:
        mat = step.matrix @ mat
    return LeakageChannel(mat)


# ---------------------------------------------------------------------------
# rate-equation channel builders


def rate_generator(rates: np.ndarray) -> np.ndarray:
    """Population generator G (``dp/dt = G p``) of jump rates ``rates[a, b]``
    (an elastic jump ``rates[a, a]`` enters G twice and cancels)."""
    return rates.T - np.diag(rates.sum(axis=1))


@functools.cache
def _identity(n: int) -> np.ndarray:
    eye = np.identity(n)
    eye.setflags(write=False)  # one array serves every call
    return eye


def expm(a: np.ndarray) -> np.ndarray:
    """``exp`` of a matrix or of each matrix of a stack ``(..., n, n)``.

    Scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3, 2003): halve
    ``a`` until the stack's Frobenius norm, which bounds each matrix's, is
    within reach of one or two Taylor blocks, sum those over the powers
    ``x**0..x**7`` in one product, then square back.  A non-finite norm is a ValueError.
    """
    norm = math.sqrt(np.vdot(a, a))
    if not norm < math.inf:  # NaN too
        raise ValueError(f"cannot exponentiate a matrix of norm {norm}")
    s = math.ceil(math.log2(norm / _TAYLOR_REACH[1])) if norm > _TAYLOR_REACH[1] else 0
    blocks = 1 if norm <= _TAYLOR_REACH[0] else 2
    x = a * 2.0 ** -s if s else a  # exact: a power of two
    powers = np.empty((8, *a.shape))
    powers[0], powers[1] = _identity(a.shape[-1]), x
    x2 = x @ x
    np.matmul(powers[:2], x2, out=powers[2:4])
    x4 = x2 @ x2
    np.matmul(powers[:4], x4, out=powers[4:])
    poly = (_TAYLOR_BLOCKS[:blocks] @ powers.reshape(8, -1)).reshape(blocks, *a.shape)
    out = poly[0] if blocks == 1 else poly[0] + (x4 @ x4) @ poly[1]
    for _ in range(s):
        out = out @ out
    return out


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


def rate_scattering_channel(rates: np.ndarray) -> LeakageChannel:
    """Solve the Lindblad equation for jump operators ``sqrt(R[a,b]) |b><a|``.

    Populations evolve under the 4x4 rate generator (one matrix exponential);
    every coherence damps by ``exp(-(T_a + T_b)/2)`` with ``T`` the total
    outflow including elastic jumps.  The result is CPTP by construction.
    A jump rate above :data:`MAX_JUMP_RATE` (1e38), or NaN, raises
    :class:`ConfigError` naming the largest jump rate.
    """
    r = np.asarray(rates, dtype=float)
    if r.shape != (N_LEVELS, N_LEVELS):
        raise ValueError(f"rates must be {N_LEVELS}x{N_LEVELS}, got {r.shape}")
    if np.any(r < 0):
        raise ValueError("rates must be non-negative")
    if not np.all(r <= MAX_JUMP_RATE):
        largest = np.nanmax(r) if np.any(r > MAX_JUMP_RATE) else np.nan
        raise ConfigError(f"scattering rates too large: largest jump rate "
                          f"{largest:.3g}, at most {MAX_JUMP_RATE:.0e} allowed")
    totals = r.sum(axis=1)
    # |a><b| sits at column-stacked index a + 4 b, its population |a><a| at 5 a
    mvec = np.diag(np.exp(-(totals[:, None] + totals[None, :]) / 2.0).ravel(order="F"))
    populations = np.arange(N_LEVELS) * (N_LEVELS + 1)
    mvec[np.ix_(populations, populations)] = expm(rate_generator(r))
    return LeakageChannel(liouville.vec_to_basis_superop(mvec))


def measurement_crosstalk(gamma_t: float,
                          polarization=POLARIZATION_BALANCED) -> LeakageChannel:
    """Crosstalk of one detection window: pumping within F=1 only.

    ``gamma_t`` is the scattering probability per final state over the window
    (balanced case); the dark state is untouched and no population returns
    to it, so leakage equals seepage for balanced polarization.  This is
    :func:`reset_crosstalk` at ``dark_branching = 0``.
    """
    return reset_crosstalk(gamma_t, polarization, dark_branching=0.0)


def reset_crosstalk(gamma_t: float, polarization=POLARIZATION_BALANCED,
                    dark_branching: float = DEFAULT_DARK_BRANCHING) -> LeakageChannel:
    """Crosstalk of one reset window: pumping with a branch into the dark state.

    Any positive branching makes the window *remove* population from the
    bright manifold, so seepage exceeds leakage (``S - L = 1 - exp(-3 b
    gamma_t)`` for balanced polarization).
    """
    return rate_scattering_channel(
        scattering_rate_matrix(gamma_t, polarization, dark_branching))


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
    return LeakageChannel(liouville.kraus_to_superop(kraus))


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
        branching = self.dark_branching if self.kind == "reset" else 0.0
        # rates of a huge gamma_t overflow; the rate check names them instead
        with np.errstate(over="ignore", invalid="ignore"):
            return reset_crosstalk(self.gamma_t, self.polarization, branching)

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
    """(L, S): the matrix elements ``matrix[4, 0]`` and ``matrix[0, 4]``.

    L is the extra-level population of the evolved maximally mixed qubit
    state; S is the qubit population of the evolved maximally mixed
    extra-level state.
    """
    m = channel.matrix
    return float(m[4, 0]), float(m[0, 4])


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
    labels = liouville.BASIS_LABELS
    violations: list[tuple[str, float]] = []
    for rows, cols, description in _FORBIDDEN_COUPLINGS:
        block = np.abs(channel.matrix[rows, cols])
        for i, j in np.argwhere(block > STRUCTURE_TOL):
            where = description.format(row=labels[rows.start + i],
                                       col=labels[cols.start + j])
            violations.append((where, float(block[i, j])))
    if violations:
        worst = max(v for _, v in violations)
        raise AssumptionError(
            f"channel violates the incoherent-leakage block form "
            f"({len(violations)} couplings, worst {worst:.3e}; tol {STRUCTURE_TOL:.1e})",
            violations,
        )


@dataclass(frozen=True)
class TwirledChannel:
    """Clifford average of a leakage channel, reduced to three numbers.

    ``matrix`` keeps the full averaged superoperator (traceless extra
    operators pass through the average untouched).
    """

    base: float
    leakage: float
    seepage: float
    matrix: np.ndarray = field(repr=False)

    @property
    def t_minus(self) -> float:
        return 1.0 - self.leakage - self.seepage


def twirl(channel: LeakageChannel) -> TwirledChannel:
    """Average the channel over the 24 Clifford gates.

    Validates the block structure first (see :func:`validate_leakage_form`),
    performs the explicit 24-element average and checks its reachable block
    against the closed form predicted from the un-averaged channel: its
    subspace-identity entries, and :func:`decay_base` on the axis diagonal.
    A miss by more than ``TWIRL_MATCH_TOL`` (an imbalance just under
    ``STRUCTURE_TOL``) raises :class:`AssumptionError` too.
    """
    validate_leakage_form(channel)
    gates = clifford.superop_table()
    m = channel.matrix
    averaged = np.einsum("nij,jk,nlk->il", gates, m, gates) / gates.shape[0]

    base = decay_base(channel)
    leakage, seepage = leakage_seepage(channel)
    predicted = np.diag([0.0, base, base, base, 0.0])
    identities = np.ix_([0, 4], [0, 4])
    predicted[identities] = m[identities]
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
    return TwirledChannel(base, leakage, seepage, averaged)
