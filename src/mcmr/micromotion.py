"""Detection-beam physics for ions displaced from the RF null.

An ion displaced by ``r`` from the trap axis rides the RF drive with an
oscillation amplitude ``A = sqrt(2) * (omega_secular / omega_rf) * r``.  A
detection beam of wavevector ``k`` at angle ``theta`` to the motion then
drives the ion with a phase-modulated field of modulation index
``n = k A cos(theta)``: the carrier is weighted by ``J_0(n)^2`` and each
micromotion sideband ``v`` by ``J_v(n)^2``, detuned by ``v`` times the drive
frequency.  Summing the Lorentzian-weighted sidebands gives the photon
scattering rate relative to an undisplaced ion,

    I(n)/I(0) = J_0(n)^2 + 2 * sum_v J_v(n)^2 / (1 + (2 v Omega / Gamma)^2),

which dips sharply at the zeros of ``J_0``.  Parking a neighbouring ion on
such a zero hides it from resonant detection light.

The second half of the module models what the remaining scattered light does
to a hidden ion's hyperfine ground states: optical pumping among the three
F=1 sublevels and, for the fit helpers, the depumping curve
``p(t) = (2/3)(1 - exp(-3 gamma t))`` of a bright state under equal-rate
scattering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.linalg import expm
from scipy.optimize import brentq, curve_fit

from .config import Config, checked, load_json
from .errors import ConfigError, DataFormatError, FitError

#: default number of sideband harmonics kept in the suppression sum
DEFAULT_HARMONIC_CUTOFF = 50

#: number of F=1 ground-state sublevels in the optical-pumping rate model
N_BRIGHT = 3


@dataclass(frozen=True)
class TrapBeamConfig(Config):
    """Trap drive, ion displacement and detection-beam geometry.

    Frequencies may be supplied as ordinary or angular frequencies as long as
    the convention is consistent; only ratios and ``k * displacement`` enter
    the physics.
    """

    rf_frequency_hz: float = checked(gt=0.0)
    secular_frequency_hz: float = checked(gt=0.0)
    linewidth_hz: float = checked(gt=0.0)
    wavelength_m: float = checked(gt=0.0)
    beam_angle_deg: float
    displacement_m: float = checked(ge=0.0)

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength_m

    @property
    def rf_over_linewidth(self) -> float:
        return self.rf_frequency_hz / self.linewidth_hz

    @classmethod
    def from_json(cls, path) -> "TrapBeamConfig":
        return cls.from_dict(load_json(path, "trap config"))


def modulation_index(config: TrapBeamConfig,
                     displacement: float | np.ndarray | None = None):
    """Phase-modulation index ``n = k A cos(theta)`` for the detection beam.

    ``displacement`` overrides the config value when given (scalar or array),
    which is how displacement scans are computed.
    """
    r = config.displacement_m if displacement is None else np.asarray(displacement, float)
    amp = math.sqrt(2.0) * (config.secular_frequency_hz / config.rf_frequency_hz) * r
    return config.wavenumber * amp * math.cos(math.radians(config.beam_angle_deg))


def displacement_for_index(config: TrapBeamConfig, index: float) -> float:
    """Invert :func:`modulation_index` (it is linear in the displacement)."""
    # a beam this close to perpendicular cannot be inverted meaningfully
    if abs(math.cos(math.radians(config.beam_angle_deg))) < 1e-9:
        raise ConfigError("modulation index does not depend on displacement "
                          "(beam perpendicular to the motion?)")
    return float(index / modulation_index(config, displacement=1.0))


def suppression_factor(index, rf_over_linewidth: float,
                       harmonic_cutoff: int = DEFAULT_HARMONIC_CUTOFF):
    """Scattering rate relative to an undisplaced ion.

    Parameters
    ----------
    index : float or array_like
        Modulation index ``n``.
    rf_over_linewidth : float
        RF drive frequency over the transition linewidth, ``Omega / Gamma``
        (same frequency convention for both).
    harmonic_cutoff : int
        Highest sideband order kept; ``J_v(n)`` decays super-exponentially
        past ``v ~ n`` so the default is far more than enough for ``n < 30``.

    Returns
    -------
    float or ndarray, in (0, 1]; equals 1 at ``n = 0``.
    """
    if rf_over_linewidth <= 0:
        raise ValueError("rf_over_linewidth must be positive")
    if harmonic_cutoff < 1:
        raise ValueError("harmonic_cutoff must be at least 1")
    n = np.asarray(index, dtype=float)
    total = special.j0(n) ** 2
    for v in range(1, harmonic_cutoff + 1):
        weight = 1.0 / (1.0 + (2.0 * v * rf_over_linewidth) ** 2)
        total = total + 2.0 * weight * special.jv(v, n) ** 2
    if np.ndim(index) == 0:
        return float(total)
    return total


def carrier_null_index(bracket: tuple[float, float]) -> float:
    """Root of ``J_0`` inside ``bracket`` (a carrier-extinction point)."""
    lo, hi = bracket
    flo, fhi = special.j0(lo), special.j0(hi)
    if flo * fhi >= 0:
        raise ValueError(f"bracket {bracket} does not straddle a J0 zero")
    return float(brentq(special.j0, lo, hi, xtol=1e-14, rtol=8.9e-16))


def first_null_modulation_index(bracket: tuple[float, float] = (2.0, 3.0)) -> float:
    """The smallest modulation index that extinguishes the carrier (~2.4048)."""
    return carrier_null_index(bracket)


def suppression_scan(config: TrapBeamConfig, displacements: np.ndarray):
    """Modulation index and suppression for an array of displacements."""
    disp = np.asarray(displacements, dtype=float)
    idx = modulation_index(config, displacement=disp)
    sup = suppression_factor(idx, config.rf_over_linewidth)
    return idx, sup


# ---------------------------------------------------------------------------
# optical pumping among the bright (F=1) sublevels


#: asymptotic dark fraction of a bright state under equal-rate scattering
BRIGHT_ASYMPTOTE = 2.0 / 3.0


def _depump_curve(t, gamma, amplitude=BRIGHT_ASYMPTOTE):
    return amplitude * (1.0 - np.exp(-3.0 * gamma * t))


def depump_probability(gamma: float, t):
    """Probability that a bright state has pumped to dark after exposure ``t``.

    Equal-rate scattering at ``gamma`` per final state gives
    ``p(t) = (2/3)(1 - exp(-3 gamma t))``; the 2/3 asymptote is the uniform
    population of the two field-insensitive neighbours of the initial state.
    """
    t = np.asarray(t, dtype=float)
    out = _depump_curve(t, gamma)
    if np.ndim(t) == 0:
        return float(out)
    return out


def rate_generator(rates: np.ndarray) -> np.ndarray:
    """Population generator G (``dp/dt = G p``) of jump rates ``rates[a, b]``."""
    g = rates.T.copy()
    np.fill_diagonal(g, 0.0)
    out_rates = rates.sum(axis=1) - np.diag(rates)  # elastic jumps do not move population
    g[np.diag_indices(len(rates))] = -out_rates
    return g


@dataclass(frozen=True)
class RateModel:
    """Scattering rates among the three bright sublevels.

    ``rates[a, b]`` is the rate from sublevel ``a`` to sublevel ``b`` (indices
    0..2); the diagonal holds elastic self-scattering, which leaves
    populations alone but matters for coherence damping elsewhere.
    """

    rates: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        if r.shape != (N_BRIGHT, N_BRIGHT):
            raise ValueError(f"rates must be {N_BRIGHT}x{N_BRIGHT}, got {r.shape}")
        if np.any(r < 0):
            raise ValueError("rates must be non-negative")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "rates", r)

    @classmethod
    def equal_rates(cls, gamma: float) -> "RateModel":
        """Every transition (elastic included) at the same rate ``gamma``."""
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        return cls(np.full((N_BRIGHT, N_BRIGHT), float(gamma)))

    def generator(self) -> np.ndarray:
        """Population-evolution generator G with ``dp/dt = G p``."""
        return rate_generator(self.rates)

    def evolve(self, populations, times):
        """Populations at the requested times.

        One matrix exponential of the generator per time.  Returns an array
        of shape ``(len(times), 3)``, or ``(3,)`` for a scalar time.
        """
        p0 = np.asarray(populations, dtype=float)
        if p0.shape != (N_BRIGHT,):
            raise ValueError(f"populations must have shape ({N_BRIGHT},)")
        if np.any(p0 < -1e-12):
            raise ValueError("populations must be non-negative")
        scalar = np.ndim(times) == 0
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        g = self.generator()
        out = np.stack([expm(g * t) @ p0 for t in ts])
        return out[0] if scalar else out


# ---------------------------------------------------------------------------
# depump-curve fitting


@dataclass(frozen=True)
class DepumpFit:
    """Result of fitting ``p(t) = amplitude * (1 - exp(-3 gamma t))``."""

    gamma: float
    gamma_sigma: float
    amplitude: float
    amplitude_sigma: float
    free_amplitude: bool

    @property
    def time_constant(self) -> float:
        return 1.0 / self.gamma

    @property
    def time_constant_sigma(self) -> float:
        return self.gamma_sigma / self.gamma ** 2


def _depump_sigma(fractions: np.ndarray, shots: np.ndarray) -> np.ndarray:
    # binomial error bars with a mild regularisation so 0/1 fractions stay usable
    smoothed = (fractions * shots + 1.0) / (shots + 2.0)
    return np.sqrt(smoothed * (1.0 - smoothed) / shots)


def fit_depump(times, dark_fractions, shots=None,
               free_amplitude: bool = False) -> DepumpFit:
    """Fit the bright-state depumping curve and return the pumping rate.

    Parameters
    ----------
    times, dark_fractions : array_like
        Exposure times and the measured dark-outcome fractions.
    shots : array_like or int, optional
        Shots behind each fraction; enables binomial weighting.
    free_amplitude : bool
        Fit the asymptote too instead of pinning it at 2/3.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(dark_fractions, dtype=float)
    if t.shape != f.shape or t.ndim != 1:
        raise DataFormatError("times and dark_fractions must be 1-D and equal length")
    if t.size < (2 if free_amplitude else 1) + 1:
        raise DataFormatError("not enough points to constrain the depump fit")
    if np.any(f < 0) or np.any(f > 1):
        raise DataFormatError("dark fractions must lie in [0, 1]")
    if np.any(t < 0):
        raise DataFormatError("times must be non-negative")

    sigma = None
    if shots is not None:
        n = np.broadcast_to(np.asarray(shots, dtype=float), t.shape)
        if np.any(n <= 0):
            raise DataFormatError("shots must be positive")
        sigma = _depump_sigma(f, n)

    # initial rate from the first half-rise crossing
    a0 = max(float(f.max()), 1e-3) if free_amplitude else BRIGHT_ASYMPTOTE
    above = np.nonzero(f >= 0.5 * a0)[0]
    t_half = t[above[0]] if above.size and t[above[0]] > 0 else max(float(np.median(t)), 1e-12)
    gamma0 = math.log(2.0) / (3.0 * t_half)

    if free_amplitude:
        p0, bounds = [gamma0, a0], ([0.0, 0.0], [np.inf, 1.0])
    else:  # the curve's amplitude stays at its default, 2/3
        p0, bounds = [gamma0], (0.0, np.inf)
    try:
        popt, pcov = curve_fit(_depump_curve, t, f, p0=p0, sigma=sigma,
                               absolute_sigma=sigma is not None,
                               bounds=bounds, maxfev=10000)
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"depump fit failed: {exc}") from exc
    sigmas = np.sqrt(np.diag(pcov))
    gamma, gamma_sig = popt[0], sigmas[0]
    amp, amp_sig = (popt[1], sigmas[1]) if free_amplitude else (BRIGHT_ASYMPTOTE, 0.0)
    if not np.isfinite(gamma) or gamma <= 0:
        raise FitError(f"depump fit returned unusable rate {gamma!r}")
    return DepumpFit(float(gamma), float(gamma_sig), float(amp), float(amp_sig),
                     free_amplitude)
