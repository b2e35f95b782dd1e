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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import varpro
from .channels import expm, rate_generator
from .config import INT64_MAX, Config, checked, load_json
from .errors import ConfigError, DataFormatError, FitError

#: number of sideband harmonics kept in the suppression sum
HARMONIC_CUTOFF = 50
#: largest modulation index the sum is exact for: against 400
#: harmonics its relative error is 0 up to 30, 1.4e-12 at 35 and 2e-8 at 40
MAX_MODULATION_INDEX = 30.0

#: bracket of the first zero of J_0 (the first carrier null)
FIRST_NULL_BRACKET = (2.0, 3.0)
#: midpoints of the trapezoid rule for ``J_v``: its error, about
#: ``J_{2N-v}(n)``, is below rounding for ``2N - v >= 78`` and ``|n| <= 40``,
#: which holds for every order up to ``HARMONIC_CUTOFF``
BESSEL_NODES = 64

#: displacements per evaluation of a scan's suppression
SCAN_BLOCK = 4096

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


@functools.cache
def _bessel_tables(orders: int):
    """``sin(t)``, ``2 cos(v t)/N`` for even v and ``2 sin(v t)/N`` for odd v
    on the first half of the N midpoints ``t`` of [0, pi], v <= orders."""
    t = (np.arange(BESSEL_NODES // 2) + 0.5) * (math.pi / BESSEL_NODES)
    vt = np.outer(t, np.arange(orders + 1))
    return (np.sin(t), 2.0 * np.cos(vt[:, 0::2]) / BESSEL_NODES,
            2.0 * np.sin(vt[:, 1::2]) / BESSEL_NODES)


def _bessel(n: np.ndarray, orders: int) -> np.ndarray:
    """``J_v(n)`` for v = 0..orders, shaped ``(*n.shape, orders + 1)``.

    The trapezoid rule on ``(1/pi) int_0^pi cos(v t - n sin t) dt``
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 385, 2014);
    nodes ``t`` and ``pi - t`` pair up into a cosine half for even v and a
    sine half for odd v.  ``einsum`` sums each point alike, whatever the
    shape of ``n``.
    """
    sin_t, even, odd = _bessel_tables(orders)
    phase = n[..., None] * sin_t
    out = np.empty((*phase.shape[:-1], orders + 1))
    out[..., 0::2] = np.einsum("...k,kv->...v", np.cos(phase), even)
    out[..., 1::2] = np.einsum("...k,kv->...v", np.sin(phase), odd)
    return out


def suppression_factor(index, rf_over_linewidth: float):
    """Scattering rate relative to an undisplaced ion, summed over ``HARMONIC_CUTOFF`` sidebands.

    Parameters
    ----------
    index : float or array_like
        Modulation index ``n``.
    rf_over_linewidth : float
        RF drive frequency over the transition linewidth, ``Omega / Gamma``
        (same frequency convention for both).

    Returns
    -------
    float or ndarray, in (0, 1]; equals 1 at ``n = 0``.
    """
    if not rf_over_linewidth > 0:  # NaN too
        raise ValueError("rf_over_linewidth must be positive")
    v = np.arange(1, HARMONIC_CUTOFF + 1)
    weights = np.concatenate(([1.0], 2.0 / (1.0 + (2.0 * v * rf_over_linewidth) ** 2)))
    j = _bessel(np.asarray(index, dtype=float), HARMONIC_CUTOFF)
    total = np.einsum("...v,v->...", j * j, weights)
    if np.ndim(index) == 0:
        return float(total)
    return total


def carrier_null_index(bracket: tuple[float, float]) -> float:
    """Root of ``J_0`` inside ``bracket`` (a carrier-extinction point): Newton
    steps with ``J_0' = -J_1`` inside the shrinking bracket, else bisection."""
    lo, hi = map(float, bracket)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket {bracket} is not finite")
    f_lo, f_hi = _bessel(np.array([lo, hi]), 0)[:, 0]
    if f_lo * f_hi >= 0:
        raise ValueError(f"bracket {bracket} does not straddle a J0 zero")
    x = 0.5 * (lo + hi)
    for _ in range(100):
        j0, j1 = _bessel(np.array(x), 1)
        newton = x + j0 / j1 if j1 else math.inf
        if abs(newton - x) <= 1e-15 * abs(x):
            return float(newton)
        lo, hi = (x, hi) if (j0 > 0) == (f_lo > 0) else (lo, x)
        x = newton if lo < newton < hi else 0.5 * (lo + hi)
    return float(x)


def first_null_modulation_index() -> float:
    """The smallest modulation index that extinguishes the carrier (~2.4048)."""
    return carrier_null_index(FIRST_NULL_BRACKET)


def suppression_scan(config: TrapBeamConfig, displacements: np.ndarray):
    """Modulation index and suppression for a 1-D array of displacements.

    The suppression is evaluated ``SCAN_BLOCK`` points at a time, which
    bounds the Bessel temporaries; each point sums alike in any block.
    """
    idx = modulation_index(config, displacement=np.asarray(displacements, dtype=float))
    sup = np.concatenate([suppression_factor(idx[i:i + SCAN_BLOCK], config.rf_over_linewidth)
                          for i in range(0, max(idx.size, 1), SCAN_BLOCK)])
    return idx, sup


# ---------------------------------------------------------------------------
# optical pumping among the bright (F=1) sublevels


#: asymptotic dark fraction of a bright state under equal-rate scattering
BRIGHT_ASYMPTOTE = 2.0 / 3.0


def depump_probability(gamma: float, t):
    """Probability that a bright state has pumped to dark after exposure ``t``.

    Equal-rate scattering at ``gamma`` per final state gives
    ``p(t) = (2/3)(1 - exp(-3 gamma t))``; the 2/3 asymptote is the uniform
    population of the two field-insensitive neighbours of the initial state.
    """
    t = np.asarray(t, dtype=float)
    out = _depump(np.exp(-3.0 * gamma * t), BRIGHT_ASYMPTOTE)
    return float(out) if np.ndim(t) == 0 else out


def _depump(x, amplitude):
    """The depump curve at ``x = exp(-3 gamma t)``."""
    return amplitude * (1.0 - x)


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
        if not np.all((r >= 0) & (r < np.inf)):
            raise ValueError("rates must be finite and non-negative")
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

        One matrix exponential of the generator for all times at once, each
        non-negative and finite times the rates, else ``ValueError``.  Returns
        an array of shape ``(len(times), 3)``, or ``(3,)`` for a scalar time.
        """
        p0 = np.asarray(populations, dtype=float)
        if p0.shape != (N_BRIGHT,):
            raise ValueError(f"populations must have shape ({N_BRIGHT},)")
        if np.any(p0 < -1e-12):
            raise ValueError("populations must be non-negative")
        scalar = np.ndim(times) == 0
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        if not np.all((ts >= 0) & (ts < np.inf)):  # NaN too
            raise ValueError("times must be finite and non-negative")
        with np.errstate(all="ignore"):  # an overflow raises below, not a warning
            out = expm(self.generator() * ts[:, None, None]) @ p0
        if not np.all(np.isfinite(out)):
            raise ValueError("rates times times overflow the matrix exponential")
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


def _depump_sigma(fractions: np.ndarray, shots: float) -> np.ndarray:
    # binomial error bars with a mild regularisation so 0/1 fractions stay usable
    smoothed = (fractions * shots + 1.0) / (shots + 2.0)
    return np.sqrt(smoothed * (1.0 - smoothed) / shots)


#: the depump curve, pinned or free, as a law of :func:`mcmr.varpro.profile_fit`:
#: ``rate = exp(-3 gamma t_unit)``, t_unit the first positive time; the rate
#: stays 1e-9 short of 1, so gamma stays positive (as ``curve_fit`` kept it).
#: The amplitude fits ``y`` on ``z = 1 - x``, ``x = rate**t``
#: (:func:`mcmr.varpro.scale_fit`), in [0, 1] or pinned at 2/3 by the default
#: argument
_DEPUMP_LAWS = {free: varpro.Law(
    _depump, lambda x: varpro.scale_terms(1.0 - x), varpro.scale_lanes,
    lambda terms, lanes, scale=None if free else BRIGHT_ASYMPTOTE: varpro.scale_fit(
        terms, lanes, 1.0, scale),
    0.0, ("amplitude", "rate"), sign=-1.0, ceiling=math.exp(-1e-9)) for free in (False, True)}


def fit_depump(times, dark_fractions, shots: int,
               free_amplitude: bool = False) -> DepumpFit:
    """Fit the bright-state depumping curve and return the pumping rate.

    Parameters
    ----------
    times, dark_fractions : array_like
        Exposure times and the measured dark-outcome fractions.
    shots : int
        Shots behind every fraction; weights each point by its binomial error bar.
    free_amplitude : bool
        Fit the asymptote too (in [0, 1]) instead of pinning it at 2/3.

    The benchmarking laws' variable projection (:func:`mcmr.varpro.profile_fit`)
    fits; sigmas come from ``(J^T W J)^-1``.  ``shots`` other than a positive
    integer, or a fitted parameter without its own distinct positive time
    (a time-0 point constrains neither), is a :class:`DataFormatError`.
    :class:`FitError` marks an unconstrained fit: a rate on the floor
    (saturated by the first positive time), on the ceiling with no more
    positive times than parameters, or a sigma 0 or non-finite.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(dark_fractions, dtype=float)
    if t.shape != f.shape or t.ndim != 1:
        raise DataFormatError("times and dark_fractions must be 1-D and equal length")
    n_params = 2 if free_amplitude else 1
    if t.size < n_params + 1:
        raise DataFormatError("not enough points to constrain the depump fit")
    if not np.all((f >= 0) & (f <= 1)):  # NaN too
        raise DataFormatError("dark fractions must lie in [0, 1]")
    if not np.all((t >= 0) & (t < np.inf)):
        raise DataFormatError("times must be finite and non-negative")
    n_times = np.unique(t[t > 0]).size
    if n_times < n_params:
        raise DataFormatError(f"the depump fit needs {n_params} distinct positive "
                              f"time(s), got {n_times}")

    if (type(shots) is bool or not isinstance(shots, (int, np.integer))
            or not 0 < shots <= INT64_MAX):
        raise DataFormatError(f"shots must be a positive integer, got {shots!r}")
    sigma = _depump_sigma(f, float(shots))

    law = _DEPUMP_LAWS[free_amplitude]
    t_unit = float(t[t > 0].min())
    amp, rate = (float(p[0]) for p in varpro.profile_fit(law, t / t_unit, f[None], sigma[None]))
    if not (varpro.RATE_FLOOR < rate < law.ceiling or rate == law.ceiling and n_times > n_params):
        raise FitError(f"depump fit is unconstrained: exp(-3 gamma t) sits on an end "
                       f"of its range, {rate:.9g} at the first positive time {t_unit:.3g} s")
    gamma = -math.log(rate) / (3.0 * t_unit)
    decay = np.exp(-3.0 * gamma * t)
    jac = np.stack((3.0 * amp * t * decay, 1.0 - decay)[:n_params]) / sigma
    variances = np.diag(np.linalg.pinv(jac @ jac.T))
    if not np.all(np.isfinite(variances) & (variances > 0)):
        raise FitError(f"depump fit is unconstrained: variances {variances.tolist()}")
    sigmas = np.sqrt(variances).tolist() + [0.0]
    return DepumpFit(gamma, sigmas[0], amp, sigmas[1], free_amplitude)
