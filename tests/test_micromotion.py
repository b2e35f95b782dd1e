"""Tests for displacement-scan physics and optical-pumping models.

High-precision reference values were frozen from a 60-digit arbitrary
precision evaluation of the sideband sum, the Bessel zeros and the
exponential depump curve.
"""

import dataclasses
import decimal
import json
import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.linalg import expm

from mcmr import cli, micromotion, rb, varpro
from mcmr.errors import ConfigError, DataFormatError, FitError
from synthetic import (assert_cost_within_slack, bisection_profile_fit_oracle, carrier_null_oracle,
                       chandrupatla_profile_fit_oracle, fit_depump_oracle,
                       stacked_coarse_grid_oracle)

# 60-digit evaluations, rounded to double precision
FIRST_NULL = 2.4048255576957727686
SECOND_NULL = 5.5200781102863106496
SUPPRESSION_NEAR_NULL_RATIO2 = 0.038023435629434091845  # n=2.40483, Omega/Gamma=2
SUPPRESSION_N1_RATIO3 = 0.5961792551231434005           # n=1, Omega/Gamma=3
SUPPRESSION_AT_NULL_RATIO2 = 0.038023528967279302445
DEPUMP_AT_6P4_MS = 0.63347528775475737135               # gamma=156.25/s, t=6.4 ms


def make_config(displacement=1.0e-6):
    return micromotion.TrapBeamConfig(
        rf_frequency_hz=21.0e6,
        secular_frequency_hz=3.0e6,
        linewidth_hz=10.5e6,
        wavelength_m=369.5e-9,
        beam_angle_deg=0.0,
        displacement_m=displacement,
    )


def test_suppression_matches_frozen_values():
    got = micromotion.suppression_factor(2.40483, 2.0)
    np.testing.assert_allclose(got, SUPPRESSION_NEAR_NULL_RATIO2, rtol=1e-14)
    got1 = micromotion.suppression_factor(1.0, 3.0)
    np.testing.assert_allclose(got1, SUPPRESSION_N1_RATIO3, rtol=1e-14)


def test_suppression_is_one_at_zero_index():
    for ratio in (0.5, 2.0, 20.0):
        assert micromotion.suppression_factor(0.0, ratio) == pytest.approx(1.0, abs=1e-15)


def test_suppression_cutoff_converged_for_moderate_index():
    """The kept sidebands agree with an independent 200-harmonic sum."""
    v = np.arange(1, 201)
    hi = special.jv(0, 3.7) ** 2 + np.sum(2.0 * special.jv(v, 3.7) ** 2
                                          / (1.0 + (2.0 * v * 1.5) ** 2))
    np.testing.assert_allclose(micromotion.suppression_factor(3.7, 1.5), hi, rtol=1e-13)


def test_suppression_vectorizes():
    idx = np.linspace(0.0, 5.0, 17)
    vec = micromotion.suppression_factor(idx, 2.0)
    assert vec.shape == idx.shape
    for k, n in enumerate(idx):
        assert vec[k] == pytest.approx(micromotion.suppression_factor(float(n), 2.0),
                                       abs=1e-15)


def test_suppression_rejects_bad_arguments():
    for ratio in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="rf_over_linewidth must be positive"):
            micromotion.suppression_factor(1.0, ratio)


def test_null_finders_match_frozen_zeros():
    first = micromotion.first_null_modulation_index()
    assert abs(first - FIRST_NULL) < 1e-13
    second = micromotion.carrier_null_index((5.0, 6.0))
    assert abs(second - SECOND_NULL) < 1e-13


def test_null_finder_agrees_with_library_zeros():
    zeros = special.jn_zeros(0, 2)
    assert micromotion.first_null_modulation_index() == pytest.approx(zeros[0], abs=1e-12)
    assert micromotion.carrier_null_index((5.0, 6.0)) == pytest.approx(zeros[1], abs=1e-12)


def test_null_finder_rejects_bracket_without_sign_change():
    with pytest.raises(ValueError):
        micromotion.carrier_null_index((3.0, 5.0))


@pytest.mark.parametrize("bracket", [(math.nan, 6.0), (5.0, math.inf)])
def test_null_finder_rejects_non_finite_bracket(bracket, monkeypatch):
    """Refused by name before any Bessel evaluation (it returned the NaN or
    infinite end, the second with numpy warnings)."""
    def refuse(*args):
        raise AssertionError("Bessel evaluated")

    monkeypatch.setattr(micromotion, "_bessel", refuse)
    with pytest.raises(ValueError, match=r"bracket \(.*\) is not finite"):
        micromotion.carrier_null_index(bracket)


def test_suppression_at_exact_null_frozen_value():
    got = micromotion.suppression_factor(FIRST_NULL, 2.0)
    np.testing.assert_allclose(got, SUPPRESSION_AT_NULL_RATIO2, rtol=1e-13)


def test_modulation_index_formula_and_inverse():
    config = make_config(displacement=2.5e-7)
    k = 2.0 * math.pi / config.wavelength_m
    expected = k * math.sqrt(2.0) * (3.0e6 / 21.0e6) * 2.5e-7
    assert micromotion.modulation_index(config) == pytest.approx(expected, rel=1e-14)
    disp = micromotion.displacement_for_index(config, FIRST_NULL)
    assert micromotion.modulation_index(config, displacement=disp) == pytest.approx(
        FIRST_NULL, rel=1e-14)


def test_modulation_index_beam_angle_projection():
    straight = make_config()
    angled = micromotion.TrapBeamConfig(**{**straight.to_dict(),
                                           "beam_angle_deg": 60.0})
    ratio = micromotion.modulation_index(angled) / micromotion.modulation_index(straight)
    assert ratio == pytest.approx(0.5, rel=1e-12)


def test_displacement_for_index_rejects_perpendicular_beam():
    perp = micromotion.TrapBeamConfig(**{**make_config().to_dict(),
                                         "beam_angle_deg": 90.0})
    with pytest.raises(ConfigError):
        micromotion.displacement_for_index(perp, 1.0)


def test_suppression_scan_consistent_with_pointwise_eval():
    config = make_config()
    disp = np.linspace(0.0, 2.0e-6, 40)
    idx, sup = micromotion.suppression_scan(config, disp)
    np.testing.assert_allclose(idx, micromotion.modulation_index(config, disp),
                               rtol=1e-14)
    np.testing.assert_allclose(
        sup, micromotion.suppression_factor(idx, config.rf_over_linewidth),
        rtol=1e-14)


def test_blocked_scan_equals_one_evaluation():
    """A scan spanning several blocks equals one ``suppression_factor`` call
    on all its indices, bit for bit."""
    config = make_config()
    disp = np.linspace(0.0, 4.0e-6, 3 * micromotion.SCAN_BLOCK + 17)
    idx, sup = micromotion.suppression_scan(config, disp)
    assert np.array_equal(sup, micromotion.suppression_factor(idx, config.rf_over_linewidth))
    assert micromotion.suppression_scan(config, disp[:0])[1].shape == (0,)


def test_config_round_trip_and_validation(tmp_path):
    config = make_config()
    assert micromotion.TrapBeamConfig.from_dict(config.to_dict()) == config

    path = tmp_path / "trap.json"
    path.write_text(json.dumps(config.to_dict()))
    assert micromotion.TrapBeamConfig.from_json(path) == config

    with pytest.raises(ConfigError):
        micromotion.TrapBeamConfig.from_dict({})
    bad = config.to_dict()
    bad["typo_key"] = 1.0
    with pytest.raises(ConfigError):
        micromotion.TrapBeamConfig.from_dict(bad)
    worse = config.to_dict()
    worse["linewidth_hz"] = "wide"
    with pytest.raises(ConfigError):
        micromotion.TrapBeamConfig.from_dict(worse)
    with pytest.raises(ConfigError):
        micromotion.TrapBeamConfig.from_json(tmp_path / "absent.json")
    with pytest.raises(ConfigError):
        micromotion.TrapBeamConfig(**{**config.to_dict(), "linewidth_hz": 0.0})
    for key, value in (("displacement_m", float("nan")),
                       ("beam_angle_deg", float("nan")),
                       ("rf_frequency_hz", float("inf")),
                       ("displacement_m", -1e-6),
                       ("wavelength_m", True),
                       ("linewidth_hz", [1.0])):
        with pytest.raises(ConfigError, match=key):
            micromotion.TrapBeamConfig.from_dict({**config.to_dict(), key: value})
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        micromotion.TrapBeamConfig.from_json(path)


# ---------------------------------------------------------------------------
# optical pumping


def test_depump_probability_frozen_value():
    np.testing.assert_allclose(micromotion.depump_probability(156.25, 6.4e-3),
                               DEPUMP_AT_6P4_MS, rtol=1e-15)
    assert micromotion.depump_probability(156.25, 0.0) == 0.0


def test_equal_rates_evolution_matches_closed_form():
    """Equal-rate pumping from the prepared state follows 1/3 + (2/3) e^{-3 g t}."""
    gamma = 80.0
    model = micromotion.RateModel.equal_rates(gamma)
    times = np.linspace(0.0, 0.02, 9)
    pops = model.evolve(np.array([1.0, 0.0, 0.0]), times)
    stay = (1.0 + 2.0 * np.exp(-3.0 * gamma * times)) / 3.0
    move = (1.0 - np.exp(-3.0 * gamma * times)) / 3.0
    np.testing.assert_allclose(pops[:, 0], stay, atol=1e-12)
    np.testing.assert_allclose(pops[:, 1], move, atol=1e-12)
    np.testing.assert_allclose(pops[:, 2], move, atol=1e-12)
    np.testing.assert_allclose(pops.sum(axis=1), 1.0, atol=1e-12)


def test_depump_probability_equals_rate_model_complement():
    gamma = 156.25
    model = micromotion.RateModel.equal_rates(gamma)
    times = np.array([1e-4, 1e-3, 6.4e-3, 0.05])
    pops = model.evolve(np.array([1.0, 0.0, 0.0]), times)
    np.testing.assert_allclose(pops[:, 1] + pops[:, 2],
                               micromotion.depump_probability(gamma, times),
                               atol=1e-12)


def test_evolve_agrees_with_matrix_exponential():
    rng = np.random.default_rng(31)
    for _ in range(15):
        model = micromotion.RateModel(rng.uniform(0.0, 200.0, size=(3, 3)))
        p0 = rng.dirichlet(np.ones(3))
        t = float(rng.uniform(0.0, 0.05))
        expected = expm(model.generator() * t) @ p0
        np.testing.assert_allclose(model.evolve(p0, t), expected, atol=1e-10)


def test_elastic_rates_do_not_move_population():
    quiet = micromotion.RateModel(np.diag([50.0, 120.0, 300.0]))
    p0 = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(quiet.evolve(p0, 0.1), p0, atol=1e-12)


def test_rate_model_validation():
    with pytest.raises(ValueError):
        micromotion.RateModel(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        micromotion.RateModel(-np.ones((3, 3)))
    with pytest.raises(ValueError):
        micromotion.RateModel.equal_rates(1.0).evolve(np.array([1.0, 0.0]), 0.1)
    # a negative time, or rates times times past float range, is a
    # ValueError: no RuntimeWarning, no OverflowError from the exponential
    p0 = [1.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma, times in ((1.0, -1.0), (1.0, [0.0, -1e-3]), (1.0, np.nan),
                             (1e300, 1e10), (1e308, 1.0), (1.0, 1e18)):
            with pytest.raises(ValueError):
                micromotion.RateModel.equal_rates(gamma).evolve(p0, times)
        np.testing.assert_allclose(micromotion.RateModel.equal_rates(1.0).evolve(p0, 1e3),
                                   np.full(3, 1.0 / 3.0), rtol=1e-12)


def test_fit_depump_recovers_rate_noiseless():
    gamma = 156.25
    times = np.linspace(0.5e-3, 20e-3, 12)
    fractions = micromotion.depump_probability(gamma, times)
    fit = micromotion.fit_depump(times, fractions, shots=1000)
    assert fit.gamma == pytest.approx(gamma, rel=1e-8)
    assert fit.amplitude == micromotion.BRIGHT_ASYMPTOTE
    assert fit.time_constant == pytest.approx(1.0 / gamma, rel=1e-8)


def test_fit_depump_free_amplitude():
    times = np.linspace(0.5e-3, 30e-3, 20)
    fractions = 0.58 * (1.0 - np.exp(-3.0 * 100.0 * times))
    fit = micromotion.fit_depump(times, fractions, shots=1000, free_amplitude=True)
    assert fit.free_amplitude
    assert fit.gamma == pytest.approx(100.0, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.58, rel=1e-6)


def test_fit_depump_noisy_round_trip():
    rng = np.random.default_rng(67)
    gamma = 156.25
    times = np.linspace(0.5e-3, 25e-3, 14)
    shots = 500
    hits = 0
    for _ in range(10):
        fractions = rng.binomial(shots, micromotion.depump_probability(gamma, times)) / shots
        fit = micromotion.fit_depump(times, fractions, shots=shots)
        if abs(fit.gamma - gamma) < 3.0 * max(fit.gamma_sigma, 1e-9):
            hits += 1
    assert hits >= 8


def test_fit_depump_input_validation():
    with pytest.raises(DataFormatError):
        micromotion.fit_depump([1e-3], [0.5, 0.6], shots=1000)
    with pytest.raises(DataFormatError):
        micromotion.fit_depump([1e-3, 2e-3], [0.5, 1.5], shots=1000)
    with pytest.raises(DataFormatError):
        micromotion.fit_depump([-1e-3, 2e-3], [0.5, 0.6], shots=1000)
    with pytest.raises(DataFormatError):
        micromotion.fit_depump([1e-3], [0.5], shots=1000)
    for times, fractions in (([1e-3, 2e-3, np.inf], [0.1, 0.2, 0.3]),
                             ([1e-3, 2e-3, 3e-3], [0.1, np.nan, 0.3])):
        with pytest.raises(DataFormatError):
            micromotion.fit_depump(times, fractions, shots=1000)
    for shots in (None, 0, -5, 2.5, 1000.0, True, np.nan, np.inf, 2 ** 63,
                  [100, 200], [100, np.nan, 100]):
        with pytest.raises(DataFormatError, match="shots must be a positive integer"):
            micromotion.fit_depump([1e-3, 2e-3, 3e-3], [0.1, 0.2, 0.3], shots=shots)
    fit = micromotion.fit_depump([1e-3, 2e-3, 3e-3], [0.1, 0.2, 0.3], shots=np.int64(1000))
    assert fit == micromotion.fit_depump([1e-3, 2e-3, 3e-3], [0.1, 0.2, 0.3], shots=1000)


def test_fit_depump_all_dark_never_resolves_a_rate():
    """All-zero fractions fit to a rate indistinguishable from zero."""
    times = np.linspace(1e-3, 5e-3, 6)
    fit = micromotion.fit_depump(times, np.zeros_like(times), shots=1000)
    assert fit.gamma * times.max() < 1e-3
    assert fit.gamma < 3.0 * fit.gamma_sigma


def test_fit_depump_pinned_rate_is_a_fit_error(tmp_path, capsys):
    """A rate on an end of its range is unconstrained: past the first positive
    time's resolution (every point saturated), or about 0 with no more
    positive times than parameters.  The CLI exits 4 on the first."""
    with pytest.raises(FitError, match="unconstrained.*1e-09 at the first positive time"):
        micromotion.fit_depump([0.0, 1e-3, 2e-3, 3e-3], [0.0, 0.7, 0.7, 0.7], shots=1000)
    with pytest.raises(FitError, match="unconstrained.*0.999999999 at"):
        micromotion.fit_depump([0.0, 0.0, 0.01], [0.0, 0.0, 0.0], shots=1000)
    config = tmp_path / "depump.json"
    config.write_text(json.dumps({"gamma_per_s": 1e4, "times_s": [0, 0.01, 0.02]}))
    rc = cli.main(["depump", "--config", str(config), "--out", str(tmp_path / "out"),
                   "--seed", "1"])
    samples = (tmp_path / "out" / "depump_samples.csv").read_text().splitlines()
    assert [int(row.split(",")[2]) for row in samples[2:]] == [673, 689]  # above 2/3
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: depump fit is unconstrained") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the numpy routes against the scipy routes they replaced


def test_bessel_matches_scipy_oracle():
    """``J_v`` to 1e-14 for v <= 50 and n <= 30, at any cutoff, and a point's
    value does not depend on the shape of the array it comes in."""
    n = np.linspace(0.0, 30.0, 2001)
    for orders in (1, 200, 50):
        got = micromotion._bessel(n, orders)
        want = special.jv(np.arange(orders + 1), n[:, None])
        assert np.max(np.abs(got[:, :51] - want[:, :51])) <= 1e-14, orders
    for i in range(0, n.size, 97):
        assert np.array_equal(micromotion._bessel(n[i], 50), got[i])
        assert np.array_equal(micromotion._bessel(n[i:i + 1], 50)[0], got[i])


def test_null_finder_matches_brentq_oracle():
    for bracket in (micromotion.FIRST_NULL_BRACKET, (5.0, 6.0), (8.0, 9.0), (-3.0, -2.0)):
        assert micromotion.carrier_null_index(bracket) == pytest.approx(
            carrier_null_oracle(bracket), abs=1e-14)


@pytest.mark.parametrize("free_amplitude", [False, True])
@pytest.mark.parametrize("shots", [1000])
def test_fit_depump_matches_curve_fit_oracle(free_amplitude, shots):
    """Rates within 1e-8 and sigmas within 1e-6 relative of the tightened
    ``curve_fit`` fit of earlier versions.  Where the rates differ by more,
    the oracle's fit costs more than ours (40-digit arithmetic): the
    optimum is only flat to float64 rounding there."""
    rng = np.random.default_rng(70)
    for _ in range(25):
        gamma = rng.uniform(20.0, 200.0)
        times = np.linspace(0.0, rng.uniform(1.0, 6.0) / gamma, 12)
        amplitude = rng.uniform(0.4, 0.8) if free_amplitude else micromotion.BRIGHT_ASYMPTOTE
        fractions = rng.binomial(1000, amplitude * (1.0 - np.exp(-3.0 * gamma * times))) / 1000
        fit = micromotion.fit_depump(times, fractions, shots=shots, free_amplitude=free_amplitude)
        ours = (fit.gamma, fit.gamma_sigma, fit.amplitude, fit.amplitude_sigma)
        oracle = fit_depump_oracle(times, fractions, shots, free_amplitude, tol=1e-15)
        np.testing.assert_allclose(ours[1::2], oracle[1::2], rtol=1e-6)
        if abs(ours[0] / oracle[0] - 1.0) > 1e-8:
            sigma = micromotion._depump_sigma(fractions, np.full(12, 1000.0))
            assert (_depump_cost(times, fractions, sigma, ours[0], ours[2])
                    <= _depump_cost(times, fractions, sigma, oracle[0], oracle[2]))
        np.testing.assert_allclose(ours[2], oracle[2], rtol=1e-7)


def _depump_cost(times, fractions, sigma, gamma, amplitude) -> decimal.Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal
        total = d(0)
        for t, f, s in zip(times, fractions, sigma):
            model = d(amplitude) * (1 - (d(-3) * d(gamma) * d(t)).exp())
            total += ((d(f) - model) / d(s)) ** 2
        return total


def _long_depump_cost(times, fractions, sigma, gamma, amplitude) -> np.longdouble:
    """``_depump_cost`` in numpy's extended precision, for curves too long
    for decimal arithmetic (64-bit significands on x86-64)."""
    t, f, s = (np.asarray(a, dtype=np.longdouble) for a in (times, fractions, sigma))
    model = np.longdouble(amplitude) * -np.expm1(np.longdouble(-3.0) * np.longdouble(gamma) * t)
    return np.sum(((f - model) / s) ** 2)


def _assert_depump_no_costlier(monkeypatch, times, fractions, cost=_depump_cost, **kwargs):
    """``fit_depump`` with the package's profile fit costs no more than with
    the bisection oracle's (the slack's floor is the cost of model 0)."""
    ours = micromotion.fit_depump(times, fractions, shots=1000, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(varpro, "profile_fit", bisection_profile_fit_oracle)
        oracle = micromotion.fit_depump(times, fractions, shots=1000, **kwargs)
    if ours != oracle:
        sigma = micromotion._depump_sigma(fractions, np.full(times.shape, 1000.0))
        costs = [float(cost(times, fractions, sigma, fit.gamma, fit.amplitude))
                 for fit in (ours, oracle, dataclasses.replace(ours, amplitude=0.0))]
        assert_cost_within_slack(*costs, (ours, oracle))


@pytest.mark.parametrize("free_amplitude", [False, True])
def test_fit_depump_matches_bisection_oracle(free_amplitude, monkeypatch):
    """The root search costs no more than the 30-halving bisection."""
    rng = np.random.default_rng(71)
    for _ in range(50):
        gamma = rng.uniform(20.0, 200.0)
        times = np.linspace(0.0, rng.uniform(1.0, 6.0) / gamma, 12)
        amplitude = rng.uniform(0.4, 0.8) if free_amplitude else micromotion.BRIGHT_ASYMPTOTE
        fractions = rng.binomial(1000, amplitude * (1.0 - np.exp(-3.0 * gamma * times))) / 1000
        _assert_depump_no_costlier(monkeypatch, times, fractions, free_amplitude=free_amplitude)


@pytest.mark.parametrize("free_amplitude", [False, True])
def test_fit_depump_equals_chandrupatla_oracle(free_amplitude, monkeypatch):
    """A depump law has one candidate, so tracking the box's active set
    leaves its search as it was, bit for bit."""
    rng = np.random.default_rng(73)
    for _ in range(30):
        gamma = rng.uniform(20.0, 200.0)
        times = np.linspace(0.0, rng.uniform(1.0, 6.0) / gamma, 12)
        fractions = rng.binomial(1000, 0.6 * (1.0 - np.exp(-3.0 * gamma * times))) / 1000
        ours = micromotion.fit_depump(times, fractions, shots=1000, free_amplitude=free_amplitude)
        with monkeypatch.context() as m:
            m.setattr(varpro, "profile_fit", chandrupatla_profile_fit_oracle)
            assert micromotion.fit_depump(times, fractions, shots=1000,
                                          free_amplitude=free_amplitude) == ours


@pytest.mark.parametrize("points", [12, 100_000])
@pytest.mark.parametrize("free_amplitude", [False, True])
def test_depump_coarse_grid_matches_stacked_oracle(points, free_amplitude, monkeypatch):
    """Scoring the coarse grid one point block at a time, without candidate
    stacks, picks the stacked grid's point for both depump laws, on a short
    curve and on a long one."""
    times = np.linspace(0.0, 0.02, points)
    fractions = np.random.default_rng(72).binomial(
        1000, micromotion.depump_probability(120.0, times)) / 1000
    fits = []
    real = varpro.profile_fit

    def recorded(spec, lengths, means, sems):
        fits.append((spec, lengths + spec.exponent_offset, means, varpro._lane_weights(sems)))
        return real(spec, lengths, means, sems)

    monkeypatch.setattr(varpro, "profile_fit", recorded)
    micromotion.fit_depump(times, fractions, shots=1000, free_amplitude=free_amplitude)
    (fit,) = fits
    spec, exponents, means, w = fit
    np.testing.assert_array_equal(varpro._coarse_grid(spec, exponents, spec.lanes(means, w)),
                                  stacked_coarse_grid_oracle(*fit))


def test_large_fit_depump_matches_bisection_oracle(monkeypatch):
    """A 100,000-point curve costs no more than with the bisection."""
    times = np.linspace(0.0, 0.02, 100_000)
    fractions = np.random.default_rng(72).binomial(
        1000, micromotion.depump_probability(120.0, times)) / 1000
    _assert_depump_no_costlier(monkeypatch, times, fractions, _long_depump_cost)
