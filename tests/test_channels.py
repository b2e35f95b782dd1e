"""Tests for the crosstalk channel builders and Clifford-average reduction.

The rate-equation builders have exact closed forms for balanced polarization
(every coherence and population factor is an explicit exponential in the
window's scattering probability), and an independent oracle exists for any
polarization: exponentiating the full Lindblad generator in the
column-stacked representation.  Both are used below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmr import channels, clifford, liouville, rb
from mcmr.errors import AssumptionError, ConfigError

from synthetic import choi_matrix, lindblad_vec_oracle, random_lambda_channel

GAMMA_T_VALUES = (1e-4, 1e-3, 1e-2, 0.1, 0.5)


def measurement_closed_form(s: float) -> dict:
    p = np.exp(-3.0 * s)
    leak = (1.0 - p) / 3.0
    return {
        "p": p,
        "leak": leak,
        "seep": leak,
        "xy": np.exp(-1.5 * s),
        "z": (2.0 + p) / 3.0,
        "cross_dark": np.sqrt(p),
    }


def test_measurement_closed_forms():
    for s in GAMMA_T_VALUES:
        ref = measurement_closed_form(s)
        m = channels.measurement_crosstalk(s).matrix
        np.testing.assert_allclose(m[0, 0], 1.0 - ref["leak"], atol=1e-13)
        np.testing.assert_allclose(m[4, 0], ref["leak"], atol=1e-13)
        np.testing.assert_allclose(m[0, 4], ref["seep"], atol=1e-13)
        np.testing.assert_allclose(m[4, 4], 1.0 - ref["seep"], atol=1e-13)
        np.testing.assert_allclose(m[1, 1], ref["xy"], atol=1e-13)
        np.testing.assert_allclose(m[2, 2], ref["xy"], atol=1e-13)
        np.testing.assert_allclose(m[3, 3], ref["z"], atol=1e-13)
        for idx in (5, 6, 7):  # traceless extra operators all damp by p
            np.testing.assert_allclose(m[idx, idx], ref["p"], atol=1e-13)
        for idx in (8, 9, 10, 11):  # dark-extra coherences damp by sqrt(p)
            np.testing.assert_allclose(m[idx, idx], ref["cross_dark"], atol=1e-13)
        for idx in (12, 13, 14, 15):  # bright-extra coherences damp by p
            np.testing.assert_allclose(m[idx, idx], ref["p"], atol=1e-13)
        base = (2.0 * ref["xy"] + ref["z"]) / 3.0
        np.testing.assert_allclose(channels.decay_base(
            channels.measurement_crosstalk(s)), base, atol=1e-13)


def test_measurement_leakage_seepage_matches_matrix_elements():
    for s in GAMMA_T_VALUES:
        ch = channels.measurement_crosstalk(s)
        leak, seep = channels.leakage_seepage(ch)
        np.testing.assert_allclose(leak, ch.matrix[4, 0], atol=1e-13)
        np.testing.assert_allclose(seep, ch.matrix[0, 4], atol=1e-13)
        np.testing.assert_allclose(leak, (1.0 - np.exp(-3.0 * s)) / 3.0,
                                   atol=1e-13)


def test_measurement_matches_lindblad_oracle():
    rng = np.random.default_rng(41)
    for _ in range(8):
        s = float(rng.uniform(1e-4, 0.4))
        pol = rng.dirichlet(np.ones(3))
        rates = channels.scattering_rate_matrix(s, pol)
        expected = lindblad_vec_oracle(rates)
        got = channels.measurement_crosstalk(s, pol).matrix
        np.testing.assert_allclose(got, expected, atol=1e-13)


def test_reset_matches_lindblad_oracle():
    rng = np.random.default_rng(43)
    for _ in range(8):
        s = float(rng.uniform(1e-4, 0.4))
        b = float(rng.uniform(0.0, 1.0))
        pol = rng.dirichlet(np.ones(3))
        rates = channels.scattering_rate_matrix(s, pol, dark_branching=b)
        expected = lindblad_vec_oracle(rates)
        got = channels.reset_crosstalk(s, pol, dark_branching=b).matrix
        np.testing.assert_allclose(got, expected, atol=1e-13)


def test_reset_closed_forms():
    b = 1.0 / 3.0
    for s in GAMMA_T_VALUES:
        p = np.exp(-3.0 * s)
        pb = np.exp(-3.0 * s * b)
        ch = channels.reset_crosstalk(s, dark_branching=b)
        leak, seep = channels.leakage_seepage(ch)
        np.testing.assert_allclose(leak, (pb - p) / 3.0, atol=1e-13)
        np.testing.assert_allclose(seep, 1.0 - (2.0 / 3.0) * pb - p / 3.0,
                                   atol=1e-13)
        np.testing.assert_allclose(seep - leak, 1.0 - pb, atol=1e-13)
        m = ch.matrix
        np.testing.assert_allclose(m[3, 3], (2.0 / 3.0) * pb + p / 3.0, atol=1e-13)
        np.testing.assert_allclose(m[1, 1], np.exp(-1.5 * s), atol=1e-13)


def test_reset_without_branching_equals_measurement():
    for s in (1e-3, 0.05):
        np.testing.assert_allclose(
            channels.reset_crosstalk(s, dark_branching=0.0).matrix,
            channels.measurement_crosstalk(s).matrix, atol=1e-15)


def test_reset_full_branching_has_no_leakage():
    leak, seep = channels.leakage_seepage(
        channels.reset_crosstalk(0.05, dark_branching=1.0))
    assert abs(leak) < 1e-14
    assert seep > 0


def test_reset_small_window_leakage_seepage_ratio():
    s = 1e-8
    for b in (0.2, 1.0 / 3.0, 0.7):
        leak, seep = channels.leakage_seepage(
            channels.reset_crosstalk(s, dark_branching=b))
        np.testing.assert_allclose(leak / seep, (1.0 - b) / (1.0 + 2.0 * b),
                                   rtol=1e-6)


def test_seepage_never_below_leakage_for_balanced_reset():
    """Balanced reset light always removes net population from the qubit.

    This ordering is specific to balanced polarization: pure-pi light, for
    example, leaks the qubit without ever seeping back.
    """
    rng = np.random.default_rng(47)
    for _ in range(20):
        s = float(rng.uniform(0.0, 0.5))
        b = float(rng.uniform(0.0, 1.0))
        leak, seep = channels.leakage_seepage(
            channels.reset_crosstalk(s, dark_branching=b))
        assert seep - leak >= -1e-13
        np.testing.assert_allclose(seep - leak, 1.0 - np.exp(-3.0 * s * b),
                                   atol=1e-13)

    pure_pi = channels.reset_crosstalk(0.1, (0.0, 1.0, 0.0))
    leak, seep = channels.leakage_seepage(pure_pi)
    assert leak > 0.0
    assert abs(seep) < 1e-14


def test_structured_channels_are_cptp():
    rng = np.random.default_rng(53)
    cases = [
        channels.measurement_crosstalk(0.02),
        channels.measurement_crosstalk(0.3, (0.5, 0.2, 0.3)),
        channels.reset_crosstalk(0.02),
        channels.reset_crosstalk(0.3, (0.1, 0.6, 0.3), dark_branching=0.8),
        channels.depolarizing(0.25),
        channels.depolarizing(4.0 / 3.0),
    ]
    cases.extend(random_lambda_channel(rng) for _ in range(6))
    for ch in cases:
        assert liouville.is_trace_preserving(ch.matrix, tol=1e-10)
        eigvals = np.linalg.eigvalsh(choi_matrix(ch.matrix))
        assert eigvals.min() > -1e-10


@st.composite
def structured_channels(draw):
    """A measurement or reset window with drawn ``gamma_t``, polarization and
    ``dark_branching``, optionally followed by qubit depolarizing."""
    gamma_t = draw(st.floats(0.0, 5.0))
    polarization = draw(st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: sum(w) > 0))
    if draw(st.booleans()):
        window = channels.measurement_crosstalk(gamma_t, polarization)
    else:
        window = channels.reset_crosstalk(gamma_t, polarization,
                                          dark_branching=draw(st.floats(0.0, 1.0)))
    p = draw(st.none() | st.floats(0.0, 4.0 / 3.0))
    return window if p is None else channels.compose(window, channels.depolarizing(p))


@settings(max_examples=30, deadline=None)
@given(structured_channels())
def test_random_structured_channels_are_cptp(channel):
    assert np.linalg.eigvalsh(choi_matrix(channel.matrix)).min() >= -1e-12
    assert liouville.tp_defect(channel.matrix) < 1e-12


def test_depolarizing_transfer_factors():
    p = 0.37
    m = channels.depolarizing(p).matrix
    np.testing.assert_allclose(m[0, 0], 1.0, atol=1e-13)
    for idx in (1, 2, 3):
        np.testing.assert_allclose(m[idx, idx], 1.0 - p, atol=1e-13)
    np.testing.assert_allclose(m[4:8, 4:8], np.eye(4), atol=1e-13)
    leak, seep = channels.leakage_seepage(channels.depolarizing(p))
    assert abs(leak) < 1e-14 and abs(seep) < 1e-14
    with pytest.raises(ValueError):
        channels.depolarizing(-0.1)
    with pytest.raises(ValueError):
        channels.depolarizing(1.5)


def test_compose_applies_first_argument_first():
    meas = channels.measurement_crosstalk(0.1)
    gate = channels.LeakageChannel(liouville.embed_gate(np.diag([1.0, 1.0j])))
    combined = channels.compose(meas, gate)
    np.testing.assert_allclose(combined.matrix, gate.matrix @ meas.matrix,
                               atol=1e-14)
    assert channels.compose(meas) is meas
    with pytest.raises(ValueError):
        channels.compose()


def test_scattering_rate_matrix_structure():
    s = 0.01
    rates = channels.scattering_rate_matrix(s)
    np.testing.assert_allclose(rates[0], 0.0)          # dark level never scatters
    for a in (1, 2, 3):
        np.testing.assert_allclose(rates[a, 0], 0.0)
        np.testing.assert_allclose(rates[a, 1:], s, atol=1e-15)

    reset = channels.scattering_rate_matrix(s, dark_branching=0.25)
    for a in (1, 2, 3):
        np.testing.assert_allclose(reset[a, 0], 3.0 * s * 0.25, atol=1e-15)
        np.testing.assert_allclose(reset[a, 1:], 3.0 * s * 0.75 / 3.0,
                                   atol=1e-15)
        np.testing.assert_allclose(reset[a].sum(), 3.0 * s, atol=1e-15)


def test_polarization_component_mapping():
    """Each polarization component drives exactly one bright sublevel."""
    s = 0.01
    cases = {
        (0.0, 1.0, 0.0): 1,  # pi light drives |1>
        (0.0, 0.0, 1.0): 2,  # sigma+ light drives |2>
        (1.0, 0.0, 0.0): 3,  # sigma- light drives |3>
    }
    for pol, level in cases.items():
        rates = channels.scattering_rate_matrix(s, pol)
        totals = rates.sum(axis=1)
        np.testing.assert_allclose(totals[level], 9.0 * s, atol=1e-15)
        for other in {1, 2, 3} - {level}:
            np.testing.assert_allclose(totals[other], 0.0)


def test_polarization_normalization_and_validation():
    s = 0.01
    np.testing.assert_allclose(
        channels.scattering_rate_matrix(s, (2.0, 2.0, 2.0)),
        channels.scattering_rate_matrix(s), atol=1e-15)
    with pytest.raises(ConfigError):
        channels.scattering_rate_matrix(s, (0.5, 0.5))
    with pytest.raises(ConfigError):
        channels.scattering_rate_matrix(s, (-0.1, 0.6, 0.5))
    with pytest.raises(ConfigError):
        channels.scattering_rate_matrix(s, (0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        channels.scattering_rate_matrix(-1e-3)
    with pytest.raises(ConfigError):
        channels.scattering_rate_matrix(s, dark_branching=1.5)


def test_channel_from_config_round_trip():
    meas = channels.channel_from_config({"kind": "measurement", "gamma_t": 0.02})
    np.testing.assert_allclose(meas.matrix,
                               channels.measurement_crosstalk(0.02).matrix)

    reset = channels.channel_from_config(
        {"kind": "reset", "gamma_t": 0.01,
         "polarization": [0.25, 0.5, 0.25], "dark_branching": 0.4})
    np.testing.assert_allclose(
        reset.matrix,
        channels.reset_crosstalk(0.01, (0.25, 0.5, 0.25), 0.4).matrix)


def test_channel_from_config_validation():
    with pytest.raises(ConfigError):
        channels.channel_from_config(["measurement"])
    with pytest.raises(ConfigError):
        channels.channel_from_config({"kind": "bleach", "gamma_t": 0.01})
    with pytest.raises(ConfigError):
        channels.channel_from_config({"kind": "measurement"})
    with pytest.raises(ConfigError):
        channels.channel_from_config(
            {"kind": "measurement", "gamma_t": 0.01, "dark_branching": 0.1})
    with pytest.raises(ConfigError):
        channels.channel_from_config(
            {"kind": "measurement", "gamma_t": 0.01, "typo": 1})
    with pytest.raises(ConfigError):
        channels.channel_from_config({"kind": "reset", "gamma_t": "fast"})
    for bad in ({"kind": "reset", "gamma_t": "nan"},
                {"kind": "reset", "gamma_t": True},
                {"kind": "reset", "gamma_t": -1e-3},
                {"kind": ["reset"], "gamma_t": 1e-3},
                {"kind": "reset", "gamma_t": 1e-3, "polarization": "pi"},
                {"kind": "reset", "gamma_t": 1e-3, "polarization": [1, "nan", 1]},
                {"kind": "reset", "gamma_t": 1e-3, "dark_branching": None}):
        with pytest.raises(ConfigError):
            channels.channel_from_config(bad)
    # finite but so large that the window's channel overflows to NaN
    assert np.all(np.isfinite(channels.measurement_crosstalk(1e6).matrix))
    for kind in ("measurement", "reset"):
        with pytest.raises(ConfigError, match="largest jump rate 1e\\+300"):
            channels.channel_from_config({"kind": kind, "gamma_t": 1e300})
        with pytest.raises(ConfigError, match="largest jump rate inf"):
            channels.channel_from_config({"kind": kind, "gamma_t": 1.7e308})


def test_leakage_channel_validation():
    with pytest.raises(ValueError):
        channels.LeakageChannel(np.eye(4))
    ch = channels.identity_channel()
    with pytest.raises(ValueError):
        ch.matrix[0, 0] = 2.0
    vec = liouville.identity_supervector()
    np.testing.assert_allclose(ch.matrix @ vec, vec)


def test_swap_channel_has_half_leakage_and_seepage():
    """Coherently swapping |1> and |2> moves half of either identity across."""
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    ch = channels.LeakageChannel(liouville.kraus_to_superop([swap]))
    leak, seep = channels.leakage_seepage(ch)
    np.testing.assert_allclose(leak, 0.5, atol=1e-13)
    np.testing.assert_allclose(seep, 0.5, atol=1e-13)
    with pytest.raises(AssumptionError):
        channels.validate_leakage_form(ch)


def test_validate_leakage_form_accepts_structured_channels():
    rng = np.random.default_rng(59)
    channels.validate_leakage_form(channels.measurement_crosstalk(0.1))
    channels.validate_leakage_form(channels.reset_crosstalk(0.1))
    channels.validate_leakage_form(
        channels.measurement_crosstalk(0.1, (0.25, 0.5, 0.25)))
    channels.validate_leakage_form(channels.identity_channel())
    channels.validate_leakage_form(channels.depolarizing(0.3))
    for _ in range(5):
        channels.validate_leakage_form(random_lambda_channel(rng))


def test_validate_leakage_form_flags_sigma_imbalance():
    """Unequal sigma+/sigma- weights let the extra levels develop a Z_e tilt."""
    ch = channels.measurement_crosstalk(0.1, (0.5, 0.3, 0.2))
    with pytest.raises(AssumptionError) as info:
        channels.validate_leakage_form(ch)
    violations = info.value.violations
    assert len(violations) > 0
    for description, magnitude in violations:
        assert "Z_e" in description
        assert magnitude > channels.STRUCTURE_TOL


def test_twirl_extracts_channel_figures_of_merit():
    rng = np.random.default_rng(61)
    cases = [channels.measurement_crosstalk(0.05),
             channels.reset_crosstalk(0.05),
             channels.depolarizing(0.2)]
    cases.extend(random_lambda_channel(rng) for _ in range(5))
    for ch in cases:
        tw = channels.twirl(ch)
        leak, seep = channels.leakage_seepage(ch)
        np.testing.assert_allclose(tw.leakage, leak, atol=1e-12)
        np.testing.assert_allclose(tw.seepage, seep, atol=1e-12)
        np.testing.assert_allclose(tw.base, channels.decay_base(ch), atol=1e-12)
        np.testing.assert_allclose(tw.matrix[0, 0], 1.0 - leak, atol=1e-12)
        np.testing.assert_allclose(tw.matrix[4, 4], 1.0 - seep, atol=1e-12)
        np.testing.assert_allclose(tw.t_minus, 1.0 - leak - seep, atol=1e-12)
        # traceless extra operators pass through the average untouched
        np.testing.assert_allclose(tw.matrix[5:8, 5:8], ch.matrix[5:8, 5:8],
                                   atol=1e-12)


def test_twirl_matches_brute_force_average():
    rng = np.random.default_rng(67)
    table = clifford.clifford_table()
    for ch in (channels.measurement_crosstalk(0.08),
               random_lambda_channel(rng)):
        total = np.zeros_like(ch.matrix)
        for elem in table:
            gate = clifford.superop(elem)
            total += gate @ ch.matrix @ gate.T
        expected = total / len(table)
        np.testing.assert_allclose(channels.twirl(ch).matrix, expected,
                                   atol=1e-12)


def test_twirl_measurement_t_minus_closed_form():
    for s in GAMMA_T_VALUES:
        tw = channels.twirl(channels.measurement_crosstalk(s))
        expected = 1.0 - (2.0 / 3.0) * (1.0 - np.exp(-3.0 * s))
        np.testing.assert_allclose(tw.t_minus, expected, atol=1e-13)


def test_twirl_rejects_sigma_imbalance():
    with pytest.raises(AssumptionError):
        channels.twirl(channels.measurement_crosstalk(0.1, (0.5, 0.3, 0.2)))
    # an imbalance just small enough to pass the structure check still spills
    # past the closed-form tolerance, and that is an assumption failure too
    nearly = channels.measurement_crosstalk(0.1, (1 / 3 + 1e-8, 1 / 3, 1 / 3 - 1e-8))
    channels.validate_leakage_form(nearly)
    with pytest.raises(AssumptionError, match="spill") as info:
        channels.twirl(nearly)
    assert [name for name, _ in info.value.violations] == ["spill"]
    with pytest.raises(AssumptionError, match="spill"):
        rb.decay_coefficients(nearly)
    # equal sigma weights keep the extra manifold symmetric, so an uneven
    # pi component alone stays twirlable
    tw = channels.twirl(channels.measurement_crosstalk(0.1, (0.25, 0.5, 0.25)))
    leak, seep = channels.leakage_seepage(
        channels.measurement_crosstalk(0.1, (0.25, 0.5, 0.25)))
    np.testing.assert_allclose(tw.leakage, leak, atol=1e-12)


def test_identity_channel_twirls_to_trivial_coefficients():
    tw = channels.twirl(channels.identity_channel())
    assert tw.leakage == 0.0
    assert tw.seepage == 0.0
    np.testing.assert_allclose(tw.base, 1.0, atol=1e-14)
    np.testing.assert_allclose(tw.t_minus, 1.0, atol=1e-14)
