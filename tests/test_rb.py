"""Tests for sequence generation, exact survival laws, fits and campaigns."""

import dataclasses
import inspect
import itertools
import math
import multiprocessing
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from mcmr import channels, clifford, liouville, micromotion, rb, varpro
from mcmr.errors import ConfigError, DataFormatError, FitError
from synthetic import (LINEAR_FIT_ORACLES, assert_cost_within_slack, assert_same_analysis,
                       best_linear_fit, bisection_profile_fit_oracle,
                       chandrupatla_profile_fit_oracle, curve_fit_decay, exact_average_survival,
                       focus_oracle, generate_sequences_oracle, per_probe_analysis_oracle,
                       profile_fit_oracle, profile_slope, random_lambda_channel,
                       record_resample_stats, record_stats, resample_stats, spam_report_oracle,
                       stacked_coarse_grid_oracle, survival_oracle, weighted_cost)


# ---------------------------------------------------------------------------
# SPAM model


def test_perfect_spam_vectors():
    prep = rb.PERFECT_SPAM.prep_vector()
    rho = liouville.from_supervector(prep)
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(rb.PERFECT_SPAM.dark_effect(),
                               liouville.dark_effect_vector(), atol=1e-14)


def test_spam_effects_partition_identity():
    spam = rb.SpamModel(prep_flip=0.03, prep_leak=0.02,
                        dark_to_bright=0.04, bright_to_dark=0.05)
    total = spam.dark_effect() + spam.bright_effect()
    identity_effect = liouville.to_supervector(np.eye(4))
    np.testing.assert_allclose(total, identity_effect, atol=1e-14)
    rho = liouville.from_supervector(spam.prep_vector())
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-14)
    np.testing.assert_allclose(np.diag(rho),
                               [0.98 * 0.97, 0.98 * 0.03, 0.01, 0.01],
                               atol=1e-14)


def test_spam_validation_and_round_trip():
    with pytest.raises(ConfigError):
        rb.SpamModel(prep_flip=-0.1)
    with pytest.raises(ConfigError):
        rb.SpamModel(prep_flip=0.7, prep_leak=0.4)
    with pytest.raises(ConfigError):
        rb.SpamModel.from_dict({"prep_flip": 0.1, "typo": 0.2})
    spam = rb.SpamModel(prep_flip=0.01, dark_to_bright=0.02)
    assert rb.SpamModel.from_dict(spam.to_dict()) == spam


# ---------------------------------------------------------------------------
# sequence generation


def test_generate_sequences_balanced_counts():
    seqs = rb.generate_sequences(lengths=(2, 5), sequences_per_length=12, seed=3)
    assert len(seqs) == 24
    for length in (2, 5):
        group = [s for s in seqs if s.length == length]
        assert [s.seq_id for s in group] == list(range(12))
        dark = sum(1 for s in group if s.target_outcome == 0)
        assert dark == 6
        for s in group:
            assert len(s.clifford_indices) == length
            assert all(0 <= i < clifford.GROUP_ORDER for i in s.clifford_indices)


def test_generate_sequences_inversion_closes_to_pauli():
    seqs = rb.generate_sequences(lengths=(4,), sequences_per_length=10, seed=11)
    for s in seqs:
        net = rb.clifford.net_element(s.clifford_indices)
        closed = clifford.compose(clifford.clifford_table()[s.inversion_index], net)
        expected = clifford.pauli_element(s.pauli)
        np.testing.assert_array_equal(closed.image, expected.image)
        assert s.target_outcome == clifford.target_outcome(s.pauli)


def test_generate_sequences_seeded_and_validated():
    a = rb.generate_sequences(lengths=(3,), sequences_per_length=8, seed=5)
    b = rb.generate_sequences(lengths=(3,), sequences_per_length=8, seed=5)
    assert a == b
    c = rb.generate_sequences(lengths=(3,), sequences_per_length=8, seed=6)
    assert a != c
    with pytest.raises(ConfigError):
        rb.generate_sequences(lengths=(0,), sequences_per_length=8)
    with pytest.raises(ConfigError, match="distinct"):
        rb.generate_sequences(lengths=(2, 2, 5), sequences_per_length=8)
    with pytest.raises(ConfigError):
        rb.generate_sequences(lengths=(3,), sequences_per_length=7)  # odd, balanced
    unbalanced = rb.generate_sequences(lengths=(3,), sequences_per_length=7,
                                       seed=9, balanced=False)
    assert len(unbalanced) == 7
    # a fractional or NaN length, or a fractional ``sequences_per_length``,
    # names the argument; none is truncated or a bare ValueError
    for lengths, per_length, name in (((2.7, 5), 2, r"lengths\[0\]"),
                                      ((2, float("nan")), 2, r"lengths\[1\]"),
                                      ((2, 5), 2.5, "sequences_per_length")):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            rb.generate_sequences(lengths, per_length, seed=1)
    assert (rb.generate_sequences((2.0, np.int64(5)), np.int64(2), seed=1)
            == rb.generate_sequences((2, 5), 2, seed=1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 120), min_size=1, max_size=3, unique=True),
       st.sampled_from([1, 2, 7, 40]), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_sequences_and_survival_equal_per_sequence_oracles(lengths, per_length, balanced, seed):
    """A length's draws and products at once equal one sequence at a time,
    bit for bit, whatever order the sequences arrive in."""
    assume(not (balanced and per_length % 2))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    seqs = rb.generate_sequences(lengths, per_length, seed=rng, balanced=balanced)
    assert seqs == generate_sequences_oracle(lengths, per_length, seed=oracle_rng,
                                             balanced=balanced)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    shuffled = [seqs[i] for i in rng.permutation(len(seqs))]
    prep_flip, prep_leak, dark_to_bright, bright_to_dark = rng.uniform(0.0, 0.1, 4)
    spam = rb.SpamModel(prep_flip, prep_leak, dark_to_bright, bright_to_dark)
    slot = random_lambda_channel(rng)
    np.testing.assert_array_equal(rb.survival_dark_probabilities(shuffled, slot, spam),
                                  survival_oracle(shuffled, slot, spam))


# ---------------------------------------------------------------------------
# exact survival


def test_survival_memory_is_bounded_by_row_blocks():
    """Propagating 20,000 sequences at once would hold a 41 MB gate stack."""
    seqs = rb.generate_sequences(lengths=(3,), sequences_per_length=20_000, seed=19)
    slot = channels.depolarizing(0.01)
    tracemalloc.start()
    try:
        rb.survival_dark_probabilities(seqs, slot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_identity_channel_survival_is_deterministic():
    seqs = rb.generate_sequences(lengths=(1, 6, 20), sequences_per_length=8,
                                 seed=13)
    p = rb.survival_dark_probabilities(seqs, channels.identity_channel())
    for prob, seq in zip(p, seqs):
        expected = 1.0 if seq.target_outcome == 0 else 0.0
        assert abs(prob - expected) < 1e-12


def test_depolarizing_survival_closed_form_per_sequence():
    strength = 0.08
    slot = channels.depolarizing(strength)
    seqs = rb.generate_sequences(lengths=(1, 3, 9), sequences_per_length=6,
                                 seed=17)
    p = rb.survival_dark_probabilities(seqs, slot)
    for prob, seq in zip(p, seqs):
        signal = 0.5 * (1.0 - strength) ** seq.length
        expected = 0.5 + signal if seq.target_outcome == 0 else 0.5 - signal
        assert abs(prob - expected) < 1e-12


def test_exact_average_survival_matches_literal_enumeration():
    """The running-product accumulation equals the full 24^l average."""
    slot = channels.compose(channels.depolarizing(0.05),
                            channels.measurement_crosstalk(0.04))
    spam = rb.SpamModel(prep_flip=0.02, dark_to_bright=0.01,
                        bright_to_dark=0.03)
    gates = clifford.superop_table()
    slot_mat = slot.matrix
    table = clifford.clifford_table()
    prep = spam.prep_vector()
    effects = {0: spam.dark_effect(), 1: spam.bright_effect()}

    length = 2
    got = exact_average_survival(slot, spam, length)
    for label in clifford.PAULI_LABELS:
        pauli = clifford.pauli_element(label)
        totals = {0: 0.0, 1: 0.0}
        for i in range(clifford.GROUP_ORDER):
            for j in range(clifford.GROUP_ORDER):
                net = clifford.compose(table[j], table[i])
                inv = clifford.compose(pauli, clifford.inverse(net))
                v = gates[inv.index] @ (slot_mat @ (gates[j] @ (
                    slot_mat @ (gates[i] @ prep))))
                for k in (0, 1):
                    totals[k] += float(effects[k] @ v)
        for k in (0, 1):
            assert abs(got[(label, k)] - totals[k] / 576.0) < 1e-12


def test_decay_coefficients_perfect_spam_values():
    s = 0.02
    slot = channels.measurement_crosstalk(s)
    coeff = rb.decay_coefficients(slot)
    leak, seep = channels.leakage_seepage(slot)
    np.testing.assert_allclose(coeff.base, channels.decay_base(slot), atol=1e-13)
    np.testing.assert_allclose(coeff.t_minus, 1.0 - leak - seep, atol=1e-13)
    np.testing.assert_allclose(coeff.intercepts[0], leak / (2.0 * (leak + seep)),
                               atol=1e-13)
    np.testing.assert_allclose(coeff.asymptotes[0], seep / (2.0 * (leak + seep)),
                               atol=1e-13)
    np.testing.assert_allclose(coeff.intercepts[1], -coeff.intercepts[0],
                               atol=1e-13)
    np.testing.assert_allclose(coeff.asymptotes[0] + coeff.asymptotes[1], 1.0,
                               atol=1e-13)
    for label, sign in (("I", 1.0), ("Z", 1.0), ("X", -1.0), ("Y", -1.0)):
        np.testing.assert_allclose(coeff.amplitudes[(label, 0)], sign * 0.5,
                                   atol=1e-13)
        np.testing.assert_allclose(coeff.amplitudes[(label, 1)], -sign * 0.5,
                                   atol=1e-13)


def test_decay_coefficients_spam_amplitude_and_balance():
    flip = 0.04
    spam = rb.SpamModel(prep_flip=flip, dark_to_bright=0.03, bright_to_dark=0.05)
    coeff = rb.decay_coefficients(channels.measurement_crosstalk(0.01), spam)
    readout = (1.0 - spam.dark_to_bright) - spam.bright_to_dark
    np.testing.assert_allclose(coeff.amplitudes[("I", 0)],
                               readout * (1.0 - 2.0 * flip) / 2.0, atol=1e-13)
    # the two outcomes always split the identity exactly
    np.testing.assert_allclose(coeff.intercepts[0] + coeff.intercepts[1], 0.0,
                               atol=1e-13)
    np.testing.assert_allclose(coeff.asymptotes[0] + coeff.asymptotes[1], 1.0,
                               atol=1e-13)


def test_decay_coefficients_match_exact_average():
    """The closed form against the all-sequences average, on every branch.

    Covers both exchange regimes: L + S well above zero (composed, reset,
    measurement and random structured channels), nearly zero
    (``gamma_t`` 1e-9) and exactly zero (the identity channel).
    """
    rng = np.random.default_rng(73)
    slots = [channels.compose(channels.depolarizing(0.03),
                              channels.reset_crosstalk(0.05)),
             channels.measurement_crosstalk(0.04),
             channels.reset_crosstalk(0.03, dark_branching=0.6),
             channels.measurement_crosstalk(1e-9),
             channels.identity_channel()]
    slots.extend(random_lambda_channel(rng) for _ in range(3))
    spam = rb.SpamModel(prep_flip=0.02, prep_leak=0.01,
                        dark_to_bright=0.02, bright_to_dark=0.04)
    for k, slot in enumerate(slots):
        coeff = rb.decay_coefficients(slot, spam)
        for length in (1, 2, 3, 7):
            exact = exact_average_survival(slot, spam, length)
            for label in clifford.PAULI_LABELS:
                for outcome in (0, 1):
                    assert abs(coeff.survival(label, outcome, length)
                               - exact[(label, outcome)]) < 1e-11, (k, label, outcome, length)


def test_decay_coefficients_identity_channel_degenerate():
    coeff = rb.decay_coefficients(channels.identity_channel())
    assert coeff.degenerate
    assert coeff.t_minus == 1.0
    np.testing.assert_allclose(coeff.survival("I", 0, 10), 1.0, atol=1e-13)
    np.testing.assert_allclose(coeff.survival("X", 0, 10), 0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# datasets


def make_exact_dataset(base: float, lengths=(2, 11, 81), shots=10 ** 9,
                       sequences_per_length=8) -> rb.RBDataset:
    """Noiseless dataset whose correct fraction is 0.5 * base**l + 0.5."""
    records = []
    for length in lengths:
        for seq_id in range(sequences_per_length):
            pauli = ("I", "Z", "X", "Y")[seq_id % 4]
            target = clifford.target_outcome(pauli)
            p_correct = 0.5 * base ** length + 0.5
            p_dark = p_correct if target == 0 else 1.0 - p_correct
            records.append(rb.DatasetRecord(
                length=length, seq_id=seq_id, pauli=pauli,
                target_outcome=target, shots=shots,
                dark_counts=round(p_dark * shots)))
    return rb.RBDataset(tuple(records))


def test_dataset_properties_and_validation():
    ds = make_exact_dataset(0.99, shots=100)
    assert ds.lengths == (2, 11, 81)
    assert set(ds.by_length()) == {2, 11, 81}
    rec = ds.records[0]
    assert rec.bright_counts == rec.shots - rec.dark_counts
    assert rec.correct_fraction == pytest.approx(
        rec.dark_fraction if rec.target_outcome == 0 else 1 - rec.dark_fraction)

    with pytest.raises(DataFormatError):
        rb.RBDataset(())
    with pytest.raises(DataFormatError):
        rb.RBDataset((dataclasses.replace(rec, shots=0),))
    for length in (0, -2):
        with pytest.raises(DataFormatError, match="non-positive length"):
            rb.RBDataset((dataclasses.replace(rec, length=length),))
    with pytest.raises(DataFormatError):
        rb.RBDataset((dataclasses.replace(rec, dark_counts=rec.shots + 1),))
    with pytest.raises(DataFormatError):
        rb.RBDataset((dataclasses.replace(rec, pauli="Q"),))
    with pytest.raises(DataFormatError):
        rb.RBDataset((dataclasses.replace(rec, pauli="X", target_outcome=0),))


def test_dataset_csv_round_trip(tmp_path):
    seqs = rb.generate_sequences(lengths=(2, 5), sequences_per_length=4, seed=21)
    ds = rb.simulate_dataset(seqs, channels.measurement_crosstalk(0.02),
                             shots=50, seed=22)
    path = tmp_path / "probe.csv"
    ds.to_csv(path)
    assert rb.RBDataset.from_csv(path).records == ds.records


def test_dataset_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("length,seq_id,oops\n")
    with pytest.raises(DataFormatError):
        rb.RBDataset.from_csv(path)

    header = ",".join(rb.DATASET_HEADER)
    path.write_text(f"{header}\n2,0,I,0,100,60,50\n")
    with pytest.raises(DataFormatError, match="dark \\+ bright"):
        rb.RBDataset.from_csv(path)

    path.write_text(f"{header}\n2,0,I,0,100,sixty,40\n")
    with pytest.raises(DataFormatError, match=":2"):
        rb.RBDataset.from_csv(path)

    path.write_text(f"{header}\n2,0,X,0,100,60,40\n")
    with pytest.raises(DataFormatError, match="inconsistent"):
        rb.RBDataset.from_csv(path)

    path.write_text(f"{header}\n2,0,I,0,100,60,40\n2,1,X,1,100,30,70\n"
                    f"2,0,I,0,100,55,45\n")
    with pytest.raises(DataFormatError, match=":4: repeats length 2, seq_id 0"):
        rb.RBDataset.from_csv(path)

    for length in (0, -2):
        path.write_text(f"{header}\n{length},0,I,0,100,60,40\n5,0,X,1,100,30,70\n")
        with pytest.raises(DataFormatError, match="non-positive length"):
            rb.RBDataset.from_csv(path)

    path.write_text(f"{header}\n2,0,I,0,100,60,40\n2,-1,X,1,100,30,70\n")
    with pytest.raises(DataFormatError, match="negative seq_id"):
        rb.RBDataset.from_csv(path)

    big = 10 ** 20
    path.write_text(f"{header}\n2,0,I,0,{big},{big},0\n5,0,X,1,100,30,70\n")
    with pytest.raises(DataFormatError, match="int64"):
        rb.RBDataset.from_csv(path)
    for row in (f"{2 ** 63},0,X,1,100,30,70", f"5,{10 ** 23},X,1,100,30,70"):
        path.write_text(f"{header}\n2,0,I,0,100,60,40\n{row}\n")
        with pytest.raises(DataFormatError, match=":3: value outside the int64 range"):
            rb.RBDataset.from_csv(path)

    path.write_bytes(f"{header}\n2,0,I,0,100,60,40\n".encode() + b"\xff\n")
    with pytest.raises(DataFormatError, match="not a dataset CSV"):
        rb.RBDataset.from_csv(path)
    with pytest.raises(DataFormatError, match="cannot read dataset file"):
        rb.RBDataset.from_csv(tmp_path)
    with pytest.raises(DataFormatError, match="cannot read dataset file"):
        rb.RBDataset.from_csv(tmp_path / "absent.csv")


def test_dataset_csv_names_first_repeated_row_in_file_order(tmp_path):
    rng = np.random.default_rng(67)
    rows = [(length, seq_id, "I", 0, 30, 20, 10) for length in (2, 5, 9) for seq_id in range(3)]
    rows += [rows[4], rows[7]]
    for _ in range(5):
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        lineno, (length, seq_id, *_) = next(
            (lineno, row) for lineno, row in enumerate(shuffled, start=2)
            if row in shuffled[:lineno - 2])
        path = tmp_path / "probe.csv"
        path.write_text("\n".join([",".join(rb.DATASET_HEADER),
                                   *(",".join(map(str, row)) for row in shuffled)]) + "\n")
        with pytest.raises(DataFormatError,
                           match=f":{lineno}: repeats length {length}, seq_id {seq_id}$"):
            rb.RBDataset.from_csv(path)


def test_simulate_dataset_deterministic_by_seed():
    seqs = rb.generate_sequences(lengths=(2, 7), sequences_per_length=6, seed=1)
    slot = channels.measurement_crosstalk(0.03)
    a = rb.simulate_dataset(seqs, slot, shots=80, seed=42)
    b = rb.simulate_dataset(seqs, slot, shots=80, seed=42)
    c = rb.simulate_dataset(seqs, slot, shots=80,
                            seed=np.random.default_rng(42))
    assert a.records == b.records == c.records
    d = rb.simulate_dataset(seqs, slot, shots=80, seed=43)
    assert a.records != d.records
    with pytest.raises(ConfigError):
        rb.simulate_dataset(seqs, slot, shots=0)


def test_from_counts_rejects_a_count_per_sequence_mismatch():
    """12 sequences with 5 counts raise, rather than keep the first 5."""
    seqs = rb.generate_sequences(lengths=(2, 3, 4), sequences_per_length=4, seed=1)
    assert len(rb.RBDataset.from_counts(seqs, 10, [5] * 12).records) == 12
    for counts in ([5] * 5, [5] * 13):
        with pytest.raises(ValueError):
            rb.RBDataset.from_counts(seqs, 10, counts)


# ---------------------------------------------------------------------------
# fits


def test_fit_standard_noiseless_inversion():
    ds = make_exact_dataset(0.99)
    fit = rb.fit_standard(rb.per_length_stats(ds)[0])
    assert abs(fit.base - 0.99) < 1e-6
    assert abs(fit.amplitude - 0.5) < 1e-6
    assert [s.length for s in fit.per_length] == [2, 11, 81]


def test_fit_standard_requires_two_lengths():
    ds = make_exact_dataset(0.99, lengths=(5,))
    with pytest.raises(DataFormatError):
        rb.fit_standard(rb.per_length_stats(ds)[0])


def test_fit_leakage_noiseless_inversion():
    intercept, asymptote, t_minus = 0.25, 0.25, 0.98
    shots = 10 ** 9
    records = []
    for length in (2, 11, 81):
        p_dark = intercept * t_minus ** (length + 1) + asymptote
        for seq_id in range(4):
            pauli = ("I", "Z", "X", "Y")[seq_id]
            records.append(rb.DatasetRecord(
                length=length, seq_id=seq_id, pauli=pauli,
                target_outcome=clifford.target_outcome(pauli), shots=shots,
                dark_counts=round(p_dark * shots)))
    fit = rb.fit_leakage(rb.per_length_stats(rb.RBDataset(tuple(records)))[1])
    assert abs(fit.t_minus - t_minus) < 1e-6
    assert abs(fit.intercept - intercept) < 1e-6
    assert abs(fit.asymptote - asymptote) < 1e-6
    assert abs(fit.leakage - 0.01) < 1e-7
    assert abs(fit.seepage - 0.01) < 1e-7


def test_fit_leakage_requires_three_lengths_and_valid_ratio():
    ds = make_exact_dataset(0.99, lengths=(2, 11))
    with pytest.raises(DataFormatError):
        rb.fit_leakage(rb.per_length_stats(ds)[1])
    with pytest.raises(ValueError):
        rb.fit_leakage(rb.per_length_stats(make_exact_dataset(0.99))[1],
                       ls_ratio=0.0)


def test_fit_leakage_ignores_ls_ratio():
    ds = _oracle_dataset("balanced")
    dark = rb.per_length_stats(ds)[1]
    assert rb.fit_leakage(dark, ls_ratio=0.05) == rb.fit_leakage(dark, ls_ratio=20.0)
    assert (rb.analyze_dataset(ds, ls_ratio=0.05, resamples=0).to_dict()
            == rb.analyze_dataset(ds, resamples=0).to_dict())
    with pytest.raises(ValueError):
        rb.analyze_dataset(ds, ls_ratio=-1.0, resamples=0)


def _law_stats(stats) -> tuple:
    """(lengths, means, SEMs) of one half of ``per_length_stats``."""
    return tuple(np.array([getattr(s, f) for s in stats], dtype=float)
                 for f in ("length", "mean", "sem"))


def assert_no_costlier(law: str, lengths, means, sems, params, oracle) -> None:
    """``params`` reach the oracle's weighted cost or lower, within
    ``assert_cost_within_slack``'s slack; the weighted sum of squared means
    is its floor."""
    assert_cost_within_slack(
        weighted_cost(law, lengths, means, sems, params),
        weighted_cost(law, lengths, means, sems, oracle),
        weighted_cost("leakage", lengths, means, sems, [0.0, 0.0, 1.0]),  # model 0
        (law, params, oracle))


#: interleaved ops of the canonical-sampling fit cases
_CAMPAIGN_CASES = {"campaign": ("measure", "reset"), "control": (), "reset": ("reset",)}
FIT_CASES = ["balanced", "unbalanced", "unequal-shots", *_CAMPAIGN_CASES]


def _fit_case_dataset(case: str) -> rb.RBDataset:
    """An ``_oracle_dataset`` case, or the canonical sampling of the campaign's
    probe: ``"campaign"`` with one measurement and one reset per slot,
    ``"control"`` and ``"reset"`` as those experiments.  In the last two
    many resamples have a fully correct length, so their standard-law lanes
    are unweighted: in ``"control"`` all of them and the point fit too; in
    ``"reset"``, whose counts come from seed 79 (39 of the 40 shortest
    sequences fully correct), 76 of the 200 resamples at bootstrap seed 68."""
    if case not in _CAMPAIGN_CASES:
        return _oracle_dataset(case)
    seqs = rb.generate_sequences(seed=71)
    probe = rb.standard_experiments()[-1].probes["probe"]
    slot = probe.slot_channel(_CAMPAIGN_CASES[case])
    return rb.simulate_dataset(seqs, slot, shots=100, seed=79 if case == "reset" else 72)


@pytest.mark.parametrize("case", FIT_CASES)
def test_point_fits_match_or_beat_curve_fit(case):
    """Point fits reach the curve_fit oracle's cost or lower; standard parameters agree."""
    ds = _fit_case_dataset(case)
    correct, dark = rb.per_length_stats(ds)
    std, leak = rb.fit_standard(correct), rb.fit_leakage(dark)
    args = ("standard", *_law_stats(correct))
    params = [std.amplitude, std.base]
    assert_no_costlier(*args, params, curve_fit_decay(*args))
    np.testing.assert_allclose(params, curve_fit_decay(*args, tol=1e-15), rtol=0, atol=1e-8)
    args = ("leakage", *_law_stats(dark))
    assert_no_costlier(*args, [leak.intercept, leak.asymptote, leak.t_minus],
                       curve_fit_decay(*args))


def test_fits_recover_channel_truth_from_simulation():
    """Round trip at generous sampling so statistical error is small."""
    gamma_t = 5e-3
    slot = channels.measurement_crosstalk(gamma_t)
    ref = rb.channel_reference(slot)
    seqs = rb.generate_sequences(lengths=(2, 11, 81, 201),
                                 sequences_per_length=64, seed=77)
    ds = rb.simulate_dataset(seqs, slot, shots=400, seed=78)

    std = rb.fit_standard(rb.per_length_stats(ds)[0])
    assert abs(std.base - ref.base) < 5e-4
    leak_fit = rb.fit_leakage(rb.per_length_stats(ds)[1], ls_ratio=1.0)
    assert abs(leak_fit.t_minus - ref.t_minus) < 2e-3
    # the t**(l+1) parameterisation absorbs one decay factor into B
    coeff = rb.decay_coefficients(slot)
    assert abs(leak_fit.intercept - coeff.intercepts[0] / ref.t_minus) < 2e-2


def test_average_error_and_scattering_estimate_arithmetic():
    assert rb.average_error(1.0, 0.0) == 0.0
    assert rb.average_error(0.998, 0.001) == pytest.approx(0.0015, abs=1e-12)
    est = rb.scattering_estimates(1.0, 1.0)
    assert est.standard == 0.0 and est.leakage == 0.0
    est = rb.scattering_estimates(0.99467, 0.99)
    assert est.standard == pytest.approx(3.0 * (1.0 - 0.99467) / 4.0, abs=1e-12)
    assert est.standard == pytest.approx(4.0e-3, abs=5e-5)
    assert est.leakage == pytest.approx(2.0 * 0.01 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# bootstrap and analysis


def test_bootstrap_zero_variance_dataset_gives_zero_sigma():
    """Identical records resample to themselves, so every sigma collapses.

    Note a *simulated* identity-channel dataset is not zero-variance for the
    pooled dark fraction: resampling sequences changes the mix of dark- and
    bright-targeted sequences.  Records must be literally identical.
    """
    records = tuple(
        rb.DatasetRecord(length=length, seq_id=seq_id, pauli="I",
                         target_outcome=0, shots=100, dark_counts=100)
        for length in (2, 11, 81) for seq_id in range(6))
    boot = rb.bootstrap_analysis(rb.RBDataset(records), n_resamples=25, seed=33)
    assert boot.failures == 0
    for name, sigma in boot.sigmas.items():
        assert sigma < 1e-6, name


def test_bootstrap_deterministic_and_reports_failures():
    seqs = rb.generate_sequences(lengths=(2, 9, 30), sequences_per_length=10,
                                 seed=35)
    ds = rb.simulate_dataset(seqs, channels.measurement_crosstalk(8e-3),
                             shots=60, seed=36)
    a = rb.bootstrap_analysis(ds, n_resamples=40, seed=37)
    b = rb.bootstrap_analysis(ds, n_resamples=40, seed=37)
    assert a.sigmas == b.sigmas
    assert a.n_resamples == 40
    assert set(a.sigmas) == set(rb._BOOTSTRAP_FIELDS)
    assert a.sigmas["base"] > 0
    assert len(a.samples["base"]) == 40 - a.failures


def _nan_lanes(monkeypatch, lanes_of) -> None:
    """Make the leakage refits of the lanes ``lanes_of(params)`` selects non-finite."""
    real = varpro.profile_fit

    def failing(law, lengths, means, sems):
        params = real(law, lengths, means, sems)
        if law is rb._LAWS["leakage"]:
            bad = lanes_of(params)
            params = tuple(np.where(bad, np.nan, p) for p in params)
        return params

    monkeypatch.setattr(varpro, "profile_fit", failing)


def test_bootstrap_instability_raises(monkeypatch):
    """More than 10% non-finite refits raise; up to 10% are counted failures."""
    seqs = rb.generate_sequences(lengths=(2, 9, 30), sequences_per_length=6,
                                 seed=39)
    ds = rb.simulate_dataset(seqs, channels.measurement_crosstalk(5e-3),
                             shots=50, seed=40)
    failing = [2]
    # lane 0 is the point fit; the refits of the first resamples fail
    _nan_lanes(monkeypatch, lambda params: np.isin(np.arange(params[0].size),
                                                   np.arange(1, 1 + failing[0])))
    boot = rb.bootstrap_analysis(ds, n_resamples=20, seed=41)
    assert boot.failures == 2
    assert all(np.all(np.isfinite(v)) and v.size == 18 for v in boot.samples.values())
    failing[0] = 3
    with pytest.raises(FitError, match="unstable: 3/20"):
        rb.bootstrap_analysis(ds, n_resamples=20, seed=41)
    with pytest.raises(ValueError):
        rb.bootstrap_analysis(ds, n_resamples=1)


def _oracle_dataset(case: str) -> rb.RBDataset:
    slot = channels.measurement_crosstalk(8e-3)
    if case == "unbalanced":
        seqs = rb.generate_sequences(lengths=(2, 9, 30), sequences_per_length=7,
                                     seed=61, balanced=False)
        return rb.simulate_dataset(seqs, slot, shots=60, seed=62)
    seqs = rb.generate_sequences(lengths=(2, 9, 30), sequences_per_length=10,
                                 seed=63)
    if case != "unequal-shots":
        return rb.simulate_dataset(seqs, slot, shots=60, seed=64)
    # unequal shots per record, unequal sequences per length, and records at
    # dark rate exactly 0 and 1
    rng = np.random.default_rng(65)
    p_dark = rb.survival_dark_probabilities(seqs, slot)
    records = []
    for seq, p in zip(seqs, p_dark):
        if seq.length == 9 and seq.seq_id >= 6:
            continue
        shots = int(rng.integers(5, 200))
        dark = int(rng.binomial(shots, p))
        if seq.length == 2 and seq.seq_id < 2:
            dark = shots if seq.target_outcome == 0 else 0
        records.append(rb.DatasetRecord(seq.length, seq.seq_id, seq.pauli,
                                        seq.target_outcome, shots, dark))
    return rb.RBDataset(tuple(records))


@pytest.mark.parametrize("case", ["balanced", "unbalanced", "unequal-shots",
                                  "failing-refits"])
def test_bootstrap_matches_record_oracle(case, monkeypatch):
    """The array bootstrap draws the record-based one's resamples, and fits them
    at least as well as ``curve_fit``."""
    ds = _oracle_dataset(case)
    correct, dark = rb.per_length_stats(ds)
    assert correct == record_stats(ds, lambda r: r.correct_fraction)
    assert dark == record_stats(ds, lambda r: r.dark_fraction)
    stats = record_resample_stats(ds, 60, seed=66)
    np.testing.assert_array_equal(
        resample_stats(ds, 60, np.random.default_rng(66)), stats)
    kept = np.ones(60, dtype=bool)
    if case == "failing-refits":
        # the refits with the top 5% of asymptotes fail
        asymptote = varpro.profile_fit(rb._LAWS["leakage"], np.array(ds.lengths, dtype=float),
                                    stats[2], stats[3])[1]
        cutoff = np.quantile(asymptote, 0.95)
        kept = asymptote <= cutoff
        assert not kept.all()
        _nan_lanes(monkeypatch, lambda params: params[1] > cutoff)
    boot = rb.bootstrap_analysis(ds, n_resamples=60, seed=66)
    assert boot.failures == 60 - kept.sum()
    assert list(boot.samples) == list(rb._BOOTSTRAP_FIELDS)
    lengths = np.array(ds.lengths, dtype=float)
    s = boot.samples
    for lane, i in enumerate(np.flatnonzero(kept)):
        args = ("standard", lengths, stats[0, i], stats[1, i])
        oracle = curve_fit_decay(*args)
        assert_no_costlier(*args, [s["amplitude"][lane], s["base"][lane]], oracle)
        np.testing.assert_allclose([s["amplitude"][lane], s["base"][lane]],
                                   curve_fit_decay(*args, tol=1e-15), rtol=0, atol=1e-8)
        args = ("leakage", lengths, stats[2, i], stats[3, i])
        assert_no_costlier(*args, [s[n][lane] for n in ("intercept", "asymptote", "t_minus")],
                           curve_fit_decay(*args, ls_ratio=0.8))


@pytest.mark.parametrize("case", ["single-sequence", "blocks"])
def test_resample_stats_match_record_oracle_at_the_edges(case):
    """A length with one sequence has SEM 0 in every resample; a resample count
    that spans blocks of held fractions, and is no multiple of one, matches too."""
    ds = _oracle_dataset("unequal-shots")
    n_resamples = 2 * rb._RESAMPLE_BLOCK + 13
    if case == "single-sequence":
        ds = rb.RBDataset(tuple(r for r in ds.records if r.length != 9 or r.seq_id == 3))
        n_resamples = 20
    stats = resample_stats(ds, n_resamples, np.random.default_rng(67))
    np.testing.assert_array_equal(stats, record_resample_stats(ds, n_resamples, seed=67))
    if case == "single-sequence":
        assert np.all(stats[1::2, :, 1] == 0.0)


def test_resample_stats_add_no_noise_of_their_own():
    """A resample only draws sequences: with two sequences per length, of
    fractions a and b, every resampled mean is a, (a + b) / 2 or b, and the
    generator has made only the ``rng.integers`` calls of the picks."""
    records = [rb.DatasetRecord(length, seq_id, "IX"[seq_id], seq_id, 50, dark)
               for length, darks in ((2, (1, 47)), (9, (6, 41)), (30, (13, 30)))
               for seq_id, dark in enumerate(darks)]
    ds = rb.RBDataset(tuple(records))
    n_resamples = 2 * rb._RESAMPLE_BLOCK + 13
    rng, alone = np.random.default_rng(69), np.random.default_rng(69)
    stats = resample_stats(ds, n_resamples, rng)
    for half, fraction in ((0, "correct_fraction"), (2, "dark_fraction")):
        for k, length in enumerate(ds.lengths):
            a, b = (getattr(r, fraction) for r in ds.by_length()[length])
            assert a != b
            assert set(stats[half, :, k]) == {a, (a + b) / 2, b}
    for start in range(0, n_resamples, rb._RESAMPLE_BLOCK):
        for _ in ds.lengths:
            alone.integers(0, 2, (min(rb._RESAMPLE_BLOCK, n_resamples - start), 2))
    assert rng.bit_generator.state == alone.bit_generator.state


def test_bootstrap_counts_refits_at_a_bound():
    """On a dataset where many leakage refits end on a bound, ``at_bound`` counts them."""
    result = rb.analyze_dataset(_oracle_dataset("balanced"), resamples=60, seed=66)
    boot = result.bootstrap
    direct = {name: int(np.sum(np.min(np.abs(boot.samples[name][:, None] - np.array(b)),
                                      axis=1) < 1e-6))
              for name, b in rb.PARAMETER_BOUNDS.items()}
    assert boot.at_bound == direct
    assert boot.at_bound["t_minus"] > 0 and boot.at_bound["intercept"] > 0
    # not part of the written results
    assert set(result.to_dict()["bootstrap"]) == {"n_resamples", "failures", "sigmas"}


def test_bootstrap_counts_unidentified_leakage_refits():
    """Refits with intercept B = 0 are counted; their cost does not depend on
    ``t_minus`` and they report 1."""
    ds = _oracle_dataset("balanced")
    boot = rb.bootstrap_analysis(ds, n_resamples=60, seed=66)
    s = boot.samples
    flat = s["intercept"] == 0.0
    assert boot.unidentified == int(flat.sum()) > 0
    assert np.all(s["t_minus"][flat] == 1.0)
    # the same resamples, refitted at fixed rates: every rate costs the same
    stats = resample_stats(ds, 60, np.random.default_rng(66))
    lengths = np.array(ds.lengths, dtype=float) + 1.0
    means, w = stats[2][flat], varpro._lane_weights(stats[3][flat])
    costs = [best_linear_fit(rb._LAWS["leakage"], np.full((len(means), 1, 1), rate) ** lengths,
                             means, w)[0]
             for rate in (1.0, 0.999, 0.9, 0.5)]
    for cost in costs[1:]:
        np.testing.assert_allclose(cost, costs[0], rtol=1e-12, atol=0)
    assert "unidentified" not in rb.analyze_dataset(ds, resamples=60, seed=66).to_dict()["bootstrap"]


def _profiled_cost(law: str, s, exponents, means, w):
    rate = np.exp(-s)
    return LINEAR_FIT_ORACLES[law](rate[:, None] ** exponents, means, w)[0]


@pytest.mark.parametrize("law", ["standard", "leakage"])
def test_profile_slope_matches_finite_difference(law):
    """The slope is the derivative of the profiled cost in ``-ln(rate)``, also
    where a linear parameter sits on a bound; it is exactly 0 where B = 0.
    The finite differences come from the residual-form oracle fits."""
    rng = np.random.default_rng(12)
    n = 300
    lengths = np.array([2.0, 9.0, 30.0])
    exponents = lengths + rb._LAWS[law].exponent_offset
    s = rng.uniform(1e-3, 0.3, n)
    means = rng.uniform(0.3, 1.0, (n, 3)) if law == "standard" else rng.uniform(-0.2, 1.2, (n, 3))
    if law == "standard":  # a third of the lanes decay from far above 1/2 + 0.75
        means[::3] = 0.5 + 1.2 * np.exp(-s[::3, None] * exponents) + rng.normal(0, 0.01, (100, 3))
    sems = rng.uniform(0.005, 0.05, (n, 3))
    sems[::7, 1] = 0.0  # unweighted lanes
    w = varpro._lane_weights(sems)
    rate = np.exp(-s)
    _, params = best_linear_fit(rb._LAWS[law], rate[:, None, None] ** exponents, means, w)
    params = [p[:, 0] for p in params]
    slope = profile_slope(rb._LAWS[law], lengths, means, w, (*params, rate))
    h = 1e-6 * s
    fd = (_profiled_cost(law, s + h, exponents, means, w)
          - _profiled_cost(law, s - h, exponents, means, w)) / (2 * h)
    np.testing.assert_allclose(slope, fd, rtol=1e-5, atol=1e-3)  # median |slope| ~ 500
    if law == "standard":
        assert np.sum(params[0] == rb.PARAMETER_BOUNDS["amplitude"][1]) >= 20
    else:
        b, c = params
        for edge in (b == 0.0, b == 1.0, c == 0.0, c == 1.0):
            assert edge.sum() >= 5
        assert np.all(slope[b == 0.0] == 0.0)
    assert np.sum(np.any(sems == 0.0, axis=-1)) >= 40


def test_profile_fit_lane_equals_one_lane_fit():
    stats = resample_stats(_oracle_dataset("unequal-shots"), 40,
                               np.random.default_rng(5))
    lengths = np.array([2.0, 9.0, 30.0])
    for law, half in (("standard", 0), ("leakage", 2)):
        means, sems = stats[half], stats[half + 1]
        batch = varpro.profile_fit(rb._LAWS[law], lengths, means, sems)
        for i in range(0, 40, 3):
            one = varpro.profile_fit(rb._LAWS[law], lengths, means[i:i + 1], sems[i:i + 1])
            assert [p[i] for p in batch] == [p[0] for p in one], i
        # a lane with non-finite statistics fails alone
        means = means.copy()
        means[7, 1] = np.nan
        broken = varpro.profile_fit(rb._LAWS[law], lengths, means, sems)
        assert not all(np.isfinite(p[7]) for p in broken)
        for p, q in zip(broken, batch):
            np.testing.assert_array_equal(np.delete(p, 7), np.delete(q, 7))


@pytest.mark.parametrize("case", FIT_CASES)
def test_profile_fit_matches_oracle(case):
    """The linear fits from weighted sums and the slope's root search keep the
    residual-form zoom oracle's fit: no lane costs more than the oracle's,
    and parameters differ only where the two costs tie to rounding.  No lane
    costs more than the 30-halving bisection oracle's either."""
    ds = _fit_case_dataset(case)
    stats = resample_stats(ds, 200, np.random.default_rng(68))
    if case in ("control", "reset"):
        assert np.sum(np.any(stats[1] == 0.0, axis=-1)) >= 20
    lengths = np.array(ds.lengths, dtype=float)
    for law, means, sems in (("standard", *stats[:2]), ("leakage", *stats[2:])):
        ours = varpro.profile_fit(rb._LAWS[law], lengths, means, sems)
        oracle = profile_fit_oracle(law, lengths, means, sems)
        bisection = bisection_profile_fit_oracle(rb._LAWS[law], lengths, means, sems)
        for i in range(len(means)):
            mine, theirs = [p[i] for p in ours], [p[i] for p in oracle]
            args = (law, lengths, means[i], sems[i])
            assert_no_costlier(*args, mine, theirs)
            if mine != theirs:  # the oracle reaches no lower cost either
                assert_no_costlier(*args, theirs, mine)
            assert_no_costlier(*args, mine, [p[i] for p in bisection])


def _campaign_fit_lanes(seed: int):
    """``(label, law, lengths, means, sems)`` of every fit of the canonical
    campaign's probes: the point estimate stacked on 200 resamples, 201 lanes."""
    for result in rb.run_campaign(rb.standard_experiments(), seed=seed, resamples=0):
        for label, ds in sorted(result.datasets.items()):
            lengths = np.array(ds.lengths, dtype=float)
            point = [[[getattr(s, f) for s in half] for f in ("mean", "sem")]
                     for half in rb.per_length_stats(ds)]
            resampled = resample_stats(ds, 200, np.random.default_rng(seed))
            for k, law in enumerate(("standard", "leakage")):
                means, sems = (np.concatenate(([point[k][j]], resampled[2 * k + j]))
                               for j in (0, 1))
                yield label, law, lengths, means, sems


@pytest.mark.parametrize("seed", range(4))
def test_profile_fit_matches_bisection_oracle_on_the_campaign(seed):
    """No lane of the canonical campaign's fits costs more than the 30-halving
    bisection oracle's, and a stride of its lanes fitted one at a time
    equals the same lanes of the 201-lane batch bit for bit."""
    for label, law, lengths, means, sems in _campaign_fit_lanes(seed):
        oracle = bisection_profile_fit_oracle(rb._LAWS[law], lengths, means, sems)
        batch = varpro.profile_fit(rb._LAWS[law], lengths, means, sems)
        for i in range(len(means)):
            mine, theirs = [p[i] for p in batch], [p[i] for p in oracle]
            if mine != theirs:
                assert_no_costlier(law, lengths, means[i], sems[i], mine, theirs)
        for i in range(0, 201, 8):
            one = varpro.profile_fit(rb._LAWS[law], lengths, means[i:i + 1], sems[i:i + 1])
            assert [p[0] for p in one] == [p[i] for p in batch], (label, law, i)


def _assert_matches_chandrupatla_oracle(law, lengths, means, sems, context=()) -> None:
    """Standard fits equal the single-face Chandrupatla oracle's bit for bit;
    no leakage lane costs more than the oracle's fit."""
    ours = varpro.profile_fit(rb._LAWS[law], lengths, means, sems)
    oracle = chandrupatla_profile_fit_oracle(rb._LAWS[law], lengths, means, sems)
    if law == "standard":
        for p, q in zip(ours, oracle):
            np.testing.assert_array_equal(p, q, err_msg=str(context))
        return
    for i in range(len(means)):
        mine, theirs = [p[i] for p in ours], [p[i] for p in oracle]
        if mine != theirs and np.all(np.isfinite(means[i])):
            assert_no_costlier(law, lengths, means[i], sems[i], mine, theirs)


@pytest.mark.parametrize("seed", range(4))
def test_profile_fit_matches_chandrupatla_oracle_on_the_campaign(seed):
    for label, law, lengths, means, sems in _campaign_fit_lanes(seed):
        _assert_matches_chandrupatla_oracle(law, lengths, means, sems, (seed, label))


@pytest.mark.parametrize("case", FIT_CASES)
def test_profile_fit_matches_chandrupatla_oracle_on_the_fit_cases(case):
    ds = _fit_case_dataset(case)
    stats = resample_stats(ds, 200, np.random.default_rng(68))
    lengths = np.array(ds.lengths, dtype=float)
    for law, means, sems in (("standard", *stats[:2]), ("leakage", *stats[2:])):
        _assert_matches_chandrupatla_oracle(law, lengths, means, sems, case)


def _degenerate_lanes():
    """``(law, lengths, means, sems)`` of three fits: per law a decaying
    lane, the same lane with all SEMs 0 and with a NaN mean; then a flat
    leakage lane (B = 0 at every rate) beside the leakage lane, which decays
    so slowly that its slope is 0 at its bracket's lower end (rate 1, where
    B = 0 ties) and positive at the upper."""
    lengths = np.array([1.0, 10.0, 50.0])
    flat = np.full(3, 0.3)
    decay = 0.3 * (1.0 - 2e-10) ** (lengths + 1.0) + 0.2
    sems = np.full(3, 0.01)
    for law, means in (("standard", 0.5 + 0.3 * 0.97 ** lengths), ("leakage", decay)):
        yield law, lengths, np.stack((means, means, np.where(lengths == 10, np.nan, means))), \
            np.stack((sems, np.zeros(3), sems))
    yield "leakage", lengths, np.stack((flat, decay)), np.stack((sems, sems))


def test_profile_fit_handles_degenerate_lanes(monkeypatch):
    """Degenerate lanes fit without a warning, also where an overflow would
    raise (as in ``cli.main``): a lane with B = 0 everywhere keeps the tie
    rule's rate 1, a lane with SEMs 0 is fitted unweighted, a lane with NaN
    statistics gets non-finite parameters, a lane with a zero slope at a
    bracket end is searched and costs no more than the bisection oracle's fit,
    and a rising lane, whose slope is positive at both bracket ends, is not
    searched and returns the cheapest of the ceiling, the floor and its grid
    point."""
    lanes = list(_degenerate_lanes())
    slopes, xs = [], []
    real = varpro._profile_slope

    def recorded(*args):
        xs.append(args[2])
        slopes.append(real(*args))
        return slopes[-1]

    with np.errstate(over="raise"):
        fits = [varpro.profile_fit(rb._LAWS[law], *args) for law, *args in lanes[:-1]]
        monkeypatch.setattr(varpro, "_profile_slope", recorded)
        fits.append(varpro.profile_fit(rb._LAWS["leakage"], *lanes[-1][1:]))
        monkeypatch.undo()
        oracles = [bisection_profile_fit_oracle(rb._LAWS[law], *args) for law, *args in lanes]
        unit = [varpro.profile_fit(rb._LAWS[law], lengths, means[1:2], np.ones((1, 3)))
                for law, lengths, means, _ in lanes[:2]]
    # the decay lane's profiled slope at its bracket's ends, scored with every
    # candidate's in the search's first call, is 0 at rate 1 and positive at
    # the other end
    lengths, means, sems = lanes[-1][1:]
    x, w = xs[0][1:2], varpro._lane_weights(sems[1:])
    assert np.all(x[0, 0] == 1.0)  # rate 1
    _, params = best_linear_fit(rb._LAWS["leakage"], x, means[1:], w)
    ends = varpro._profile_slope(rb._LAWS["leakage"], lengths + 1.0, x, means[1:, None],
                             w[:, None], params)[0]
    assert ends[0] == 0.0 and ends[1] > 0 and len(slopes) > 1
    assert ends[0] in slopes[0][:, 1, 0] and ends[1] in slopes[0][:, 1, 1]
    for (law, lengths, means, sems), fit, oracle in zip(lanes, fits, oracles):
        for i in range(len(means)):
            mine, theirs = [p[i] for p in fit], [p[i] for p in oracle]
            if np.all(np.isfinite(means[i])):
                assert np.all(np.isfinite(mine))
                assert_no_costlier(law, lengths, means[i], sems[i], mine, theirs)
            else:
                assert not np.all(np.isfinite(mine))
    for fit, one in zip(fits, unit):
        assert [p[1] for p in fit] == [p[0] for p in one]
    b, c, rate = (p[0] for p in fits[2])
    assert (b, rate) == (0.0, 1.0) and c == pytest.approx(0.3)

    spec, lengths, sems = rb._LAWS["standard"], lanes[0][1], np.full((1, 3), 0.01)
    rising = 0.6 + 0.3 * (1.0 - 0.97 ** lengths[None])
    slopes.clear()
    monkeypatch.setattr(varpro, "_profile_slope", recorded)
    amplitude, rate = (p[0] for p in varpro.profile_fit(spec, lengths, rising, sems))
    monkeypatch.undo()
    assert len(slopes) == 1 and np.all(slopes[0] > 0)  # both ends, then no step
    grid = np.clip(np.exp(-varpro._GRID), varpro.RATE_FLOOR, 1.0)
    w = 1.0 / sems ** 2
    grid_cost = best_linear_fit(spec, grid[:, None] ** lengths, rising, w)[0]
    rates = np.array([1.0, varpro.RATE_FLOOR, grid[np.argmin(grid_cost)]])
    amplitudes = best_linear_fit(spec, rates[:, None] ** lengths, rising, w)[1][0][0]
    costs = [weighted_cost("standard", lengths, rising[0], sems[0], params)
             for params in zip(amplitudes, rates)]
    assert rate == rates[np.argmin(costs)]
    assert weighted_cost("standard", lengths, rising[0], sems[0], (amplitude, rate)) == min(costs)


def test_profile_fit_matches_chandrupatla_oracle_on_degenerate_lanes():
    with np.errstate(over="raise"):
        for law, *args in _degenerate_lanes():
            _assert_matches_chandrupatla_oracle(law, *args)


def _assert_coarse_grid_matches_stacked_oracle(law, lengths, means, sems, context=()) -> None:
    """Scoring candidates one at a time picks the stacked grid's point."""
    spec, w = rb._LAWS[law], varpro._lane_weights(sems)
    exponents = lengths + spec.exponent_offset
    np.testing.assert_array_equal(varpro._coarse_grid(spec, exponents, spec.lanes(means, w)),
                                  stacked_coarse_grid_oracle(spec, exponents, means, w),
                                  err_msg=str(context))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_coarse_grid_matches_stacked_oracle_on_the_campaign(seed):
    """Both laws, on the point lanes and on the 200-lane batches."""
    for label, law, lengths, means, sems in _campaign_fit_lanes(seed):
        for lanes in (slice(0, 1), slice(1, None)):
            _assert_coarse_grid_matches_stacked_oracle(law, lengths, means[lanes], sems[lanes],
                                                       (seed, label, law, lanes))


@pytest.mark.parametrize("case", FIT_CASES)
def test_coarse_grid_matches_stacked_oracle_on_the_fit_cases(case):
    ds = _fit_case_dataset(case)
    stats = resample_stats(ds, 200, np.random.default_rng(68))
    lengths = np.array(ds.lengths, dtype=float)
    for law, means, sems in (("standard", *stats[:2]), ("leakage", *stats[2:])):
        _assert_coarse_grid_matches_stacked_oracle(law, lengths, means, sems, (case, law))


@pytest.mark.parametrize("law", ["standard", "leakage", "depump", "depump-free"])
def test_cheapest_candidate_is_the_stacked_minimum(law):
    """Folding a law's candidates one at a time gives its candidate stack's
    cheapest cost bit for bit, NaN where the stack has one: on lanes whose
    fits reach every face of the box, on unweighted lanes, on constant
    lanes and on lanes with a NaN mean."""
    spec = {"depump": micromotion._DEPUMP_LAWS[False],
            "depump-free": micromotion._DEPUMP_LAWS[True]}.get(law) or rb._LAWS[law]
    rng = np.random.default_rng(31)
    lengths = np.array([2.0, 9.0, 30.0])
    means = rng.uniform(-0.2, 1.2, (300, 3))
    means[:40] = rng.uniform(-0.2, 1.2, (40, 1))
    means[40:45, 1] = np.nan
    sems = rng.uniform(0.005, 0.05, (300, 3))
    sems[::7, 1] = 0.0
    w = varpro._lane_weights(sems)
    x = varpro._clipped_rate(spec, varpro._GRID)[:, None] ** (lengths + spec.exponent_offset)
    terms, lanes = spec.terms(x), spec.lanes(means, w)
    stack = varpro._stacked(spec.linear_fit(terms, lanes))[0]
    np.testing.assert_array_equal(varpro._cheapest(spec.linear_fit(terms, lanes)), stack.min(0))
    if law == "leakage":  # every candidate is the cheapest somewhere
        assert set(np.unique(stack.argmin(0))) == set(range(5))


def test_coarse_grid_matches_stacked_oracle_on_degenerate_lanes():
    """NaN statistics, zero SEMs, B = 0 at every rate and constant means."""
    lengths = np.array([1.0, 10.0, 50.0])
    constant = np.array([[0.0] * 3, [0.3] * 3, [0.5] * 3, [1.0] * 3])
    with np.errstate(over="raise"):
        for law, *args in _degenerate_lanes():
            _assert_coarse_grid_matches_stacked_oracle(law, *args, law)
        for law in ("standard", "leakage"):
            for sems in (np.full((4, 3), 0.01), np.zeros((4, 3))):
                _assert_coarse_grid_matches_stacked_oracle(law, lengths, constant, sems, law)


def test_profile_fit_steps_are_bounded(monkeypatch):
    """The search scores the slope at most ``1 + 3 * 64`` times per fit (both
    bracket ends at once, then at worst three steps per halving of the
    bracket); on the canonical campaign a lane takes fewer than 8 steps on
    average, where bisection took 30."""
    widest = np.max(varpro._GRID[2:] - varpro._GRID[:-2])
    bound = 1 + 3 * math.ceil(math.log2(widest / (2.0 * varpro._XRTOL * varpro._GRID[1])))
    assert bound == 1 + 3 * 64
    fits = [(law, lengths, means, sems) for _, law, lengths, means, sems
            in _campaign_fit_lanes(9001)]
    scored = []  # lanes per call of the slope
    real = varpro._profile_slope

    def counted(spec, exponents, x, means, w, linear):
        scored.append(len(means))
        return real(spec, exponents, x, means, w, linear)

    monkeypatch.setattr(varpro, "_profile_slope", counted)
    lane_steps = 0
    for law, *args in [*fits, *_degenerate_lanes()]:
        start = len(scored)
        varpro.profile_fit(rb._LAWS[law], *args)
        assert len(scored) - start <= bound
        lane_steps += sum(scored[start + 1:])
    assert lane_steps < 8 * sum(len(means) for _, _, means, _ in fits)


@pytest.mark.parametrize("seed", [0, 9001])
def test_leakage_fit_steps_track_the_active_set(seed, monkeypatch):
    """Interpolating on the slope of the face that holds keeps every leakage
    fit of the canonical campaign, one lane or 201, within 16 slope calls;
    on the profiled slope alone they took up to 33."""
    calls = []
    real = varpro._profile_slope

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(varpro, "_profile_slope", counted)
    for label, law, lengths, means, sems in _campaign_fit_lanes(seed):
        if law == "leakage":
            for lanes in (slice(0, 1), slice(None)):
                calls.clear()
                varpro.profile_fit(rb._LAWS[law], lengths, means[lanes], sems[lanes])
                assert len(calls) <= 16, (label, lanes, len(calls))


def test_clipped_amplitude_never_exceeds_its_bound():
    """``hi * den / den`` rounds one ulp above or below ``hi`` for about 8% of
    denominators each; a clipped quotient is ``hi`` exactly, and no fitted
    amplitude exceeds it."""
    rng = np.random.default_rng(14)
    den = rng.uniform(0.0, 10.0, 10_000)
    assert np.all(varpro._clipped_ratio(2.0 * den, den, 0.75) == 0.75)
    lengths = np.array([2.0, 11.0, 81.0])
    rate = rng.uniform(0.95, 0.999, (300, 1))
    means = 0.5 + rng.uniform(0.8, 1.5, (300, 1)) * rate ** lengths
    amplitude, _ = varpro.profile_fit(rb._LAWS["standard"], lengths, means,
                                   np.full((300, 3), 0.01))
    assert np.sum(amplitude == 0.75) >= 100 and np.all(amplitude <= 0.75)


def test_point_fits_do_not_call_curve_fit(monkeypatch):
    """``rb.curve_fit`` stays only as a name the benchmark wraps."""
    def refuse(*args, **kwargs):
        raise AssertionError("curve_fit called")

    monkeypatch.setattr(rb, "curve_fit", refuse)
    result = rb.analyze_dataset(_fit_case_dataset("balanced"), resamples=20, seed=3)
    assert result.bootstrap.failures == 0


def _box_cost(x, y, w, b, c):
    return float(np.sum(w * (y - b * x - c) ** 2))


def test_box_constrained_linear_fit_is_exact():
    """(B, C) in [0, 1]**2 is the exact bounded least-squares solution.

    Checked against scipy's ``lsq_linear`` on random lanes, and on a lane
    where clipping the free solution's B and C one at a time costs more.
    """
    x = np.array([1.0, 0.6, 0.2])
    y = np.array([1.25, 0.75, 0.3])
    w = np.array([1.0, 4.0, 2.0])
    b_free, c_free = np.polyfit(x, y, 1, w=np.sqrt(w))
    assert b_free > 1.0 and 0.0 <= c_free <= 1.0
    cost, (b, c) = best_linear_fit(rb._LAWS["leakage"], x[None, None], y[None], w[None])
    cost, b, c = cost[0, 0], b[0, 0], c[0, 0]
    naive = _box_cost(x, y, w, 1.0, c_free)
    assert b == 1.0 and cost < naive - 1e-3
    assert cost == pytest.approx(_box_cost(x, y, w, 1.0, float(np.average(y - x, weights=w))))

    rng = np.random.default_rng(8)
    x = np.sort(rng.uniform(0.0, 1.0, (300, 3)), axis=1)[:, ::-1]
    y = rng.uniform(-0.5, 1.5, (300, 3))
    w = rng.uniform(0.1, 10.0, (300, 3))
    cost, (b, c) = best_linear_fit(rb._LAWS["leakage"], x[:, None], y, w)
    cost, b, c = cost[:, 0], b[:, 0], c[:, 0]
    for i in range(300):
        root = np.sqrt(w[i])
        ref = lsq_linear(np.column_stack([x[i], np.ones(3)]) * root[:, None], y[i] * root,
                         bounds=([0.0, 0.0], [1.0, 1.0]), tol=1e-14)
        assert cost[i] <= _box_cost(x[i], y[i], w[i], *ref.x) * (1 + 1e-12) + 1e-15
        assert cost[i] == pytest.approx(_box_cost(x[i], y[i], w[i], b[i], c[i]), rel=1e-12)
        assert 0.0 <= b[i] <= 1.0 and 0.0 <= c[i] <= 1.0


def test_analyze_dataset_structure():
    seqs = rb.generate_sequences(lengths=(2, 9, 30), sequences_per_length=8,
                                 seed=43)
    ds = rb.simulate_dataset(seqs, channels.measurement_crosstalk(5e-3),
                             shots=100, seed=44)
    result = rb.analyze_dataset(ds, resamples=0)
    assert result.bootstrap is None
    assert result.sigma("base") is None
    assert result.lengths == (2, 9, 30)
    assert result.sequences_per_length == {2: 8, 9: 8, 30: 8}
    assert result.shots == (100,)
    assert result.epsilon == pytest.approx(
        rb.average_error(result.standard.base, result.leakage_fit.leakage))

    with_boot = rb.analyze_dataset(ds, resamples=20, seed=45)
    out = with_boot.to_dict()
    assert out["bootstrap"]["n_resamples"] == 20
    assert set(out["scattering_estimates"]) == {"standard", "leakage"}
    assert with_boot.sigma("epsilon") is not None
    assert len(out["standard"]["per_length"]) == 3


# ---------------------------------------------------------------------------
# focus-ion simulation


def test_simulate_focus_record_shape_and_determinism():
    seqs = rb.generate_sequences(lengths=(2, 4), sequences_per_length=4, seed=47)
    ops = ("measure", "reset", "measure")
    model = rb.FocusModel(dark_to_bright=0.01, bright_to_dark=0.02,
                          depump_per_measure=0.01)
    a = rb.simulate_focus(seqs, ops, 0, model, shots=60, seed=48)
    b = rb.simulate_focus(seqs, ops, 0, model, shots=60, seed=48)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.int64 and a.shape[1] == len(rb.FOCUS_HEADER)
    total_slots = sum(s.length for s in seqs)
    assert len(a) == 2 * total_slots  # two measurements per slot
    assert set(a[:, 3].tolist()) == {0, 1}
    assert np.all((a[:, 5] >= 0) & (a[:, 5] <= a[:, 4]))


def test_simulate_focus_error_free_trajectories():
    seqs = rb.generate_sequences(lengths=(3,), sequences_per_length=4, seed=49)
    records = rb.simulate_focus(seqs, ("measure", "reset", "x_pi", "measure"),
                                1, rb.FocusModel(), shots=40, seed=50)
    assert len(records) == 2 * 3 * 4 and not records[:, 5].any()


def test_simulate_focus_depump_accumulates_without_reset():
    """A bright ion that is measured but never reset decays down the sequence."""
    seqs = rb.generate_sequences(lengths=(2, 40), sequences_per_length=4,
                                 seed=51)
    model = rb.FocusModel(depump_per_measure=0.02)
    records = rb.simulate_focus(seqs, ("measure",), 1, model, shots=400,
                                seed=52)
    report = rb.spam_report(records)
    assert len(report) == 1
    per_length = {row[0]: row[3] for row in report[0].per_length}
    assert per_length[40] > 5.0 * per_length[2] > 0.0

    with_reset = rb.simulate_focus(seqs, ("measure", "reset", "x_pi"), 1,
                                   model, shots=400, seed=53)
    reset_report = rb.spam_report(with_reset)
    assert reset_report[0].rate < 0.05
    assert report[0].rate > 3.0 * reset_report[0].rate


def test_simulate_focus_validation():
    seqs = rb.generate_sequences(lengths=(2,), sequences_per_length=2, seed=54)
    with pytest.raises(ConfigError):
        rb.simulate_focus(seqs, ("teleport",), 0, rb.FocusModel(), shots=10)
    with pytest.raises(ConfigError):
        rb.simulate_focus(seqs, ("measure",), 2, rb.FocusModel(), shots=10)
    with pytest.raises(ConfigError, match="shots"):  # spam_report divides by shots
        rb.simulate_focus(seqs, ("measure",), 0, rb.FocusModel(), shots=0)
    with pytest.raises(ConfigError):
        rb.FocusModel(depump_per_measure=1.5)
    with pytest.raises(ConfigError):
        rb.FocusModel.from_dict({"depump": 0.1})


# every model here is deterministic: each probability is 0 or 1
DETERMINISTIC_FOCUS_MODELS = [
    rb.FocusModel(*flags) for flags in itertools.product((0.0, 1.0), repeat=5)]


def test_simulate_focus_equals_oracle_when_no_draw_decides():
    """Batched and per-sequence trajectories give the same table exactly."""
    seqs = rb.generate_sequences(lengths=(3, 1, 2), sequences_per_length=4,
                                 seed=57)
    seqs = [seqs[i] for i in np.random.default_rng(58).permutation(len(seqs))]
    for ops in (("measure",), ("measure", "reset", "measure"),
                ("x_pi", "measure", "reset", "x_pi", "measure")):
        for model in DETERMINISTIC_FOCUS_MODELS:
            for initial in (0, 1):
                table = rb.simulate_focus(seqs, ops, initial, model, shots=7,
                                          seed=59)
                np.testing.assert_array_equal(
                    table, focus_oracle(seqs, ops, initial, model, shots=7,
                                        seed=60))
    # a random_su2 focus ion is read out the same way whatever bit it holds
    for model in (rb.FocusModel(), rb.FocusModel(dark_to_bright=1.0,
                                                 bright_to_dark=1.0)):
        ops = ("random_su2", "measure", "reset", "measure")
        np.testing.assert_array_equal(
            rb.simulate_focus(seqs, ops, 0, model, shots=7, seed=61),
            focus_oracle(seqs, ops, 0, model, shots=7, seed=62))


def test_simulate_focus_equals_oracle_with_one_sequence_per_length():
    """With one sequence per length both routes draw the same numbers."""
    seqs = rb.generate_sequences(lengths=(5, 2, 9), sequences_per_length=1,
                                 seed=63, balanced=False)
    model = rb.FocusModel(prep_flip=0.1, dark_to_bright=0.05,
                          bright_to_dark=0.08, depump_per_measure=0.1,
                          reset_error=0.2)
    # the mixed models skip the draws of their zero probabilities
    mixed = (rb.FocusModel(prep_flip=0.1, dark_to_bright=0.05, bright_to_dark=0.08),
             rb.FocusModel(depump_per_measure=0.1, reset_error=0.2),
             rb.FocusModel(bright_to_dark=0.08, reset_error=0.2))
    ops = ("random_su2", "measure", "reset", "measure", "x_pi")
    for focus in (model, *mixed):
        for initial in (0, 1):
            np.testing.assert_array_equal(
                rb.simulate_focus(seqs, ops, initial, focus, shots=50, seed=64),
                focus_oracle(seqs, ops, initial, focus, shots=50, seed=64))


@pytest.mark.parametrize("seed", [1103, 2207, 3301])
def test_simulate_focus_agrees_with_oracle_statistically(seed):
    """Pooled error rates of both routes agree within 5 sigma per depth."""
    seqs = rb.generate_sequences(lengths=(2, 6, 20), sequences_per_length=10,
                                 seed=seed)
    model = rb.FocusModel(prep_flip=0.05, dark_to_bright=0.03,
                          bright_to_dark=0.06, depump_per_measure=0.04,
                          reset_error=0.1)
    ops = ("x_pi", "measure", "measure", "reset")
    batched = rb.spam_report(rb.simulate_focus(seqs, ops, 1, model, shots=200,
                                               seed=seed + 1))
    oracle = rb.spam_report(focus_oracle(seqs, ops, 1, model, shots=200,
                                         seed=seed + 2))
    assert [e.meas_index for e in batched] == [e.meas_index for e in oracle]
    for new, old in zip(batched, oracle):
        for (length, shots, _, rate), (_, _, _, expected) in zip(
                new.per_length, old.per_length):
            pooled = (rate + expected) / 2
            sigma = math.sqrt(2 * max(pooled * (1 - pooled), 1 / shots) / shots)
            assert abs(rate - expected) < 5 * sigma, (new.meas_index, length)


def test_spam_report_pooling():
    records = np.array([  # columns rb.FOCUS_HEADER
        (2, 0, 1, 0, 100, 3),
        (2, 1, 2, 0, 100, 5),
        (9, 0, 1, 1, 100, 2),
    ])
    report = rb.spam_report(records)
    assert [e.meas_index for e in report] == [0, 1]
    first = report[0]
    assert first.shots == 200 and first.errors == 8
    assert first.rate == pytest.approx(0.04)
    assert first.per_length == ((2, 200, 8, 0.04),)
    # totals 3 and 5 spread less than binomial noise: the binomial sigma stays
    assert first.sigma == pytest.approx(math.sqrt(0.04 * 0.96 / 200))
    # totals 0 and 16 over two slots each: the spread of the per-sequence
    # totals, sqrt(2 * 128) / 200, beats the binomial 0.019
    report = rb.spam_report(np.array([(2, 0, 1, 0, 50, 0), (2, 0, 2, 0, 50, 0),
                                      (2, 1, 1, 0, 50, 9), (2, 1, 2, 0, 50, 7)]))
    assert report[0].rate == pytest.approx(0.08)
    assert report[0].sigma == pytest.approx(16.0 / 200.0)

    big = 2 ** 62  # each count fits int64, their sums do not
    report = rb.spam_report(np.array([(2, 0, 1, 0, big, big // 2),
                                      (2, 1, 1, 0, big, big // 2)]))
    assert (report[0].shots, report[0].errors) == (2 * big, big)
    assert report[0].rate == 0.5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 0.3)), min_size=5, max_size=5),
       st.lists(st.sampled_from(rb.INTERLEAVED_OPS), min_size=1, max_size=5),
       st.sampled_from([1, 2, 7]), st.integers(0, 2 ** 32 - 1))
def test_spam_report_equals_unique_oracle_on_shuffled_tables(probabilities, ops, per_length,
                                                             seed):
    rng = np.random.default_rng(seed)
    seqs = rb.generate_sequences((1, 4, 9), per_length, seed=rng, balanced=False)
    table = rb.simulate_focus(seqs, ops, 1, rb.FocusModel(*probabilities), shots=20,
                              seed=rng)
    shuffled = table[rng.permutation(len(table))]
    report = rb.spam_report(shuffled)
    assert report == spam_report_oracle(shuffled)
    assert report == rb.spam_report(table)


def test_spam_report_sigma_matches_seed_to_seed_spread():
    """A depumping bright ion shares its errors across the slots of a sequence.

    The reported sigma must describe the rate's actual spread over seeds,
    which the per-readout binomial formula underestimates several-fold.
    """
    model = rb.FocusModel(prep_flip=0.01, dark_to_bright=0.02,
                          bright_to_dark=0.03, depump_per_measure=0.01)
    rates, sigmas = [], []
    for seed in range(500, 540):
        seq_ss, focus_ss = np.random.SeedSequence(seed).spawn(2)
        seqs = rb.generate_sequences((2, 11, 81), 40, seed=seq_ss)
        (entry,) = rb.spam_report(rb.simulate_focus(seqs, ("measure",), 1, model,
                                                    shots=100, seed=focus_ss))
        rates.append(entry.rate)
        sigmas.append(entry.sigma)
    ratio = np.mean(sigmas) / np.std(rates, ddof=1)
    assert 0.67 <= ratio <= 1.5, ratio


def test_focus_csv_round_trip_and_validation(tmp_path):
    seqs = rb.generate_sequences(lengths=(2,), sequences_per_length=4, seed=55)
    records = rb.simulate_focus(seqs, ("measure",), 0,
                                rb.FocusModel(dark_to_bright=0.05), shots=30,
                                seed=56)
    path = tmp_path / "focus.csv"
    rb.write_focus_csv(records, path)
    np.testing.assert_array_equal(rb.read_focus_csv(path), records)

    path.write_text("length,bogus\n")
    with pytest.raises(DataFormatError):
        rb.read_focus_csv(path)
    header = ",".join(rb.FOCUS_HEADER)
    path.write_text(f"{header}\n2,0,1,0,30,45\n")
    with pytest.raises(DataFormatError, match="outside"):
        rb.read_focus_csv(path)
    for row in ("0,0,1,0,30,3", "-2,0,1,0,30,3", "2,0,1,0,0,0"):
        path.write_text(f"{header}\n2,0,1,0,30,3\n{row}\n")
        with pytest.raises(DataFormatError, match=":3: length and shots must be positive"):
            rb.read_focus_csv(path)
    path.write_bytes(b"\xff" + f"{header}\n".encode())
    with pytest.raises(DataFormatError, match="not a focus CSV"):
        rb.read_focus_csv(path)
    with pytest.raises(DataFormatError, match="cannot read focus file"):
        rb.read_focus_csv(tmp_path)


@pytest.mark.parametrize("row, message", [
    ("2,0,1,0,30,3", ":4: repeats a \\(length, seq_id, slot, meas_index\\) key"),
    ("2,0,3,0,30,3", ":4: slot outside \\[1, length\\]"),
    ("2,0,0,0,30,3", ":4: slot outside \\[1, length\\]"),
    ("2,-1,1,0,30,3", ":4: seq_id and meas_index must be non-negative"),
    ("2,1,1,-1,30,3", ":4: seq_id and meas_index must be non-negative"),
    (f"2,1,1,0,{2 ** 64},3", ":4: value outside the int64 range"),
], ids=["duplicate", "slot-above-length", "slot-zero", "negative-seq-id",
        "negative-meas-index", "beyond-int64"])
def test_focus_csv_rejects_rows_the_writer_never_produces(tmp_path, row, message):
    path = tmp_path / "focus.csv"
    header = ",".join(rb.FOCUS_HEADER)
    path.write_text(f"{header}\n2,0,1,0,30,3\n2,0,2,0,30,1\n{row}\n")
    with pytest.raises(DataFormatError, match=message):
        rb.read_focus_csv(path)


def test_focus_csv_names_first_repeated_row_in_file_order(tmp_path):
    rng = np.random.default_rng(66)
    rows = [(9, seq_id, slot, 0, 30, 1) for seq_id in range(3) for slot in (1, 5, 9)]
    rows += [rows[4], rows[7]]
    for _ in range(5):
        order = rng.permutation(len(rows))
        shuffled = [rows[i] for i in order]
        first_repeat = next(lineno for lineno, row in enumerate(shuffled, start=2)
                            if row in shuffled[:lineno - 2])
        path = tmp_path / "focus.csv"
        rb.write_focus_csv(np.array(shuffled), path)
        with pytest.raises(DataFormatError, match=f":{first_repeat}: repeats a "):
            rb.read_focus_csv(path)


# ---------------------------------------------------------------------------
# experiment configuration


def test_channel_spec_build_and_round_trip():
    spec = rb.ChannelSpec("reset", 1e-3, (0.25, 0.5, 0.25), 0.4)
    np.testing.assert_allclose(
        spec.build().matrix,
        channels.reset_crosstalk(1e-3, (0.25, 0.5, 0.25), 0.4).matrix)
    assert rb.ChannelSpec.from_dict(spec.to_dict()) == spec
    meas = rb.ChannelSpec("measurement", 2e-3)
    assert "dark_branching" not in meas.to_dict()
    assert rb.ChannelSpec.from_dict(meas.to_dict()) == meas


def test_probe_spec_slot_channel_composition():
    probe = rb.ProbeSpec(measurement=rb.ChannelSpec("measurement", 2e-3),
                         reset=rb.ChannelSpec("reset", 5e-4),
                         gate_depolarizing=1e-3)
    slot = probe.slot_channel(("measure", "reset"))
    expected = channels.compose(channels.depolarizing(1e-3),
                                channels.measurement_crosstalk(2e-3),
                                channels.reset_crosstalk(5e-4))
    np.testing.assert_allclose(slot.matrix, expected.matrix, atol=1e-14)

    double = probe.slot_channel(("measure", "reset", "measure", "reset"))
    expected2 = channels.compose(channels.depolarizing(1e-3),
                                 channels.measurement_crosstalk(2e-3),
                                 channels.reset_crosstalk(5e-4),
                                 channels.measurement_crosstalk(2e-3),
                                 channels.reset_crosstalk(5e-4))
    np.testing.assert_allclose(double.matrix, expected2.matrix, atol=1e-14)

    idle = rb.ProbeSpec().slot_channel(())
    np.testing.assert_allclose(idle.matrix, np.eye(16), atol=1e-15)
    # ops without configured channels contribute nothing
    np.testing.assert_allclose(rb.ProbeSpec().slot_channel(("measure",)).matrix,
                               np.eye(16), atol=1e-15)


def test_probe_spec_validation():
    with pytest.raises(ConfigError):
        rb.ProbeSpec.from_dict({"measurement": {"kind": "reset", "gamma_t": 1e-3}})
    with pytest.raises(ConfigError):
        rb.ProbeSpec.from_dict({"unknown": 1})
    with pytest.raises(ConfigError):
        rb.ProbeSpec(reset=rb.ChannelSpec("measurement", 1e-3))
    bad = [
        {"gate_depolarizing": 2.0},
        {"gate_depolarizing": -0.1},
        {"gate_depolarizing": "nan"},
        {"gate_depolarizing": True},
        {"spam": [1]},
        {"spam": {"prep_flip": 0.7, "prep_leak": 0.4}},
        {"measurement": "measurement"},
        {"measurement": {"kind": "measurement", "gamma_t": "nan"}},
        {"measurement": {"kind": "measurement", "gamma_t": 1e-3,
                         "polarization": "balanced"}},
        {"measurement": {"kind": "measurement", "gamma_t": 1e-3,
                         "polarization": [1.0, 1.0]}},
        {"reset": {"kind": "reset", "gamma_t": 1e-3, "dark_branching": 1.5}},
    ]
    for data in bad:
        with pytest.raises(ConfigError):
            rb.ProbeSpec.from_dict(data)
    with pytest.raises(ConfigError, match=r"^measurement\.gamma_t must be a finite"):
        rb.ProbeSpec.from_dict(bad[7])


def test_experiment_config_round_trip_and_validation():
    config = rb.ExperimentConfig(
        name="measure-dark", interleaved_ops=("measure",),
        probes={"probe": rb.ProbeSpec(measurement=rb.ChannelSpec("measurement", 1e-3))},
        focus=rb.FocusModel(depump_per_measure=0.01),
        lengths=(2, 5), sequences_per_length=4, shots=20)
    again = rb.ExperimentConfig.from_dict(config.to_dict())
    assert again == config

    with pytest.raises(ConfigError):
        rb.ExperimentConfig(name="bad name!", probes={"p": rb.ProbeSpec()})
    with pytest.raises(ConfigError):
        rb.ExperimentConfig(name="ok", probes={})
    with pytest.raises(ConfigError):
        rb.ExperimentConfig(name="ok", probes={"bad label!": rb.ProbeSpec()})
    with pytest.raises(ConfigError):
        rb.ExperimentConfig(name="ok", interleaved_ops=("warp",),
                            probes={"p": rb.ProbeSpec()})
    with pytest.raises(ConfigError):
        rb.ExperimentConfig.from_dict({"name": "x"})
    with pytest.raises(ConfigError):
        rb.ExperimentConfig.from_dict({**config.to_dict(), "typo": 1})
    with pytest.raises(ConfigError):
        rb.ExperimentConfig(name="ok", shots=0, probes={"p": rb.ProbeSpec()})
    bad = [
        {"probes": [1]},
        {"probes": {"probe": None}},
        {"shots": "x"},
        {"shots": 2.7},
        {"shots": float("inf")},
        {"balanced": "false"},
        {"interleaved_ops": "measure"},
        {"initial_focus_state": 2},
        {"lengths": [2, 0, 5]},
        {"lengths": [2, 2, 5, 9]},
        {"shots": 1e20},
        {"shots": 2 ** 63},
        {"lengths": 5},
        {"name": 5},
        {"focus": {"reset_error": -0.5}},
        {"probes": {"probe": {"gate_depolarizing": 2.0}}},
    ]
    for override in bad:
        with pytest.raises(ConfigError):
            rb.ExperimentConfig.from_dict({**config.to_dict(), **override})
    with pytest.raises(ConfigError, match="interleaved_ops must be a list"):
        rb.ExperimentConfig.from_dict({**config.to_dict(),
                                       "interleaved_ops": "measure"})
    with pytest.raises(ConfigError, match="lengths must not repeat"):
        rb.ExperimentConfig(name="ok", probes={"p": rb.ProbeSpec()},
                            lengths=(2, 2, 5, 9))
    with pytest.raises(ConfigError, match="shots must be an integer in the int64 range"):
        rb.ExperimentConfig.from_dict({**config.to_dict(), "shots": 1e20})
    # the int64 maximum parses, and then the shots-per-length limit refuses it
    with pytest.raises(ConfigError, match=r"sequences_per_length \* shots must be "
                                          r"<= 10000000, got 36893488147419103228$"):
        rb.ExperimentConfig.from_dict({**config.to_dict(), "shots": 2 ** 63 - 1})
    at_limit = rb.ExperimentConfig.from_dict(
        {**config.to_dict(), "shots": rb.MAX_SHOTS_PER_LENGTH // 4})
    assert at_limit.sequences_per_length * at_limit.shots == rb.MAX_SHOTS_PER_LENGTH


def test_load_campaign_validation(tmp_path):
    import json

    path = tmp_path / "campaign.json"
    config = rb.ExperimentConfig(
        name="control", probes={"p": rb.ProbeSpec()}, lengths=(2, 5, 9),
        sequences_per_length=4, shots=10)
    path.write_text(json.dumps({"experiments": [config.to_dict()]}))
    loaded = rb.load_campaign(path)
    assert loaded == [config]

    path.write_text(json.dumps({"experiments": [config.to_dict(),
                                                config.to_dict()]}))
    with pytest.raises(ConfigError, match="duplicate"):
        rb.load_campaign(path)
    path.write_text(json.dumps({"experiments": [config.to_dict()], "seeed": 3}))
    with pytest.raises(ConfigError, match="seeed is not a known key"):
        rb.load_campaign(path)
    path.write_text(json.dumps({"runs": []}))
    with pytest.raises(ConfigError):
        rb.load_campaign(path)
    path.write_text(json.dumps({"experiments": [
        {**config.to_dict(), "lengths": [5, 9]}]}))
    with pytest.raises(ConfigError, match="three distinct lengths"):
        rb.load_campaign(path)
    path.write_text(json.dumps({"experiments": [
        {**config.to_dict(), "lengths": [5, 5, 5]}]}))
    with pytest.raises(ConfigError, match="lengths must not repeat"):
        rb.load_campaign(path)
    for root in ([config.to_dict()], {"experiments": []}, {"experiments": [1]}):
        path.write_text(json.dumps(root))
        with pytest.raises(ConfigError):
            rb.load_campaign(path)
    with pytest.raises(ConfigError):
        rb.load_campaign(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# end-to-end experiments


def small_config(name="measure-dark", **overrides):
    defaults = dict(
        name=name, interleaved_ops=("measure",),
        probes={"probe": rb.ProbeSpec(
            measurement=rb.ChannelSpec("measurement", 5e-3))},
        focus=rb.FocusModel(depump_per_measure=0.01),
        lengths=(2, 7, 15), sequences_per_length=6, shots=40)
    defaults.update(overrides)
    return rb.ExperimentConfig(**defaults)


def test_run_experiment_structure_and_determinism():
    config = small_config()
    a = rb.run_experiment(config, seed=101, resamples=0)
    b = rb.run_experiment(config, seed=101, resamples=0)
    assert a.datasets["probe"].records == b.datasets["probe"].records
    assert a.spam == b.spam
    c = rb.run_experiment(config, seed=102, resamples=0)
    assert a.datasets["probe"].records != c.datasets["probe"].records

    slot = config.probes["probe"].slot_channel(config.interleaved_ops)
    ref = rb.channel_reference(slot)
    assert a.references["probe"] == ref
    assert ref.epsilon == pytest.approx(
        rb.average_error(ref.base, ref.leakage))
    assert a.analyses["probe"].bootstrap is None


def test_campaign_seed_is_an_int_none_or_seed_sequence():
    """A campaign spawns one child stream per experiment, so it takes an int,
    None or a SeedSequence; a Generator (or anything else) is a TypeError
    naming those types."""
    config = small_config()
    for seed in (np.random.default_rng(1), 1.5, "7", (1, 2)):
        for run in (lambda: rb.run_experiment(config, seed=seed, resamples=0),
                    lambda: rb.run_campaign([config], seed=seed, resamples=0)):
            with pytest.raises(TypeError, match="int, None or a numpy SeedSequence"):
                run()
    ss = np.random.SeedSequence(3)
    assert (rb.run_experiment(config, seed=ss, resamples=0).datasets
            == rb.run_experiment(config, seed=np.random.SeedSequence(3), resamples=0).datasets)
    assert rb.run_campaign([config], seed=np.int64(3), resamples=0)[0].datasets == \
        rb.run_campaign([config], seed=3, resamples=0)[0].datasets


def test_channel_reference_matches_channel_figures():
    slot = channels.compose(channels.depolarizing(1e-3),
                            channels.measurement_crosstalk(2e-3))
    ref = rb.channel_reference(slot)
    leak, seep = channels.leakage_seepage(slot)
    assert ref.base == pytest.approx(channels.decay_base(slot), abs=1e-14)
    assert ref.leakage == pytest.approx(leak, abs=1e-14)
    assert ref.seepage == pytest.approx(seep, abs=1e-14)
    assert ref.t_minus == pytest.approx(1.0 - leak - seep, abs=1e-14)


def test_run_campaign_serial_equals_parallel():
    configs = [small_config("exp-a"), small_config("exp-b", lengths=(2, 5, 9))]
    serial = rb.run_campaign(configs, seed=7, resamples=0, parallel=1)
    parallel = rb.run_campaign(configs, seed=7, resamples=0, parallel=2)
    for s, p in zip(serial, parallel):
        assert s.config.name == p.config.name
        assert s.datasets["probe"].records == p.datasets["probe"].records
        np.testing.assert_array_equal(s.focus_records, p.focus_records)


def test_run_campaign_gives_each_experiment_its_own_stream():
    """Experiment i runs on child i of the campaign seed, spawn key included."""
    configs = [small_config("exp-a"), small_config("exp-b"),
               small_config("exp-c")]
    results = rb.run_campaign(configs, seed=11, resamples=0)
    # the configs differ only in name, so equal datasets mean a shared stream
    records = [r.datasets["probe"].records for r in results]
    assert records[0] != records[1] and records[1] != records[2]
    children = np.random.SeedSequence(11).spawn(len(configs))
    for config, child, result in zip(configs, children, results):
        alone = rb.run_experiment(config, seed=child, resamples=0)
        assert alone.datasets["probe"].records == result.datasets["probe"].records
        np.testing.assert_array_equal(alone.focus_records, result.focus_records)


@pytest.fixture
def started(monkeypatch):
    """The child processes a test starts, in start order."""
    started = []

    class RecordingProcess(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", RecordingProcess)
    return started


def test_run_campaign_caps_workers_at_experiment_count(started):
    """A campaign never runs in more processes than it has experiments: the
    calling process runs the first share, one child process each other one,
    and a serial campaign starts none."""
    configs = [small_config("exp-a"), small_config("exp-b")]
    results = rb.run_campaign(configs, seed=7, resamples=0, parallel=64)
    assert len(started) == 1
    assert [r.config.name for r in results] == ["exp-a", "exp-b"]
    started.clear()
    assert len(rb.run_campaign(configs, seed=7, resamples=0, parallel=1)) == 2
    assert started == []
    assert not multiprocessing.active_children()


def _boot_seeds(configs, seed):
    """Each probe's bootstrap stream in a campaign, by (experiment, probe)."""
    out = {}
    for config, child in zip(configs, np.random.SeedSequence(seed).spawn(len(configs))):
        probes_ss = child.spawn(3)[2]
        for label, probe_ss in zip(sorted(config.probes), probes_ss.spawn(len(config.probes))):
            out[config.name, label] = probe_ss.spawn(2)[1]
    return out


def _assert_same_campaign(a, b):
    assert [r.config for r in a] == [r.config for r in b]
    for x, y in zip(a, b):
        assert list(x.analyses) == list(y.analyses)
        for label, analysis in x.analyses.items():
            assert x.datasets[label].records == y.datasets[label].records
            assert_same_analysis(analysis, y.analyses[label])
        np.testing.assert_array_equal(x.focus_records, y.focus_records)


@pytest.mark.parametrize("seed", range(4))
def test_campaign_batch_equals_per_probe_fits(seed):
    """Fitting every lane of a law in one call gives every probe the point
    fits, bootstrap samples, failures, ``at_bound`` and ``unidentified`` of
    fitting its own lanes alone, bit for bit."""
    configs = rb.standard_experiments()
    results = rb.run_campaign(configs, seed=seed, resamples=200)
    boot_seeds = _boot_seeds(configs, seed)
    for result in results:
        for label, analysis in result.analyses.items():
            oracle = per_probe_analysis_oracle(result.datasets[label], 200,
                                               boot_seeds[result.config.name, label])
            assert_same_analysis(analysis, oracle)


def test_analyze_dataset_equals_per_probe_fits_with_failing_refits(monkeypatch):
    """The point lane rides in the bootstrap's batch; failed refits are counted
    as when the resamples were fitted alone."""
    ds = _oracle_dataset("balanced")
    _nan_lanes(monkeypatch, lambda params: params[1] > 0.55)
    oracle = per_probe_analysis_oracle(ds, 60, 66)
    assert oracle.bootstrap.failures == 5
    assert_same_analysis(rb.analyze_dataset(ds, resamples=60, seed=66), oracle)


def _mixed_campaign():
    return [small_config("exp-a"), small_config("exp-b", lengths=(3, 6, 20, 40)),
            small_config("exp-c")]


def test_fit_batches_split_at_the_lane_bound(monkeypatch):
    """No ``_profile_fit`` call fits more than ``_FIT_LANES`` lanes; a campaign
    whose lanes exceed it is split, with the results of the unsplit run."""
    configs = _mixed_campaign()
    real, lanes = varpro.profile_fit, []

    def recording(spec, lengths, means, sems):
        lanes.append(len(means))
        return real(spec, lengths, means, sems)

    monkeypatch.setattr(varpro, "profile_fit", recording)
    whole = rb.run_campaign(configs, seed=5, resamples=12)
    # per law: exp-a and exp-c share lengths (2 x 13 lanes), exp-b has its own
    assert lanes == [26, 13, 26, 13]
    lanes.clear()
    monkeypatch.setattr(rb, "_FIT_LANES", 10)
    split = rb.run_campaign(configs, seed=5, resamples=12)
    assert lanes == [10, 10, 6, 10, 3] * 2
    _assert_same_campaign(whole, split)


def test_fit_and_split_are_one_plain_call_each(monkeypatch):
    """A campaign's share and ``analyze_dataset`` call the fit phase
    (``_fit_lanes``) once, which makes every ``profile_fit`` call, and then
    the split phase (``_analyses``) once, which makes none and returns one
    ``AnalysisResult`` per probe."""
    assert not inspect.isgeneratorfunction(rb._analyses)
    calls, phase, split = [], [None], []

    def wrap(name, real):
        def wrapped(*args):
            calls.append(name)
            phase[0] = name
            try:
                out = real(*args)
            finally:
                phase[0] = None
            if name == "split":
                split.append((len(args[0]), out))
            return out
        return wrapped

    real_profile = varpro.profile_fit

    def profile_fit(*args):
        calls.append(("profile_fit", phase[0]))
        return real_profile(*args)

    monkeypatch.setattr(rb, "_fit_lanes", wrap("fit", rb._fit_lanes))
    monkeypatch.setattr(rb, "_analyses", wrap("split", rb._analyses))
    monkeypatch.setattr(varpro, "profile_fit", profile_fit)
    configs = [small_config("exp-a"), small_config("exp-b", lengths=(3, 6, 20, 40))]
    results = rb.run_campaign(configs, seed=5, resamples=4)
    # per law, one call for each set of lengths, all inside the fit phase
    assert calls == ["fit"] + [("profile_fit", "fit")] * 4 + ["split"]
    (n_probes, analyses), = split
    assert n_probes == len(analyses) == 2
    assert all(type(a) is rb.AnalysisResult for a in analyses)
    assert [r.analyses["probe"] for r in results] == analyses

    calls.clear()
    split.clear()
    one = rb.analyze_dataset(results[0].datasets["probe"], resamples=4, seed=6)
    assert calls == ["fit"] + [("profile_fit", "fit")] * 2 + ["split"]
    assert split == [(1, [one])]


def test_fit_lane_bound_is_within_one_probe_at_the_resample_limit():
    from mcmr import cli

    assert 1407 <= rb._FIT_LANES <= cli.MAX_RESAMPLES + 1  # the canonical campaign fits whole


@pytest.mark.parametrize("processes", [2, 3])
def test_run_campaign_serial_equals_parallel_with_the_bootstrap(processes):
    configs = _mixed_campaign()
    serial = rb.run_campaign(configs, seed=8, resamples=12, parallel=1)
    parallel = rb.run_campaign(configs, seed=8, resamples=12, parallel=processes)
    assert all(r.analyses["probe"].bootstrap.n_resamples == 12 for r in serial)
    _assert_same_campaign(serial, parallel)


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("failing, message", [
    ({"exp-b": (2, [0]), "exp-c": (0, [0])}, "leakage decay fit returned non-finite"),
    ({"exp-b": (2, [1, 2, 3]), "exp-c": (0, [0])}, "bootstrap unstable: 3/12 refits failed"),
])
def test_run_campaign_raises_the_first_experiments_fit_error(monkeypatch, parallel,
                                                             failing, message):
    """With non-finite lanes in two experiments, the first one's error is
    raised, serially and in parallel (where the two run in different shares)."""
    configs = _mixed_campaign()
    datasets = {r.config.name: r.datasets["probe"].records
                for r in rb.run_campaign(configs, seed=9, resamples=0)}
    real = rb._dataset_lanes

    def poisoned(dataset, resamples, seed, ls_ratio=1.0):
        probe = real(dataset, resamples, seed, ls_ratio)
        for name, (row, lanes) in failing.items():
            if dataset.records == datasets[name]:
                probe.stats[row, lanes] = np.nan  # a mean of the law's lanes
        return probe

    monkeypatch.setattr(rb, "_dataset_lanes", poisoned)
    with pytest.raises(FitError, match=message):
        rb.run_campaign(configs, seed=9, resamples=12, parallel=parallel)


def _failing_simulate(monkeypatch, failing):
    """Make ``rb._simulate`` raise ``failing[name]`` for the experiments named
    there, with a message that names the process it ran in."""
    real = rb._simulate

    def simulate(config, ss, resamples):
        if config.name in failing:
            raise failing[config.name](f"{config.name} failed in process {os.getpid()}")
        return real(config, ss, resamples)

    monkeypatch.setattr(rb, "_simulate", simulate)


@pytest.mark.parametrize("error", [ConfigError, FitError])
def test_run_campaign_raises_a_child_share_error_as_it_was_raised(monkeypatch, started,
                                                                  error):
    """An error in a child process's share (``exp-c``) reaches the caller with
    its type and message, and no child outlives the campaign."""
    _failing_simulate(monkeypatch, {"exp-c": error})
    with pytest.raises(error) as raised:
        rb.run_campaign(_mixed_campaign(), seed=9, resamples=0, parallel=2)
    assert type(raised.value) is error
    assert str(raised.value) == f"exp-c failed in process {started[0].pid}"
    assert started[0].pid != os.getpid()
    assert not multiprocessing.active_children()


def test_run_campaign_raises_the_first_shares_error_when_both_fail(monkeypatch, started):
    _failing_simulate(monkeypatch, {"exp-a": ConfigError, "exp-c": FitError})
    with pytest.raises(ConfigError, match=f"exp-a failed in process {os.getpid()}$"):
        rb.run_campaign(_mixed_campaign(), seed=9, resamples=0, parallel=2)
    assert len(started) == 1
    assert not multiprocessing.active_children()


def test_run_campaign_reports_a_child_that_exits_without_a_reply(monkeypatch, started):
    parent, real = os.getpid(), rb._run_share

    def run_share(jobs):
        if os.getpid() != parent:
            os._exit(3)
        return real(jobs)

    monkeypatch.setattr(rb, "_run_share", run_share)
    with pytest.raises(RuntimeError, match="campaign share 2 ended without a reply"):
        rb.run_campaign(_mixed_campaign(), seed=9, resamples=0, parallel=2)
    assert started[0].exitcode == 3
    assert not multiprocessing.active_children()


def test_run_campaign_terminates_the_children_when_its_own_share_fails(monkeypatch,
                                                                      started):
    """The calling process's share raises while the children still run: they
    are terminated and joined before the error propagates."""
    parent, real = os.getpid(), rb._run_share

    def run_share(jobs):
        if os.getpid() != parent:
            time.sleep(60)
        elif jobs[0][0].name == "exp-a":
            raise FitError("the first share failed")
        return real(jobs)

    monkeypatch.setattr(rb, "_run_share", run_share)
    began = time.perf_counter()
    with pytest.raises(FitError, match="the first share failed"):
        rb.run_campaign(_mixed_campaign(), seed=9, resamples=0, parallel=3)
    assert time.perf_counter() - began < 30
    assert [child.exitcode for child in started] == [-signal.SIGTERM] * 2
    assert not multiprocessing.active_children()


def test_standard_experiments_cover_the_canonical_set():
    configs = rb.standard_experiments()
    names = [c.name for c in configs]
    assert names == ["control", "reset", "measure-dark", "measure-bright",
                     "measure-reset-dark", "measure-reset-bright",
                     "bleed-through"]
    by_name = {c.name: c for c in configs}
    assert by_name["control"].interleaved_ops == ()
    assert by_name["measure-bright"].initial_focus_state == 1
    assert by_name["bleed-through"].interleaved_ops.count("measure") == 2
    assert all(c.sequences_per_length * sum(c.lengths) <= rb.MAX_CLIFFORDS for c in configs)
    # control probes still carry the channel specs, but no op triggers them
    slot = by_name["control"].probes["probe"].slot_channel(())
    ref = rb.channel_reference(channels.compose(
        channels.depolarizing(2e-4), slot))
    assert ref.leakage == pytest.approx(0.0, abs=1e-12)
