"""Tests for sequence generation, exact survival laws, fits and campaigns."""

import dataclasses
import math

import numpy as np
import pytest

from mcmr import channels, clifford, liouville, rb
from mcmr.errors import ConfigError, DataFormatError, FitError
from synthetic import exact_average_survival, record_bootstrap, record_stats


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
    with pytest.raises(ConfigError):
        rb.generate_sequences(lengths=(3,), sequences_per_length=7)  # odd, balanced
    unbalanced = rb.generate_sequences(lengths=(3,), sequences_per_length=7,
                                       seed=9, balanced=False)
    assert len(unbalanced) == 7


# ---------------------------------------------------------------------------
# exact survival


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
    slot = channels.compose(channels.depolarizing(0.03),
                            channels.reset_crosstalk(0.05))
    spam = rb.SpamModel(prep_flip=0.02, prep_leak=0.01,
                        dark_to_bright=0.02, bright_to_dark=0.04)
    coeff = rb.decay_coefficients(slot, spam)
    for length in (1, 2, 3, 7):
        exact = exact_average_survival(slot, spam, length)
        for label in clifford.PAULI_LABELS:
            for outcome in (0, 1):
                assert abs(coeff.survival(label, outcome, length)
                           - exact[(label, outcome)]) < 1e-11


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

    path.write_bytes(f"{header}\n2,0,I,0,100,60,40\n".encode() + b"\xff\n")
    with pytest.raises(DataFormatError, match="not a dataset CSV"):
        rb.RBDataset.from_csv(path)
    with pytest.raises(DataFormatError, match="cannot read dataset file"):
        rb.RBDataset.from_csv(tmp_path)
    with pytest.raises(DataFormatError, match="cannot read dataset file"):
        rb.RBDataset.from_csv(tmp_path / "absent.csv")


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


def test_bootstrap_instability_raises(monkeypatch):
    seqs = rb.generate_sequences(lengths=(2, 9, 30), sequences_per_length=6,
                                 seed=39)
    ds = rb.simulate_dataset(seqs, channels.measurement_crosstalk(5e-3),
                             shots=50, seed=40)

    def unstable(dataset):
        raise FitError("synthetic failure")

    monkeypatch.setattr(rb, "fit_standard", unstable)
    with pytest.raises(FitError, match="unstable"):
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
    """The array bootstrap reproduces the record-based one draw for draw."""
    ds = _oracle_dataset(case)
    correct, dark = rb.per_length_stats(ds)
    assert correct == record_stats(ds, lambda r: r.correct_fraction)
    assert dark == record_stats(ds, lambda r: r.dark_fraction)
    if case == "failing-refits":
        # the refits with the top 5% of asymptotes fail, so equal failure
        # counts need equal resamples
        real_fit_leakage = rb.fit_leakage
        cutoff = np.quantile(rb.bootstrap_analysis(
            ds, n_resamples=60, seed=66, ls_ratio=0.8).samples["asymptote"], 0.95)

        def flaky(stats, ls_ratio=1.0):
            fit = real_fit_leakage(stats, ls_ratio=ls_ratio)
            if fit.asymptote > cutoff:
                raise FitError("synthetic failure")
            return fit

        monkeypatch.setattr(rb, "fit_leakage", flaky)
    boot = rb.bootstrap_analysis(ds, n_resamples=60, seed=66, ls_ratio=0.8)
    failures, samples = record_bootstrap(ds, n_resamples=60, seed=66,
                                         ls_ratio=0.8)
    assert boot.failures == failures
    if case == "failing-refits":
        assert failures > 0
    assert set(boot.samples) == set(samples)
    for name, values in samples.items():
        assert len(values) == 60 - failures
        np.testing.assert_array_equal(boot.samples[name], values, err_msg=name)


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
    assert a == b
    total_slots = sum(s.length for s in seqs)
    assert len(a) == 2 * total_slots  # two measurements per slot
    assert {r.meas_index for r in a} == {0, 1}
    assert all(0 <= r.errors <= r.shots for r in a)


def test_simulate_focus_error_free_trajectories():
    seqs = rb.generate_sequences(lengths=(3,), sequences_per_length=4, seed=49)
    records = rb.simulate_focus(seqs, ("measure", "reset", "x_pi", "measure"),
                                1, rb.FocusModel(), shots=40, seed=50)
    assert all(r.errors == 0 for r in records)


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


def test_spam_report_pooling():
    records = [
        rb.FocusRecord(length=2, seq_id=0, slot=1, meas_index=0, shots=100,
                       errors=3),
        rb.FocusRecord(length=2, seq_id=1, slot=2, meas_index=0, shots=100,
                       errors=5),
        rb.FocusRecord(length=9, seq_id=0, slot=1, meas_index=1, shots=100,
                       errors=2),
    ]
    report = rb.spam_report(records)
    assert [e.meas_index for e in report] == [0, 1]
    first = report[0]
    assert first.shots == 200 and first.errors == 8
    assert first.rate == pytest.approx(0.04)
    assert first.per_length == ((2, 200, 8, 0.04),)
    assert first.sigma > 0


def test_focus_csv_round_trip_and_validation(tmp_path):
    seqs = rb.generate_sequences(lengths=(2,), sequences_per_length=4, seed=55)
    records = rb.simulate_focus(seqs, ("measure",), 0,
                                rb.FocusModel(dark_to_bright=0.05), shots=30,
                                seed=56)
    path = tmp_path / "focus.csv"
    rb.write_focus_csv(records, path)
    assert rb.read_focus_csv(path) == list(records)

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
    path.write_text(json.dumps({"runs": []}))
    with pytest.raises(ConfigError):
        rb.load_campaign(path)
    path.write_text(json.dumps({"experiments": [
        {**config.to_dict(), "lengths": [5, 5, 5]}]}))
    with pytest.raises(ConfigError, match="three distinct lengths"):
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
        assert s.focus_records == p.focus_records


def test_run_campaign_caps_workers_at_experiment_count(monkeypatch):
    """A pool never starts more workers than there are experiments."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(rb, "ProcessPoolExecutor", RecordingPool)
    configs = [small_config("exp-a"), small_config("exp-b")]
    results = rb.run_campaign(configs, seed=7, resamples=0, parallel=64)
    assert started == [2]
    assert [r.config.name for r in results] == ["exp-a", "exp-b"]


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
    # control probes still carry the channel specs, but no op triggers them
    slot = by_name["control"].probes["probe"].slot_channel(())
    ref = rb.channel_reference(channels.compose(
        channels.depolarizing(2e-4), slot))
    assert ref.leakage == pytest.approx(0.0, abs=1e-12)
