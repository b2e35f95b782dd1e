"""Property tests: valid datasets and focus tables survive their CSV round
trip, and are written as the row-by-row ``csv.writer`` oracles write them;
the SPAM report of a valid focus table equals the ``np.unique`` oracle's."""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmr import clifford, rb
from synthetic import spam_report_oracle, write_dataset_csv_oracle, write_focus_csv_oracle

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def datasets(draw):
    """Lengths >= 1, unique (length, seq_id), unequal shots, matching targets."""
    keys = draw(st.lists(st.tuples(st.integers(1, 500), st.integers(0, 99)),
                         min_size=1, max_size=20, unique=True))
    records = []
    for length, seq_id in keys:
        pauli = draw(st.sampled_from(rb.PAULI_LABELS))
        shots = draw(st.integers(1, 10 ** 6))
        records.append(rb.DatasetRecord(
            length, seq_id, pauli, clifford.target_outcome(pauli), shots,
            draw(st.integers(0, shots))))
    return rb.RBDataset(tuple(records))


INT64_MAX = 2 ** 63 - 1

focus_keys = st.integers(1, 500).flatmap(lambda length: st.tuples(
    st.just(length), st.integers(0, 99), st.integers(1, length),
    st.integers(0, 3)))


@st.composite
def focus_tables(draw):
    """Unique (length, seq_id, slot, meas_index) keys, slot in [1, length]."""
    rows = []
    for key in draw(st.lists(focus_keys, max_size=20, unique=True)):
        shots = draw(st.integers(1, INT64_MAX))
        rows.append((*key, shots, draw(st.integers(0, shots))))
    return np.array(rows, dtype=np.int64).reshape(-1, len(rb.FOCUS_HEADER))


@PROPERTY_SETTINGS
@given(datasets())
def test_dataset_csv_round_trip_is_exact(dataset):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "probe.csv")
        dataset.to_csv(path)
        assert rb.RBDataset.from_csv(path) == dataset


@PROPERTY_SETTINGS
@given(focus_tables())
def test_focus_csv_round_trip_is_exact(table):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "focus.csv")
        rb.write_focus_csv(table, path)
        again = rb.read_focus_csv(path)
        assert again.dtype == np.int64
        np.testing.assert_array_equal(again, table)


def _written(write) -> bytes:
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "out.csv")
        write(path)
        with open(path, "rb") as fh:
            return fh.read()


@PROPERTY_SETTINGS
@given(datasets(), st.sampled_from([1, 2, rb._ROW_BLOCK]))
def test_dataset_csv_bytes_match_row_writer_oracle(dataset, block):
    with mock.patch.object(rb, "_ROW_BLOCK", block):
        ours = _written(dataset.to_csv)
    assert ours == _written(lambda path: write_dataset_csv_oracle(dataset, path))


@PROPERTY_SETTINGS
@given(focus_tables(), st.sampled_from([1, 2, rb._ROW_BLOCK]))
def test_focus_csv_bytes_match_row_writer_oracle(table, block):
    with mock.patch.object(rb, "_ROW_BLOCK", block):
        ours = _written(lambda path: rb.write_focus_csv(table, path))
    assert ours == _written(lambda path: write_focus_csv_oracle(table, path))


@PROPERTY_SETTINGS
@given(focus_tables(), st.integers(0, 2 ** 32 - 1))
def test_spam_report_of_shuffled_tables_equals_unique_oracle(table, seed):
    """Counts up to the int64 limit: the sums stay exact and the per-sequence
    float totals are summed in table order, as the oracle sums them."""
    shuffled = table[np.random.default_rng(seed).permutation(len(table))]
    assert rb.spam_report(shuffled) == spam_report_oracle(shuffled)


def test_writers_spanning_several_row_blocks_match_row_writer_oracles():
    """A dataset (written from Python lists) and a focus table of more than
    three row blocks each come out as the oracles write them."""
    n = 3 * rb._ROW_BLOCK + 7
    rng = np.random.default_rng(74)
    shots = rng.integers(1, 10 ** 6, n)
    paulis = rng.choice(rb.PAULI_LABELS, n)
    dataset = rb.RBDataset(tuple(
        rb.DatasetRecord(1 + i // 100, i % 100, str(p), clifford.target_outcome(str(p)),
                         int(s), int(rng.integers(0, s + 1)))
        for i, (p, s) in enumerate(zip(paulis, shots))))
    assert _written(dataset.to_csv) == _written(
        lambda path: write_dataset_csv_oracle(dataset, path))
    table = rng.integers(0, INT64_MAX, (n, len(rb.FOCUS_HEADER)), dtype=np.int64)
    assert _written(lambda path: rb.write_focus_csv(table, path)) == _written(
        lambda path: write_focus_csv_oracle(table, path))
