"""Property tests: valid datasets and focus tables survive their CSV round trip."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmr import clifford, rb

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
