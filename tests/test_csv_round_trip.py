"""Property tests: valid datasets and focus records survive their CSV round trip."""

import os
import tempfile

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


@st.composite
def focus_records(draw):
    shots = draw(st.integers(1, 10 ** 6))
    return rb.FocusRecord(
        length=draw(st.integers(1, 500)), seq_id=draw(st.integers(0, 99)),
        slot=draw(st.integers(1, 500)), meas_index=draw(st.integers(0, 3)),
        shots=shots, errors=draw(st.integers(0, shots)))


@PROPERTY_SETTINGS
@given(datasets())
def test_dataset_csv_round_trip_is_exact(dataset):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "probe.csv")
        dataset.to_csv(path)
        assert rb.RBDataset.from_csv(path) == dataset


@PROPERTY_SETTINGS
@given(st.lists(focus_records(), max_size=20))
def test_focus_csv_round_trip_is_exact(records):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "focus.csv")
        rb.write_focus_csv(records, path)
        assert rb.read_focus_csv(path) == records
