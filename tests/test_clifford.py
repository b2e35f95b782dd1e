"""Tests for the single-qubit Clifford group machinery."""

import numpy as np
import pytest

from mcmr import clifford, liouville

from synthetic import conjugation_oracle, equal_up_to_phase


def test_group_has_twenty_four_elements():
    table = clifford.clifford_table()
    assert len(table) == clifford.GROUP_ORDER
    images = {tuple(e.image.ravel()) for e in table}
    assert len(images) == clifford.GROUP_ORDER


def test_images_are_signed_permutations():
    for elem in clifford.clifford_table():
        image = elem.image
        np.testing.assert_array_equal(np.abs(image).sum(axis=0), [1, 1, 1])
        np.testing.assert_array_equal(np.abs(image).sum(axis=1), [1, 1, 1])
        assert round(float(np.linalg.det(image))) == 1


def test_image_matches_unitary_conjugation():
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    for elem in clifford.clifford_table():
        u = elem.unitary
        for col, pauli in enumerate(paulis):
            conj = u @ pauli @ u.conj().T
            expected = sum(elem.image[row, col] * paulis[row]
                           for row in range(3))
            np.testing.assert_allclose(conj, expected, atol=1e-12)


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(3)
    table = clifford.clifford_table()
    for _ in range(50):
        first = table[rng.integers(clifford.GROUP_ORDER)]
        second = table[rng.integers(clifford.GROUP_ORDER)]
        combined = clifford.compose(second, first)
        assert equal_up_to_phase(combined.unitary,
                                 second.unitary @ first.unitary)


def test_inverse_composes_to_identity():
    identity = clifford.clifford_table()[0]
    np.testing.assert_allclose(identity.unitary, np.eye(2), atol=1e-12)
    for elem in clifford.clifford_table():
        inv = clifford.inverse(elem)
        assert clifford.compose(inv, elem) is identity
        assert clifford.compose(elem, inv) is identity


def test_pauli_elements_and_target_outcomes():
    assert clifford.PAULI_LABELS == ("I", "X", "Y", "Z")
    expected_outcomes = {"I": 0, "Z": 0, "X": 1, "Y": 1}
    for label in clifford.PAULI_LABELS:
        elem = clifford.pauli_element(label)
        assert clifford.target_outcome(label) == expected_outcomes[label]
        signs = np.diag(np.sign(np.diag(elem.image))).astype(int)
        np.testing.assert_array_equal(elem.image, signs)


def test_pauli_element_rejects_unknown_label():
    with pytest.raises(ValueError):
        clifford.pauli_element("Q")


def test_net_element_accumulates_in_application_order():
    rng = np.random.default_rng(5)
    table = clifford.clifford_table()
    for _ in range(20):
        indices = [int(rng.integers(clifford.GROUP_ORDER)) for _ in range(6)]
        net = clifford.net_element(indices)
        product = np.eye(2, dtype=complex)
        for idx in indices:
            product = table[idx].unitary @ product
        assert equal_up_to_phase(net.unitary, product)


def test_inversion_element_restores_dark_state():
    """The recovery gate maps |0> back onto the measurement axis.

    For Pauli label P the sequence net followed by recovery equals P up to
    phase, so starting from |0> the dark-outcome probability is 1 for I and
    Z and 0 for X and Y.
    """
    rng = np.random.default_rng(9)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    for _ in range(25):
        indices = [int(rng.integers(clifford.GROUP_ORDER)) for _ in range(4)]
        for label in clifford.PAULI_LABELS:
            recovery = clifford.inversion_element(indices, label)
            total = recovery.unitary @ clifford.net_element(indices).unitary
            final = total @ ket0
            p_dark = abs(final[0]) ** 2
            expected = 1.0 if clifford.target_outcome(label) == 0 else 0.0
            assert abs(p_dark - expected) < 1e-12


def test_superop_table_matches_embedding():
    sups = clifford.superop_table()
    assert sups.shape == (clifford.GROUP_ORDER, liouville.N_BASIS,
                          liouville.N_BASIS)
    for elem in clifford.clifford_table():
        np.testing.assert_allclose(clifford.superop(elem),
                                   conjugation_oracle(elem.unitary), rtol=0, atol=1e-15)
    vec = liouville.identity_supervector()
    for k in range(clifford.GROUP_ORDER):
        np.testing.assert_allclose(sups[k] @ vec, vec, atol=1e-12)


def test_twirl_average_over_group_projects_qubit_paulis():
    """Averaging U rho U^dag over the group kills every traceless qubit op."""
    sups = clifford.superop_table()
    avg = sups.mean(axis=0)
    for idx in (1, 2, 3):
        vec = np.zeros(liouville.N_BASIS)
        vec[idx] = 1.0
        np.testing.assert_allclose(avg @ vec, 0.0, atol=1e-12)
    for idx in (0, 4):
        vec = np.zeros(liouville.N_BASIS)
        vec[idx] = 1.0
        np.testing.assert_allclose(avg @ vec, vec, atol=1e-12)


def test_product_and_inverse_tables_match_integer_images():
    """All 576 products and 24 inverses equal the signed-permutation algebra."""
    table = clifford.clifford_table()
    identity = np.eye(3, dtype=int)
    for after in table:
        for before in table:
            np.testing.assert_array_equal(clifford.compose(after, before).image,
                                          after.image @ before.image)
        inv = clifford.inverse(after)
        np.testing.assert_array_equal(inv.image, after.image.T)
        np.testing.assert_array_equal(after.image @ inv.image, identity)


def test_elements_are_table_singletons():
    table = clifford.clifford_table()
    assert [e.index for e in table] == list(range(clifford.GROUP_ORDER))
    assert clifford.net_element([]) is table[0]
    assert clifford.net_element([7]) is table[7]
    assert clifford.pauli_element("I") is table[0]
    for elem in table:
        assert clifford.compose(elem, table[0]) is elem
        assert clifford.inverse(clifford.inverse(elem)) is elem
