"""Tests for the operator-basis and superoperator utilities."""

import numpy as np
import pytest

from mcmr import clifford, liouville

from synthetic import (choi_matrix, conjugation_oracle, lindblad_vec_oracle,
                       random_symmetric_rates, random_unitary, unitary_superop_oracle)


def test_basis_is_orthonormal_and_hermitian():
    basis = liouville.standard_basis()
    assert basis.shape == (liouville.N_BASIS, liouville.DIM, liouville.DIM)
    for j in range(liouville.N_BASIS):
        np.testing.assert_allclose(basis[j], basis[j].conj().T, atol=1e-15)
        for k in range(liouville.N_BASIS):
            overlap = np.trace(basis[j].conj().T @ basis[k])
            expected = 1.0 if j == k else 0.0
            assert abs(overlap - expected) < 1e-14


def test_basis_labels_cover_every_element():
    assert len(liouville.BASIS_LABELS) == liouville.N_BASIS
    assert liouville.BASIS_LABELS[0] == "I_c"
    assert liouville.BASIS_LABELS[4] == "I_e"
    assert liouville.BASIS_LABELS[8] == "X_02"
    assert len(set(liouville.BASIS_LABELS)) == liouville.N_BASIS


def test_basis_is_read_only():
    basis = liouville.standard_basis()
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 1.0


def test_qubit_block_matches_scaled_paulis():
    basis = liouville.standard_basis()
    scale = 1.0 / np.sqrt(2.0)
    pad = np.zeros((4, 4), dtype=complex)
    pauli = {
        1: np.array([[0, 1], [1, 0]], dtype=complex),
        2: np.array([[0, -1j], [1j, 0]], dtype=complex),
        3: np.array([[1, 0], [0, -1]], dtype=complex),
    }
    for idx, mat in pauli.items():
        expected = pad.copy()
        expected[:2, :2] = scale * mat
        np.testing.assert_allclose(basis[idx], expected, atol=1e-15)


def test_supervector_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw + raw.conj().T
        vec = liouville.to_supervector(rho)
        assert vec.dtype == np.float64
        np.testing.assert_allclose(liouville.from_supervector(vec), rho,
                                   atol=1e-13)


def test_identity_supervector_components():
    vec = liouville.identity_supervector()
    expected = np.zeros(liouville.N_BASIS)
    expected[0] = np.sqrt(2.0)
    expected[4] = np.sqrt(2.0)
    np.testing.assert_allclose(vec, expected, atol=1e-15)
    np.testing.assert_allclose(liouville.from_supervector(vec), np.eye(4),
                               atol=1e-15)


def test_kraus_and_direct_embedding_agree():
    """``embed_gate`` (one basis change of the kron form) matches conjugating
    every basis operator, for each Clifford and for random qubit unitaries."""
    for elem in clifford.clifford_table():
        np.testing.assert_allclose(liouville.embed_gate(elem.unitary),
                                   conjugation_oracle(elem.unitary), rtol=0, atol=1e-15)
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = random_unitary(rng)
        np.testing.assert_allclose(liouville.embed_gate(q), conjugation_oracle(q),
                                   rtol=0, atol=1e-15)


def test_embed_gate_rejects_non_unitary():
    with pytest.raises(ValueError):
        liouville.embed_gate(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_embed_gate_default_extra_block_is_identity():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    sup = liouville.embed_gate(x)
    vec = np.zeros(liouville.N_BASIS)
    vec[4] = 1.0
    np.testing.assert_allclose(sup @ vec, vec, atol=1e-14)


def test_vec_to_basis_superop_matches_kraus_route():
    """The column-stacked form of a full (not block-diagonal) unitary changes
    basis to ``M[i, k] = Tr(B_i^dag U B_k U^dag)``, built operator by operator."""
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(raw)
    vec_form = np.kron(u.conj(), u)
    np.testing.assert_allclose(liouville.vec_to_basis_superop(vec_form),
                               unitary_superop_oracle(u), atol=1e-12)


def test_lindblad_oracle_channel_is_trace_preserving_and_cp():
    rng = np.random.default_rng(17)
    for _ in range(10):
        mat = lindblad_vec_oracle(random_symmetric_rates(rng))
        assert liouville.is_trace_preserving(mat, tol=1e-10)
        eigvals = np.linalg.eigvalsh(choi_matrix(mat))
        assert eigvals.min() > -1e-10


def test_choi_reshuffle_on_unitary_is_rank_one():
    rng = np.random.default_rng(19)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(raw)
    choi = choi_matrix(liouville.kraus_to_superop([u]))
    eigvals = np.sort(np.linalg.eigvalsh(choi))
    np.testing.assert_allclose(eigvals[-1], 4.0, atol=1e-10)
    np.testing.assert_allclose(eigvals[:-1], 0.0, atol=1e-10)


def test_born_probability_effects_partition_unity():
    rng = np.random.default_rng(23)
    dark = liouville.dark_effect_vector()
    bright = liouville.bright_effect_vector()
    for _ in range(25):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        vec = liouville.to_supervector(rho)
        p_dark = liouville.born_probability(dark, vec)
        p_bright = liouville.born_probability(bright, vec)
        assert abs(p_dark + p_bright - 1.0) < 1e-12
        np.testing.assert_allclose(p_dark, rho[0, 0].real, atol=1e-12)


def test_born_probability_clamps_tiny_negatives():
    dark = liouville.dark_effect_vector()
    rho = np.diag([-1e-12, 1.0 + 1e-12, 0.0, 0.0])
    vec = liouville.to_supervector(rho)
    assert liouville.born_probability(dark, vec) == 0.0


def test_born_probability_rejects_large_violations():
    dark = liouville.dark_effect_vector()
    rho = np.diag([-0.2, 1.2, 0.0, 0.0])
    vec = liouville.to_supervector(rho)
    with pytest.raises(ValueError):
        liouville.born_probability(dark, vec)


def test_tp_defect_detects_trace_leak():
    mat = np.eye(16)
    assert liouville.tp_defect(mat) < 1e-15
    mat[0, 1] += 1e-3
    assert liouville.tp_defect(mat) > 1e-4
    assert not liouville.is_trace_preserving(mat, tol=1e-6)
