"""Operator-space (Liouville) representation of a qubit with two extra levels.

The Hilbert space is four dimensional: levels ``|0>`` and ``|1>`` span the
computational (qubit) subspace, levels ``|2>`` and ``|3>`` are extra ground
states reachable through optical-pumping errors.  States and measurement
effects are expanded in a Hermitian, Hilbert-Schmidt-orthonormal operator
basis of 16 elements so that supervectors of Hermitian operators are real
and superoperators of physical (Hermiticity-preserving) maps are real
16x16 matrices.

Basis ordering (every element carries a 1/sqrt(2) normalisation so that
``Tr(B_i^dag B_j) = delta_ij``):

=====  ==========================================================
index  element
=====  ==========================================================
0      qubit identity   (|0><0| + |1><1|)/sqrt(2)
1      qubit X          (|0><1| + |1><0|)/sqrt(2)
2      qubit Y          (-i|0><1| + i|1><0|)/sqrt(2)
3      qubit Z          (|0><0| - |1><1|)/sqrt(2)
4      extra identity   (|2><2| + |3><3|)/sqrt(2)
5      extra X          (|2><3| + |3><2|)/sqrt(2)
6      extra Y          (-i|2><3| + i|3><2|)/sqrt(2)
7      extra Z          (|2><2| - |3><3|)/sqrt(2)
8-15   cross coherences for (i, j) in (0,2), (0,3), (1,2), (1,3):
       X_ij = (|i><j| + |j><i|)/sqrt(2), then Y_ij = (-i|i><j| + i|j><i|)/sqrt(2)
=====  ==========================================================

Conventions: the inner product is ``<<A|B>> = Tr(A^dag B)``; a state rho has
supervector components ``v[i] = <<B_i|rho>>``; a channel E has matrix
``M[i, j] = <<B_i|E[B_j]>>``; measurement probabilities are
``p = <<E|rho>> = E_vec . rho_vec``.
"""

from __future__ import annotations

import numpy as np

DIM = 4
N_BASIS = 16
COMPUTATIONAL_LEVELS = (0, 1)
EXTRA_LEVELS = (2, 3)

#: maximum imaginary residue tolerated when a quantity must be real
IMAG_TOL = 1e-9
#: slack allowed when clamping probabilities to [0, 1]
PROBABILITY_TOL = 1e-9

BASIS_LABELS = (
    "I_c", "X_c", "Y_c", "Z_c",
    "I_e", "X_e", "Y_e", "Z_e",
    "X_02", "Y_02", "X_03", "Y_03", "X_12", "Y_12", "X_13", "Y_13",
)

_CROSS_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))

_basis_cache: np.ndarray | None = None
_bmat_cache: np.ndarray | None = None


def _matrix_unit(i: int, j: int) -> np.ndarray:
    out = np.zeros((DIM, DIM), dtype=complex)
    out[i, j] = 1.0
    return out


def standard_basis() -> np.ndarray:
    """Return the 16 Hermitian basis operators as a read-only (16, 4, 4) array."""
    global _basis_cache
    if _basis_cache is None:
        s = 1.0 / np.sqrt(2.0)
        ops = []
        for (a, b) in (COMPUTATIONAL_LEVELS, EXTRA_LEVELS):
            ops.append(s * (_matrix_unit(a, a) + _matrix_unit(b, b)))
            ops.append(s * (_matrix_unit(a, b) + _matrix_unit(b, a)))
            ops.append(s * (-1j * _matrix_unit(a, b) + 1j * _matrix_unit(b, a)))
            ops.append(s * (_matrix_unit(a, a) - _matrix_unit(b, b)))
        for (i, j) in _CROSS_PAIRS:
            ops.append(s * (_matrix_unit(i, j) + _matrix_unit(j, i)))
            ops.append(s * (-1j * _matrix_unit(i, j) + 1j * _matrix_unit(j, i)))
        arr = np.stack(ops)
        arr.setflags(write=False)
        _basis_cache = arr
    return _basis_cache


def _basis_matrix() -> np.ndarray:
    """Columns are the column-stacked basis operators (a 16x16 unitary)."""
    global _bmat_cache
    if _bmat_cache is None:
        basis = standard_basis()
        bmat = np.column_stack([op.flatten(order="F") for op in basis])
        bmat.setflags(write=False)
        _bmat_cache = bmat
    return _bmat_cache


def to_supervector(op: np.ndarray) -> np.ndarray:
    """Expand a Hermitian operator in the standard basis.

    Parameters
    ----------
    op : (4, 4) array_like
        Hermitian operator (density matrix, POVM effect, observable).

    Returns
    -------
    (16,) float ndarray
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (DIM, DIM):
        raise ValueError(f"operator must be {DIM}x{DIM}, got {op.shape}")
    basis = standard_basis()
    vec = np.einsum("kij,ij->k", basis.conj(), op)
    residue = float(np.max(np.abs(vec.imag)))
    if residue > IMAG_TOL:
        raise ValueError(
            f"operator is not Hermitian: imaginary supervector residue {residue:.3e}"
        )
    return vec.real


def from_supervector(vec: np.ndarray) -> np.ndarray:
    """Rebuild the (4, 4) operator from its basis expansion."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (N_BASIS,):
        raise ValueError(f"supervector must have shape ({N_BASIS},), got {vec.shape}")
    return np.einsum("k,kij->ij", vec, standard_basis())


def kraus_to_superop(kraus_ops) -> np.ndarray:
    """Superoperator matrix of the map ``rho -> sum_a A_a rho A_a^dag``.

    Uses the column-stacking identity vec(A rho A^dag) = (A* (x) A) vec(rho)
    followed by a change to the Hermitian basis.  The result is real for any
    Hermiticity-preserving map; a large imaginary residue raises.
    """
    kraus_ops = [np.asarray(A, dtype=complex) for A in kraus_ops]
    return vec_to_basis_superop(sum(np.kron(A.conj(), A) for A in kraus_ops))


def vec_to_basis_superop(mvec: np.ndarray) -> np.ndarray:
    """Convert a superoperator on column-stacked vectors to the Hermitian basis.

    ``mvec`` acts on ``rho.flatten(order="F")``; the result acts on
    supervectors from :func:`to_supervector` and must come out real.
    """
    mvec = np.asarray(mvec, dtype=complex)
    if mvec.shape != (N_BASIS, N_BASIS):
        raise ValueError(f"superoperator must be {N_BASIS}x{N_BASIS}, got {mvec.shape}")
    bmat = _basis_matrix()
    m = bmat.conj().T @ mvec @ bmat
    residue = float(np.max(np.abs(m.imag)))
    if residue > IMAG_TOL:
        raise ValueError(f"map is not Hermiticity-preserving: residue {residue:.3e}")
    return m.real


def embed_gate(qubit_unitary: np.ndarray, extra_unitary: np.ndarray | None = None) -> np.ndarray:
    """Superoperator of a unitary acting block-diagonally on qubit/extra levels.

    Computed by direct conjugation of every basis element (an independent
    arithmetic route from :func:`kraus_to_superop`, useful for cross-checks).

    Parameters
    ----------
    qubit_unitary : (2, 2) array_like
    extra_unitary : (2, 2) array_like, optional
        Defaults to the identity on the extra levels.
    """
    V = np.asarray(qubit_unitary, dtype=complex)
    W = np.eye(2, dtype=complex) if extra_unitary is None else np.asarray(extra_unitary, dtype=complex)
    for name, U in (("qubit_unitary", V), ("extra_unitary", W)):
        if U.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2, got {U.shape}")
        if not np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12):
            raise ValueError(f"{name} is not unitary")
    U4 = np.zeros((DIM, DIM), dtype=complex)
    U4[:2, :2] = V
    U4[2:, 2:] = W
    basis = standard_basis()
    conjugated = np.einsum("ab,kbc,dc->kad", U4, basis, U4.conj())
    m = np.einsum("iab,kab->ik", basis.conj(), conjugated)
    residue = float(np.max(np.abs(m.imag)))
    if residue > IMAG_TOL:  # pragma: no cover - unitary conjugation is always real here
        raise ValueError(f"unexpected imaginary residue {residue:.3e}")
    return m.real


def identity_supervector() -> np.ndarray:
    """Supervector of the identity operator, (sqrt(2), 0, 0, 0, sqrt(2), 0, ..., 0)."""
    vec = np.zeros(N_BASIS)
    vec[0] = np.sqrt(2.0)
    vec[4] = np.sqrt(2.0)
    return vec


def dark_effect_vector() -> np.ndarray:
    """POVM effect for the dark outcome: the projector onto ``|0>``."""
    return to_supervector(np.diag([1.0, 0.0, 0.0, 0.0]))


def bright_effect_vector() -> np.ndarray:
    """POVM effect for the bright outcome: ``1 - |0><0|`` (all scattering levels)."""
    return to_supervector(np.diag([0.0, 1.0, 1.0, 1.0]))


def born_probability(effect_vec: np.ndarray, state_vec: np.ndarray) -> float:
    """Outcome probability ``<<E|rho>>``, clamped to [0, 1] within tolerance."""
    p = float(np.dot(np.asarray(effect_vec, float), np.asarray(state_vec, float)))
    if p < -PROBABILITY_TOL or p > 1.0 + PROBABILITY_TOL:
        raise ValueError(f"probability {p!r} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def tp_defect(superop: np.ndarray) -> float:
    """How far a superoperator is from trace preservation (max-abs units)."""
    m = np.asarray(superop, dtype=float)
    if m.shape != (N_BASIS, N_BASIS):
        raise ValueError(f"superoperator must be {N_BASIS}x{N_BASIS}, got {m.shape}")
    idvec = identity_supervector()
    return float(np.max(np.abs(idvec @ m - idvec)))


def is_trace_preserving(superop: np.ndarray, tol: float = 1e-10) -> bool:
    return tp_defect(superop) <= tol
