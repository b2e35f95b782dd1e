"""The 24-element single-qubit Clifford group as integer index tables.

The group is generated once, at import, by closing {Hadamard, phase gate}
under multiplication.  Every element stores a 2x2 unitary (with an arbitrary
global phase) together with its action on the Pauli axes as a signed 3x3
permutation with integer entries.  The integer images give an exact 24x24
product table and an inverse table, so composition, inversion and element
identification are index lookups, immune to floating-point drift; the
unitaries are only consulted when a matrix representation is needed.

Pauli operators are themselves group elements; :func:`pauli_element` looks
them up by label.  The convention for randomized-benchmarking targets is
that sequences ending in I or Z return the qubit to the dark state
(``target_outcome == 0``) while X and Y flip it to bright
(``target_outcome == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import liouville

GROUP_ORDER = 24
PAULI_LABELS = ("I", "X", "Y", "Z")

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_PHASE = np.array([[1, 0], [0, 1j]], dtype=complex)
_PAULI_2x2 = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_DIAGONALS = {"I": (1, 1, 1), "X": (1, -1, -1), "Y": (-1, 1, -1),
                    "Z": (-1, -1, 1)}


@dataclass(frozen=True, eq=False)
class CliffordElement:
    """One group element: table index, unitary, and signed Pauli permutation.

    Every element handed out is one of the 24 table singletons, so identity
    is equality.
    """

    index: int
    unitary: np.ndarray = field(repr=False)
    image: np.ndarray = field(repr=False)


def _image_of(unitary: np.ndarray) -> np.ndarray:
    """Signed permutation R[a, b] = Tr(P_a U P_b U^dag)/2, exact integers."""
    val = 0.5 * np.einsum("aij,jk,bkl,li->ab", _PAULI_2x2, unitary, _PAULI_2x2,
                          unitary.conj().T)
    img = np.rint(val.real).astype(int)
    if np.abs(val - img).max() > 1e-9:
        raise ValueError("matrix is not a Clifford unitary")
    return img


def _build_group():
    """Elements, product table, inverse table and Pauli indices of the group."""
    unitaries = [np.eye(2, dtype=complex)]
    images = [np.eye(3, dtype=int)]
    seen = {images[0].tobytes(): 0}
    cursor = 0
    while cursor < len(unitaries):
        for gen in (_HADAMARD, _PHASE):
            candidate = gen @ unitaries[cursor]
            img = _image_of(candidate)
            key = img.tobytes()
            if key not in seen:
                seen[key] = len(unitaries)
                unitaries.append(candidate)
                images.append(img)
        cursor += 1
    for array in (*unitaries, *images):
        array.setflags(write=False)
    elements = tuple(CliffordElement(index, u, img)
                     for index, (u, img) in enumerate(zip(unitaries, images)))
    # product[a, b] applies b first, then a
    product = np.array([[seen[(a @ b).tobytes()] for b in images] for a in images],
                       dtype=np.intp)
    inverse = np.argwhere(product == 0)[:, 1]
    paulis = {label: seen[np.diag(d).tobytes()]
              for label, d in _PAULI_DIAGONALS.items()}
    superops = np.stack([liouville.embed_gate(u) for u in unitaries])
    for table in (product, inverse, superops):
        table.setflags(write=False)
    return elements, product, inverse, paulis, superops


_ELEMENTS, _PRODUCT, _INVERSE, _PAULI_INDEX, _SUPEROPS = _build_group()


def clifford_table() -> tuple[CliffordElement, ...]:
    """All 24 elements in a fixed, deterministic order (identity first)."""
    return _ELEMENTS


def compose(after: CliffordElement, before: CliffordElement) -> CliffordElement:
    """Element equal to applying ``before`` first, then ``after``."""
    return _ELEMENTS[_PRODUCT[after.index, before.index]]


def inverse(element: CliffordElement) -> CliffordElement:
    """Group inverse."""
    return _ELEMENTS[_INVERSE[element.index]]


def pauli_element(label: str) -> CliffordElement:
    """The group element realising Pauli ``label`` (one of I, X, Y, Z)."""
    try:
        return _ELEMENTS[_PAULI_INDEX[label]]
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}") from None


def target_outcome(label: str) -> int:
    """Measurement outcome an error-free sequence ends in: 0 dark, 1 bright."""
    if label in ("I", "Z"):
        return 0
    if label in ("X", "Y"):
        return 1
    raise ValueError(f"unknown Pauli label {label!r}")


def net_element(indices) -> CliffordElement:
    """Product of table elements applied in the given order (first acts first)."""
    net = 0
    for idx in indices:
        net = _PRODUCT[idx, net]
    return _ELEMENTS[net]


def inversion_element(indices, pauli_label: str) -> CliffordElement:
    """The gate that folds a sequence into the requested net Pauli.

    Applying the table elements ``indices`` in order and then the returned
    element realises ``pauli_label`` exactly (up to global phase).
    """
    return compose(pauli_element(pauli_label), inverse(net_element(indices)))


def product_table() -> np.ndarray:
    """Read-only (24, 24) index table: ``[a, b]`` applies ``b`` first, then ``a``."""
    return _PRODUCT


def inverse_table() -> np.ndarray:
    """Read-only (24,) index table of group inverses."""
    return _INVERSE


def superop_table() -> np.ndarray:
    """Read-only (24, 16, 16) stack of superoperators, identity on extra levels."""
    return _SUPEROPS


def superop(element: CliffordElement) -> np.ndarray:
    return _SUPEROPS[element.index]
