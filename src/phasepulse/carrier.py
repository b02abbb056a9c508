"""Classify two-qubit gates by how per-qubit Z rotations move through them.

A gate "carries" phases when ``U (Z_t0 x Z_t1) == (Z_p0 x Z_p1) U`` has a
solution for every ``(t0, t1)``; this holds exactly when the element-wise
absolute value of ``U`` is a permutation matrix whose permutation commutes
with the joint bit flip.  Excitation-number-conserving (ENC) gates satisfy
the weaker equal-angle version, and a gate such as a controlled-U the
one-qubit version (a partial carry): ``t`` on one qubit passes, the other
angle being 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .su2 import UNITARY_TOL, WeylCoords, _weyl_coordinates, as_unitary, z_rot

# Entries below ENTRY_ZERO_TOL count as structural zeros; permutation pivots
# must exceed 1 - PERMUTATION_TOL in magnitude, and every other entry of
# ``|u|`` must be a structural zero.
ENTRY_ZERO_TOL = 1e-10
PERMUTATION_TOL = 1e-8


class NotCarrierError(ValueError):
    """Raised when a carry map is requested for a non-carrier gate."""


def _bit_signs(index: int) -> tuple[int, int]:
    # (-1)**bit for the two bits of a basis index.
    return (1 if index < 2 else -1, 1 if index % 2 == 0 else -1)


@dataclass(frozen=True)
class CarrierPermutation:
    """Row -> column map of the nonzero entries, with its sign pairs.

    ``signs[row]`` holds ``((-1)**b0, (-1)**b1)`` for the column bits; these
    are the coefficients of the carried-angle equations.
    """

    mapping: tuple[int, int, int, int]
    signs: tuple[tuple[int, int], ...]

    @classmethod
    def from_mapping(cls, mapping: tuple[int, int, int, int]) -> "CarrierPermutation":
        return cls(mapping, tuple(_bit_signs(col) for col in mapping))


@dataclass(frozen=True)
class CarryMap:
    """Integer-coefficient linear map ``(t0, t1) -> (p0, p1)``."""

    matrix: tuple[tuple[int, int], tuple[int, int]]

    def __call__(self, theta0: float, theta1: float) -> tuple[float, float]:
        (a, b), (c, d) = self.matrix
        return (a * theta0 + b * theta1, c * theta0 + d * theta1)


class Segment(Enum):
    I_CNOT = "I-CNOT"
    ISWAP_SWAP = "iSWAP-SWAP"
    OFF_SEGMENT = "off-segment"


def _is_equivariant(mapping) -> bool:
    # Joint bit flip is index -> 3 - index.
    return all(mapping[3 - j] == 3 - mapping[j] for j in range(4))


def equivariant_permutations() -> tuple[tuple[int, int, int, int], ...]:
    """The eight bit-flip-equivariant permutations of the two-qubit basis."""
    return tuple(
        p for p in permutations(range(4)) if _is_equivariant(p)
    )


def abs_permutation(u, tol: float = PERMUTATION_TOL) -> CarrierPermutation | None:
    """Permutation structure of ``|u|`` if it is one (and equivariant).

    Pivots must exceed ``1 - tol`` in magnitude and every other entry must
    be at most ``ENTRY_ZERO_TOL``, so a gate that is only near a
    permutation (say ``FSIM(pi/2 + 1e-4, phi)``) is not a carrier.
    """
    return _frame_maps(as_unitary(u, 4)[None], perm_tol=tol)[0][0]


def is_phase_carrier(u) -> bool:
    """True iff per-qubit Z rotations commute through ``u`` with relabeled angles."""
    return abs_permutation(u) is not None


def carry_map(u) -> CarryMap:
    """Angle relabeling of a carrier: ``u @ (Z_t0 x Z_t1) == (Z_p0 x Z_p1) @ u``.

    Exact, with no leftover global phase; the equations come from the rows
    indexed ``00`` and ``01``:
    ``p0 + p1 = s(00)_0 t0 + s(00)_1 t1`` and
    ``p0 - p1 = s(01)_0 t0 + s(01)_1 t1``.
    """
    cmap = _frame_maps(as_unitary(u, 4)[None])[0][1]
    if cmap is None:
        raise NotCarrierError("gate is not a phase carrier")
    return cmap


def _carry_of(perm: CarrierPermutation) -> CarryMap:
    e0, e1 = perm.signs[0], perm.signs[1]
    matrix = (
        ((e0[0] + e1[0]) // 2, (e0[1] + e1[1]) // 2),
        ((e0[0] - e1[0]) // 2, (e0[1] - e1[1]) // 2),
    )
    return CarryMap(matrix)


def is_enc(u, tol: float = ENTRY_ZERO_TOL) -> bool:
    """True iff ``u`` preserves the 1+2+1 excitation-number block structure."""
    return _frame_maps(as_unitary(u, 4)[None], enc_tol=tol)[0][2] == (1, 1)


def is_generalized_enc(u, tol: float = ENTRY_ZERO_TOL) -> tuple[bool, tuple[int, int] | None]:
    """Detect ``u (Z_t x Z_t) == (Z_{p*t} x Z_{q*t}) u`` with integer p, q.

    Comparing spectra of the generators forces ``(p, q)`` into
    ``{(1,1), (-1,-1), (1,-1), (-1,1)}``; each candidate, in that order, is
    an exact zero-pattern test: every entry of ``u`` whose row and column
    eigenvalues differ must be at most ``tol`` in magnitude.  ``(1, 1)`` is
    :func:`is_enc`.
    """
    enc_map = _frame_maps(as_unitary(u, 4)[None], enc_tol=tol)[0][2]
    return enc_map is not None, enc_map


# The eight equivariant permutations with their carry maps.
_CARRIERS = tuple(
    (perm, _carry_of(perm))
    for perm in map(CarrierPermutation.from_mapping, equivariant_permutations())
)

# Candidate (p, q) for ``u (Z_t x Z_t) == (Z_pt x Z_qt) u``: comparing the
# spectra of the two generators leaves only these four, tried in this order.
# Both generators are diagonal, so the identity holds for every t exactly
# when u[i, j] vanishes wherever the row eigenvalue p*s0 + q*s1 differs from
# the column eigenvalue s0 + s1, with s = (-1)**bit.
_ENC_CANDIDATES = ((1, 1), (-1, -1), (1, -1), (-1, 1))
# Candidate (q, (p0, p1)) for ``u (Z_t on qubit q) == (Z_{p0*t} x Z_{p1*t}) u``:
# only an image along one axis matches the spectrum of one qubit's generator,
# and the zero-pattern test is the ENC one with the column eigenvalue s_q.
_PARTIAL_CANDIDATES = (
    (0, (1, 0)), (0, (-1, 0)), (0, (0, 1)), (0, (0, -1)),
    (1, (0, 1)), (1, (0, -1)), (1, (1, 0)), (1, (-1, 0)),
)
_SIGNS = np.array([_bit_signs(i) for i in range(4)])

# The tests of every candidate as one matrix.  Its 48 rows are the 16
# row-major entries of a 4x4 three times: an entry below 1 - perm_tol, one
# above ENTRY_ZERO_TOL, one above enc_tol.  Its columns are three blocks of
# _BLOCK candidates: the eight permutations (each fails on a small pivot or a
# large other entry), the ENC candidates and the partial candidates (each
# fails on a large entry where it needs a zero).  Each block ends with columns
# that test nothing, which every gate passes.
_BLOCK = 9
_NONE = np.zeros(16, dtype=bool)


def _block(columns: list) -> list:
    """The 48-row columns of candidates given as (small, large, stray) masks, padded."""
    padding = [np.zeros(48, dtype=bool)] * (_BLOCK - len(columns))
    return [np.concatenate(c) for c in columns] + padding


def _vanishing(row_eigenvalues: np.ndarray, column_eigenvalues: np.ndarray) -> np.ndarray:
    """The entries whose row and column eigenvalues differ, row-major."""
    return (row_eigenvalues[:, None] != column_eigenvalues).ravel()


_PIVOTS = [np.array([perm.mapping[i // 4] == i % 4 for i in range(16)]) for perm, _ in _CARRIERS]
_MASKS = np.transpose(
    _block([(pivot, ~pivot, _NONE) for pivot in _PIVOTS])
    + _block([(_NONE, _NONE, _vanishing(p * _SIGNS[:, 0] + q * _SIGNS[:, 1], _SIGNS.sum(axis=1)))
              for p, q in _ENC_CANDIDATES])
    + _block([(_NONE, _NONE, _vanishing(p0 * _SIGNS[:, 0] + p1 * _SIGNS[:, 1], _SIGNS[:, q]))
              for q, (p0, p1) in _PARTIAL_CANDIDATES])
).astype(float)
# What a gate gets from the first candidate of a block that it passes.
_CARRIER_OR_NONE = (*_CARRIERS, *[(None, None)] * (_BLOCK - len(_CARRIERS)))
_ENC_OR_NONE = (*_ENC_CANDIDATES, *[None] * (_BLOCK - len(_ENC_CANDIDATES)))
_PARTIAL_OR_NONE = (*_PARTIAL_CANDIDATES, *[None] * (_BLOCK - len(_PARTIAL_CANDIDATES)))


def _frame_maps(
    u: np.ndarray, perm_tol: float = PERMUTATION_TOL, enc_tol: float = ENTRY_ZERO_TOL
) -> list[tuple[
    CarrierPermutation | None, CarryMap | None, tuple[int, int] | None,
    tuple[int, tuple[int, int]] | None,
]]:
    """How per-qubit Z frames move through each gate of a validated ``(k, 4, 4)`` stack.

    Returns, per gate, the carrier permutation and its carry map (both None
    for a non-carrier), the generalized-ENC map ``(p, q)`` (None for none)
    and the partial carry ``(qubit, (p0, p1))``: a qubit whose frame ``t``
    alone passes the gate as ``(p0*t, p1*t)`` (None for neither qubit).
    ``np.abs`` is taken once, and all tests are one matrix product of the
    entries that break a bound with the masks above.  A gate is a
    carrier when one of the eight equivariant permutations has no pivot of
    ``|u|`` below ``1 - perm_tol`` and no other entry above
    ``ENTRY_ZERO_TOL``; for ``perm_tol < 1 - ENTRY_ZERO_TOL`` each pivot is
    then the strict maximum of its row, so at most one permutation passes,
    and it is the row-wise argmax of ``|u|``.  ``(p, q)`` is the first ENC
    candidate, and the partial carry the first partial candidate, with no
    entry that must vanish above ``enc_tol``.  :func:`classify` and the
    circuit compiler both decide by this call.
    """
    mag = np.abs(u).reshape(-1, 16)
    # [k, c]: how many entries of gate k fail the test of candidate c
    fails = np.concatenate(
        (mag < 1.0 - perm_tol, ~(mag <= ENTRY_ZERO_TOL), ~(mag <= enc_tol)), axis=1
    ) @ _MASKS
    # argmin takes each block's first candidate that the gate passes
    return [
        (*_CARRIER_OR_NONE[c], _ENC_OR_NONE[e], _PARTIAL_OR_NONE[p])
        for c, e, p in fails.reshape(-1, 3, _BLOCK).argmin(axis=2).tolist()
    ]


def segment_of(w: WeylCoords, tol: float = 1e-8) -> Segment:
    """Which carrier line segment (if any) the coordinates lie on."""
    if abs(w.c2) <= tol and abs(w.c3) <= tol:
        return Segment.I_CNOT
    if abs(w.c1 - math.pi / 2) <= tol and abs(w.c2 - math.pi / 2) <= tol:
        return Segment.ISWAP_SWAP
    return Segment.OFF_SEGMENT


@dataclass(frozen=True, eq=False)
class ClassifierResult:
    is_carrier: bool
    permutation: CarrierPermutation | None
    carry: CarryMap | None
    is_enc: bool
    is_generalized_enc: bool
    enc_map: tuple[int, int] | None
    partial_carry: tuple[int, tuple[int, int]] | None
    weyl: WeylCoords
    segment: Segment


def classify(u, tol: float = UNITARY_TOL) -> ClassifierResult:
    """Full classification of a two-qubit unitary.

    ``u`` is validated once, with unitarity tolerance ``tol``.
    """
    u = as_unitary(u, 4, tol)
    perm, cmap, enc_map, partial = _frame_maps(u[None])[0]
    coords = _weyl_coordinates(u)
    return ClassifierResult(
        is_carrier=perm is not None,
        permutation=perm,
        carry=cmap,
        is_enc=enc_map == (1, 1),
        is_generalized_enc=enc_map is not None,
        enc_map=enc_map,
        partial_carry=partial,
        weyl=coords,
        segment=segment_of(coords),
    )


def carry_defect(u, cmap: CarryMap, theta0: float, theta1: float) -> float:
    """Max-norm residual of the carry identity at one angle pair (no phase slack)."""
    u = np.asarray(u, dtype=complex)
    p0, p1 = cmap(theta0, theta1)
    lhs = u @ np.kron(z_rot(theta0), z_rot(theta1))
    rhs = np.kron(z_rot(p0), z_rot(p1)) @ u
    return float(np.max(np.abs(lhs - rhs)))
