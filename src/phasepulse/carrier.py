"""Classify two-qubit gates by how per-qubit Z rotations move through them.

Each question here is whether a gate maps the frames ``D t`` to ``A t``:
``U Z(D t) == Z(A t) U`` for every ``t``, with ``Z(p) = Z_p0 x Z_p1`` and
integer matrices ``A`` and ``D`` of two rows.  A gate "carries" phases when
it maps every ``(t0, t1)`` (``D = I``); then ``|u|`` is a permutation matrix
whose permutation commutes with the joint bit flip, and ``A`` is its carry
matrix.  Excitation-number-conserving (ENC) gates satisfy the weaker
equal-angle version (``D = (1, 1)``), and a gate such as a controlled-U the
one-qubit version (a partial carry, ``D`` one qubit's axis): ``t`` on one
qubit passes, the other angle being 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .su2 import UNITARY_TOL, WeylCoords, _weyl_coordinates, as_unitary, z_rot

# Entries of magnitude at most ENTRY_ZERO_TOL count as structural zeros.
ENTRY_ZERO_TOL = 1e-10
# A Weyl coordinate this close to 0 or pi/2 lies on a carrier segment's face.
_SEGMENT_TOL = 1e-8


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


def equivariant_permutations() -> tuple[tuple[int, int, int, int], ...]:
    """The eight bit-flip-equivariant permutations of the two-qubit basis
    (the joint bit flip is index -> 3 - index)."""
    return tuple(p for p in permutations(range(4)) if all(p[3 - j] == 3 - p[j] for j in range(4)))


def abs_permutation(u) -> CarrierPermutation | None:
    """Permutation structure of ``|u|`` if it is one (and equivariant).

    Every entry off the permutation must be at most ``ENTRY_ZERO_TOL``, so a
    gate that is only near a permutation (say ``FSIM(pi/2 + 1e-4, phi)``) is
    not a carrier.  The pivots need no test of their own: ``u`` is validated
    at ``UNITARY_TOL`` (1e-8), so with those zeros every column norm² is
    within 1e-8 of 1, and every pivot within 5e-9 of magnitude 1.
    """
    return _frame_maps(as_unitary(u, 4)[None])[0][0]


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


def is_enc(u, tol: float = ENTRY_ZERO_TOL) -> bool:
    """True iff ``u`` preserves the 1+2+1 excitation-number block structure."""
    return _frame_maps(as_unitary(u, 4)[None], tol)[0][2] == (1, 1)


def is_generalized_enc(u, tol: float = ENTRY_ZERO_TOL) -> tuple[bool, tuple[int, int] | None]:
    """Detect ``u (Z_t x Z_t) == (Z_{p*t} x Z_{q*t}) u`` with integer p, q.

    Comparing spectra of the generators forces ``(p, q)`` into
    ``{(1,1), (-1,-1), (1,-1), (-1,1)}``; each candidate, in that order, is
    an exact zero-pattern test: every entry of ``u`` whose row and column
    eigenvalues differ must be at most ``tol`` in magnitude.  ``(1, 1)`` is
    :func:`is_enc`.
    """
    enc_map = _frame_maps(as_unitary(u, 4)[None], tol)[0][2]
    return enc_map is not None, enc_map


_SIGNS = np.array([_bit_signs(i) for i in range(4)])


def _carrier(mapping) -> tuple[CarrierPermutation, CarryMap]:
    """An equivariant permutation and its carry matrix ``A``, which solves
    ``s_i A = s_mapping(i)`` on rows 00 and 01, and so on all four."""
    a = _SIGNS[:2] @ _SIGNS[list(mapping[:2])] // 2  # _SIGNS[:2] squared is 2I
    return CarrierPermutation.from_mapping(mapping), CarryMap(tuple(map(tuple, a.tolist())))


_CARRIERS = tuple(map(_carrier, equivariant_permutations()))
# Candidate (p, q) for ``u (Z_t x Z_t) == (Z_pt x Z_qt) u``: comparing the
# spectra of the two generators leaves only these four, tried in this order.
_ENC_CANDIDATES = ((1, 1), (-1, -1), (1, -1), (-1, 1))
# Candidate (q, (p0, p1)) for ``u (Z_t on qubit q) == (Z_{p0*t} x Z_{p1*t}) u``:
# only an image along one axis matches the spectrum of one qubit's generator.
_PARTIAL_CANDIDATES = (
    (0, (1, 0)), (0, (-1, 0)), (0, (0, 1)), (0, (0, -1)),
    (1, (0, 1)), (1, (0, -1)), (1, (1, 0)), (1, (-1, 0)),
)


def _vanishing(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The entries, row-major, that must vanish for a gate to map the frames
    ``d t`` to ``a t``.  Both generators are diagonal, so the identity holds for
    every ``t`` exactly when ``u[i, j]`` vanishes wherever the row eigenvalues
    ``s_i a`` differ from the column eigenvalues ``s_j d``, with ``s = (-1)**bit``."""
    return ((_SIGNS @ a)[:, None] != _SIGNS @ d).any(axis=2).ravel()


# Every candidate as its pair (A, D), in three blocks of _BLOCK: the carriers
# (D = I), the ENC candidates (D = (1, 1)) and the partial candidates (D the
# qubit's axis).  Each block ends with (0, 0), which maps the frame 0 to 0, so
# every gate passes it.  _MASKS holds a column per candidate, a row per entry.
_BLOCK = 9
_AXES = np.eye(2, dtype=int)
_CANDIDATES = (
    [(np.array(cmap.matrix), _AXES) for _, cmap in _CARRIERS],
    [(np.array([pq]).T, np.array([[1, 1]]).T) for pq in _ENC_CANDIDATES],
    [(np.array([image]).T, _AXES[:, [q]]) for q, image in _PARTIAL_CANDIDATES],
)
_ANY = (np.zeros((2, 1), dtype=int),) * 2
_MASKS = np.transpose([
    _vanishing(*pair) for block in _CANDIDATES for pair in block + [_ANY] * (_BLOCK - len(block))
]).astype(float)
# What a gate gets from the first candidate of a block that it passes.
_CARRIER_OR_NONE = (*_CARRIERS, *[(None, None)] * (_BLOCK - len(_CARRIERS)))
_ENC_OR_NONE = (*_ENC_CANDIDATES, *[None] * (_BLOCK - len(_ENC_CANDIDATES)))
_PARTIAL_OR_NONE = (*_PARTIAL_CANDIDATES, *[None] * (_BLOCK - len(_PARTIAL_CANDIDATES)))


def _frame_maps(u: np.ndarray, tol: float = ENTRY_ZERO_TOL) -> list[tuple[
    CarrierPermutation | None, CarryMap | None, tuple[int, int] | None,
    tuple[int, tuple[int, int]] | None,
]]:
    """How per-qubit Z frames move through each gate of a ``(k, 4, 4)`` stack.

    Returns, per gate, the carrier permutation and its carry map (both None
    for a non-carrier), the generalized-ENC map ``(p, q)`` (None for none)
    and the partial carry ``(qubit, (p0, p1))``: a qubit whose frame ``t``
    alone passes the gate as ``(p0*t, p1*t)`` (None for neither qubit).
    Each is the first candidate of its block with no entry that must vanish
    above ``tol`` in magnitude (a NaN entry never vanishes), and all of them
    are one matrix product of the entries above ``tol`` with the masks
    above.  A row of a unitary cannot vanish, and two permutations differ on
    some row, so at most one permutation passes.  :func:`classify` and the
    circuit compiler both decide by this call.
    """
    # [k, c]: how many entries that candidate c needs to vanish are above tol in gate k
    fails = ~(np.abs(u).reshape(-1, 16) <= tol) @ _MASKS
    # argmin takes each block's first candidate that the gate passes
    return [
        (*_CARRIER_OR_NONE[c], _ENC_OR_NONE[e], _PARTIAL_OR_NONE[p])
        for c, e, p in fails.reshape(-1, 3, _BLOCK).argmin(axis=2).tolist()
    ]


def segment_of(w: WeylCoords, tol: float = _SEGMENT_TOL) -> Segment:
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
