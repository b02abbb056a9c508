"""Single-qubit compilation schemes over phase-shifted fixed-angle X pulses.

Every scheme emits a time-ordered :class:`PulseSequence` (index 0 acts
first) whose product reproduces the target gate up to a global phase.  The
virtual-Z scheme additionally leaves a pending Z rotation *after* the
pulses: ``pulse product == z_rot(residual_z) @ target`` up to phase.

The phase-shift formulas of the schemes the compiler uses live in
:mod:`phasepulse.su2`: :func:`_three_pulse_pairs`, :func:`_virtual_z_pairs`
(with the residual, and on request its 0- and 1-pulse cases) and
:func:`_special_pairs` take a gate's angles ``(alpha, beta, gamma)``, as
:class:`GateParams` keeps them, to raw ``(sigma, phase)`` pairs.
:func:`phasepulse.circuit.compile_circuit` writes the pairs straight into
its schedule rows, whose PULSE angles are normalized once when the
schedule is built; the schemes here wrap the same formulas in
:class:`Pulse` objects, which normalize them the same way.  A Clifford's
axis rotation is a quaternion, built by ``su2._su2`` as every 2x2 is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .su2 import (
    STRUCTURE_TOL,
    GateParams,
    _cos_sin,
    _gate_angles,
    _special_pairs,
    _su2,
    _three_pulse_pairs,
    _unitary_entries,
    _virtual_z_pairs,
    conjugated_x,
    normalize_angle,
    normalize_rotation,
    x_rot,
    y_rot,
    z_rot,
)

PI = math.pi
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT3 = 1.0 / math.sqrt(3.0)
_ELIDE_TOL = 1e-12  # a two-pulse variable pulse of smaller area is left out
_AXIS_ZERO_TOL = 1e-12  # an axis component no larger than this is left out of its label


@dataclass(frozen=True)
class Pulse:
    """One conjugated X rotation: area ``sigma``, drive phase shift ``phase``."""

    sigma: float
    phase: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", normalize_rotation(self.sigma))
        object.__setattr__(self, "phase", normalize_angle(self.phase))

    def unitary(self) -> np.ndarray:
        return conjugated_x(self.sigma, self.phase)


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered pulses; index 0 acts first."""

    pulses: tuple[Pulse, ...]

    @classmethod
    def of(cls, *pairs: tuple[float, float]) -> "PulseSequence":
        return cls(tuple(Pulse(s, p) for s, p in pairs))

    def unitary(self) -> np.ndarray:
        u = np.eye(2, dtype=complex)
        for pulse in self.pulses:
            u = pulse.unitary() @ u
        return u

    def __len__(self) -> int:
        return len(self.pulses)

    def __iter__(self):
        return iter(self.pulses)

    def __getitem__(self, idx):
        return self.pulses[idx]


class Scheme(Enum):
    VZ = "vz"
    THREE = "three"
    FOUR = "four"
    TWO = "two"
    SPECIAL = "special"


@dataclass(frozen=True)
class CompiledGate:
    """Pulses plus the pending Z frame they leave behind.

    Contract: ``sequence product == z_rot(residual_z) @ target`` up to a
    global phase; ``residual_z`` is 0 for every scheme except VZ.
    """

    sequence: PulseSequence
    residual_z: float
    scheme: Scheme
    elided: int = 0

    def physical_unitary(self) -> np.ndarray:
        return self.sequence.unitary()


def three_pulse(p: GateParams) -> CompiledGate:
    """Exact compilation as conjugated X90, X180, X90 pulses.

    Phases solve ``theta = alpha - beta``, ``omega = -alpha - beta``,
    ``phi = -beta + gamma - pi``; the X180 sits between the two X90s and
    the omega pulse acts first.
    """
    seq = PulseSequence.of(*_three_pulse_pairs(p.alpha, p.beta, p.gamma))
    return CompiledGate(seq, 0.0, Scheme.THREE)


def virtual_z(p: GateParams) -> CompiledGate:
    """Two X90 pulses plus a pending frame ``residual_z = -(theta+phi+omega)``.

    Euler bridge: ``theta = -alpha + beta``, ``phi = pi - 2*gamma``,
    ``omega = -alpha - beta - pi``; the pulse phases are ``omega`` then
    ``omega + phi`` and the leftover ``z_rot(residual_z)`` is the left
    factor of the physical product.  The compiler's fewer-pulse cases are
    those of :func:`_virtual_z_pairs`.
    """
    pairs, residual = _virtual_z_pairs(p.alpha, p.beta, p.gamma)
    return CompiledGate(PulseSequence.of(*pairs), residual, Scheme.VZ)


def four_pulse(p: GateParams) -> CompiledGate:
    """Like :func:`three_pulse` with the X180 split into two equal X90s."""
    first, (_, phi), last = _three_pulse_pairs(p.alpha, p.beta, p.gamma)
    seq = PulseSequence.of(first, (PI / 2, phi), (PI / 2, phi), last)
    return CompiledGate(seq, 0.0, Scheme.FOUR)


def two_pulse(p: GateParams) -> CompiledGate:
    """One X180 followed by one variable-angle pulse of area ``2*gamma - pi``.

    At ``gamma == pi/2`` the variable pulse has zero area and is elided.
    """
    sigma = normalize_rotation(2.0 * p.gamma - PI)
    theta = 1.5 * PI + p.alpha - p.beta
    omega = 1.5 * PI - p.beta
    if abs(sigma) < _ELIDE_TOL:
        seq = PulseSequence.of((PI, omega))
        return CompiledGate(seq, 0.0, Scheme.TWO, elided=1)
    seq = PulseSequence.of((PI, omega), (sigma, theta))
    return CompiledGate(seq, 0.0, Scheme.TWO)


class CliffordCategory(Enum):
    PAULI_ROT = "pauli-rotation"
    HADAMARD_COUSIN = "hadamard-cousin"
    Y_ANALOG = "y-analog"


@dataclass(frozen=True, eq=False)
class CliffordEntry:
    index: int
    name: str
    category: CliffordCategory
    axis: tuple[float, float, float] | None
    matrix: np.ndarray
    sequence: PulseSequence


def _axis_rotation(axis: tuple[float, float, float], angle: float) -> np.ndarray:
    """``exp(-i*angle*(nx X + ny Y + nz Z)/2)`` for the unit axis ``n``."""
    nx, ny, nz = axis
    c, s = _cos_sin(angle)
    return _su2(c, -s * nz, s * ny, -s * nx)


def _axis_label(axis: tuple[float, float, float]) -> str:
    parts = []
    for value, label in zip(axis, "xyz"):
        if abs(value) > _AXIS_ZERO_TOL:
            parts.append(("+" if value > 0 else "-") + label)
    return "".join(parts)


@lru_cache(maxsize=1)
def clifford_table() -> tuple[CliffordEntry, ...]:
    """All 24 single-qubit Cliffords (mod phase) with <=2-pulse sequences.

    Every entry's pulses are :func:`_special_pairs` of its angles: 38 in
    total across the table (average 19/12 per gate).
    """
    entries: list[tuple[str, CliffordCategory, tuple | None, np.ndarray]] = [
        ("I", CliffordCategory.PAULI_ROT, None, np.eye(2, dtype=complex))
    ]
    for name, axis, rot in (("X", (1.0, 0.0, 0.0), x_rot), ("Y", (0.0, 1.0, 0.0), y_rot),
                            ("Z", (0.0, 0.0, 1.0), z_rot)):
        for angle, label in ((PI, "180"), (PI / 2, "90"), (-PI / 2, "-90")):
            entries.append((name + label, CliffordCategory.PAULI_ROT, axis, rot(angle)))

    cousin_axes = [
        (_INV_SQRT2, _INV_SQRT2, 0.0),
        (_INV_SQRT2, -_INV_SQRT2, 0.0),
        (_INV_SQRT2, 0.0, _INV_SQRT2),
        (_INV_SQRT2, 0.0, -_INV_SQRT2),
        (0.0, _INV_SQRT2, _INV_SQRT2),
        (0.0, _INV_SQRT2, -_INV_SQRT2),
    ]
    for axis in cousin_axes:
        m = _axis_rotation(axis, PI)
        label = f"pi@({_axis_label(axis)})"
        entries.append((label, CliffordCategory.HADAMARD_COUSIN, axis, m))

    for sense in (1.0, -1.0):
        for sx, sy, sz in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
            axis = (sx * _INV_SQRT3, sy * _INV_SQRT3, sz * _INV_SQRT3)
            angle = sense * 2.0 * PI / 3.0
            m = _axis_rotation(axis, angle)
            label = ("2pi/3@" if sense > 0 else "-2pi/3@") + f"({_axis_label(axis)})"
            entries.append((label, CliffordCategory.Y_ANALOG, axis, m))

    return tuple(
        CliffordEntry(i, name, cat, axis, matrix,
                      PulseSequence.of(*_special_pairs(*_gate_angles(_unitary_entries(matrix))[:3])))
        for i, (name, cat, axis, matrix) in enumerate(entries)
    )


def special_case(u, tol: float = STRUCTURE_TOL) -> CompiledGate | None:
    """Compile ``u`` with fewer than three pulses when its angles allow it.

    Returns ``None`` for gates that need the full three-pulse scheme; see
    :func:`_special_pairs` for the cases.  Validates ``u`` first.
    """
    alpha, beta, gamma, _ = _gate_angles(_unitary_entries(u))
    pairs = _special_pairs(alpha, beta, gamma, tol)
    return None if pairs is None else CompiledGate(PulseSequence.of(*pairs), 0.0, Scheme.SPECIAL)


def absorb_z(gate: CompiledGate, delta_l: float, delta_r: float) -> CompiledGate:
    """Fold ``z_rot(delta_l) @ U @ z_rot(delta_r)`` into an existing compilation.

    One table gives each scheme's phase shifts, pulse by pulse in time
    order: THREE ``(dR, (dR-dL)/2, -dL)`` (so ``omega -> omega + dR``,
    ``phi -> phi + (dR-dL)/2``, ``theta -> theta - dL``) and TWO
    ``((dR-dL)/2, -dL)``, whose second shift is unused when the variable
    pulse is elided.  Both are exact thanks to the X180 phase-reflection
    identity ``Z(-t) X180 Z(t) == Z(p-t) X180 Z(p+t)``.
    """
    delta_l, delta_r = float(delta_l), float(delta_r)
    if not (math.isfinite(delta_l) and math.isfinite(delta_r)):
        raise ValueError("deltas must be finite")
    mid = 0.5 * (delta_r - delta_l)
    shifts = {Scheme.THREE: (delta_r, mid, -delta_l), Scheme.TWO: (mid, -delta_l)}.get(gate.scheme)
    if shifts is None:
        raise ValueError(f"absorb_z needs a THREE or TWO scheme gate, got {gate.scheme}")
    seq = PulseSequence.of(*((p.sigma, p.phase + d) for p, d in zip(gate.sequence, shifts)))
    return CompiledGate(seq, gate.residual_z, gate.scheme, gate.elided)
