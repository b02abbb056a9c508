"""Single-qubit compilation schemes over phase-shifted fixed-angle X pulses.

Every scheme emits a time-ordered :class:`PulseSequence` (index 0 acts
first) whose product reproduces the target gate up to a global phase.  The
virtual-Z scheme additionally leaves a pending Z rotation *after* the
pulses: ``pulse product == z_rot(residual_z) @ target`` up to phase.

The schemes the compiler uses each have a private core that takes a
gate's angles ``(alpha, beta, gamma)``, as :class:`GateParams` keeps them,
and returns the pulses as raw ``(sigma, phase)`` pairs, before
normalization: :func:`_three_pulse_pairs`, :func:`_virtual_z_pairs` (with
the residual, and on request its 0- and 1-pulse cases) and
:func:`_special_pairs`.
:func:`phasepulse.circuit.compile_circuit` writes the pairs straight into
its schedule rows, whose PULSE angles are normalized once when the
schedule is built; :func:`three_pulse`,
:func:`virtual_z` and :func:`special_case` wrap the same cores in
:class:`Pulse` objects, which normalize them the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .su2 import (
    GateParams,
    _gate_angles,
    _unitary_entries,
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

# Detection threshold of the special cases: a gate this close to a case takes
# its exact pulses, and the gaps add up, so it is the text format's 1e-12.
STRUCTURE_TOL = 1e-12


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


# Time-ordered pulses as raw (sigma, phase) pairs.
_Pairs = tuple[tuple[float, float], ...]


def three_pulse(p: GateParams) -> CompiledGate:
    """Exact compilation as conjugated X90, X180, X90 pulses.

    Phases solve ``theta = alpha - beta``, ``omega = -alpha - beta``,
    ``phi = -beta + gamma - pi``; the X180 sits between the two X90s and
    the omega pulse acts first.
    """
    seq = PulseSequence.of(*_three_pulse_pairs(p.alpha, p.beta, p.gamma))
    return CompiledGate(seq, 0.0, Scheme.THREE)


def _three_pulse_pairs(alpha: float, beta: float, gamma: float) -> _Pairs:
    """The pulses of :func:`three_pulse` for the angles of a :class:`GateParams`."""
    return ((PI / 2, -alpha - beta), (PI, -beta + gamma - PI), (PI / 2, alpha - beta))


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


# The gammas that keep the two-X90 bridge lie in (tol, pi/4 - tol) or
# (pi/4 + tol, pi/2 - tol); any other is 0, pi/4 or pi/2 within tol.  As
# four precomputed bounds, the test costs a flush two chained comparisons.
_BRIDGE_LO, _X90_LO = STRUCTURE_TOL, PI / 4 - STRUCTURE_TOL
_X90_HI, _BRIDGE_HI = PI / 4 + STRUCTURE_TOL, PI / 2 - STRUCTURE_TOL


def _virtual_z_pairs(
    alpha: float, beta: float, gamma: float, special: bool = False
) -> tuple[_Pairs, float]:
    """The pulses and the normalized residual of :func:`virtual_z`, or with
    ``special`` of its special cases where the angles allow them.

    Every gate has ``z_rot(2*alpha) @ U(alpha, beta, gamma) ==
    conjugated_x(2*gamma, -alpha - beta - pi/2)``.  So when ``gamma`` is 0,
    pi/4 or pi/2, each within ``STRUCTURE_TOL``, the gate takes no pulse, one
    X90 or one X180 of that phase and leaves the residual ``2*alpha``.
    """
    if special and not (_BRIDGE_LO < gamma < _X90_LO or _X90_HI < gamma < _BRIDGE_HI):
        sigma = round(4.0 * gamma / PI) * (PI / 2)  # 0, pi/2 or pi
        pairs = ((sigma, -alpha - beta - PI / 2),) if sigma else ()
        return pairs, normalize_angle(2.0 * alpha)
    theta = -alpha + beta
    phi = PI - 2.0 * gamma
    omega = -alpha - beta - PI
    residual = normalize_angle(-(theta + phi + omega))
    return ((PI / 2, omega), (PI / 2, omega + phi)), residual


def four_pulse(p: GateParams) -> CompiledGate:
    """Like :func:`three_pulse` with the X180 split into two equal X90s."""
    theta = p.alpha - p.beta
    omega = -p.alpha - p.beta
    phi = -p.beta + p.gamma - PI
    seq = PulseSequence.of((PI / 2, omega), (PI / 2, phi), (PI / 2, phi), (PI / 2, theta))
    return CompiledGate(seq, 0.0, Scheme.FOUR)


def two_pulse(p: GateParams) -> CompiledGate:
    """One X180 followed by one variable-angle pulse of area ``2*gamma - pi``.

    At ``gamma == pi/2`` the variable pulse has zero area and is elided.
    """
    sigma = normalize_rotation(2.0 * p.gamma - PI)
    theta = 1.5 * PI + p.alpha - p.beta
    omega = 1.5 * PI - p.beta
    if abs(sigma) < 1e-12:
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


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1j], [1j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _axis_rotation(axis: tuple[float, float, float], angle: float) -> np.ndarray:
    nx, ny, nz = axis
    h = nx * _X + ny * _Y + nz * _Z
    return math.cos(0.5 * angle) * np.eye(2) - 1j * math.sin(0.5 * angle) * h


def _axis_label(axis: tuple[float, float, float]) -> str:
    parts = []
    for value, label in zip(axis, "xyz"):
        if abs(value) > 1e-12:
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


def _special_pairs(
    alpha: float, beta: float, gamma: float, tol: float = STRUCTURE_TOL
) -> _Pairs | None:
    """The pulses of :func:`special_case` for the angles of a :class:`GateParams`, or None.

    A gate takes fewer than three X pulses exactly when ``gamma`` is 0, pi/4
    or pi/2, each within ``tol``: the identity (``sin(alpha)`` 0 too) none,
    any other diagonal gate two X180s of opposite phase shifts, an
    anti-diagonal gate one X180, and a gate with ``|m00| = 1/sqrt2`` (every
    Clifford that is neither) an X180 then an X90, or one X90 when
    ``sin(alpha)`` is 0.
    """
    if gamma <= tol:  # diag(exp(i a), exp(-i a))
        if abs(math.sin(alpha)) <= tol:
            return ()
        theta = -0.5 * (alpha + PI)
        return ((PI, theta), (PI, -theta))
    if gamma >= PI / 2 - tol:  # [[0, -exp(-i b)], [exp(i b), 0]]
        return ((PI, 1.5 * PI - beta),)
    if abs(gamma - PI / 4) <= tol:
        if abs(math.sin(alpha)) <= tol:
            return ((PI / 2, -0.5 * PI - alpha - beta),)
        return ((PI, -0.5 * PI - beta), (PI / 2, alpha - beta + 0.5 * PI))
    return None


def absorb_z(gate: CompiledGate, delta_l: float, delta_r: float) -> CompiledGate:
    """Fold ``z_rot(delta_l) @ U @ z_rot(delta_r)`` into an existing compilation.

    Valid for three-pulse output (phase updates ``theta -> theta - dL``,
    ``phi -> phi + (dR-dL)/2``, ``omega -> omega + dR``) and for two-pulse
    output, both exact thanks to the X180 phase-reflection identity
    ``Z(-t) X180 Z(t) == Z(p-t) X180 Z(p+t)``.
    """
    delta_l, delta_r = float(delta_l), float(delta_r)
    if not (math.isfinite(delta_l) and math.isfinite(delta_r)):
        raise ValueError("deltas must be finite")
    if gate.scheme is Scheme.THREE:
        w, f, t = gate.sequence
        seq = PulseSequence.of(
            (w.sigma, w.phase + delta_r),
            (f.sigma, f.phase + 0.5 * (delta_r - delta_l)),
            (t.sigma, t.phase - delta_l),
        )
    elif gate.scheme is Scheme.TWO:
        pulses = list(gate.sequence)
        first = pulses[0]
        updated = [Pulse(first.sigma, first.phase + 0.5 * (delta_r - delta_l))]
        if len(pulses) == 2:
            second = pulses[1]
            updated.append(Pulse(second.sigma, second.phase - delta_l))
        seq = PulseSequence(tuple(updated))
    else:
        raise ValueError(f"absorb_z needs a THREE or TWO scheme gate, got {gate.scheme}")
    return CompiledGate(seq, gate.residual_z, gate.scheme, gate.elided)
