"""Reference checker for schedule text, independent of the package under test.

It reads the schedule text itself, builds each PULSE from the README's
conjugated-X convention, takes each GATE2 matrix from the generator's op
(after checking its name and qubits), and applies the FRAME corrections.
Single-qubit pulses are multiplied as 2x2 products between GATE2 events.
Also makes the seeded mutant schedules whose verdict is known: rejected.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from gen import Circuit, Gate2Op, phase_deviation

TOLERANCE = 1e-8
MUTANT_KINDS = ("drop-pulse", "perturb-phase", "rename-gate2", "truncate")
PERTURBATION = 1e-3
_I2 = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


class Rejected(Exception):
    """The schedule text does not realize its circuit."""


def _mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _z(theta: float):
    return ((cmath.exp(-0.5j * theta), 0j), (0j, cmath.exp(0.5j * theta)))


def _pulse(sigma: float, phase: float):
    # A pulse of area sigma and phase shift phase is z(-phase) @ x(sigma) @ z(phase).
    c, s = math.cos(0.5 * sigma), math.sin(0.5 * sigma)
    return _mul(_z(-phase), _mul(((c, -1j * s), (-1j * s, c)), _z(phase)))


def _kron(a, b) -> np.ndarray:
    return np.kron(np.array(a), np.array(b))


def ideal(circ: Circuit) -> np.ndarray:
    u = np.eye(4, dtype=complex)
    eye = np.eye(2)
    for op in circ.ops:
        if isinstance(op, Gate2Op):
            u = op.effective() @ u
        else:
            _, q, m = op
            u = (np.kron(m, eye) if q == 0 else np.kron(eye, m)) @ u
    return u


def _qubit(tok: str) -> int:
    if tok not in ("q0", "q1"):
        raise Rejected(f"bad qubit {tok!r}")
    return int(tok[1])


def _value(tok: str, key: str) -> float:
    if not tok.startswith(key + "="):
        raise Rejected(f"expected {key}=, got {tok!r}")
    try:
        value = float(tok[len(key) + 1:])
    except ValueError:
        raise Rejected(f"bad number {tok!r}") from None
    if not math.isfinite(value):
        raise Rejected(f"non-finite number {tok!r}")
    return value


def _name_matches(name: str, op: Gate2Op) -> bool:
    if op.family != "FSIM":
        return name == op.family
    if not (name.startswith("FSIM(") and name.endswith(")")):
        return False
    try:
        args = [float(a) for a in name[5:-1].split(",")]
    except ValueError:
        return False
    return len(args) == 2 and all(abs(a - b) <= 1e-9 for a, b in zip(args, op.args))


def deviation(text: str, circ: Circuit, ideal_u: np.ndarray) -> float:
    """Max deviation of the schedule from ``ideal_u``, or :class:`Rejected`."""
    acc = [_I2, _I2]
    u = np.eye(4, dtype=complex)
    frames = [0.0, 0.0]
    framed = [False, False]
    gate2 = iter(circ.gate2_ops())
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "PULSE" and len(tok) == 4:
            q = _qubit(tok[1])
            if framed[q]:
                raise Rejected(f"PULSE on q{q} after its FRAME")
            acc[q] = _mul(_pulse(_value(tok[2], "sigma"), _value(tok[3], "phase")), acc[q])
        elif tok[0] == "GATE2" and len(tok) == 4:
            op = next(gate2, None)
            if op is None:
                raise Rejected("more GATE2 lines than two-qubit gates")
            qubits = (_qubit(tok[2]), _qubit(tok[3]))
            if qubits != op.qubits or not _name_matches(tok[1], op):
                raise Rejected(f"GATE2 {tok[1]} {qubits} does not match {op.family} {op.qubits}")
            if any(framed):
                raise Rejected("GATE2 after a FRAME")
            u = op.effective() @ _kron(acc[0], acc[1]) @ u
            acc = [_I2, _I2]
        elif tok[0] == "FRAME" and len(tok) == 3:
            q = _qubit(tok[1])
            frames[q] += _value(tok[2], "z")
            framed[q] = True
        else:
            raise Rejected(f"unrecognized line {raw!r}")
    if next(gate2, None) is not None:
        raise Rejected("missing GATE2 lines")
    # Physical == (z(f0) x z(f1)) @ ideal, so undo the reported frames.
    u = _kron(_mul(_z(-frames[0]), acc[0]), _mul(_z(-frames[1]), acc[1])) @ u
    return phase_deviation(u, ideal_u)


def near_carrier(m: np.ndarray) -> bool:
    """True if ``|m|`` has every row's largest entry at least 1 - 1e-8 but is
    not a permutation matrix: another entry is over 1e-10.

    Such a gate passes a carrier test that bounds the pivots at 1 - 1e-8,
    although the entries it treats as zero are up to about 1.4e-4.
    """
    mag = np.abs(m)
    pivots = mag.max(axis=1)
    rest = mag.copy()
    rest[np.arange(4), mag.argmax(axis=1)] = 0.0
    return bool(np.all(pivots >= 1.0 - 1e-8) and rest.max() > 1e-10)


def accepts(text: str, circ: Circuit, ideal_u: np.ndarray) -> tuple[bool, float]:
    """``(verdict, deviation)``; the deviation is ``inf`` for rejected text."""
    try:
        dev = deviation(text, circ, ideal_u)
    except Rejected:
        return False, math.inf
    return dev <= TOLERANCE, dev


def mutate(text: str, kind: str, rng) -> str:
    """A mutant of a genuine schedule that the reference must reject.

    Each site is chosen so rejection is certain: a dropped or phase-shifted
    pulse has area at least 1e-3, a renamed GATE2 gets another family's
    name, and a truncation removes at least one GATE2 line.
    """
    lines = text.splitlines()
    pulses = [
        i for i, line in enumerate(lines)
        if line.startswith("PULSE") and abs(float(line.split()[2][6:])) >= 1e-3
    ]
    gate2 = [i for i, line in enumerate(lines) if line.startswith("GATE2")]
    if kind in ("drop-pulse", "perturb-phase"):
        i = pulses[int(rng.integers(len(pulses)))]
        if kind == "drop-pulse":
            del lines[i]
        else:
            _, q, sigma, phase = lines[i].split()
            lines[i] = f"PULSE {q} {sigma} phase={float(phase[6:]) + PERTURBATION!r}"
    elif kind == "rename-gate2":
        i = gate2[int(rng.integers(len(gate2)))]
        _, name, q0, q1 = lines[i].split()
        lines[i] = f"GATE2 {'CZ' if name != 'CZ' else 'CNOT'} {q0} {q1}"
    elif kind == "truncate":
        del lines[int(rng.integers(gate2[-1] + 1)):]
    else:
        raise ValueError(f"unknown mutant kind {kind!r}")
    return "\n".join(lines) + "\n"
