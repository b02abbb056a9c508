"""Two-qubit circuit IR, text parser, phase-carrying compilation, schedules.

The compiler maintains one pending "frame" angle per qubit with the
invariant ``physical so far == (z_rot(f0) x z_rot(f1)) @ ideal so far`` up
to a global phase.  Policies differ in how frames are created (virtual-Z
compilation), moved (carried through two-qubit gates), and retired
(measurements, or explicit pulses that zero them).
"""

from __future__ import annotations

import cmath
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .carrier import CarryMap, _frame_maps
from .schemes import (
    CompiledGate,
    Pulse,
    Scheme,
    _special_case,
    three_pulse,
    virtual_z,
)
from .su2 import (
    _IDENTITY_ENTRIES,
    GateParams,
    _conjugated_x_entries,
    _mul_entries,
    _params_entries,
    _params_from_unitary,
    _z_rot_entries,
    as_unitary,
    normalize_angle,
    params_from_unitary,
    phase_distance,
    standard_gate,
    unitary_from_params,
)

PI = math.pi


class CircuitError(ValueError):
    """Invalid circuit or schedule; ``op_index`` is the offending op's index, if any."""

    def __init__(self, message: str, op_index: int | None = None):
        super().__init__(message)
        self.op_index = op_index


class CircuitSyntaxError(CircuitError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IllegalPolicyError(CircuitError):
    def __init__(self, message: str, op_index: int, gate_name: str):
        super().__init__(message, op_index)
        self.gate_name = gate_name


class ScheduleMismatchError(CircuitError):
    pass


@dataclass(frozen=True)
class Gate1:
    qubit: int
    params: GateParams

    @classmethod
    def from_matrix(cls, qubit: int, matrix) -> "Gate1":
        return cls(qubit, params_from_unitary(matrix)[0])

    def matrix(self) -> np.ndarray:
        return unitary_from_params(self.params)


# Basis order |00>, |01>, |10>, |11> with the two qubits' bits exchanged.
_SWAPPED_BASIS = np.array([0, 2, 1, 3])


@dataclass(frozen=True, eq=False)
class Gate2:
    """Two-qubit gate; ``matrix`` is in the order the qubits were named."""

    qubits: tuple[int, int]
    name: str
    matrix: np.ndarray

    @cached_property
    def effective_matrix(self) -> np.ndarray:
        """The matrix in the fixed (qubit 0, qubit 1) basis; read-only, built once."""
        if self.qubits == (0, 1):
            m = self.matrix.view()
        else:
            m = self.matrix.take(_SWAPPED_BASIS, 0).take(_SWAPPED_BASIS, 1)
        m.setflags(write=False)
        return m


@dataclass(frozen=True)
class Measure:
    qubit: int


Op = Gate1 | Gate2 | Measure


@dataclass(frozen=True)
class CircuitIR:
    n_qubits: int
    ops: tuple[Op, ...]

    def __post_init__(self):
        if self.n_qubits != 2:
            raise CircuitError(f"this compiler handles exactly 2 qubits, got {self.n_qubits}")
        measured: set[int] = set()
        for i, op in enumerate(self.ops):
            qubits = op.qubits if isinstance(op, Gate2) else (op.qubit,)
            for q in qubits:
                if not 0 <= q < self.n_qubits:
                    raise CircuitError(f"op {i}: qubit index {q} out of range", i)
                if q in measured:
                    raise CircuitError(f"op {i}: qubit {q} already measured", i)
            if isinstance(op, Gate2) and op.qubits[0] == op.qubits[1]:
                raise CircuitError(f"op {i}: two-qubit gate needs distinct qubits", i)
            if isinstance(op, Measure):
                measured.add(op.qubit)

    def gate2_ops(self) -> list[Gate2]:
        return [op for op in self.ops if isinstance(op, Gate2)]


_QUBIT_RE = re.compile(r"^q(\d+)$")
_PARAM_GATE_RE = re.compile(r"^([A-Z]+)\((.*)\)$")
_FIXED_GATE2 = ("CZ", "CNOT", "SWAP", "ISWAP", "SQISW")

_X90_PARAMS = GateParams(0.0, -PI / 2, PI / 4)
_X180_PARAMS = GateParams(0.0, -PI / 2, PI / 2)


def _parse_float(tok: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise CircuitError(f"expected a number, got {tok!r}") from None
    if not math.isfinite(value):
        raise CircuitError(f"number must be finite, got {tok!r}")
    return value


def _parse_qubit(tok: str, n_qubits: int) -> int:
    m = _QUBIT_RE.match(tok)
    if not m:
        raise CircuitError(f"expected a qubit like 'q0', got {tok!r}")
    q = int(m.group(1))
    if q >= n_qubits:
        raise CircuitError(f"qubit {tok} out of range for {n_qubits} qubits")
    return q


def _format_angle(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return f"{x:.12g}"


def parse_gate_spec(spec: str, entries: Sequence[str] = ()) -> tuple[str, np.ndarray]:
    """Label and matrix of a two-qubit gate spec, as written on a ``G2`` line.

    ``spec`` is CZ, CNOT, SWAP, ISWAP, SQISW, ``CPHASE(phi)``,
    ``FSIM(theta,phi)`` or CUSTOM, whose 16 row-major ``re,im`` tokens are
    ``entries``.  A CUSTOM matrix is not checked for unitarity here.  Raises
    :class:`CircuitError` for a malformed spec.
    """
    if spec == "CUSTOM":
        if len(entries) != 16:
            raise CircuitError(f"CUSTOM takes 16 're,im' pairs, got {len(entries)}")
        values = []
        for tok in entries:
            pieces = tok.split(",")
            if len(pieces) != 2:
                raise CircuitError(f"expected 're,im', got {tok!r}")
            values.append(complex(_parse_float(pieces[0]), _parse_float(pieces[1])))
        return "CUSTOM", np.array(values, dtype=complex).reshape(4, 4)
    if entries:
        raise CircuitError(f"unexpected tokens after {spec}: {' '.join(entries)}")
    if spec in _FIXED_GATE2:
        return spec, standard_gate(spec)
    m = _PARAM_GATE_RE.match(spec)
    if not m:
        raise CircuitError(f"unknown two-qubit gate {spec!r}")
    name, arg_text = m.groups()
    args = [_parse_float(a.strip()) for a in arg_text.split(",")] if arg_text else []
    if (name, len(args)) not in (("CPHASE", 1), ("FSIM", 2)):
        raise CircuitError(f"unknown or malformed gate {spec!r}")
    return f"{name}({','.join(map(_format_angle, args))})", standard_gate(name, *args)


def _parse_op(tokens: list[str], n_qubits: int) -> Op:
    head = tokens[0]
    if head == "U":
        if len(tokens) != 5:
            raise CircuitError("usage: U q<i> <alpha> <beta> <gamma>")
        q = _parse_qubit(tokens[1], n_qubits)
        a, b, g = (_parse_float(t) for t in tokens[2:5])
        return Gate1(q, GateParams(a, b, g))
    if head == "RZ":
        if len(tokens) != 3:
            raise CircuitError("usage: RZ q<i> <theta>")
        q = _parse_qubit(tokens[1], n_qubits)
        return Gate1(q, GateParams(-0.5 * _parse_float(tokens[2]), 0.0, 0.0))
    if head == "X90":
        if len(tokens) != 2:
            raise CircuitError("usage: X90 q<i>")
        return Gate1(_parse_qubit(tokens[1], n_qubits), _X90_PARAMS)
    if head == "X180":
        if len(tokens) != 2:
            raise CircuitError("usage: X180 q<i>")
        return Gate1(_parse_qubit(tokens[1], n_qubits), _X180_PARAMS)
    if head == "G2":
        if len(tokens) < 4:
            raise CircuitError("usage: G2 <gate> q<i> q<j> [16 're,im' pairs for CUSTOM]")
        label, matrix = parse_gate_spec(tokens[1], tokens[4:])
        if label == "CUSTOM":
            matrix = as_unitary(matrix, 4, tol=1e-8)
        qubits = (_parse_qubit(tokens[2], n_qubits), _parse_qubit(tokens[3], n_qubits))
        return Gate2(qubits, label, matrix)
    if head == "M":
        if len(tokens) != 2:
            raise CircuitError("usage: M q<i>")
        return Measure(_parse_qubit(tokens[1], n_qubits))
    raise CircuitError(f"unknown op {head!r}")


def parse_circuit(text: str) -> CircuitIR:
    """Parse the line-based circuit format (see the package README).

    One op per line; ``#`` starts a comment; the first op line must be
    preceded by a ``qubits 2`` header.  All angles are radians.  Every
    error, including an illegal circuit found by :class:`CircuitIR`, is a
    :class:`CircuitSyntaxError` at the offending line.
    """
    n_qubits: int | None = None
    ops: list[Op] = []
    op_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "qubits":
            if n_qubits is not None:
                raise CircuitSyntaxError("duplicate 'qubits' header", line_no)
            if len(tokens) != 2:
                raise CircuitSyntaxError("usage: qubits 2", line_no)
            try:
                n_qubits = int(tokens[1])
            except ValueError:
                raise CircuitSyntaxError(f"expected an integer, got {tokens[1]!r}", line_no) from None
            if n_qubits != 2:
                raise CircuitSyntaxError("this compiler handles exactly 2 qubits", line_no)
            continue
        if n_qubits is None:
            raise CircuitSyntaxError("first statement must be 'qubits 2'", line_no)
        try:
            ops.append(_parse_op(tokens, n_qubits))
        except ValueError as exc:
            raise CircuitSyntaxError(str(exc), line_no) from None
        op_lines.append(line_no)
    if n_qubits is None:
        raise CircuitSyntaxError("missing 'qubits 2' header", 1)
    try:
        return CircuitIR(n_qubits, tuple(ops))
    except CircuitError as exc:
        raise CircuitSyntaxError(str(exc), op_lines[exc.op_index]) from None


def merge_adjacent_1q(ir: CircuitIR) -> CircuitIR:
    """Fuse runs of single-qubit gates on the same qubit into one gate.

    Gates separated only by ops on the *other* qubit commute with them and
    are fused too; a two-qubit gate or measurement on the qubit ends a run.
    """
    out: list[Op] = []
    open_idx: dict[int, int | None] = {q: None for q in range(ir.n_qubits)}
    for op in ir.ops:
        if isinstance(op, Gate1):
            idx = open_idx[op.qubit]
            if idx is not None:
                prev = _params_entries(out[idx].params)
                combined = _mul_entries(_params_entries(op.params), prev)
                out[idx] = Gate1(op.qubit, _params_from_unitary(combined)[0])
            else:
                open_idx[op.qubit] = len(out)
                out.append(op)
        elif isinstance(op, Gate2):
            for q in op.qubits:
                open_idx[q] = None
            out.append(op)
        else:
            open_idx[op.qubit] = None
            out.append(op)
    return CircuitIR(ir.n_qubits, tuple(out))


class PolicyMode(Enum):
    THREE_ALWAYS = "three-always"
    VZ_CARRY = "vz-carry"
    ENC_MIXED = "enc-mixed"
    AUTO = "auto"


@dataclass(frozen=True)
class CompilePolicy:
    mode: PolicyMode = PolicyMode.THREE_ALWAYS
    special_cases: bool = True


@dataclass(frozen=True)
class PulseEvent:
    qubit: int
    pulse: Pulse


@dataclass(frozen=True)
class Gate2Event:
    qubits: tuple[int, int]
    name: str


@dataclass(frozen=True)
class FrameEvent:
    qubit: int
    angle: float


Event = PulseEvent | Gate2Event | FrameEvent

_SCHEME_KEYS = ("vz", "three", "four", "two", "special")


@dataclass
class ScheduleStats:
    pulses: int = 0
    per_qubit: list[int] = field(default_factory=lambda: [0, 0])
    gates_1q: int = 0
    gates_2q: int = 0
    compiled_1q: int = 0
    frames: int = 0
    elided: int = 0
    schemes: dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in _SCHEME_KEYS}
    )

    def pulses_per_1q(self) -> float:
        return self.pulses / self.gates_1q if self.gates_1q else 0.0

    def stats_line(self) -> str:
        parts = [f"pulses={self.pulses}"]
        parts += [f"q{q}={n}" for q, n in enumerate(self.per_qubit)]
        parts += [
            f"gates_1q={self.gates_1q}",
            f"gates_2q={self.gates_2q}",
            f"compiled_1q={self.compiled_1q}",
            f"pulses_per_1q={_format_angle(self.pulses_per_1q())}",
        ]
        parts += [f"{k}={self.schemes[k]}" for k in _SCHEME_KEYS]
        parts += [f"elided={self.elided}", f"frames={self.frames}"]
        return "# stats: " + " ".join(parts)


@dataclass(eq=False)
class PulseSchedule:
    n_qubits: int
    events: tuple[Event, ...]
    stats: ScheduleStats

    def to_text(self) -> str:
        lines = []
        for ev in self.events:
            if isinstance(ev, PulseEvent):
                lines.append(
                    f"PULSE q{ev.qubit} sigma={_format_angle(ev.pulse.sigma)} "
                    f"phase={_format_angle(ev.pulse.phase)}"
                )
            elif isinstance(ev, Gate2Event):
                lines.append(f"GATE2 {ev.name} q{ev.qubits[0]} q{ev.qubits[1]}")
            else:
                lines.append(f"FRAME q{ev.qubit} z={_format_angle(ev.angle)}")
        lines.append(self.stats.stats_line())
        return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> list[Event]:
    """Parse schedule text back into events (comment lines are skipped)."""
    events: list[Event] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "PULSE" and len(tokens) == 4:
                q = _parse_qubit(tokens[1], 2)
                if not (tokens[2].startswith("sigma=") and tokens[3].startswith("phase=")):
                    raise CircuitError("malformed PULSE line")
                sigma = _parse_float(tokens[2][len("sigma="):])
                phase = _parse_float(tokens[3][len("phase="):])
                events.append(PulseEvent(q, Pulse(sigma, phase)))
            elif kind == "GATE2" and len(tokens) == 4:
                qubits = (_parse_qubit(tokens[2], 2), _parse_qubit(tokens[3], 2))
                events.append(Gate2Event(qubits, tokens[1]))
            elif kind == "FRAME" and len(tokens) == 3:
                q = _parse_qubit(tokens[1], 2)
                if not tokens[2].startswith("z="):
                    raise CircuitError("malformed FRAME line")
                events.append(FrameEvent(q, _parse_float(tokens[2][len("z="):])))
            else:
                raise CircuitError(f"unrecognized schedule line {raw!r}")
        except ValueError as exc:
            raise CircuitSyntaxError(str(exc), line_no) from None
    return events


@dataclass(frozen=True)
class _Gate2Info:
    carry: CarryMap | None
    enc_map: tuple[int, int] | None  # (p, q) with frames (t, t) -> (p*t, q*t)


def _classify_gate2(op: Gate2) -> _Gate2Info:
    _, carry, enc_map = _frame_maps(as_unitary(op.effective_matrix, 4))
    return _Gate2Info(carry, enc_map)


def _classify_gate2s(ir: CircuitIR, mode: PolicyMode) -> dict[int, _Gate2Info]:
    """Classify every 2q op, each distinct (qubits, matrix) only once."""
    info: dict[int, _Gate2Info] = {}
    seen: dict[tuple[tuple[int, int], bytes], _Gate2Info] = {}
    for i, op in enumerate(ir.ops):
        if not isinstance(op, Gate2):
            continue
        key = (op.qubits, op.matrix.tobytes())
        gate_info = seen.get(key)
        if gate_info is None:
            gate_info = seen[key] = _classify_gate2(op)
        if mode is PolicyMode.VZ_CARRY and gate_info.carry is None:
            raise IllegalPolicyError(
                f"policy {mode.value!r} needs phase carriers, but {op.name} (op {i}) is not one",
                i,
                op.name,
            )
        if mode is PolicyMode.ENC_MIXED and gate_info.enc_map is None:
            raise IllegalPolicyError(
                f"policy {mode.value!r} needs excitation-number-conserving gates, "
                f"but {op.name} (op {i}) is not one",
                i,
                op.name,
            )
        info[i] = gate_info
    return info


def _frame_diagonal(f0: float, f1: float) -> np.ndarray:
    """Diagonal of ``kron(z_rot(f0), z_rot(f1))``."""
    e0, e1 = cmath.exp(-0.5j * f0), cmath.exp(-0.5j * f1)
    return np.array([e0 * e1, e0 / e1, e1 / e0, 1.0 / (e0 * e1)])


class _SegmentProduct:
    """Two-qubit product built as per-qubit 2x2 products between 2q gates.

    Each qubit's running product is four Python complex numbers (row-major),
    left-multiplied in closed form (``_mul_entries``) by the entries of a
    pulse (``_conjugated_x_entries``) or a 1q gate (``_params_entries``).
    1q factors on different qubits commute, so each segment between 2q
    gates becomes one 4x4, the outer product of the two per-qubit products.
    """

    def __init__(self):
        self.u = np.eye(4, dtype=complex)
        self.local = [_IDENTITY_ENTRIES, _IDENTITY_ENTRIES]

    def apply_1q(self, qubit: int, m: tuple[complex, ...]):
        """Left-multiply the qubit's product by the 2x2 with row-major entries ``m``."""
        self.local[qubit] = _mul_entries(m, self.local[qubit])

    def apply_2q(self, eff: np.ndarray):
        self.u = eff @ self.total()
        self.local = [_IDENTITY_ENTRIES, _IDENTITY_ENTRIES]

    def total(self) -> np.ndarray:
        a = np.array(self.local[0]).reshape(2, 1, 2, 1)
        b = np.array(self.local[1]).reshape(1, 2, 1, 2)
        return (a * b).reshape(4, 4) @ self.u


def ideal_unitary(ir: CircuitIR) -> np.ndarray:
    """Unitary of the circuit's gates (measurements contribute nothing)."""
    product = _SegmentProduct()
    for op in ir.ops:
        if isinstance(op, Gate1):
            product.apply_1q(op.qubit, _params_entries(op.params))
        elif isinstance(op, Gate2):
            product.apply_2q(op.effective_matrix)
    return product.total()


class _FrameChecker:
    """Debug-mode tracker for the per-qubit frame invariant."""

    def __init__(self, tol: float = 1e-9):
        self.ideal = _SegmentProduct()
        self.physical = _SegmentProduct()
        self.dropped = [0.0, 0.0]
        self.tol = tol

    def on_pulse(self, qubit: int, pulse: Pulse):
        self.physical.apply_1q(qubit, _conjugated_x_entries(pulse.sigma, pulse.phase))

    def on_commit(self, qubit: int, m: tuple[complex, ...]):
        self.ideal.apply_1q(qubit, m)

    def on_gate2(self, eff: np.ndarray):
        self.ideal.apply_2q(eff)
        self.physical.apply_2q(eff)

    def on_drop(self, qubit: int, angle: float):
        self.dropped[qubit] += angle

    def check(self, frames: list[float]):
        diagonal = _frame_diagonal(frames[0] + self.dropped[0], frames[1] + self.dropped[1])
        expected = diagonal[:, None] * self.ideal.total()
        dev = phase_distance(self.physical.total(), expected)
        if dev > self.tol:
            raise RuntimeError(f"frame invariant violated (deviation {dev:.3g})")


def compile_circuit(
    ir: CircuitIR,
    policy: CompilePolicy | None = None,
    *,
    check_frames: bool = False,
) -> PulseSchedule:
    """Lower a circuit to a pulse schedule under the given policy.

    * ``three-always``: every 1q gate becomes pulses on its own (special
      cases first when enabled, else three pulses); frames stay zero.
    * ``vz-carry``: 1q gates use the virtual-Z scheme against the pending
      frame; frames are carried through two-qubit gates (all of which must
      be phase carriers) and reported at measurements.
    * ``enc-mixed``: 1q gates are buffered until the next two-qubit gate or
      measurement; at an ENC gate the lower-indexed qubit is compiled with
      virtual-Z and the other with the exact scheme so both frames match
      and commute through the gate.
    * ``auto``: per-gate choice (carry through carriers, ENC handling for
      ENC gates, frames forced to zero before anything else).

    With ``check_frames=True`` the frame invariant is re-verified by
    simulation after every op (slow; for tests).
    """
    policy = policy or CompilePolicy()
    mode = policy.mode
    info = _classify_gate2s(ir, mode)

    events: list[Event] = []
    stats = ScheduleStats(per_qubit=[0] * ir.n_qubits)
    frames = [0.0] * ir.n_qubits
    buffers: list[tuple[complex, ...] | None] = [None] * ir.n_qubits
    measured = [False] * ir.n_qubits
    checker = _FrameChecker() if check_frames else None
    lazy = mode in (PolicyMode.ENC_MIXED, PolicyMode.AUTO)

    def emit(qubit: int, compiled: CompiledGate):
        for pulse in compiled.sequence:
            events.append(PulseEvent(qubit, pulse))
            stats.pulses += 1
            stats.per_qubit[qubit] += 1
            if checker:
                checker.on_pulse(qubit, pulse)
        stats.compiled_1q += 1
        stats.elided += compiled.elided
        stats.schemes[compiled.scheme.value] += 1

    def compile_exact(qubit: int, target: tuple[complex, ...]):
        """Emit pulses realizing ``target`` exactly (no new frame)."""
        compiled = _special_case(target) if policy.special_cases else None
        if compiled is None:
            compiled = three_pulse(_params_from_unitary(target)[0])
        emit(qubit, compiled)

    def compile_vz(qubit: int, target: tuple[complex, ...]) -> float:
        compiled = virtual_z(_params_from_unitary(target)[0])
        emit(qubit, compiled)
        return compiled.residual_z

    def take_buffer(qubit: int) -> tuple[complex, ...] | None:
        buffered = buffers[qubit]
        buffers[qubit] = None
        return buffered

    def commit(qubit: int, m: tuple[complex, ...]):
        if checker:
            checker.on_commit(qubit, m)

    def flush_vz(qubit: int):
        """Compile the buffered gate with virtual-Z, folding in the frame."""
        buffered = take_buffer(qubit)
        if buffered is None:
            return
        frames[qubit] = compile_vz(qubit, _mul_entries(buffered, _z_rot_entries(-frames[qubit])))
        commit(qubit, buffered)

    def flush_zero(qubit: int):
        """Force the qubit's frame to zero, emitting exact pulses if needed."""
        buffered = take_buffer(qubit)
        if buffered is None and frames[qubit] == 0.0:
            return
        gate = buffered if buffered is not None else _IDENTITY_ENTRIES
        compile_exact(qubit, _mul_entries(gate, _z_rot_entries(-frames[qubit])))
        if buffered is not None:
            commit(qubit, buffered)
        frames[qubit] = 0.0

    def flush_enc(op: Gate2):
        """Make both frames equal before an ENC gate so they commute through."""
        qa, qb = min(op.qubits), max(op.qubits)
        buffered_a = take_buffer(qa)
        if buffered_a is not None:
            frames[qa] = compile_vz(qa, _mul_entries(buffered_a, _z_rot_entries(-frames[qa])))
            commit(qa, buffered_a)
        # else: no pulses needed; the existing frame plays the theta_A role.
        theta_a = frames[qa]
        buffered_b = take_buffer(qb)
        gate_b = buffered_b if buffered_b is not None else _IDENTITY_ENTRIES
        target_b = _mul_entries(_z_rot_entries(theta_a), gate_b)
        compile_exact(qb, _mul_entries(target_b, _z_rot_entries(-frames[qb])))
        if buffered_b is not None:
            commit(qb, buffered_b)
        frames[qb] = theta_a

    def do_measure(qubit: int):
        if lazy and buffers[qubit] is not None:
            flush_vz(qubit)
        frames[qubit] = normalize_angle(frames[qubit])
        events.append(FrameEvent(qubit, frames[qubit]))
        stats.frames += 1
        if checker:
            checker.on_drop(qubit, frames[qubit])
        frames[qubit] = 0.0
        measured[qubit] = True

    for i, op in enumerate(ir.ops):
        if isinstance(op, Gate1):
            stats.gates_1q += 1
            m = _params_entries(op.params)
            if mode is PolicyMode.THREE_ALWAYS:
                compile_exact(op.qubit, m)
                commit(op.qubit, m)
            elif mode is PolicyMode.VZ_CARRY:
                target = _mul_entries(m, _z_rot_entries(-frames[op.qubit]))
                frames[op.qubit] = compile_vz(op.qubit, target)
                commit(op.qubit, m)
            else:
                prev = buffers[op.qubit]
                buffers[op.qubit] = _mul_entries(m, prev) if prev is not None else m
        elif isinstance(op, Gate2):
            stats.gates_2q += 1
            gate_info = info[i]
            if mode is PolicyMode.THREE_ALWAYS:
                pass  # frames are identically zero
            elif mode is PolicyMode.VZ_CARRY:
                frames[0], frames[1] = gate_info.carry(frames[0], frames[1])
            elif mode is PolicyMode.ENC_MIXED:
                flush_enc(op)
                p, q = gate_info.enc_map
                frames[0], frames[1] = p * frames[0], q * frames[1]
            else:  # AUTO
                if gate_info.carry is not None:
                    for q in sorted(op.qubits):
                        flush_vz(q)
                    frames[0], frames[1] = gate_info.carry(frames[0], frames[1])
                elif gate_info.enc_map is not None:
                    flush_enc(op)
                    p, q = gate_info.enc_map
                    frames[0], frames[1] = p * frames[0], q * frames[1]
                else:
                    for q in sorted(op.qubits):
                        flush_zero(q)
            frames[0] = normalize_angle(frames[0])
            frames[1] = normalize_angle(frames[1])
            events.append(Gate2Event(op.qubits, op.name))
            if checker:
                checker.on_gate2(op.effective_matrix)
        else:
            do_measure(op.qubit)
        if checker:
            checker.check(frames)

    for q in range(ir.n_qubits):
        if not measured[q]:
            do_measure(q)
    return PulseSchedule(ir.n_qubits, tuple(events), stats)


def simulate_schedule(schedule: PulseSchedule | list[Event], ir: CircuitIR) -> float:
    """Re-simulate a schedule against its circuit; returns the max deviation.

    Pulses become conjugated X rotations, two-qubit events look up their
    matrix in the circuit (by position, after checking name and qubits),
    and FRAME events are pending virtual Z rotations that are corrected for
    before comparing with the ideal unitary up to global phase.  Each qubit
    needs exactly one FRAME, as :func:`compile_circuit` emits, and it ends
    the qubit: a second or missing FRAME, a later PULSE on that qubit, or
    any later GATE2 raises :class:`ScheduleMismatchError`.
    """
    events = schedule.events if isinstance(schedule, PulseSchedule) else tuple(schedule)
    gate2_ops = ir.gate2_ops()
    product = _SegmentProduct()
    corrections = [0.0] * ir.n_qubits
    framed = [False] * ir.n_qubits
    next_gate2 = 0
    for ev in events:
        if isinstance(ev, PulseEvent):
            if framed[ev.qubit]:
                raise ScheduleMismatchError(f"PULSE on q{ev.qubit} after its FRAME")
            product.apply_1q(ev.qubit, _conjugated_x_entries(ev.pulse.sigma, ev.pulse.phase))
        elif isinstance(ev, Gate2Event):
            if any(framed):
                raise ScheduleMismatchError(f"GATE2 event {next_gate2} after a FRAME")
            if next_gate2 >= len(gate2_ops):
                raise ScheduleMismatchError("schedule has more GATE2 events than the circuit")
            op = gate2_ops[next_gate2]
            if tuple(ev.qubits) != op.qubits:
                raise ScheduleMismatchError(
                    f"GATE2 event {next_gate2} acts on {ev.qubits}, circuit says {op.qubits}"
                )
            if ev.name != op.name:
                raise ScheduleMismatchError(
                    f"GATE2 event {next_gate2} is {ev.name}, circuit says {op.name}"
                )
            product.apply_2q(op.effective_matrix)
            next_gate2 += 1
        else:
            if framed[ev.qubit]:
                raise ScheduleMismatchError(f"second FRAME for q{ev.qubit}")
            corrections[ev.qubit] = ev.angle
            framed[ev.qubit] = True
    if next_gate2 != len(gate2_ops):
        raise ScheduleMismatchError("schedule is missing GATE2 events")
    if not all(framed):
        raise ScheduleMismatchError(f"schedule has no FRAME for q{framed.index(False)}")
    corrected = _frame_diagonal(-corrections[0], -corrections[1])[:, None] * product.total()
    return phase_distance(corrected, ideal_unitary(ir))
