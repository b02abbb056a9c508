"""Two-qubit circuit IR, text parser, phase-carrying compilation, schedules.

The compiler maintains one pending "frame" angle per qubit with the
invariant ``physical so far == (z_rot(f0) x z_rot(f1)) @ ideal so far`` up
to a global phase.  Policies differ in how frames are created (virtual-Z
compilation), moved (carried through two-qubit gates), and retired
(measurements, or explicit pulses that zero them).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from math import isfinite

import numpy as np

from .su2 import (
    GateParams,
    _BASIS,
    _check_shape,
    _normalize_angle_array,
    _product_angles,
    _quaternion,
    _special_pairs,
    _three_pulse_pairs,
    _unitarity_defect,
    _virtual_z_pairs,
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


def _in_fixed_basis(matrix: np.ndarray, qubits: tuple[int, int]) -> np.ndarray:
    """A 4x4 named on ``qubits`` in the (qubit 0, qubit 1) basis, and back."""
    if qubits == (0, 1):
        return matrix.view()
    return matrix.take(_SWAPPED_BASIS, 0).take(_SWAPPED_BASIS, 1)


@dataclass(frozen=True, eq=False)
class Gate2:
    """Two-qubit gate; ``matrix`` is in the order the qubits were named."""

    qubits: tuple[int, int]
    name: str
    matrix: np.ndarray

    @functools.cached_property
    def effective_matrix(self) -> np.ndarray:
        """The matrix in the fixed (qubit 0, qubit 1) basis; read-only, built once.

        A matrix that is not 4x4 raises the ``ValueError`` of ``as_unitary``.
        """
        _check_shape(self.matrix.shape, 4)
        m = _in_fixed_basis(self.matrix, self.qubits)
        m.setflags(write=False)
        return m


@dataclass(frozen=True)
class Measure:
    qubit: int


Op = Gate1 | Gate2 | Measure

# Row kinds.  CircuitIR.kind holds GATE1, GATE2 or MEASURE and
# PulseSchedule.kind PULSE, GATE2 or FRAME; a 2q gate is GATE2 in both.
GATE1 = PULSE = 0
GATE2 = 1
MEASURE = FRAME = 2


# A table row of distinct 2q gates: label, matrix as named, qubits.
_Gate2Row = tuple[str, np.ndarray, tuple[int, int]]


def _check_ops(n_qubits: int, kinds: list[int], q0s: list[int], q1s: list[int],
               gates: list[_Gate2Row]) -> None:
    """Raise :class:`CircuitError` at the first op that names a qubit out of
    range or already measured, checking its qubits in order, or that is a
    2q gate on one qubit twice.

    A circuit passes at once if its qubits, and the 2q table's, are in
    range, the table's pairs are distinct and its measurements come last,
    each of another qubit; any other is checked op by op.
    """
    if n_qubits != 2:
        raise CircuitError(f"this compiler handles exactly 2 qubits, got {n_qubits}")
    first = kinds.index(MEASURE) if MEASURE in kinds else len(kinds)
    tail = q0s[first:]
    if (
        min(q0s, default=0) >= 0 and max(q0s, default=0) < n_qubits
        and all(0 <= qb < n_qubits and qa != qb for _, _, (qa, qb) in gates)
        and kinds.count(MEASURE) == len(tail) == len(set(tail))
    ):
        return
    measured: set[int] = set()
    for i, (k, q0, q1) in enumerate(zip(kinds, q0s, q1s)):
        for q in (q0, q1) if k == GATE2 else (q0,):
            if not 0 <= q < n_qubits:
                raise CircuitError(f"op {i}: qubit index {q} out of range", i)
            if q in measured:
                raise CircuitError(f"op {i}: qubit {q} already measured", i)
        if k == GATE2 and q0 == q1:
            raise CircuitError(f"op {i}: two-qubit gate needs distinct qubits", i)
        if k == MEASURE:
            measured.add(q0)


def _is_word(name) -> bool:
    """True for a name that comes back as one token from a schedule's GATE2 line."""
    return isinstance(name, str) and name.split() == [name] and "#" not in name


_QUBIT = (int, np.integer)  # the types a qubit may have, in an op or an event


def _malformed(op) -> str | None:
    """Why ``op`` is not a well-formed :class:`Gate1`, :class:`Gate2` or
    :class:`Measure`, or None."""
    if isinstance(op, Gate1):
        if not isinstance(op.params, GateParams):
            return f"Gate1 params must be GateParams, got {op.params!r}"
        qubits = (op.qubit,)
    elif isinstance(op, Gate2):
        if not (isinstance(op.qubits, tuple) and len(op.qubits) == 2):
            return f"Gate2 qubits must be a tuple of two qubits, got {op.qubits!r}"
        if not isinstance(op.matrix, np.ndarray):
            return f"Gate2 matrix must be a numpy array, got {type(op.matrix).__name__}"
        if not _is_word(op.name):
            return f"Gate2 name must be one word without '#', got {op.name!r}"
        qubits = op.qubits
    elif isinstance(op, Measure):
        qubits = (op.qubit,)
    else:
        return f"expected a Gate1, Gate2 or Measure, got {type(op).__name__}"
    if not all(isinstance(q, _QUBIT) for q in qubits):
        return f"qubits must be integers, got {qubits!r}"
    return None


class CircuitIR:
    """A two-qubit circuit as columns, one row per op in order.

    ``kind[i]`` is GATE1, GATE2 or MEASURE.  ``qubits[i]`` holds the op's
    qubit, and for a GATE2 its second qubit in the order named (else 0).
    ``angles[i]`` is a 1q gate's ``(alpha, beta, gamma)`` as
    :class:`GateParams` keeps them (else zeros), which compile and verify
    read.  ``gate2_row[i]`` is a GATE2's row of the table of distinct 2q
    gates (else -1): ``gate2_matrices[row]`` is the gate's read-only matrix
    in the fixed (qubit 0, qubit 1) basis and ``gate2_labels[row]`` its
    name.  ``lines[i]`` is the op's source line (0 if not parsed).

    ``CircuitIR(2, ops)`` builds the columns from :class:`Gate1`,
    :class:`Gate2` and :class:`Measure` objects, with one table row per
    distinct gate (qubits, name and matrix), and :attr:`ops` shows the rows
    as such objects, built on first read.  It, :func:`parse_circuit` and
    :func:`merge_adjacent_1q` collect the same rows for one builder,
    :meth:`_fill`.  Ops are checked in order: one that is not such an
    object, or has a field of the wrong type, raises :class:`CircuitError`
    with its ``op_index``, and each distinct gate is checked as named by
    :func:`as_unitary` (4x4, within ``UNITARY_TOL``), whose ``ValueError``
    the first failing op raises.
    """

    n_qubits: int
    kind: np.ndarray
    qubits: np.ndarray
    angles: np.ndarray
    gate2_row: np.ndarray
    gate2_matrices: np.ndarray
    gate2_labels: tuple[str, ...]
    lines: list[int]

    def __init__(self, n_qubits: int, ops: Sequence[Op]):
        ops = tuple(ops)
        rows: list = []  # as parse_circuit collects them, with line 0
        seen: dict[tuple, int] = {}  # distinct gate -> table row
        gates: list[_Gate2Row] = []
        for i, op in enumerate(ops):
            error = _malformed(op)
            if error is not None:
                raise CircuitError(f"op {i}: {error}", i)
            if isinstance(op, Gate1):
                p = op.params
                rows += GATE1, op.qubit, 0, p.alpha, p.beta, p.gamma, -1, 0
            elif isinstance(op, Gate2):
                m = op.matrix
                key = (op.qubits, op.name, m.shape, m.dtype, m.tobytes())
                if key not in seen:
                    as_unitary(m, 4)
                    seen[key] = len(gates)
                    gates.append((op.name, m, op.qubits))
                rows += GATE2, op.qubits[0], op.qubits[1], 0.0, 0.0, 0.0, seen[key], 0
            else:
                rows += MEASURE, op.qubit, 0, 0.0, 0.0, 0.0, -1, 0
        self._fill(n_qubits, rows, gates)
        self.__dict__["ops"] = ops

    def _fill(self, n_qubits: int, rows: list, gates: list[_Gate2Row]) -> None:
        """Check the ops (:func:`_check_ops`) and store them as columns.

        ``rows`` holds eight numbers an op: kind, qubit, second qubit, raw
        ``alpha``, ``beta`` and ``gamma`` (normalized and clipped here as
        :class:`GateParams` does it), table row and source line; ``gates``
        holds the table's rows with each matrix as named.
        """
        kinds, q0s, q1s = rows[0::8], rows[1::8], rows[2::8]
        _check_ops(n_qubits, kinds, q0s, q1s, gates)
        alpha_beta = _normalize_angle_array(np.array((rows[3::8], rows[4::8]), dtype=float))
        gamma = rows[5::8]
        if min(gamma, default=0.0) < 0.0 or max(gamma, default=0.0) > PI / 2:
            gamma = [min(max(g, 0.0), PI / 2) for g in gamma]
        self.n_qubits = n_qubits
        self.kind = np.array(kinds, dtype=np.int8)
        self.qubits = np.array((q0s, q1s), dtype=np.int8).T
        self.angles = np.concatenate((alpha_beta, [gamma])).T
        self.gate2_row = np.array(rows[6::8], dtype=np.intp)
        self.gate2_matrices = np.array(
            [_in_fixed_basis(m, qubits) for _, m, qubits in gates], dtype=complex
        ).reshape(-1, 4, 4)
        self.gate2_matrices.setflags(write=False)
        self.gate2_labels = tuple(label for label, _, _ in gates)
        self.lines = rows[7::8]

    @functools.cached_property
    def ops(self) -> tuple[Op, ...]:
        """The rows as :class:`Gate1`, :class:`Gate2` and :class:`Measure` objects."""
        gates: dict[int, Gate2] = {}
        ops: list[Op] = []
        for k, (q, q2), (a, b, g), row in zip(
            self.kind.tolist(), self.qubits.tolist(), self.angles.tolist(), self.gate2_row.tolist()
        ):
            if k == GATE1:
                ops.append(Gate1(q, GateParams(a, b, g)))
            elif k == GATE2:
                if row not in gates:
                    matrix = _in_fixed_basis(self.gate2_matrices[row], (q, q2)).copy()
                    gates[row] = Gate2((q, q2), self.gate2_labels[row], matrix)
                ops.append(gates[row])
            else:
                ops.append(Measure(q))
        return tuple(ops)

    def gate2_ops(self) -> list[Gate2]:
        return [op for op in self.ops if isinstance(op, Gate2)]


_QUBIT_RE = re.compile(r"^q(\d+)$")
_QUBITS = {"q0": 0, "q1": 1}
_PARAM_GATE_RE = re.compile(r"^([A-Z]+)\((.*)\)$")
_FIXED_GATE2 = ("CZ", "CNOT", "SWAP", "ISWAP", "SQISW")

_X_GAMMA = {"X90": PI / 4, "X180": PI / 2}  # X90 and X180 are U(0, -pi/2, gamma)


def _parse_float(tok: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise CircuitError(f"expected a number, got {tok!r}") from None
    if not math.isfinite(value):
        raise CircuitError(f"number must be finite, got {tok!r}")
    return value


def _parse_floats(tokens: list[str]) -> list[float]:
    """The tokens as finite numbers: ``float`` of each and one finiteness test
    of their sum, else :func:`_parse_float` of each in order, which words the
    first bad token's error (or passes finite numbers whose sum overflows)."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        pass
    else:
        if isfinite(sum(values)):
            return values
    return [_parse_float(t) for t in tokens]


def _parse_qubit(tok: str) -> int:
    q = _QUBITS.get(tok)
    if q is not None:
        return q
    m = _QUBIT_RE.match(tok)
    if not m:
        raise CircuitError(f"expected a qubit like 'q0', got {tok!r}")
    q = int(m.group(1))
    if q >= 2:
        raise CircuitError(f"qubit {tok} out of range for 2 qubits")
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
        if not all(tok.count(",") == 1 for tok in entries):
            for tok in entries:  # the first bad entry words the error
                if tok.count(",") != 1:
                    raise CircuitError(f"expected 're,im', got {tok!r}")
                _parse_floats(tok.split(","))
        values = _parse_floats(",".join(entries).split(","))
        return "CUSTOM", np.array(values).view(complex).reshape(4, 4)
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


def _parse_op(tokens: list[str]) -> tuple[int, int, float, float, float]:
    """Kind, qubit and raw angles of a 1q gate or ``M`` line, checked in token
    order; the first failing check words the error."""
    head = tokens[0]
    if head == "U":
        if len(tokens) != 5:
            raise CircuitError("usage: U q<i> <alpha> <beta> <gamma>")
        q = _parse_qubit(tokens[1])
        a, b, g = _parse_floats(tokens[2:])
        if not -1e-9 <= g <= PI / 2 + 1e-9:
            GateParams(a, b, g)  # words the range error of gamma
        return GATE1, q, a, b, g
    if head == "RZ":
        if len(tokens) != 3:
            raise CircuitError("usage: RZ q<i> <theta>")
        q = _parse_qubit(tokens[1])
        return GATE1, q, -0.5 * _parse_float(tokens[2]), 0.0, 0.0
    if head in _X_GAMMA:
        if len(tokens) != 2:
            raise CircuitError(f"usage: {head} q<i>")
        return GATE1, _parse_qubit(tokens[1]), 0.0, -PI / 2, _X_GAMMA[head]
    if head == "M":
        if len(tokens) != 2:
            raise CircuitError("usage: M q<i>")
        return MEASURE, _parse_qubit(tokens[1]), 0.0, 0.0, 0.0
    if head == "qubits":
        raise CircuitError("duplicate 'qubits' header")
    raise CircuitError(f"unknown op {head!r}")


def _parse_gate2(tokens: list[str]) -> _Gate2Row:
    """Label, matrix as named and qubits of a ``G2`` line, checked in the order
    of :func:`parse_gate_spec`, then the qubits.  A CUSTOM gate's unitarity
    is checked here only before a qubit that needs :func:`_parse_qubit`'s
    regex; :func:`parse_circuit` checks the rest after its loop."""
    if len(tokens) < 4:
        raise CircuitError("usage: G2 <gate> q<i> q<j> [16 're,im' pairs for CUSTOM]")
    label, matrix = parse_gate_spec(tokens[1], tokens[4:])
    qa, qb = _QUBITS.get(tokens[2]), _QUBITS.get(tokens[3])
    if qa is None or qb is None:
        if label == "CUSTOM":
            as_unitary(matrix, 4, tol=1e-8)
        qa, qb = _parse_qubit(tokens[2]), _parse_qubit(tokens[3])
    return label, matrix, (qa, qb)


def _parse_header(tokens: list[str]) -> None:
    if tokens[0] != "qubits":
        raise CircuitError("first statement must be 'qubits 2'")
    if len(tokens) != 2:
        raise CircuitError("usage: qubits 2")
    try:
        n_qubits = int(tokens[1])
    except ValueError:
        raise CircuitError(f"expected an integer, got {tokens[1]!r}") from None
    if n_qubits != 2:
        raise CircuitError("this compiler handles exactly 2 qubits")


def parse_circuit(text: str) -> CircuitIR:
    """Parse the line-based circuit format (see the package README).

    One op per line; ``#`` starts a comment; the first op line must be
    preceded by a ``qubits 2`` header.  All angles are radians.  Every
    error, including an illegal circuit found by :func:`_check_ops`, is a
    :class:`CircuitSyntaxError` at the offending line.

    Every line is read one way: the comment split off, the rest split into
    tokens and checked in token order by :func:`_parse_op` or, for a ``G2``
    line, :func:`_parse_gate2`.  A ``G2`` line's text before its comment is
    read once, on first sight, and its gate keyed to a table row by its
    qubits, label and matrix bytes, as :class:`CircuitIR` keys it, so any
    two spellings of one gate share a row.  The CUSTOM gates of the table
    are checked for unitarity within 1e-8 after the loop, in one stacked
    defect call; :func:`as_unitary` words the first bad one's error at its
    first line, unless an earlier line failed.
    """
    rows: list = []  # kind, qubit, second qubit, alpha, beta, gamma, table row, line: per op
    table: dict[str, int] = {}  # G2 line without its comment -> table row
    distinct: dict[tuple, int] = {}  # (qubits, label, matrix bytes) -> table row
    gates: list[_Gate2Row] = []
    error: CircuitSyntaxError | None = None
    lines = enumerate(text.splitlines(), start=1)
    for line_no, raw in lines:
        tokens = raw.partition("#")[0].split()
        if tokens:
            try:
                _parse_header(tokens)
            except ValueError as exc:
                raise CircuitSyntaxError(str(exc), line_no) from None
            break
    else:
        raise CircuitSyntaxError("missing 'qubits 2' header", 1)
    for line_no, raw in lines:
        line = raw.partition("#")[0]
        tokens = line.split()
        if not tokens:
            continue
        try:
            if tokens[0] == "G2":
                row = table.get(line)
                if row is None:
                    label, matrix, qubits = gate = _parse_gate2(tokens)
                    row = table[line] = distinct.setdefault(
                        (qubits, label, matrix.tobytes()), len(gates)
                    )
                    if row == len(gates):
                        gates.append(gate)
                qa, qb = gates[row][2]
                rows += GATE2, qa, qb, 0.0, 0.0, 0.0, row, line_no
            else:
                kind, q, a, b, g = _parse_op(tokens)
                rows += kind, q, 0, a, b, g, -1, line_no
        except ValueError as exc:
            error = CircuitSyntaxError(str(exc), line_no)
            break

    custom = [row for row, (label, _, _) in enumerate(gates) if label == "CUSTOM"]
    if custom:
        defects = _unitarity_defect(np.array([gates[row][1] for row in custom]))
        for row, defect in zip(custom, defects.tolist()):
            if defect <= 1e-8:
                continue
            try:
                as_unitary(gates[row][1], 4, tol=1e-8)
            except ValueError as exc:
                raise CircuitSyntaxError(str(exc), rows[8 * rows[6::8].index(row) + 7]) from None
    if error is not None:
        raise error

    ir = CircuitIR.__new__(CircuitIR)
    try:
        ir._fill(2, rows, gates)
    except CircuitError as exc:
        raise CircuitSyntaxError(str(exc), rows[8 * exc.op_index + 7]) from None
    return ir


def merge_adjacent_1q(ir: CircuitIR) -> CircuitIR:
    """Fuse runs of single-qubit gates on the same qubit into one gate.

    Gates separated only by ops on the *other* qubit commute with them and
    are fused too; a two-qubit gate or measurement on the qubit ends a run.
    A run is folded gate by gate with :func:`_product_angles`, as
    :func:`compile_circuit` folds a buffer, into the row and source line of
    its first gate.  The result keeps ``ir``'s table of 2q gates.
    """
    rows: list = []  # as CircuitIR._fill takes them
    runs: list[int | None] = [None] * ir.n_qubits  # where each qubit's run keeps its angles
    pairs: dict[int, tuple[int, int]] = {}  # the qubits of each table row
    for k, (q, q2), gate, row, line in zip(
        ir.kind.tolist(), ir.qubits.tolist(), ir.angles.tolist(), ir.gate2_row.tolist(), ir.lines
    ):
        if k == GATE1:
            run = runs[q]
            if run is not None:
                rows[run:run + 3] = _product_angles(gate, rows[run:run + 3])
                continue
            runs[q] = len(rows) + 3
        elif k == GATE2:
            runs[q] = runs[q2] = None
            pairs.setdefault(row, (q, q2))
        else:
            runs[q] = None
        rows += k, q, q2, *gate, row, line
    gates = [(label, _in_fixed_basis(m, pairs[row]), pairs[row])
             for row, (label, m) in enumerate(zip(ir.gate2_labels, ir.gate2_matrices))]
    merged = CircuitIR.__new__(CircuitIR)
    merged._fill(ir.n_qubits, rows, gates)
    return merged


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

_SCHEME_KEYS = ("vz", "three", "special")  # the schemes compile_circuit emits


@dataclass(frozen=True)
class ScheduleStats:
    """Counts of a compiled schedule, read off its rows once it is built."""

    pulses: int = 0
    per_qubit: tuple[int, ...] = (0, 0)
    gates_1q: int = 0
    gates_2q: int = 0
    compiled_1q: int = 0
    frames: int = 0
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
        parts.append(f"frames={self.frames}")
        return "# stats: " + " ".join(parts)


# The rows of a schedule as they are written, five numbers an event (kind,
# qubit, second qubit, value, second value) back to back; see PulseSchedule.
_Rows = list[float]


@dataclass(eq=False)
class PulseSchedule:
    """A schedule as columns, one row per event in time order.

    ``kind[i]`` is PULSE, GATE2 or FRAME.  ``qubits[i]`` holds the event's
    qubit, and for a GATE2 its second qubit (else 0).  ``values[i]`` is
    ``(sigma, phase)`` for a PULSE and ``(z, 0)`` for a FRAME (else zeros).
    ``gate2_names`` names the GATE2 events in order.  ``stats`` is None
    unless :func:`compile_circuit` built the schedule.  :attr:`events` shows
    the rows as event objects.  PULSE angles are normalized as
    :class:`Pulse` normalizes them; FRAME angles are kept as given.
    """

    n_qubits: int
    kind: np.ndarray
    qubits: np.ndarray
    values: np.ndarray
    gate2_names: tuple[str, ...]
    stats: ScheduleStats | None = None

    @classmethod
    def _from_rows(cls, n_qubits: int, rows: _Rows, names: list[str]) -> "PulseSchedule":
        kind = np.array(rows[0::5], dtype=np.int8)
        # The column pairs are built as (2, n) arrays, so the transposes that
        # _columns lists are contiguous.  Every schedule's PULSE angles are
        # normalized here; normalizing is idempotent, so angles that already
        # are keep every bit.
        values = np.array((rows[3::5], rows[4::5]), dtype=float)
        angles = _normalize_angle_array(values)
        np.copyto(angles[0], PI, where=angles[0] == -PI)  # sigma in (-pi, pi]
        np.copyto(values, angles, where=kind == PULSE)
        qubits = np.array((rows[1::5], rows[2::5]), dtype=np.int8).T
        return cls(n_qubits, kind, qubits, values.T, tuple(names))

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "PulseSchedule":
        """The schedule of hand-built events.  An event that its text cannot
        carry raises :class:`CircuitError` with its index: an object other than
        a PulseEvent of a ``Pulse``, a Gate2Event of a tuple or a FrameEvent of
        a real angle, a qubit that is not an integer 0 or 1, a GATE2 without
        two qubits or whose name is not one word without ``#``, or a FRAME
        angle that is not finite."""
        from .schemes import Pulse  # not at the top: verify of schedule text loads no schemes

        rows: _Rows = []
        names: list[str] = []
        for i, ev in enumerate(events):
            if isinstance(ev, PulseEvent) and isinstance(ev.pulse, Pulse):
                row = PULSE, ev.qubit, 0, ev.pulse.sigma, ev.pulse.phase
            elif isinstance(ev, Gate2Event) and isinstance(ev.qubits, tuple):
                row = GATE2, *ev.qubits, 0.0, 0.0
                names.append(ev.name)
            elif isinstance(ev, FrameEvent) and isinstance(ev.angle, numbers.Real):
                row = FRAME, ev.qubit, 0, ev.angle, 0.0
            else:
                row = None
            if row is None:
                problem = ("expected a PulseEvent of a Pulse, a Gate2Event of a tuple"
                           " or a FrameEvent of a real angle")
            elif not all(isinstance(q, _QUBIT) for q in row[1:-2]):
                problem = "qubits must be integers"
            elif len(row) != 5 or not {row[1], row[2]} <= {0, 1}:
                problem = "qubits must be 0 or 1"
            elif row[0] == GATE2 and not _is_word(ev.name):
                problem = "GATE2 name must be one word without '#'"
            elif not math.isfinite(row[3]):
                problem = "FRAME angle must be finite"
            else:
                rows += row
                continue
            raise CircuitError(f"event {i}: {problem}, got {ev!r}", i)
        return cls._from_rows(2, rows, names)

    def _columns(self, values: np.ndarray) -> zip:
        """Rows of ``(kind, qubit, second qubit, value, second value)`` as Python numbers."""
        return zip(self.kind.tolist(), *self.qubits.T.tolist(), *values.T.tolist())

    @property
    def events(self) -> tuple[Event, ...]:
        from .schemes import Pulse

        names = iter(self.gate2_names)
        return tuple(
            PulseEvent(q, Pulse(a, b)) if k == PULSE
            else Gate2Event((q, q2), next(names)) if k == GATE2
            else FrameEvent(q, a)
            for k, q, q2, a, b in self._columns(self.values)
        )

    def __len__(self) -> int:
        return len(self.kind)

    def to_text(self) -> str:
        names = iter(self.gate2_names)
        # + 0.0 turns -0.0 into 0.0, so angles print as _format_angle prints them
        lines = [
            "PULSE q%d sigma=%.12g phase=%.12g" % (q, a, b) if k == PULSE
            else f"GATE2 {next(names)} q{q} q{q2}" if k == GATE2
            else "FRAME q%d z=%.12g" % (q, a)
            for k, q, q2, a, b in self._columns(self.values + 0.0)
        ]
        if self.stats is not None:
            lines.append(self.stats.stats_line())
        return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> PulseSchedule:
    """Parse schedule text into a :class:`PulseSchedule` with ``stats=None``.

    Comment and blank lines are skipped.  Every line is read one way, as
    :func:`parse_circuit` reads a circuit: the comment split off, the rest
    split into tokens and checked in token order (kind and token count,
    qubits, the ``sigma=``/``phase=``/``z=`` keys, then the numbers); the
    first failing check words the error.  FRAME angles are kept as written.
    """
    rows: _Rows = []
    names: list[str] = []
    qubit = _QUBITS.get
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        kind, n = tokens[0], len(tokens)
        try:
            if kind == "PULSE" and n == 4:
                _, token, sigma, phase = tokens
                q = qubit(token)
                if q is None:
                    q = _parse_qubit(token)
                if sigma[:6] != "sigma=" or phase[:6] != "phase=":
                    raise CircuitError("malformed PULSE line")
                sigma, phase = sigma[6:], phase[6:]
                try:
                    a, b = float(sigma), float(phase)
                except ValueError:
                    a = b = math.nan
                if not isfinite(a + b):  # _parse_floats' rule: the first bad number words the error
                    a, b = _parse_float(sigma), _parse_float(phase)
                rows += PULSE, q, 0, a, b
            elif kind == "GATE2" and n == 4:
                _, name, token, token2 = tokens
                qa, qb = qubit(token), qubit(token2)
                if qa is None or qb is None:
                    qa, qb = _parse_qubit(token), _parse_qubit(token2)
                rows += GATE2, qa, qb, 0.0, 0.0
                names.append(name)
            elif kind == "FRAME" and n == 3:
                _, token, z = tokens
                q = qubit(token)
                if q is None:
                    q = _parse_qubit(token)
                if z[:2] != "z=":
                    raise CircuitError("malformed FRAME line")
                rows += FRAME, q, 0, _parse_float(z[2:]), 0.0
            else:
                raise CircuitError(f"unrecognized schedule line {raw!r}")
        except ValueError as exc:
            raise CircuitSyntaxError(str(exc), line_no) from None
    return PulseSchedule._from_rows(2, rows, names)


# Each policy's row (see compile_circuit): its 2q rules in order, a gate taking
# the first that applies to it; how a 1q gate is flushed at once (True with
# virtual-Z, False exactly, None not: it waits for a 2q gate or measurement);
# and whether an ENC gate takes its cheaper end, else q0's virtual-Z.
_POLICIES = {
    PolicyMode.THREE_ALWAYS: (("zero",), False, False),
    PolicyMode.VZ_CARRY: (("carry",), True, False),
    PolicyMode.ENC_MIXED: (("enc",), None, False),
    PolicyMode.AUTO: (("carry", "enc", "partial", "zero"), None, True),
}
_RULE_NEEDS = {"carry": "phase carriers", "enc": "excitation-number-conserving gates"}

# A rule comes with the integer matrix that maps the frames (f0, f1) across the gate.
_FrameMatrix = tuple[tuple[int, int], tuple[int, int]]
_ZERO_RULE = ("zero", ((0, 0), (0, 0)))
# The partial rule of each partial carry (q, (a, b)) that _frame_maps reports:
# f_q goes to (a*f_q, b*f_q), and the other qubit's frame is 0.
_PARTIAL_RULES = {
    (q, (a, b)): (f"partial q{q}", ((a, 0), (b, 0)) if q == 0 else ((0, a), (0, b)))
    for q in (0, 1) for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))
}


def _gate2_rules(ir: CircuitIR, mode: PolicyMode) -> dict[int, tuple[str, _FrameMatrix]]:
    """The rule and frame matrix of every 2q op, keyed by op index.

    The circuit's table of distinct 2q gates, valid since the circuit was
    built, is classified in one batched call, unless the policy's one rule
    is ``zero``, which applies to every gate.  The earliest op to which no
    rule of the policy applies raises :class:`IllegalPolicyError`.
    """
    ops = np.flatnonzero(ir.kind == GATE2)
    table = _POLICIES[mode][0]
    if table == ("zero",):  # a rule that applies to every gate: nothing to classify
        return dict.fromkeys(ops.tolist(), _ZERO_RULE)
    from .carrier import _frame_maps  # only a policy that classifies loads carrier

    maps = _frame_maps(ir.gate2_matrices)
    op_rows = ir.gate2_row[ops]
    rules = []
    applicable = {"zero": _ZERO_RULE}  # each rule of a row, or None where it does not apply
    for row, (_, carry, enc_map, partial) in enumerate(maps):
        applicable["carry"] = carry and ("carry", carry.matrix)
        applicable["enc"] = enc_map and ("enc", ((enc_map[0], 0), (0, enc_map[1])))
        applicable["partial"] = partial and _PARTIAL_RULES[partial]
        rule = next(filter(None, map(applicable.get, table)), None)
        if rule is None:
            i = int(ops[op_rows == row][0])
            needs = " or ".join(_RULE_NEEDS[r] for r in table)
            name = ir.gate2_labels[row]
            raise IllegalPolicyError(
                f"policy {mode.value!r} needs {needs}, but {name} (op {i}) is not one", i, name
            )
        rules.append(rule)
    return {i: rules[row] for i, row in zip(ops.tolist(), op_rows.tolist())}


def _real_form(m: np.ndarray) -> np.ndarray:
    """``[[Re m, -Im m], [Im m, Re m]]`` of each matrix of a complex stack.

    It acts on ``(Re v, Im v)`` as ``m`` acts on ``v``, so the real form of a
    product is the product of the real forms.
    """
    re, im = m.real, m.imag
    return np.concatenate((np.concatenate((re, -im), -1), np.concatenate((im, re), -1)), -2)


_EYE = np.eye(2)
# Row 4*qubit + j is the real 8x8 form of _BASIS[j] on qubit, kron(b, I) on q0
# and kron(I, b) on q1, flattened.  An 8-vector holding a factor's quaternion in
# entries 4*qubit to 4*qubit + 3 and zeros elsewhere, times _EMBEDDING, is the
# real form of its gate on that qubit.
_EMBEDDING = _real_form(np.concatenate((
    np.einsum("nij,kl->nikjl", _BASIS, _EYE), np.einsum("ij,nkl->nikjl", _EYE, _BASIS)
)).reshape(8, 4, 4)).reshape(8, 64)

# The most factors of a side that one pass of rounds reduces at once.  A longer
# chain is reduced chunk by chunk onto a running product, so the working set
# stays a few hundred 8x8s a side however deep the circuit.
_CHUNK = 256


def _chain_products(gates: np.ndarray, *sides: tuple[np.ndarray, ...]) -> np.ndarray:
    """The 4x4 unitary of each side, a chain of factors in time order.

    A side is ``(angles, qubits, rows)``, with ``angles`` of shape ``(3, n)``
    and the others of length ``n``, one entry a factor: where ``rows[i]`` is
    -1 the factor is ``U(*angles[:, i])`` on qubit ``qubits[i]``, else the 2q
    gate ``gates[rows[i]]``, a 4x4 in the fixed basis.  Every factor is taken
    to its real 8x8 form: a 1q factor by its quaternion and one matmul
    with :data:`_EMBEDDING`, a 2q one by its gate's :func:`_real_form`.  A
    side goes through in chunks of at most :data:`_CHUNK` factors.  Each
    chunk's part of a side is padded with identities to its own power of two,
    and the parts of the sides that reach the chunk lie in one stack, widest
    first, so no pair of neighbours crosses two parts.  The stack is reduced
    by rounds of batched matmuls of later factors onto earlier ones; a part
    leaves the stack when it is one factor, its side's running product, which
    it multiplies from the left.
    """
    gates = _real_form(gates)
    product = np.empty((len(sides), 8, 8))
    for start in range(0, max(1, *(len(rows) for _, _, rows in sides)), _CHUNK):
        # (width, side, factors) of each side that reaches the chunk, widest first;
        # every side has a part in the first chunk, an empty side one identity
        parts = sorted(
            ((1 << (max(m, 1) - 1).bit_length(), i, m)
             for i, m in enumerate(min(_CHUNK, len(rows) - start) for _, _, rows in sides)
             if m > 0 or start == 0),
            reverse=True,
        )
        total = sum(width for width, _, _ in parts)
        angles = np.zeros((3, total))  # U(0, 0, 0) pads
        qubits = np.zeros(total, dtype=np.int8)
        rows = np.full(total, -1)
        offset = 0
        for width, i, m in parts:
            a, q, r = sides[i]
            angles[:, offset:offset + m] = a[:, start:start + m]
            qubits[offset:offset + m] = q[start:start + m]
            rows[offset:offset + m] = r[start:start + m]
            offset += width
        # _quaternion of rows 0-2 of one cos and one sin pass over all the angles
        cos, sin = np.cos(angles), np.sin(angles)
        quaternions = np.array(_quaternion(0, 1, 2, cos.__getitem__, sin.__getitem__))
        slots = quaternions * _EYE.take(qubits, 1)[:, None]
        factors = (slots.reshape(8, -1).T @ _EMBEDDING).reshape(total, 8, 8)
        gate = rows >= 0
        factors[gate] = gates[rows[gate]]
        while parts:
            if parts[-1][0] == 1:  # the last part is one factor
                i = parts.pop()[1]
                product[i] = factors[-1] if start == 0 else factors[-1] @ product[i]
                factors = factors[:-1]
            else:
                factors = factors[1::2] @ factors[0::2]
                parts = [(width // 2, i, m) for width, i, m in parts]
    return product[:, :4, :4] + 1j * product[:, 4:, :4]


def ideal_unitary(ir: CircuitIR) -> np.ndarray:
    """Unitary of the circuit's gates (measurements contribute nothing)."""
    return _chain_products(ir.gate2_matrices, (ir.angles.T, ir.qubits[:, 0], ir.gate2_row))[0]


# Which qubits a 2q rule flushes, each with virtual-Z (True) or exactly onto
# frame 0 (False).  The ENC rule flushes both qubits at once (see _enc_end).
_RULE_FLUSHES = {"carry": ((0, True), (1, True)), "enc": None,
                 "partial q0": ((0, True), (1, False)), "partial q1": ((0, False), (1, True)),
                 "zero": ((0, False), (1, False))}


def _flush(
    buffered: Sequence[float] | None, f: float, t: float, vz: bool, special: bool
) -> tuple[tuple, str, float]:
    """The pulses, scheme and new frame of ``z_rot(t) @ buffered @ z_rot(-f)``:
    ``f`` is the qubit's frame, ``t`` the frame it ends on, and ``buffered``
    no gate (None) or a gate's angles.  It is ``U(alpha + (f - t)/2, beta +
    (t + f)/2, gamma)``, normalized, then the gauge: ``alpha = 0`` where
    ``cos(gamma) <= 1e-13``, ``beta = 0`` where ``sin(gamma) <= 1e-13``.
    With ``vz`` (``t`` is 0) it is compiled with virtual-Z, whose residual is
    the new frame; else exactly onto ``t``: a special case when ``special``
    and the angles allow one, else three pulses.
    """
    alpha, beta, gamma = buffered or (0.0, 0.0, 0.0)  # None is the identity
    if f != 0.0 or t != 0.0:
        alpha = normalize_angle(alpha + 0.5 * (f - t))
        beta = normalize_angle(beta + 0.5 * (t + f))
    if math.cos(gamma) <= 1e-13:
        alpha = 0.0
    if math.sin(gamma) <= 1e-13:
        beta = 0.0
    if vz:
        pairs, residual = _virtual_z_pairs(alpha, beta, gamma, special)
        return pairs, "vz", residual
    pairs = _special_pairs(alpha, beta, gamma) if special else None
    if pairs is None:
        return _three_pulse_pairs(alpha, beta, gamma), "three", t
    return pairs, "special", t


def _enc_end(
    vz_gate: Sequence[float] | None, f: float, exact_gate: Sequence[float] | None, g: float,
    special: bool,
) -> tuple[list, float, int]:
    """One way to flush an ENC gate's qubits (:func:`_flush`): the qubit with
    ``vz_gate`` pending on frame ``f`` with virtual-Z, then the other, with
    ``exact_gate`` pending on frame ``g``, exactly onto the first's new frame
    ``t``, unless it has no pending gate and is already there.

    Returns each qubit's flush, ``(pulses, scheme, frame)``, or None where
    it is not flushed, in that order; ``t``, which both frames then hold; and the pulse
    count.
    """
    vz = exact = None
    t, count = f, 0
    if vz_gate is not None:
        vz = _flush(vz_gate, f, 0.0, True, special)
        t, count = vz[2], len(vz[0])
    if exact_gate is not None or g != t:
        exact = _flush(exact_gate, g, t, False, special)
        count += len(exact[0])
    return [vz, exact], t, count


def compile_circuit(ir: CircuitIR, policy: CompilePolicy | None = None) -> PulseSchedule:
    """Lower a circuit to a pulse schedule under the given policy.

    Every 1q gate goes into its qubit's buffer, which holds one gate's
    angles: a gate that finds it full is folded in at once
    (:func:`_product_angles`), as :func:`merge_adjacent_1q` folds a run.
    ``three-always`` flushes the buffer at once with exact pulses (special
    cases first when enabled, else three pulses), so its frames stay zero;
    ``vz-carry`` flushes it at once with virtual-Z against the pending
    frame (two X90s, or when enabled no pulse, one X90 or one X180 where
    :func:`_virtual_z_pairs` finds a special case); ``enc-mixed`` and
    ``auto`` keep it until the qubit's next two-qubit gate or measurement.
    Each two-qubit gate applies the first rule of the policy's table that
    suits it:

    * ``carry`` (``vz-carry``, then ``auto``): flush both qubits with
      virtual-Z; the frames pass the phase carrier, relabelled.
    * ``enc`` (``enc-mixed``, then ``auto``): flush one qubit with
      virtual-Z and compile the other exactly onto the same frame, unless it
      has no pending gate and is already there; the equal frames pass the
      ENC gate.  ``enc-mixed`` compiles q1 exactly; ``auto`` computes both
      ends (:func:`_enc_end`) and emits the one with fewer pulses, q1 exact
      on a tie.
    * ``partial`` (``auto``, after ``enc``): flush the qubit whose frame
      alone passes the gate (a controlled gate's control) with virtual-Z
      and compile the other exactly onto frame 0; the one frame passes,
      mapped onto one qubit's axis.
    * ``zero`` (``three-always``, last in ``auto``): compile both qubits
      exactly, leaving zero frames.

    A measurement, or the end of the circuit, flushes the qubit with
    virtual-Z and reports its frame.  Every flush, the ENC rule's too, is
    one call of :func:`_flush`, which takes su2's phase-shift formulas.  The
    loop only notes each compiled 1q gate's scheme; the
    :class:`ScheduleStats` are read off the rows at the end.
    """
    policy = policy or CompilePolicy()
    rules = _gate2_rules(ir, policy.mode)
    special = policy.special_cases
    _, gate1, cheaper_end = _POLICIES[policy.mode]
    n = ir.n_qubits
    gate1_flushes = [() if gate1 is None else ((q, gate1),) for q in range(n)]
    rows: _Rows = []
    schemes: list[str] = []  # the scheme of each compiled 1q gate
    frames = [0.0] * n
    buffers: list = [None] * n  # None or one gate's angles
    measured = [False] * n
    ops = zip(ir.kind.tolist(), *ir.qubits.T.tolist(), ir.angles.tolist())
    # after the ops, a measurement of each qubit still unmeasured (read lazily)
    end = ((MEASURE, q, 0, None) for q in range(n) if not measured[q])
    for i, (k, q, q2, gate) in enumerate(itertools.chain(ops, end)):
        if k == GATE1:
            prev = buffers[q]
            buffers[q] = gate if prev is None else _product_angles(gate, prev)
            flushes = gate1_flushes[q]
        elif k == GATE2:
            rule, frame_map = rules[i]
            flushes = _RULE_FLUSHES[rule]
        else:
            flushes = ((q, True),)

        if flushes is None:  # enc: the end with fewer pulses, q0's virtual-Z on a tie
            b0, b1 = buffers
            f0, f1 = frames
            ends, t, count = _enc_end(b0, f0, b1, f1, special)
            if cheaper_end:
                mirror, mirror_t, mirror_count = _enc_end(b1, f1, b0, f0, special)
                if mirror_count < count:
                    ends, t = mirror[::-1], mirror_t
            buffers[0] = buffers[1] = None
            frames[0] = frames[1] = t
            for qf, flush in enumerate(ends):
                if flush is not None:
                    pairs, scheme, _ = flush
                    schemes.append(scheme)
                    for sigma, phase in pairs:
                        rows += PULSE, qf, 0, sigma, phase
            flushes = ()
        for qf, vz in flushes:
            buffered, f = buffers[qf], frames[qf]
            if buffered is None and (vz or f == 0.0):
                continue
            buffers[qf] = None
            pairs, scheme, frames[qf] = _flush(buffered, f, 0.0, vz, special)
            schemes.append(scheme)
            for sigma, phase in pairs:
                rows += PULSE, qf, 0, sigma, phase

        if k == GATE2:
            f0, f1 = frames
            if f0 != 0.0 or f1 != 0.0:  # zero frames map to zero frames
                (a, b), (c, d) = frame_map
                frames[0] = normalize_angle(a * f0 + b * f1)
                frames[1] = normalize_angle(c * f0 + d * f1)
            rows += GATE2, q, q2, 0.0, 0.0
        elif k == MEASURE:
            rows += FRAME, q, 0, normalize_angle(frames[q]), 0.0
            measured[q] = True

    names = [ir.gate2_labels[row] for row in ir.gate2_row[ir.kind == GATE2].tolist()]
    schedule = PulseSchedule._from_rows(n, rows, names)
    # the rows counted by kind (PULSE, GATE2, FRAME) and qubit
    pulses, _, frame_rows = np.bincount(
        schedule.kind * n + schedule.qubits[:, 0], minlength=3 * n
    ).reshape(3, n).tolist()
    schedule.stats = ScheduleStats(
        pulses=sum(pulses),
        per_qubit=tuple(pulses),
        gates_1q=int(np.count_nonzero(ir.kind == GATE1)),
        gates_2q=len(rules),
        compiled_1q=len(schemes),
        frames=sum(frame_rows),
        schemes={k: schemes.count(k) for k in _SCHEME_KEYS},
    )
    return schedule


def _check_schedule(schedule: PulseSchedule, ir: CircuitIR) -> list[int]:
    """Each qubit's FRAME row, once ``schedule`` is found to match ``ir``'s 2q gates.

    Raises :class:`ScheduleMismatchError` for the earliest bad event: a GATE2
    on other qubits or by another name than its circuit gate, or past the
    last one; or, after the first FRAME, a GATE2, a PULSE on a framed qubit
    or a second FRAME.  Then a missing GATE2 or FRAME is an error too.  The
    events after the first FRAME, as a rule only the last few, are checked
    one by one.
    """
    kind, qubits = schedule.kind, schedule.qubits
    n = len(kind)
    frame_rows = np.flatnonzero(kind == FRAME).tolist()
    first_frame = [n] * schedule.n_qubits
    for row, q in zip(frame_rows[::-1], qubits[frame_rows[::-1], 0].tolist()):
        first_frame[q] = row
    start = min(first_frame) + 1
    late = n  # the first bad event after the first FRAME
    for row, k, q in zip(range(start, n), kind[start:].tolist(), qubits[start:, 0].tolist()):
        if k == GATE2 or row > first_frame[q]:
            late = row
            break
    gate_rows = np.flatnonzero(kind[:late] == GATE2)
    ops = np.flatnonzero(ir.kind == GATE2)
    labels = ir.gate2_labels
    for i, (got, want, name, row) in enumerate(zip(
        qubits[gate_rows].tolist(), ir.qubits[ops].tolist(), schedule.gate2_names,
        ir.gate2_row[ops].tolist(),
    )):
        if got != want:
            raise ScheduleMismatchError(
                f"GATE2 event {i} acts on {tuple(got)}, circuit says {tuple(want)}"
            )
        if name != labels[row]:
            raise ScheduleMismatchError(f"GATE2 event {i} is {name}, circuit says {labels[row]}")
    if len(gate_rows) > len(ops):
        raise ScheduleMismatchError("schedule has more GATE2 events than the circuit")
    if late < n:
        q = qubits[late, 0]
        if kind[late] == GATE2:
            raise ScheduleMismatchError(f"GATE2 event {len(gate_rows)} after a FRAME")
        if kind[late] == PULSE:
            raise ScheduleMismatchError(f"PULSE on q{q} after its FRAME")
        raise ScheduleMismatchError(f"second FRAME for q{q}")
    if len(gate_rows) < len(ops):
        raise ScheduleMismatchError("schedule is missing GATE2 events")
    if n in first_frame:
        raise ScheduleMismatchError(f"schedule has no FRAME for q{first_frame.index(n)}")
    return first_frame


def _schedule_angles(schedule: PulseSchedule, frame_rows: Sequence[int]) -> np.ndarray:
    """``(alpha, beta, gamma)``, shape ``(3, n)``, of each schedule row as a 1q
    factor: a PULSE ``(sigma, phase)`` is ``U(0, -phase - pi/2, sigma/2) =
    conjugated_x(sigma, phase)``, the FRAME ``z`` at each of ``frame_rows`` is
    ``U(z/2, 0, 0) = z_rot(-z)``; a GATE2 row's angles are not read."""
    values = schedule.values
    angles = np.zeros((3, len(values)))
    angles[1] = -PI / 2 - values[:, 1]
    angles[2] = 0.5 * values[:, 0]
    for row in frame_rows:
        angles[:, row] = 0.5 * values[row, 0], 0.0, 0.0
    return angles


def simulate_schedule(schedule: PulseSchedule | Sequence[Event], ir: CircuitIR) -> float:
    """Re-simulate a schedule against its circuit; returns the max deviation.

    Pulses become conjugated X rotations, two-qubit events look up their
    matrix in the circuit (by position, after checking name and qubits),
    and FRAME events are pending virtual Z rotations that are corrected for
    before comparing with the ideal unitary up to global phase.  Each qubit
    needs exactly one FRAME, as :func:`compile_circuit` emits, and it ends
    the qubit: a second or missing FRAME, a later PULSE on that qubit, or
    any later GATE2 raises :class:`ScheduleMismatchError`
    (:func:`_check_schedule`).  So a FRAME ``z`` is corrected for at its own
    row, as the factor ``z_rot(-z)``.  An event sequence is read through
    :meth:`PulseSchedule.from_events`.  The schedule and the circuit are
    reduced as two sides of one :func:`_chain_products` call.
    """
    if not isinstance(schedule, PulseSchedule):
        schedule = PulseSchedule.from_events(schedule)
    first_frame = _check_schedule(schedule, ir)
    kind = schedule.kind
    rows = np.full(len(kind), -1)
    rows[kind == GATE2] = ir.gate2_row[ir.kind == GATE2]
    physical, ideal = _chain_products(
        ir.gate2_matrices,
        (_schedule_angles(schedule, first_frame), schedule.qubits[:, 0], rows),
        (ir.angles.T, ir.qubits[:, 0], ir.gate2_row),
    )
    return phase_distance(physical, ideal)
