"""The columns of ``CircuitIR``: bit-identical 1q angles, and one IR whichever way it is built."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import angles_matrix
from phasepulse.circuit import (
    FRAME,
    CircuitIR,
    CompilePolicy,
    FrameEvent,
    Gate1,
    Gate2,
    IllegalPolicyError,
    PolicyMode,
    PulseEvent,
    PulseSchedule,
    _schedule_angles,
    compile_circuit,
    merge_adjacent_1q,
    parse_circuit,
    parse_schedule,
    simulate_schedule,
)
from phasepulse.schemes import Pulse
from phasepulse.su2 import GateParams, _quaternion, conjugated_x, z_rot

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
PI = math.pi

sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded circuit generators)

GAMMA_SEAMS = (0.0, -0.0, PI / 2, -1e-9, -5e-10, PI / 2 + 1e-9, math.nextafter(PI / 2, 4.0))
ANGLE_SEAMS = (PI, -PI, math.nextafter(PI, 0.0), math.nextafter(-PI, 0.0), 0.0, -0.0, 3 * PI, -1e-300)


def _quaternions(angles: np.ndarray) -> np.ndarray:
    """The verifier's unit quaternions, shape ``(4, n)``, of angles of shape ``(3, n)``."""
    return np.array(_quaternion(*angles, np.cos, np.sin))


def _quaternion_matrices(q: np.ndarray) -> np.ndarray:
    """The 2x2s of unit quaternions, ``[[q0 + i*q1, -q2 + i*q3], [q2 + i*q3, q0 - i*q1]]``."""
    q0, q1, q2, q3 = q
    return np.stack((q0 + 1j * q1, -q2 + 1j * q3, q2 + 1j * q3, q0 - 1j * q1), -1).reshape(-1, 2, 2)


def _schedule_matrices(schedule: PulseSchedule) -> np.ndarray:
    """The 2x2 the verifier builds for each PULSE and FRAME row of ``schedule``."""
    frames = np.flatnonzero(schedule.kind == FRAME)
    return _quaternion_matrices(_quaternions(_schedule_angles(schedule, frames)))


def _event_matrices(schedule: PulseSchedule) -> np.ndarray:
    """The same 2x2s from the public builders: ``conjugated_x`` and ``z_rot(-z)``."""
    return np.array([
        conjugated_x(ev.pulse.sigma, ev.pulse.phase) if isinstance(ev, PulseEvent) else z_rot(-ev.angle)
        for ev in schedule.events
    ])


def _bits(angles) -> list[str]:
    return [float(x).hex() for x in angles]


angles = st.one_of(
    st.sampled_from(ANGLE_SEAMS), st.floats(-4 * PI, 4 * PI, allow_nan=False, allow_infinity=False)
)
gammas = st.one_of(st.sampled_from(GAMMA_SEAMS), st.floats(-1e-9, PI / 2 + 1e-9))


@given(a=angles, b=angles, g=gammas)
@settings(max_examples=300, deadline=None)
@example(a=PI, b=-PI, g=0.0)
@example(a=-0.0, b=-0.0, g=-0.0)
@example(a=0.1, b=0.2, g=-1e-9)
@example(a=0.1, b=0.2, g=PI / 2 + 1e-9)
@example(a=PI, b=PI, g=PI / 2)
def test_angles_column_is_bit_identical_to_gate_params(a, b, g):
    # the compiler reads a 1q gate off its row of angles
    p = GateParams(a, b, g)
    want = _bits((p.alpha, p.beta, p.gamma))
    ir = parse_circuit(f"qubits 2\nU q0 {a!r} {b!r} {g!r}\nU q1 {a!r} {b!r} {g!r}  # a comment\n")
    assert _bits(ir.angles[0].tolist()) == want
    assert _bits(ir.angles[1].tolist()) == want
    assert _bits(CircuitIR(2, ir.ops).angles[0].tolist()) == want
    # the verifier builds the gate's quaternion from the same row
    factors = _quaternion_matrices(_quaternions(ir.angles.T))
    assert np.abs(factors - angles_matrix(p.alpha, p.beta, p.gamma)).max() <= 1e-15
    # and a pulse's and a FRAME's from their schedule rows
    schedule = PulseSchedule.from_events([PulseEvent(0, Pulse(a, b)), FrameEvent(1, a)])
    assert np.abs(_schedule_matrices(schedule) - _event_matrices(schedule)).max() <= 1e-15


def test_verifier_stack_is_within_1e_15_of_params_entries():
    rng = np.random.default_rng(15)
    alpha, beta = rng.uniform(-PI, PI, (2, 500))
    gamma = np.concatenate((rng.uniform(0.0, PI / 2, 490), [0.0, PI / 4, PI / 2] * 3, [1e-13]))
    rows = enumerate(zip(alpha.tolist(), beta.tolist(), gamma.tolist()))
    lines = [f"U q{i % 2} {a!r} {b!r} {g!r}" for i, (a, b, g) in rows]
    ir = parse_circuit("\n".join(["qubits 2"] + lines))
    factors = _quaternion_matrices(_quaternions(ir.angles.T))
    want = [angles_matrix(op.params.alpha, op.params.beta, op.params.gamma) for op in ir.ops]
    assert np.abs(factors - np.array(want)).max() <= 1e-15
    # the same draws as pulses (sigma=alpha, phase=beta) and FRAMEs (z=beta)
    pairs = enumerate(zip(alpha.tolist(), beta.tolist()))
    events = [PulseEvent(i % 2, Pulse(a, b)) for i, (a, b) in pairs]
    events += [FrameEvent(i % 2, b) for i, b in enumerate(beta.tolist())]
    schedule = PulseSchedule.from_events(events)
    assert np.abs(_schedule_matrices(schedule) - _event_matrices(schedule)).max() <= 1e-15


def _workload_circuits() -> list[tuple[str, str]]:
    circuits = [(name, (DATA / name).read_text()) for name in ("golden_circuit.txt", "golden_circuit_enc.txt")]
    for workload in ("haar-cz", "clifford-mixed", "cli-small"):
        circuits.append((workload, gen.corpus(workload, 501)[0].text))
    return circuits


def assert_same_columns(a: CircuitIR, b: CircuitIR) -> None:
    for name in ("kind", "qubits", "angles", "gate2_row", "gate2_matrices"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.gate2_labels == b.gate2_labels


@pytest.mark.parametrize("name, text", _workload_circuits(), ids=lambda x: x[:24])
def test_one_ir_whichever_way_it_is_built(name, text):
    parsed = parse_circuit(text)
    built = CircuitIR(2, parsed.ops)
    assert_same_columns(parsed, built)
    assert_same_columns(merge_adjacent_1q(parsed), merge_adjacent_1q(built))
    for mode in PolicyMode:
        assert _compiled(built, mode) == _compiled(parsed, mode)


def _compiled(ir: CircuitIR, mode: PolicyMode) -> str:
    """The schedule text, or the error of a policy that does not suit the circuit."""
    try:
        return compile_circuit(ir, CompilePolicy(mode)).to_text()
    except IllegalPolicyError as exc:
        return f"{exc.op_index} {exc.gate_name}: {exc}"


def test_parse_compile_verify_build_no_op_objects(monkeypatch):
    built = []
    for cls in (Gate1, Gate2):
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    for _, text in _workload_circuits():
        ir = parse_circuit(text)
        for mode in (PolicyMode.THREE_ALWAYS, PolicyMode.AUTO):
            schedule = compile_circuit(ir, CompilePolicy(mode))
            assert simulate_schedule(parse_schedule(schedule.to_text()), ir) < 1e-8
    assert built == []
    assert isinstance(ir.ops[0], (Gate1, Gate2)) and built  # the view builds them on request


def test_ops_view_is_built_once_and_kept_for_hand_built_circuits():
    ir = parse_circuit((DATA / "golden_circuit.txt").read_text())
    assert ir.ops is ir.ops
    ops = tuple(ir.ops)
    assert CircuitIR(2, ops).ops is ops
    gate2 = [op for op in ops if isinstance(op, Gate2)]
    assert all(np.array_equal(op.effective_matrix, ir.gate2_matrices[row])
               for op, row in zip(gate2, ir.gate2_row[ir.kind == 1].tolist()))
