import dataclasses
import math
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compile_verifying_prefixes, haar_unitary, random_gate_params
from phasepulse import su2
from phasepulse.carrier import classify
from phasepulse.circuit import (
    CircuitError,
    CircuitIR,
    CircuitSyntaxError,
    CompilePolicy,
    FrameEvent,
    Gate1,
    Gate2,
    Gate2Event,
    IllegalPolicyError,
    Measure,
    PolicyMode,
    PulseEvent,
    PulseSchedule,
    ScheduleMismatchError,
    compile_circuit,
    ideal_unitary,
    merge_adjacent_1q,
    parse_circuit,
    parse_schedule,
    simulate_schedule,
)
from phasepulse.circuit import _CHUNK, _gate2_rules
from phasepulse.cli import main
from phasepulse.schemes import Pulse
from phasepulse.su2 import (
    GateParams,
    phase_distance,
    standard_gate,
    unitary_from_params,
    x_rot,
    z_rot,
)

PI = math.pi
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)


def u_line(q, p: GateParams) -> str:
    return f"U q{q} {p.alpha!r} {p.beta!r} {p.gamma!r}"


def random_circuit_text(rng, depth, gate2_pool, measures=True):
    lines = ["qubits 2"]
    for _ in range(depth):
        roll = rng.integers(0, 3)
        if roll < 2:
            lines.append(u_line(int(rng.integers(0, 2)), random_gate_params(rng)))
        else:
            lines.append(gate2_pool[int(rng.integers(0, len(gate2_pool)))])
    if measures:
        lines += ["M q0", "M q1"]
    return "\n".join(lines) + "\n"


CARRIER_POOL = ["G2 CZ q0 q1", "G2 SWAP q0 q1", "G2 ISWAP q1 q0", "G2 CPHASE(0.8) q0 q1"]
ENC_POOL = ["G2 SQISW q0 q1", "G2 CPHASE(1.1) q0 q1", "G2 FSIM(0.4,0.9) q1 q0", "G2 ISWAP q0 q1"]
ANY_POOL = CARRIER_POOL + ENC_POOL + ["G2 CNOT q0 q1", "G2 CNOT q1 q0"]


# ---------------------------------------------------------------- parser


def test_parse_minimal():
    ir = parse_circuit("qubits 2\nU q0 0 0 0\nM q0\n")
    assert len(ir.ops) == 2
    assert isinstance(ir.ops[0], Gate1) and isinstance(ir.ops[1], Measure)
    assert np.allclose(ir.ops[0].matrix(), np.eye(2))


def test_parse_gate2_cz():
    ir = parse_circuit("qubits 2\nG2 CZ q0 q1\n")
    op = ir.ops[0]
    assert isinstance(op, Gate2)
    assert np.allclose(op.matrix, np.diag([1, 1, 1, -1]))


def test_parse_shorthand_gates():
    ir = parse_circuit("qubits 2\nX90 q0\nX180 q1\nRZ q0 0.7\n")
    assert np.allclose(ir.ops[0].matrix(), x_rot(PI / 2), atol=1e-12)
    assert np.allclose(ir.ops[1].matrix(), x_rot(PI), atol=1e-12)
    assert np.allclose(ir.ops[2].matrix(), z_rot(0.7), atol=1e-12)


def test_parse_param_gates():
    ir = parse_circuit("qubits 2\nG2 CPHASE(0.5) q0 q1\nG2 FSIM(0.3,0.7) q1 q0\n")
    assert np.allclose(ir.ops[0].matrix, standard_gate("CPHASE", 0.5))
    assert np.allclose(ir.ops[1].matrix, standard_gate("FSIM", 0.3, 0.7))
    assert ir.ops[0].name == "CPHASE(0.5)"


def test_parse_custom_gate():
    m = standard_gate("ISWAP")
    entries = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in m.ravel())
    ir = parse_circuit(f"qubits 2\nG2 CUSTOM q0 q1 {entries}\n")
    assert np.max(np.abs(ir.ops[0].matrix - m)) < 1e-15
    assert ir.ops[0].name == "CUSTOM"


def test_parse_custom_rejects_non_unitary():
    entries = " ".join(["1,0"] * 16)
    with pytest.raises(CircuitSyntaxError):
        parse_circuit(f"qubits 2\nG2 CUSTOM q0 q1 {entries}\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\nU q0 0 0\n")
    assert err.value.line == 2
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\nG2 FROB q0 q1\n")
    assert err.value.line == 2
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("U q0 0 0 0\n")  # missing header
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 3\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nU q7 0 0 0\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nG2 CZ q0 q0\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nM q0\nU q0 0 0 0\n")  # op after measure
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nU q0 0 0 3.0\n")  # gamma out of range


def test_parse_comments_and_blanks():
    ir = parse_circuit("# header\nqubits 2\n\nX90 q0  # a pulse\n   \nM q0\n")
    assert len(ir.ops) == 2


def test_gate2_spacing_gives_one_table_row():
    # the 2q table is keyed by the gate (qubits, name, matrix), not by the line's text
    ir = parse_circuit("qubits 2\nG2 CZ q0 q1\nG2  CZ  q0  q1\n\tG2 CZ\tq0 q1 # again\n")
    assert ir.gate2_row.tolist() == [0, 0, 0]
    assert ir.gate2_labels == ("CZ",)


def test_ir_validation_direct():
    with pytest.raises(Exception):
        CircuitIR(3, ())
    with pytest.raises(Exception):
        CircuitIR(2, (Measure(0), Gate1(0, GateParams(0, 0, 0))))
    with pytest.raises(CircuitError, match="already measured") as err:
        CircuitIR(2, (Gate1(1, GateParams(0, 0, 0)), Measure(0), Gate1(0, GateParams(0, 0, 0))))
    assert err.value.op_index == 2
    with pytest.raises(CircuitError, match="distinct qubits") as err:
        CircuitIR(2, (Measure(0), Gate2((1, 1), "CZ", standard_gate("CZ"))))
    assert err.value.op_index == 1


@pytest.mark.parametrize("ops, index, qubit", [
    ([Measure(5)], 0, 5),
    ([Measure(0), Gate1(2, GateParams(0.1, 0.2, 0.3))], 1, 2),
    ([Gate1(0, GateParams(0.1, 0.2, 0.3)), Gate2((0, 2), "CZ", standard_gate("CZ"))], 1, 2),
    ([Gate1(1, GateParams(0.1, 0.2, 0.3)), Measure(1), Gate2((-1, 0), "CZ", standard_gate("CZ"))],
     2, -1),
])
def test_qubit_out_of_range_names_its_op(ops, index, qubit):
    with pytest.raises(CircuitError, match=rf"^op {index}: qubit index {qubit} out of range$") as err:
        CircuitIR(2, ops)
    assert err.value.op_index == index


@pytest.mark.parametrize(
    "bad",
    [
        Gate2([0, 1], "CNOT", standard_gate("CNOT")),  # qubits a list
        Gate2((0, 1, 0), "CNOT", standard_gate("CNOT")),
        Gate2((0, 1), "CNOT", standard_gate("CNOT").tolist()),
        Gate2((0, 1.0), "CZ", standard_gate("CZ")),
        Gate2((0, 1), "MY CZ", standard_gate("CZ")),  # a schedule could not name it
        Gate2((0, 1), "", standard_gate("CZ")),
        Gate2((0, 1), "CZ#1", standard_gate("CZ")),
        Gate1(0, None),
        Gate1("q0", GateParams(0, 0, 0)),
        Measure(None),
        "X90 q0",
        None,
    ],
)
def test_malformed_ops_raise_circuit_error(bad):
    # The malformed op comes after a good one, so its index is 1.
    with pytest.raises(CircuitError, match=r"^op 1: ") as err:
        CircuitIR(2, (Gate1(0, GateParams(0.1, 0.2, 0.3)), bad, Measure(1)))
    assert err.value.op_index == 1


def test_legality_errors_keep_their_line():
    text = "qubits 2\n# measure first\nM q0\n\nU q0 0 0 0  # too late\n"
    with pytest.raises(CircuitSyntaxError, match="already measured") as err:
        parse_circuit(text)
    assert err.value.line == 5
    with pytest.raises(CircuitSyntaxError, match="distinct qubits") as err:
        parse_circuit("qubits 2\n\n# a comment\nX90 q1\nG2 CZ q1 q1\n")
    assert err.value.line == 5
    # the whole text is parsed before CircuitIR checks legality
    with pytest.raises(CircuitSyntaxError, match="unknown op") as err:
        parse_circuit(text + "FROB q1\n")
    assert err.value.line == 6


# ---------------------------------------------------------------- merging


def test_merge_two_x90():
    ir = parse_circuit("qubits 2\nX90 q0\nX90 q0\n")
    merged = merge_adjacent_1q(ir)
    assert len(merged.ops) == 1
    assert phase_distance(merged.ops[0].matrix(), x_rot(PI)) < 1e-10


def test_merge_blocked_by_gate2():
    ir = parse_circuit("qubits 2\nX90 q0\nG2 CZ q0 q1\nX90 q0\n")
    merged = merge_adjacent_1q(ir)
    assert len(merged.ops) == 3
    assert merged.lines == [2, 3, 4]


def test_merge_across_other_qubit():
    # single-qubit gates on the other qubit commute and do not block
    ir = parse_circuit("qubits 2\nX90 q0\nX180 q1\nX90 q0\n")
    merged = merge_adjacent_1q(ir)
    assert len(merged.ops) == 2
    assert merged.lines == [2, 3]  # a fused gate keeps its run's first line
    assert phase_distance(ideal_unitary(merged), ideal_unitary(ir)) < 1e-10


def test_merge_chain_matches_product():
    rng = np.random.default_rng(60)
    params = [random_gate_params(rng) for _ in range(5)]
    lines = ["qubits 2"] + [u_line(0, p) for p in params]
    ir = parse_circuit("\n".join(lines))
    merged = merge_adjacent_1q(ir)
    assert len(merged.ops) == 1
    product = np.eye(2, dtype=complex)
    for p in params:
        product = unitary_from_params(p) @ product
    assert phase_distance(merged.ops[0].matrix(), product) < 1e-10


_RUN_GATE2 = ENC_POOL + ["G2 CZ q0 q1", "G2 CZ q1 q0"]  # legal under auto and enc-mixed
_ANGLE = st.floats(-PI, PI)


@st.composite
def _run(draw, q: int) -> list[str]:
    """0-3 of U, RZ and X90 on qubit ``q``."""
    run = []
    for kind in draw(st.lists(st.sampled_from(("U", "RZ", "X90")), max_size=3)):
        if kind == "U":
            a, b, g = draw(_ANGLE), draw(_ANGLE), draw(st.floats(0.0, PI / 2))
            run.append(f"U q{q} {a!r} {b!r} {g!r}")
        elif kind == "RZ":
            run.append(f"RZ q{q} {draw(_ANGLE)!r}")
        else:
            run.append(f"X90 q{q}")
    return run


@st.composite
def runs_circuits(draw) -> str:
    """Layers of 1q runs on both qubits, interleaved, between 2q gates; then
    maybe a measurement and a last run on the other qubit."""
    lines = ["qubits 2"]
    for layer in range(draw(st.integers(0, 12))):
        if layer:
            lines.append(draw(st.sampled_from(_RUN_GATE2)))
        lines += draw(st.permutations(draw(_run(0)) + draw(_run(1))))
    if draw(st.booleans()):
        q = draw(st.integers(0, 1))
        lines += [f"M q{q}"] + draw(_run(1 - q))
    return "\n".join(lines) + "\n"


@given(text=runs_circuits())
@settings(max_examples=200, deadline=None)
def test_compile_folds_a_buffer_as_merge_folds_a_run(text):
    # Under auto and enc-mixed a qubit's buffer holds exactly the run that
    # merge_adjacent_1q fuses, and both fold it with _product_angles, so the
    # schedules agree bit for bit; only the stats count the gates apart.
    ir = parse_circuit(text)
    merged = merge_adjacent_1q(ir)
    lines = merged.lines
    assert lines == sorted(set(lines)) and set(lines) <= set(ir.lines)
    for mode in (PolicyMode.AUTO, PolicyMode.ENC_MIXED):
        want = compile_circuit(ir, CompilePolicy(mode))
        got = compile_circuit(merged, CompilePolicy(mode))
        assert got.to_text().splitlines()[:-1] == want.to_text().splitlines()[:-1]
        assert got.values.tobytes() == want.values.tobytes()


# ---------------------------------------------------------------- compile


def carrier_sandwich_circuit(rng):
    lines = [
        "qubits 2",
        u_line(0, random_gate_params(rng)),
        u_line(1, random_gate_params(rng)),
        "G2 ISWAP q0 q1",
        u_line(0, random_gate_params(rng)),
        u_line(1, random_gate_params(rng)),
        "M q0",
        "M q1",
    ]
    return parse_circuit("\n".join(lines))


def test_vz_carry_eight_pulses():
    ir = carrier_sandwich_circuit(np.random.default_rng(61))
    sched = compile_verifying_prefixes(ir, CompilePolicy(PolicyMode.VZ_CARRY))
    assert sched.stats.pulses == 8
    assert sched.stats.schemes["vz"] == 4
    frames = [ev for ev in sched.events if isinstance(ev, FrameEvent)]
    assert {f.qubit for f in frames} == {0, 1}
    assert simulate_schedule(sched, ir) < 1e-9


def test_three_always_frames_zero():
    ir = carrier_sandwich_circuit(np.random.default_rng(62))
    sched = compile_verifying_prefixes(ir, CompilePolicy(PolicyMode.THREE_ALWAYS))
    assert sched.stats.pulses == 12
    for ev in sched.events:
        if isinstance(ev, FrameEvent):
            assert ev.angle == 0.0
    assert simulate_schedule(sched, ir) < 1e-9


def test_vz_carry_rejects_non_carrier():
    ir = parse_circuit("qubits 2\nG2 SQISW q0 q1\n")
    with pytest.raises(IllegalPolicyError) as err:
        compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY))
    assert "SQISW" in str(err.value)


def test_enc_mixed_rejects_general_gate():
    ir = parse_circuit("qubits 2\nG2 CNOT q0 q1\n")
    with pytest.raises(IllegalPolicyError) as err:
        compile_circuit(ir, CompilePolicy(PolicyMode.ENC_MIXED))
    assert "CNOT" in str(err.value)


def test_enc_mixed_layer_pulse_count():
    rng = np.random.default_rng(63)
    lines = ["qubits 2"]
    for _ in range(10):
        lines += [
            u_line(0, random_gate_params(rng)),
            u_line(1, random_gate_params(rng)),
            "G2 SQISW q0 q1",
        ]
    lines += ["M q0", "M q1"]
    ir = parse_circuit("\n".join(lines))
    enc = compile_verifying_prefixes(ir, CompilePolicy(PolicyMode.ENC_MIXED))
    three = compile_circuit(ir, CompilePolicy(PolicyMode.THREE_ALWAYS))
    assert enc.stats.pulses == 50  # 2 + 3 per layer
    assert three.stats.pulses == 60
    assert simulate_schedule(enc, ir) < 1e-9


def test_depth_one_gate_before_measure_uses_vz():
    rng = np.random.default_rng(64)
    text = "\n".join(["qubits 2", u_line(0, random_gate_params(rng)), "M q0", "M q1"])
    ir = parse_circuit(text)
    for mode in (PolicyMode.VZ_CARRY, PolicyMode.ENC_MIXED, PolicyMode.AUTO):
        sched = compile_verifying_prefixes(ir, CompilePolicy(mode))
        assert sched.stats.pulses == 2
        assert sched.stats.schemes["vz"] == 1
        assert simulate_schedule(sched, ir) < 1e-9


def test_auto_handles_mixed_gate_set():
    rng = np.random.default_rng(65)
    lines = [
        "qubits 2",
        u_line(0, random_gate_params(rng)),
        u_line(1, random_gate_params(rng)),
        "G2 CZ q0 q1",  # carrier: frames carried
        u_line(0, random_gate_params(rng)),
        "G2 SQISW q0 q1",  # ENC: frames matched
        u_line(1, random_gate_params(rng)),
        "G2 CNOT q0 q1",  # general: frames forced to zero
        u_line(0, random_gate_params(rng)),
        "M q0",
        "M q1",
    ]
    ir = parse_circuit("\n".join(lines))
    sched = compile_verifying_prefixes(ir, CompilePolicy(PolicyMode.AUTO))
    assert simulate_schedule(sched, ir) < 1e-9


@pytest.mark.parametrize(
    "left, enc_map",
    [((X_MATRIX, X_MATRIX), (-1, -1)), ((np.eye(2), X_MATRIX), (1, -1)), ((X_MATRIX, np.eye(2)), (-1, 1))],
)
def test_generalized_enc_gates_compile(left, enc_map):
    # A Pauli-X dressed SQISW passes equal frames (t, t) on as (p*t, q*t).
    m = np.kron(*left) @ standard_gate("SQISW")
    result = classify(m)
    assert result.enc_map == enc_map and not result.is_carrier
    entries = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in m.ravel())
    rng = np.random.default_rng(80)
    lines = ["qubits 2"]
    for _ in range(3):
        lines += [u_line(0, random_gate_params(rng)), u_line(1, random_gate_params(rng))]
        lines.append(f"G2 CUSTOM q0 q1 {entries}")
    ir = parse_circuit("\n".join(lines + ["M q0", "M q1"]))
    for mode in (PolicyMode.ENC_MIXED, PolicyMode.AUTO):
        compile_verifying_prefixes(ir, CompilePolicy(mode))


def test_enc_empty_buffer_fill():
    # qubit 1 has no pending gate at the ENC flush: it gets a diagonal
    # frame-matching fill (2 X180s via the special case)
    rng = np.random.default_rng(66)
    text = "\n".join(
        ["qubits 2", u_line(0, random_gate_params(rng)), "G2 SQISW q0 q1", "M q0", "M q1"]
    )
    ir = parse_circuit(text)
    sched = compile_verifying_prefixes(ir, CompilePolicy(PolicyMode.ENC_MIXED))
    assert sched.stats.schemes["special"] == 1
    assert sched.stats.pulses == 4
    assert simulate_schedule(sched, ir) < 1e-9


def test_enc_gate_with_no_pending_gates_is_free():
    ir = parse_circuit("qubits 2\nG2 SQISW q0 q1\nM q0\nM q1\n")
    sched = compile_verifying_prefixes(ir, CompilePolicy(PolicyMode.ENC_MIXED))
    assert sched.stats.pulses == 0
    assert simulate_schedule(sched, ir) < 1e-12


def test_end_of_circuit_frames_emitted():
    rng = np.random.default_rng(67)
    text = "\n".join(["qubits 2", u_line(0, random_gate_params(rng)), "G2 CZ q0 q1"])
    ir = parse_circuit(text)
    sched = compile_verifying_prefixes(ir, CompilePolicy(PolicyMode.VZ_CARRY))
    frames = [ev for ev in sched.events if isinstance(ev, FrameEvent)]
    assert {f.qubit for f in frames} == {0, 1}
    assert simulate_schedule(sched, ir) < 1e-9


def test_empty_circuit():
    ir = parse_circuit("qubits 2\n")
    for mode in PolicyMode:
        sched = compile_circuit(ir, CompilePolicy(mode))
        assert sched.stats.pulses == 0
        assert simulate_schedule(sched, ir) == 0.0


@pytest.mark.parametrize(
    "name, params",
    [("CZ", ()), ("CNOT", ()), ("SWAP", ()), ("ISWAP", ()), ("SQISW", ()),
     ("CPHASE", (0.7,)), ("FSIM", (0.4, 0.9)), ("CUSTOM", ())],
)
def test_effective_matrix_built_once_read_only(name, params):
    if name == "CUSTOM":
        m = haar_unitary(4, np.random.default_rng(3))
    else:
        m = standard_gate(name, *params)
    swap = standard_gate("SWAP")
    for qubits, expected in (((0, 1), m), ((1, 0), swap @ m @ swap)):
        op = Gate2(qubits, name, m)
        eff = op.effective_matrix
        assert np.array_equal(eff, expected)
        assert op.effective_matrix is eff
        with pytest.raises(ValueError):
            eff[0, 0] = 0.0
    assert m.flags.writeable  # the gate's own matrix is left as it was


@pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
def test_wrong_shape_gate2_raises_the_same_error_in_both_qubit_orders(qubits):
    with pytest.raises(ValueError, match=r"^expected a 4x4 matrix, got shape \(2, 2\)$"):
        CircuitIR(2, (Gate2(qubits, "X", np.eye(2)),))


def test_wrong_shape_gate2_with_the_bytes_of_an_earlier_gate_is_checked():
    eye = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(16,\)$"):
        CircuitIR(2, (Gate2((0, 1), "A", eye), Gate2((0, 1), "B", eye.ravel())))


def test_custom_gate_on_q1_q0_is_checked_as_written_only(tmp_path, capsys):
    # The parser and the constructor check a CUSTOM gate as written; the
    # table holds it qubit-swapped, where its defect may be a few ulps
    # larger.  A scaled Haar unitary whose defect straddles the tolerance
    # that way must parse, build again from its ops, compile and verify.
    u = haar_unitary(4, np.random.default_rng(29))
    scale = math.sqrt(1 + 1e-8)
    swap = [0, 2, 1, 3]
    straddling = [
        m for m in (u * (scale + k * np.spacing(scale)) for k in range(-40, 41))
        if su2.is_unitary(m) and not su2.is_unitary(m[swap][:, swap])
    ]
    assert straddling
    entries = " ".join(f"{z.real!r},{z.imag!r}" for z in straddling[0].ravel().tolist())
    text = f"qubits 2\nU q0 0.3 -0.4 0.7\nG2 CUSTOM q1 q0 {entries}\nU q1 1.1 0.2 0.5\nM q0\nM q1\n"
    ir = parse_circuit(text)
    CircuitIR(2, ir.ops)
    legal = []
    for mode in PolicyMode:
        try:
            schedule = compile_circuit(ir, CompilePolicy(mode))
        except IllegalPolicyError:
            continue
        assert simulate_schedule(schedule, ir) < 1e-9
        legal.append(mode)
    assert legal == [PolicyMode.THREE_ALWAYS, PolicyMode.AUTO]
    path = tmp_path / "custom.txt"
    path.write_text(text)
    assert main(["compile", str(path), "--policy", "auto"]) == 0
    assert capsys.readouterr().err == ""


def test_reversed_qubit_order_gate():
    ir = parse_circuit("qubits 2\nG2 CNOT q1 q0\nM q0\nM q1\n")
    eff = ir.ops[0].effective_matrix
    # control on qubit 1: |01> <-> |11|
    expected = np.eye(4)[:, [0, 3, 2, 1]]
    assert np.allclose(eff, expected)
    sched = compile_circuit(ir, CompilePolicy(PolicyMode.AUTO))
    assert simulate_schedule(sched, ir) < 1e-12


def test_mid_circuit_measure_on_one_qubit():
    rng = np.random.default_rng(68)
    lines = [
        "qubits 2",
        u_line(0, random_gate_params(rng)),
        u_line(1, random_gate_params(rng)),
        "M q0",
        u_line(1, random_gate_params(rng)),
        "M q1",
    ]
    ir = parse_circuit("\n".join(lines))
    for mode in PolicyMode:
        sched = compile_verifying_prefixes(ir, CompilePolicy(mode))
        assert simulate_schedule(sched, ir) < 1e-9


def test_pulse_count_monotonicity_on_carrier_circuits():
    rng = np.random.default_rng(69)
    for _ in range(20):
        ir = parse_circuit(random_circuit_text(rng, 12, CARRIER_POOL))
        three = compile_circuit(ir, CompilePolicy(PolicyMode.THREE_ALWAYS))
        vz = compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY))
        assert three.stats.pulses >= vz.stats.pulses


def test_random_circuits_all_policies():
    rng = np.random.default_rng(70)
    pools = {
        PolicyMode.THREE_ALWAYS: ANY_POOL,
        PolicyMode.VZ_CARRY: CARRIER_POOL,
        PolicyMode.ENC_MIXED: ENC_POOL,
        PolicyMode.AUTO: ANY_POOL,
    }
    for mode, pool in pools.items():
        for _ in range(25):
            ir = parse_circuit(random_circuit_text(rng, int(rng.integers(1, 20)), pool))
            sched = compile_verifying_prefixes(ir, CompilePolicy(mode))
            assert simulate_schedule(sched, ir) < 1e-8


def test_special_cases_flag_off():
    ir = parse_circuit("qubits 2\nX90 q0\nM q0\nM q1\n")
    on = compile_circuit(ir, CompilePolicy(PolicyMode.THREE_ALWAYS, special_cases=True))
    off = compile_circuit(ir, CompilePolicy(PolicyMode.THREE_ALWAYS, special_cases=False))
    assert on.stats.pulses == 1 and on.stats.schemes["special"] == 1
    assert off.stats.pulses == 3 and off.stats.schemes["three"] == 1
    assert simulate_schedule(off, ir) < 1e-10


# ---------------------------------------------------------------- schedules


def test_schedule_text_round_trip():
    ir = carrier_sandwich_circuit(np.random.default_rng(71))
    sched = compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY))
    text = sched.to_text()
    events = parse_schedule(text)
    assert len(events) == len(sched.events)
    # 12 significant digits keep the re-simulated deviation tiny
    assert simulate_schedule(events, ir) < 1e-8
    assert text.strip().splitlines()[-1].startswith("# stats: pulses=")


def test_schedule_determinism():
    ir = carrier_sandwich_circuit(np.random.default_rng(72))
    a = compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY)).to_text()
    b = compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY)).to_text()
    assert a == b


@pytest.mark.parametrize("line, error", [
    ("PULSE q0 sigma=1 phase=x", "expected a number, got 'x'"),
    ("PULSE q0 sigma=inf phase=x", "number must be finite, got 'inf'"),
    ("PULSE q0 sigma=1 phase=nan", "number must be finite, got 'nan'"),
    ("PULSE q2 sigma=x phase=1", "qubit q2 out of range for 2 qubits"),
    ("PULSE q0 sigma=1 z=1", "malformed PULSE line"),
    ("FRAME Q0 phase=1", "expected a qubit like 'q0', got 'Q0'"),
    ("FRAME q0 phase=1", "malformed FRAME line"),
    ("GATE2 CZ q0 q7", "qubit q7 out of range for 2 qubits"),
    ("GATE2 CZ q0", "unrecognized schedule line 'GATE2 CZ q0  # note'"),
])
def test_schedule_line_is_checked_in_token_order(line, error):
    # kind and token count, qubits, keys, then the numbers in order
    with pytest.raises(CircuitError) as info:
        parse_schedule(f"# stats\n\n{line}  # note\n")
    assert (str(info.value), info.value.line) == (f"line 3: {error}", 3)


def test_schedule_reads_long_qubit_names_and_finite_angles_whose_sum_overflows():
    schedule = parse_schedule("PULSE q01 sigma=1e308 phase=1e308\nGATE2 CZ q01 q00\n")
    assert schedule.qubits.tolist() == [[1, 0], [1, 0]]
    assert np.isfinite(schedule.values).all()


def test_corrupted_schedule_detected():
    ir = carrier_sandwich_circuit(np.random.default_rng(73))
    sched = compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY))
    events = list(sched.events)
    for i, ev in enumerate(events):
        if isinstance(ev, PulseEvent):
            bad = Pulse(ev.pulse.sigma, ev.pulse.phase + 0.1)
            events[i] = PulseEvent(ev.qubit, bad)
            break
    assert simulate_schedule(events, ir) > 1e-3


def test_schedule_mismatch_errors():
    ir = carrier_sandwich_circuit(np.random.default_rng(74))
    sched = compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY))
    events = [ev for ev in sched.events if not isinstance(ev, Gate2Event)]
    with pytest.raises(ScheduleMismatchError):
        simulate_schedule(events, ir)
    events = list(sched.events) + [Gate2Event((0, 1), "CZ")]
    with pytest.raises(ScheduleMismatchError):
        simulate_schedule(events, ir)
    events = [  # the circuit's gate is ISWAP
        Gate2Event(ev.qubits, "CZ") if isinstance(ev, Gate2Event) else ev for ev in sched.events
    ]
    with pytest.raises(ScheduleMismatchError, match="is CZ, circuit says ISWAP"):
        simulate_schedule(events, ir)


@pytest.mark.parametrize("events, index", [
    ([PulseEvent(2, Pulse(0.1, 0.2)), FrameEvent(0, 0.0), FrameEvent(1, 0.0)], 0),
    ([PulseEvent(0, Pulse(0.1, 0.2)), FrameEvent(0, 0.0), FrameEvent(2, 0.0)], 2),
    ([FrameEvent(0, 0.0), FrameEvent(-1, 0.0)], 1),
    ([PulseEvent(0, Pulse(0.1, 0.2)), Gate2Event((0, 2), "CZ"), FrameEvent(0, 0.0)], 1),
    ([PulseEvent(0, Pulse(0.1, 0.2)), Gate2Event((0, 1, 1), "CZ"), FrameEvent(0, 0.0)], 1),
    # events that the schedule's text cannot carry
    ([FrameEvent(0, 0.0), FrameEvent(0, math.inf)], 1),
    ([FrameEvent(1, -math.inf)], 0),
    ([FrameEvent(0, math.nan), FrameEvent(1, 0.0)], 0),
    ([Gate2Event((0, 1), "MY CZ"), FrameEvent(0, 0.0)], 0),
    ([PulseEvent(0, Pulse(0.1, 0.2)), Gate2Event((0, 1), "CZ#1")], 1),
    ([Gate2Event((0, 1), "")], 0),
    ([Gate2Event((1, 0), None)], 0),
])
def test_events_on_other_qubits_are_rejected(events, index):
    # not a bare IndexError from the kernel or from _check_schedule, nor text
    # that to_text writes but parse_schedule rejects or simulates to NaN
    ir = parse_circuit("qubits 2\nX90 q0\n")
    ev = events[index]
    qubits = ev.qubits if isinstance(ev, Gate2Event) else (ev.qubit,)
    problem = ("qubits must be 0 or 1" if len(qubits) > 2 or not set(qubits) <= {0, 1}
               else "FRAME angle must be finite" if isinstance(ev, FrameEvent)
               else "GATE2 name must be one word without '#'")
    with pytest.raises(CircuitError, match=f"^event {index}: {problem}, got ") as info:
        PulseSchedule.from_events(events)
    assert info.value.op_index == index
    with pytest.raises(CircuitError, match=f"^event {index}: "):
        simulate_schedule(events, ir)


def test_malformed_events_raise_circuit_error():
    # each object from_events cannot read as an event, at index 1 after a good one
    ir = parse_circuit("qubits 2\nX90 q0\n")
    good = FrameEvent(1, 0.0)
    for bad in [
        ("PULSE", 0),
        PulseEvent(0, (1.57, 0.0)),  # a pulse that is not a Pulse
        FrameEvent(0, "x"),
        SimpleNamespace(qubit=0, angle=0.5),  # a FrameEvent's fields, but not one
        FrameEvent(0.0, 0.1),  # qubits are integers, as CircuitIR has them
    ]:
        with pytest.raises(CircuitError, match=r"^event 1: .*, got ") as err:
            PulseSchedule.from_events([good, bad])
        assert err.value.op_index == 1
        with pytest.raises(CircuitError, match=r"^event 1: ") as err:
            simulate_schedule([good, bad], ir)
        assert err.value.op_index == 1
    with pytest.raises(CircuitError, match="^event 0: qubits must be integers"):
        PulseSchedule.from_events([FrameEvent(0.0, 0.1)])


def test_compile_validates_each_distinct_gate2_once(monkeypatch):
    # A CircuitIR is valid once built: CircuitIR(2, ops) checks each
    # distinct Gate2 once, and merge_adjacent_1q, compile and verify trust
    # the table.  as_unitary goes through the same defect routine, so any
    # other validation would be counted too.
    calls = []
    original = su2._unitarity_defect

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("phasepulse") and vars(module).get("_unitarity_defect") is original:
            monkeypatch.setattr(module, "_unitarity_defect", counting)
    rng = np.random.default_rng(79)
    for mode, pool in (
        (PolicyMode.THREE_ALWAYS, ANY_POOL),
        (PolicyMode.AUTO, ANY_POOL),
        (PolicyMode.VZ_CARRY, CARRIER_POOL),
        (PolicyMode.ENC_MIXED, ENC_POOL),
    ):
        # X90 and RZ take the special cases
        text = random_circuit_text(rng, 40, pool).replace(
            "qubits 2\n", "qubits 2\nX90 q0\nRZ q1 0.5\nG2 CZ q0 q1\n"
        )
        ir = parse_circuit(text)
        distinct = {(op.qubits, op.name, op.matrix.tobytes()) for op in ir.gate2_ops()}
        calls.clear()
        CircuitIR(2, ir.ops)
        assert calls == [(4, 4)] * len(distinct)
        calls.clear()
        merged = merge_adjacent_1q(ir)
        assert calls == []
        for circuit in (ir, merged):
            schedule = compile_circuit(circuit, CompilePolicy(mode))
            simulate_schedule(schedule, circuit)
            ideal_unitary(circuit)
            assert calls == []


def test_frame_must_end_its_qubit():
    ir = carrier_sandwich_circuit(np.random.default_rng(75))
    events = compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY)).events
    frames = [ev for ev in events if isinstance(ev, FrameEvent)]
    rest = [ev for ev in events if not isinstance(ev, FrameEvent)]
    assert simulate_schedule(rest + frames, ir) < 1e-10
    with pytest.raises(ScheduleMismatchError, match="PULSE on q0 after its FRAME"):
        simulate_schedule(frames + rest, ir)
    ir = parse_circuit("qubits 2\nG2 CZ q0 q1\n")
    gate2, frame0, frame1 = compile_circuit(ir).events
    assert simulate_schedule([gate2, frame0, frame1], ir) < 1e-12
    with pytest.raises(ScheduleMismatchError, match="GATE2 event 0 after a FRAME"):
        simulate_schedule([frame0, gate2, frame1], ir)


def _embed(m, qubit):
    return np.kron(m, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), m)


def kron_ideal_unitary(ir):
    """Oracle: the circuit's unitary as a product of one 4x4 factor per op."""
    u = np.eye(4, dtype=complex)
    for op in ir.ops:
        if isinstance(op, Gate1):
            u = _embed(op.matrix(), op.qubit) @ u
        elif isinstance(op, Gate2):
            u = op.effective_matrix @ u
    return u


def kron_simulate(events, ir):
    """Oracle: ``simulate_schedule`` with one 4x4 factor per event."""
    gate2_ops = iter(ir.gate2_ops())
    u = np.eye(4, dtype=complex)
    corrections = [0.0, 0.0]
    for ev in events:
        if isinstance(ev, PulseEvent):
            u = _embed(ev.pulse.unitary(), ev.qubit) @ u
        elif isinstance(ev, Gate2Event):
            u = next(gate2_ops).effective_matrix @ u
        else:
            corrections[ev.qubit] += ev.angle
    corrected = np.kron(z_rot(-corrections[0]), z_rot(-corrections[1])) @ u
    return phase_distance(corrected, kron_ideal_unitary(ir))


def test_segment_kernel_matches_per_op_kron():
    rng = np.random.default_rng(76)
    for mode in (PolicyMode.THREE_ALWAYS, PolicyMode.AUTO):
        for _ in range(20):
            ir = parse_circuit(random_circuit_text(rng, int(rng.integers(1, 30)), ANY_POOL))
            assert np.max(np.abs(ideal_unitary(ir) - kron_ideal_unitary(ir))) <= 1e-12
            events = list(compile_circuit(ir, CompilePolicy(mode)).events)
            assert abs(simulate_schedule(events, ir) - kron_simulate(events, ir)) <= 1e-12
            # a wrong schedule must deviate by the same amount under both
            for i, ev in enumerate(events):
                if isinstance(ev, PulseEvent):
                    events[i] = PulseEvent(ev.qubit, Pulse(ev.pulse.sigma, ev.pulse.phase + 0.1 * i))
            dev = simulate_schedule(events, ir)
            assert abs(dev - kron_simulate(events, ir)) <= 1e-12


def random_pulses(rng, qubit, count):
    return [
        PulseEvent(qubit, Pulse(rng.uniform(-PI, PI), rng.uniform(-PI, PI))) for _ in range(count)
    ]


def assert_kernel_matches_kron(events, ir):
    assert np.max(np.abs(ideal_unitary(ir) - kron_ideal_unitary(ir))) <= 1e-12
    assert abs(simulate_schedule(events, ir) - kron_simulate(events, ir)) <= 1e-12


EDGE_CIRCUITS = {
    "empty": "qubits 2\n",
    "gates2-only": "qubits 2\nG2 CZ q0 q1\nG2 ISWAP q1 q0\nG2 SWAP q0 q1\n",
    "one-qubit": "qubits 2\nU q1 0.3 -0.4 0.7\nG2 CZ q0 q1\nX90 q1\nRZ q1 0.2\nG2 CZ q1 q0\nX180 q1\n",
    # four 2q gates, so five segments and a chain of nine factors
    "odd-segments": "qubits 2\n" + "U q0 0.1 0.2 0.3\nU q1 -0.5 0.4 1.2\nG2 CZ q0 q1\n" * 4,
    "reversed-gates": (
        "qubits 2\nU q0 0.1 0.2 0.3\nG2 CNOT q1 q0\nU q1 -0.5 0.4 1.2\n"
        "G2 FSIM(0.4,0.9) q1 q0\nX90 q0\nG2 CPHASE(1.1) q1 q0\nU q1 1.0 -2.0 0.6\n"
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CIRCUITS))
def test_kernel_edge_shapes_match_per_op_kron(name):
    ir = parse_circuit(EDGE_CIRCUITS[name])
    for mode in PolicyMode:
        try:
            events = list(compile_circuit(ir, CompilePolicy(mode)).events)
        except IllegalPolicyError:
            continue
        if name == "gates2-only":
            assert not any(isinstance(ev, PulseEvent) for ev in events)
        if name == "one-qubit":
            assert {ev.qubit for ev in events if isinstance(ev, PulseEvent)} == {1}
        assert_kernel_matches_kron(events, ir)
        if name == "empty":
            assert simulate_schedule(events, ir) == 0.0
        shifted = [
            PulseEvent(ev.qubit, Pulse(ev.pulse.sigma, ev.pulse.phase + 0.1 * i))
            if isinstance(ev, PulseEvent) else ev
            for i, ev in enumerate(events)
        ]
        assert_kernel_matches_kron(shifted, ir)


def test_kernel_single_long_run_matches_per_op_kron():
    # 37 factors in one (segment, qubit) run: odd at every tree round
    rng = np.random.default_rng(81)
    lines = ["qubits 2"] + [u_line(0, random_gate_params(rng)) for _ in range(37)]
    ir = parse_circuit("\n".join(lines))
    events = random_pulses(rng, 0, 37) + [FrameEvent(0, 0.3), FrameEvent(1, -0.2)]
    assert_kernel_matches_kron(events, ir)


def test_kernel_skewed_segments_match_per_op_kron_without_padding():
    # 1,000 segments; one (segment, qubit) run holds 1,001 of the 1,400 pulses
    rng = np.random.default_rng(82)
    lines = ["qubits 2"]
    events = []
    for k in range(1000):
        if k == 500:
            lines += [u_line(1, random_gate_params(rng)) for _ in range(301)]
            events += random_pulses(rng, 1, 1001)
        elif k % 3 == 0:
            lines.append(u_line(k % 2, random_gate_params(rng)))
            events += random_pulses(rng, k % 2, 1)
        if k < 999:
            lines.append("G2 CZ q0 q1" if k % 2 else "G2 CNOT q1 q0")
            events.append(Gate2Event((0, 1) if k % 2 else (1, 0), "CZ" if k % 2 else "CNOT"))
    ir = parse_circuit("\n".join(lines))
    events += [FrameEvent(0, 0.1), FrameEvent(1, 0.2)]
    assert_kernel_matches_kron(events, ir)
    # Padding every run to the longest one would allocate 2,000 runs x 1,024
    # factors x 64 bytes, 131 MB; the kernel's peak stays a few MB.
    tracemalloc.start()
    try:
        simulate_schedule(events, ir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def random_chain_case(rng, n_schedule, n_circuit):
    """A circuit of ``n_circuit`` ops and a schedule of ``n_schedule`` events,
    random pulses on its 2q gates that end in the two FRAMEs: sides of
    exactly those numbers of factors."""
    n_gates = min(n_circuit, n_schedule - 2) // 3
    gate_lines = [ANY_POOL[i] for i in rng.integers(0, len(ANY_POOL), n_gates)]
    is_gate = np.zeros(n_circuit, bool)
    is_gate[rng.choice(n_circuit, n_gates, replace=False)] = True
    lines, gates = ["qubits 2"], iter(gate_lines)
    for gate in is_gate.tolist():
        lines.append(next(gates) if gate else u_line(int(rng.integers(0, 2)), random_gate_params(rng)))
    ir = parse_circuit("\n".join(lines))
    is_gate = np.zeros(n_schedule - 2, bool)
    is_gate[rng.choice(n_schedule - 2, n_gates, replace=False)] = True
    events, gates = [], iter(gate_lines)
    for gate in is_gate.tolist():
        if gate:
            _, name, qa, qb = next(gates).split()
            events.append(Gate2Event((int(qa[1]), int(qb[1])), name))
        else:
            events += random_pulses(rng, int(rng.integers(0, 2)), 1)
    events += [FrameEvent(0, rng.uniform(-PI, PI)), FrameEvent(1, rng.uniform(-PI, PI))]
    return events, ir


def assert_both_inputs_match_kron(events, ir):
    """:func:`assert_kernel_matches_kron` on the event list and on its ``PulseSchedule``."""
    assert_kernel_matches_kron(events, ir)
    schedule = PulseSchedule.from_events(events)
    assert abs(simulate_schedule(schedule, ir) - kron_simulate(schedule.events, ir)) <= 1e-12


@pytest.mark.parametrize(
    "n_schedule, n_circuit",
    [(n, n) for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1)]
    + [(3 * _CHUNK + 1, 5), (5, 3 * _CHUNK + 1), (_CHUNK + 1, 3)],
)
def test_kernel_chunks_match_per_op_kron(n_schedule, n_circuit):
    # one side or both cross a chunk boundary, or the sides differ by chunks
    rng = np.random.default_rng(n_schedule * 10_000 + n_circuit)
    events, ir = random_chain_case(rng, n_schedule, n_circuit)
    assert len(events) == n_schedule and len(ir.kind) == n_circuit
    assert_both_inputs_match_kron(events, ir)
    # the circuit's own schedules: longer than the circuit, and realizing it
    for mode in (PolicyMode.THREE_ALWAYS, PolicyMode.AUTO):
        events = list(compile_circuit(ir, CompilePolicy(mode)).events)
        assert_both_inputs_match_kron(events, ir)
        assert simulate_schedule(events, ir) < 1e-10


def test_kernel_frame_before_the_other_qubits_last_pulses():
    rng = np.random.default_rng(83)
    events, ir = random_chain_case(rng, 60, 40)
    frame0, frame1 = events[-2:]
    moved = events[:-2] + [frame0] + random_pulses(rng, 1, 7) + [frame1]
    assert_both_inputs_match_kron(moved, ir)
    # a FRAME commutes with the other qubit's pulses: moving it keeps the deviation
    text = random_circuit_text(rng, 40, ANY_POOL, measures=False) + u_line(1, random_gate_params(rng))
    ir = parse_circuit(text)
    events = list(compile_circuit(ir).events)
    frame0 = next(ev for ev in events if isinstance(ev, FrameEvent) and ev.qubit == 0)
    rest = [ev for ev in events if ev is not frame0]
    last = max(
        i for i, ev in enumerate(rest)
        if isinstance(ev, Gate2Event) or (isinstance(ev, PulseEvent) and ev.qubit == 0)
    )
    moved = rest[:last + 1] + [frame0] + rest[last + 1:]
    assert any(isinstance(ev, PulseEvent) for ev in moved[last + 2:])  # q1's last pulses follow
    assert_both_inputs_match_kron(moved, ir)
    assert abs(simulate_schedule(moved, ir) - simulate_schedule(events, ir)) <= 1e-12
    assert simulate_schedule(moved, ir) < 1e-10


@pytest.mark.parametrize("gates", ["1q-only", "2q-only"])
def test_kernel_one_kind_of_gate_matches_per_op_kron(gates):
    # 300 ops, so both sides cross a chunk boundary
    rng = np.random.default_rng(84)
    if gates == "1q-only":
        lines = [u_line(int(rng.integers(0, 2)), random_gate_params(rng)) for _ in range(300)]
    else:
        lines = [ANY_POOL[i] for i in rng.integers(0, len(ANY_POOL), 300)]
    ir = parse_circuit("\n".join(["qubits 2"] + lines))
    for mode in PolicyMode:
        try:
            events = list(compile_circuit(ir, CompilePolicy(mode)).events)
        except IllegalPolicyError:
            continue
        assert_both_inputs_match_kron(events, ir)
        assert simulate_schedule(events, ir) < 1e-10
        shifted = [
            PulseEvent(ev.qubit, Pulse(ev.pulse.sigma, ev.pulse.phase + 0.1))
            if isinstance(ev, PulseEvent)
            else FrameEvent(ev.qubit, ev.angle + 0.2) if isinstance(ev, FrameEvent) else ev
            for ev in events
        ]
        assert_both_inputs_match_kron(shifted, ir)


def haar_cz_text(rng, layers):
    """A Haar-random U on each qubit, then CZ, ``layers`` times."""
    alpha, beta = rng.uniform(-PI, PI, (2, layers, 2)).tolist()
    gamma = np.arccos(np.sqrt(rng.uniform(size=(layers, 2)))).tolist()  # Haar: cos^2 uniform
    lines = ["qubits 2"]
    for a, b, g in zip(alpha, beta, gamma):
        lines += [f"U q{q} {a[q]!r} {b[q]!r} {g[q]!r}" for q in (0, 1)] + ["G2 CZ q0 q1"]
    return "\n".join(lines) + "\n"


def test_deep_verify_memory_is_bounded():
    # 10^4 Haar/CZ layers under three-always, through the 12-digit text: 70,002
    # events against 30,000 ops, reduced in chunks onto a running product
    ir = parse_circuit(haar_cz_text(np.random.default_rng(10_004), 10_000))
    schedule = parse_schedule(compile_circuit(ir).to_text())
    tracemalloc.start()
    try:
        deviation = simulate_schedule(schedule, ir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    # as the earlier kernel, of complex 2x2 and 4x4 products, computed it
    assert abs(deviation - 6.673749474881148e-10) <= 1e-12


def test_gate2_classification_memo_keeps_qubit_order():
    # kron(I, X) classifies differently in the two qubit orders.
    flip = " ".join(f"{z.real:g},{z.imag:g}" for z in np.kron(np.eye(2), X_MATRIX).ravel())
    lines = ["qubits 2"]
    for spec in ("CNOT q0 q1", "CNOT q1 q0", f"CUSTOM q0 q1 {flip}", f"CUSTOM q1 q0 {flip}"):
        lines += [f"G2 {spec}", "X90 q0"] * 3
    ir = parse_circuit("\n".join(lines))
    for mode in (PolicyMode.THREE_ALWAYS, PolicyMode.AUTO):
        rules = _gate2_rules(ir, mode)
        assert rules == {
            i: _gate2_rules(CircuitIR(2, (op,)), mode)[0]
            for i, op in enumerate(ir.ops)
            if isinstance(op, Gate2)
        }
    assert rules[12] == ("carry", ((1, 0), (0, -1)))
    assert rules[18] == ("carry", ((-1, 0), (0, 1)))
    flips = CircuitIR(2, (ir.ops[12], ir.ops[18]))
    assert _gate2_rules(flips, PolicyMode.ENC_MIXED) == {
        0: ("enc", ((1, 0), (0, -1))),
        1: ("enc", ((-1, 0), (0, 1))),
    }


def test_auto_exact_through_near_carrier_fsim():
    # FSIM(pi/2 + 1e-4, phi) is not a carrier, so auto must not carry frames through it
    rng = np.random.default_rng(77)
    lines = ["qubits 2"]
    for _ in range(4):
        lines += [u_line(0, random_gate_params(rng)), u_line(1, random_gate_params(rng))]
        lines.append(f"G2 FSIM({PI / 2 + 1e-4!r},0.3) q0 q1")
    ir = parse_circuit("\n".join(lines))
    sched = compile_circuit(ir, CompilePolicy(PolicyMode.AUTO))
    assert simulate_schedule(sched, ir) < 1e-10


def test_measurement_invariance_of_frames():
    # dropping a pending Z frame does not change Z-basis probabilities
    rng = np.random.default_rng(75)
    for _ in range(50):
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        f0, f1 = rng.uniform(-PI, PI, 2)
        framed = np.kron(z_rot(f0), z_rot(f1)) @ state
        assert np.allclose(np.abs(framed) ** 2, np.abs(state) ** 2, atol=1e-12)


def test_schedule_round_trip_with_pi_pulses():
    # X180 emits a sigma = pi pulse; 12-digit text must survive re-parsing
    ir = parse_circuit("qubits 2\nX180 q0\nRZ q1 1.0\nM q0\nM q1\n")
    sched = compile_circuit(ir, CompilePolicy(PolicyMode.THREE_ALWAYS))
    assert any(
        isinstance(ev, PulseEvent) and ev.pulse.sigma == PI for ev in sched.events
    )
    events = parse_schedule(sched.to_text())
    assert simulate_schedule(events, ir) < 1e-8


def test_lazy_buffers_flushed_at_end_without_measure():
    rng = np.random.default_rng(77)
    lines = ["qubits 2", u_line(0, random_gate_params(rng)), u_line(1, random_gate_params(rng))]
    ir = parse_circuit("\n".join(lines))
    for mode in (PolicyMode.ENC_MIXED, PolicyMode.AUTO):
        sched = compile_verifying_prefixes(ir, CompilePolicy(mode))
        assert sched.stats.compiled_1q == 2  # nothing silently dropped
        assert simulate_schedule(sched, ir) < 1e-9


def test_deep_carrier_chain_frame_accumulation():
    rng = np.random.default_rng(78)
    lines = ["qubits 2"]
    for _ in range(200):
        lines.append(u_line(int(rng.integers(0, 2)), random_gate_params(rng)))
        lines.append(CARRIER_POOL[int(rng.integers(0, len(CARRIER_POOL)))])
    lines += ["M q0", "M q1"]
    ir = parse_circuit("\n".join(lines))
    sched = compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY))
    assert simulate_schedule(sched, ir) < 1e-8


def test_stats_line_contents():
    ir = carrier_sandwich_circuit(np.random.default_rng(76))
    sched = compile_circuit(ir, CompilePolicy(PolicyMode.VZ_CARRY))
    line = sched.stats.stats_line()
    assert "pulses=8" in line and "gates_2q=1" in line
    # only the schemes compile_circuit emits are counted
    assert line.endswith(" vz=4 three=0 special=0 frames=2")
    assert sum(sched.stats.per_qubit) == sched.stats.pulses


@pytest.mark.parametrize("mode", [PolicyMode.THREE_ALWAYS, PolicyMode.AUTO])
def test_stats_are_frozen_and_agree_with_the_events(mode):
    text = (Path(__file__).parent / "data" / "golden_circuit.txt").read_text()
    ir = parse_circuit(text)
    sched = compile_circuit(ir, CompilePolicy(mode))
    stats = sched.stats
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.pulses = 0
    pulses = [ev.qubit for ev in sched.events if isinstance(ev, PulseEvent)]
    assert stats.pulses == len(pulses)
    assert stats.per_qubit == (pulses.count(0), pulses.count(1))
    assert stats.frames == sum(isinstance(ev, FrameEvent) for ev in sched.events) == 2
    assert stats.gates_1q == sum(isinstance(op, Gate1) for op in ir.ops)
    assert stats.gates_2q == sum(isinstance(ev, Gate2Event) for ev in sched.events)
    assert sum(stats.schemes.values()) == stats.compiled_1q > 0
    assert set(stats.schemes) == {"vz", "three", "special"}
