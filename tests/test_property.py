"""Property test: every legal policy compiles random circuits exactly.

Circuits mix Haar-random and Clifford ``U`` gates, ``RZ``, ``X90`` and
``X180`` with every two-qubit family in both qubit orders, with and without
measurements (some mid-circuit).  Under every legal policy, with special
cases on and off, every prefix of the circuit must verify, which checks the
frame invariant after every op, and the schedule must verify through its
text form.

A second property holds ``auto``'s flushes to their pulse budgets on
circuits of Haar ``U`` gates and controlled gates (CNOT and controlled-U
CUSTOM gates in both orientations, with carriers and Haar gates between):
at a ``partial`` op the qubit whose frame passes takes a virtual-Z flush,
never an exact one.

A third property checks ``auto``'s ENC rule on circuits with a Clifford or
Haar run on each qubit before every 2q gate: each ENC gate emits the cheaper
of its two ends, never more pulses than q0's virtual-Z end that
``enc-mixed`` keeps, and without special cases, where both ends cost the
same, it keeps that end.

A fourth property checks the paper's premise on the first property's
circuits: only X_pi and X_pi/2 are calibrated, so under every legal policy,
with special cases on and off, every PULSE area is exactly ``pi / 2`` or
``pi``.

A fifth property holds the two places a 1q gate is flushed with virtual-Z
to each other: ``vz-carry`` flushes it at once, ``auto`` at the qubit's next
2q gate.  On circuits whose 2q gates are all phase carriers, with at most
one 1q gate on each qubit between them and q0's first, the two policies
must give the same text, with special cases on and off.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compile_verifying_prefixes, haar_unitary
from phasepulse import circuit
from phasepulse.circuit import (
    GATE2,
    PULSE,
    CompilePolicy,
    IllegalPolicyError,
    PolicyMode,
    _gate2_rules,
    compile_circuit,
    parse_circuit,
    parse_schedule,
    simulate_schedule,
)
from phasepulse.schemes import clifford_table
from phasepulse.su2 import params_from_unitary

FAMILIES = ("CZ", "CNOT", "SWAP", "ISWAP", "SQISW", "CPHASE", "FSIM", "CUSTOM")
angles = st.floats(-math.pi, math.pi)
seeds = st.integers(0, 2**32 - 1)


def _u_line(q: int, matrix) -> str:
    p, _ = params_from_unitary(matrix)
    return f"U q{q} {p.alpha!r} {p.beta!r} {p.gamma!r}"


@st.composite
def gate1_lines(draw, q: int) -> str:
    kind = draw(st.sampled_from(("haar", "clifford", "RZ", "X90", "X180")))
    if kind == "haar":
        return _u_line(q, haar_unitary(2, np.random.default_rng(draw(seeds))))
    if kind == "clifford":
        return _u_line(q, draw(st.sampled_from(clifford_table())).matrix)
    if kind == "RZ":
        return f"RZ q{q} {draw(angles)!r}"
    return f"{kind} q{q}"


def _custom_line(m, a: int, b: int) -> str:
    entries = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in np.asarray(m).ravel())
    return f"G2 CUSTOM q{a} q{b} {entries}"


@st.composite
def gate2_lines(draw) -> str:
    family = draw(st.sampled_from(FAMILIES))
    a, b = draw(st.sampled_from(((0, 1), (1, 0))))
    if family == "CPHASE":
        family = f"CPHASE({draw(angles)!r})"
    elif family == "FSIM":
        family = f"FSIM({draw(angles)!r},{draw(angles)!r})"
    elif family == "CUSTOM":
        return _custom_line(haar_unitary(4, np.random.default_rng(draw(seeds))), a, b)
    return f"G2 {family} q{a} q{b}"


@st.composite
def circuits(draw) -> str:
    lines = ["qubits 2"]
    measured: list[int] = []
    for _ in range(draw(st.integers(1, 8))):
        for q in (0, 1):
            if q not in measured and draw(st.booleans()):
                lines.append(draw(gate1_lines(q)))
        if not measured and draw(st.booleans()):
            lines.append(draw(gate2_lines()))
        if len(measured) < 2 and draw(st.integers(0, 5)) == 0:
            q = draw(st.sampled_from([q for q in (0, 1) if q not in measured]))
            lines.append(f"M q{q}")
            measured.append(q)
    if draw(st.booleans()):
        lines += [f"M q{q}" for q in (0, 1) if q not in measured]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(circuits())
def test_every_legal_policy_verifies_through_text(text):
    ir = parse_circuit(text)
    for mode in PolicyMode:
        for special_cases in (True, False):
            policy = CompilePolicy(mode, special_cases)
            try:
                schedule = compile_verifying_prefixes(ir, policy)
            except IllegalPolicyError:
                assert mode in (PolicyMode.VZ_CARRY, PolicyMode.ENC_MIXED)
                continue
            assert simulate_schedule(parse_schedule(schedule.to_text()), ir) <= 1e-8


@settings(max_examples=100, deadline=None, derandomize=True)
@given(circuits())
def test_every_pulse_area_is_a_calibrated_one(text):
    ir = parse_circuit(text)
    for mode in PolicyMode:
        for special_cases in (True, False):
            try:
                schedule = compile_circuit(ir, CompilePolicy(mode, special_cases))
            except IllegalPolicyError:
                assert mode in (PolicyMode.VZ_CARRY, PolicyMode.ENC_MIXED)
                continue
            areas = schedule.values[schedule.kind == PULSE, 0].tolist()
            assert set(areas) <= {math.pi / 2, math.pi}, (mode, special_cases)


@st.composite
def controlled_circuits(draw) -> tuple[str, list[int | None]]:
    """Haar ``U`` gates, CNOTs and controlled-U CUSTOM gates, some CZ, SQISW
    and Haar CUSTOM gates between; with each 2q gate's control, if any."""
    lines, controls = ["qubits 2"], []
    for _ in range(draw(st.integers(1, 8))):
        for q in (0, 1):
            if draw(st.booleans()):
                lines.append(_u_line(q, haar_unitary(2, np.random.default_rng(draw(seeds)))))
        a, b = draw(st.sampled_from(((0, 1), (1, 0))))
        kind = draw(st.sampled_from(
            ("CNOT", "CNOT", "controlled", "controlled", "CZ", "SQISW", "haar")
        ))
        rng = np.random.default_rng(draw(seeds))
        if kind == "controlled":  # the first named qubit controls
            m = np.eye(4, dtype=complex)
            m[2:, 2:] = haar_unitary(2, rng)
            lines.append(_custom_line(m, a, b))
        elif kind == "haar":
            lines.append(_custom_line(haar_unitary(4, rng), a, b))
        else:
            lines.append(f"G2 {kind} q{a} q{b}")
        controls.append(a if kind in ("CNOT", "controlled") else None)
    return "\n".join(lines) + "\n", controls


def _segments(schedule) -> list[tuple[list[float], list[float]]]:
    """The pulse areas on (q0, q1) before each 2q gate, then before the FRAMEs."""
    segments, pulses = [], ([], [])
    for k, (q, _), (sigma, _) in zip(schedule.kind.tolist(), schedule.qubits.tolist(),
                                     schedule.values.tolist()):
        if k == PULSE:
            pulses[q].append(sigma)
        elif k == GATE2:
            segments.append(pulses)
            pulses = ([], [])
    return segments + [pulses]


def _pulse_counts(schedule) -> list[tuple[int, int]]:
    """The number of pulses on (q0, q1) before each 2q gate."""
    return [(len(s0), len(s1)) for s0, s1 in _segments(schedule)[:-1]]


# How each auto rule may flush (q0, q1): virtual-Z ("vz", at most 2 pulses)
# or exact ("exact", at most 3).  An ENC gate compiles either qubit exactly.
_FLUSHES = {"carry": [("vz", "vz")], "enc": [("vz", "exact"), ("exact", "vz")],
            "partial q0": [("vz", "exact")], "partial q1": [("exact", "vz")],
            "zero": [("exact", "exact")]}
_BUDGET = {"vz": 2, "exact": 3}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(controlled_circuits(), st.booleans())
def test_auto_partial_carry_keeps_the_passing_qubit_virtual(circuit, special_cases):
    text, controls = circuit
    ir = parse_circuit(text)
    schedule = compile_verifying_prefixes(ir, CompilePolicy(PolicyMode.AUTO, special_cases))
    assert simulate_schedule(parse_schedule(schedule.to_text()), ir) <= 1e-9
    rules = [rule for rule, _ in _gate2_rules(ir, PolicyMode.AUTO).values()]
    assert [int(r[-1]) if r.startswith("partial") else None for r in rules] == controls
    # the end flushes both qubits with virtual-Z, as carry does
    for rule, segment in zip(rules + ["carry"], _segments(schedule), strict=True):
        assert any(
            all(len(sigmas) <= _BUDGET[how] for how, sigmas in zip(ends, segment))
            for ends in _FLUSHES[rule]
        ), (rule, segment)
        if rule.startswith("partial"):
            # a Haar gate's exact flush, and an empty buffer's under a frame, has an X180
            assert math.pi not in segment[int(rule[-1])], (rule, segment)


@st.composite
def enc_circuits(draw) -> str:
    """A run of one to three Clifford or Haar ``U`` gates on each qubit
    before every 2q gate: ISWAP, SQISW or FSIM in either qubit order, or
    CNOT, CZ or a Haar CUSTOM gate."""
    lines = ["qubits 2"]
    for _ in range(draw(st.integers(1, 6))):
        for q in (0, 1):
            for _ in range(draw(st.integers(1, 3))):
                if draw(st.booleans()):
                    m = haar_unitary(2, np.random.default_rng(draw(seeds)))
                else:
                    m = draw(st.sampled_from(clifford_table())).matrix
                lines.append(_u_line(q, m))
        a, b = draw(st.sampled_from(((0, 1), (1, 0))))
        family = draw(st.sampled_from(("ISWAP", "SQISW", "FSIM", "FSIM", "CNOT", "CZ", "CUSTOM")))
        if family == "FSIM":
            family = f"FSIM({draw(angles)!r},{draw(angles)!r})"
        elif family == "CUSTOM":
            lines.append(_custom_line(haar_unitary(4, np.random.default_rng(draw(seeds))), a, b))
            continue
        lines.append(f"G2 {family} q{a} q{b}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(enc_circuits(), st.booleans())
def test_auto_compiles_the_cheaper_end_of_each_enc_gate(text, special_cases):
    ir = parse_circuit(text)
    policy = CompilePolicy(PolicyMode.AUTO, special_cases)
    schedule = compile_verifying_prefixes(ir, policy)
    assert simulate_schedule(parse_schedule(schedule.to_text()), ir) <= 1e-9
    # each ENC gate computes q0's virtual-Z end (as enc-mixed compiles it),
    # then q1's: record each end's pulse count
    counts = []
    real_enc_end = circuit._enc_end

    def recording_enc_end(*args):
        ends = real_enc_end(*args)
        counts.append(ends[2])
        return ends

    with mock.patch.object(circuit, "_enc_end", recording_enc_end):
        assert compile_circuit(ir, policy).to_text() == schedule.to_text()
    rules = [rule for rule, _ in _gate2_rules(ir, PolicyMode.AUTO).values()]
    enc_segments = [seg for rule, seg in zip(rules, _pulse_counts(schedule), strict=True)
                    if rule == "enc"]
    assert len(counts) == 2 * len(enc_segments)
    for (q0_end, q1_end), segment in zip(zip(counts[0::2], counts[1::2]), enc_segments):
        assert sum(segment) == min(q0_end, q1_end) <= q0_end, (segment, q0_end, q1_end)
        if not special_cases:
            # both ends cost 2 + 3 pulses, so the tie keeps q0's virtual-Z
            # end: the text is the one enc-mixed's fixed end gives
            assert segment == (2, 3)


def test_auto_compiles_q0_exactly_where_that_saves_a_pulse():
    # q0's X180 costs one pulse either way; q1's Haar gate costs three exact
    # pulses but two virtual-Z ones
    ir = parse_circuit("qubits 2\nX180 q0\nU q1 0.3 0.7 0.5\nG2 SQISW q0 q1\n")
    fixed_end = compile_circuit(ir, CompilePolicy(PolicyMode.ENC_MIXED))
    cheaper_end = compile_circuit(ir, CompilePolicy(PolicyMode.AUTO))
    assert _pulse_counts(fixed_end) == [(1, 3)]
    assert _pulse_counts(cheaper_end) == [(1, 2)]
    assert cheaper_end.stats.schemes == {"vz": 1, "three": 0, "special": 1}
    assert simulate_schedule(parse_schedule(cheaper_end.to_text()), ir) <= 1e-9
    # without special cases both ends cost 2 + 3 pulses, and the tie keeps q0's
    no_special = [
        compile_circuit(ir, CompilePolicy(mode, special_cases=False)).to_text()
        for mode in (PolicyMode.ENC_MIXED, PolicyMode.AUTO)
    ]
    assert no_special[0] == no_special[1]


@st.composite
def carrier_circuits(draw) -> str:
    """At most one 1q gate on each qubit, q0's first, before each of CZ, SWAP,
    ISWAP and CPHASE in either qubit order; then measurements of q0 and q1
    in that order, or none.  (A q1 gate after the last 2q gate would be
    flushed after q0's FRAME under ``auto`` but before it under ``vz-carry``.)"""
    lines = ["qubits 2"]
    for _ in range(draw(st.integers(1, 8))):
        for q in (0, 1):
            if draw(st.booleans()):
                lines.append(draw(gate1_lines(q)))
        family = draw(st.sampled_from(("CZ", "SWAP", "ISWAP", "CPHASE")))
        if family == "CPHASE":
            family = f"CPHASE({draw(angles)!r})"
        a, b = draw(st.sampled_from(((0, 1), (1, 0))))
        lines.append(f"G2 {family} q{a} q{b}")
    if draw(st.booleans()):
        lines += ["M q0", "M q1"]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(carrier_circuits())
def test_vz_carry_flushes_at_once_what_auto_flushes_at_the_next_gate(text):
    ir = parse_circuit(text)
    for special_cases in (True, False):
        at_once, at_gate = (
            compile_circuit(ir, CompilePolicy(mode, special_cases)).to_text()
            for mode in (PolicyMode.VZ_CARRY, PolicyMode.AUTO)
        )
        assert at_once == at_gate, special_cases
