"""Property test: every legal policy compiles random circuits exactly.

Circuits mix Haar-random and Clifford ``U`` gates, ``RZ``, ``X90`` and
``X180`` with every two-qubit family in both qubit orders, with and without
measurements (some mid-circuit).  Under every legal policy, with special
cases on and off, the frame checker must pass and the schedule must verify
through its text form.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from phasepulse.circuit import (
    CompilePolicy,
    IllegalPolicyError,
    PolicyMode,
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


@st.composite
def gate2_lines(draw) -> str:
    family = draw(st.sampled_from(FAMILIES))
    a, b = draw(st.sampled_from(((0, 1), (1, 0))))
    if family == "CPHASE":
        family = f"CPHASE({draw(angles)!r})"
    elif family == "FSIM":
        family = f"FSIM({draw(angles)!r},{draw(angles)!r})"
    elif family == "CUSTOM":
        m = haar_unitary(4, np.random.default_rng(draw(seeds)))
        entries = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in m.ravel())
        return f"G2 CUSTOM q{a} q{b} {entries}"
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
                schedule = compile_circuit(ir, policy, check_frames=True)
            except IllegalPolicyError:
                assert mode in (PolicyMode.VZ_CARRY, PolicyMode.ENC_MIXED)
                continue
            assert simulate_schedule(parse_schedule(schedule.to_text()), ir) <= 1e-8
