"""Hypothesis fuzz of the verify boundary.

Genuine schedules are mangled line by line: tokens replaced by junk, by
qubits such as ``q7``, or by values such as ``nan``, ``inf`` and ``1e308``
after their key; tokens inserted or deleted; ``sigma=``, ``phase=`` and
``z=`` keys stripped; and junk lines inserted.  Both
``parse_schedule`` -> ``simulate_schedule`` and ``phasepulse verify`` may
only reject the text with a :class:`CircuitError` (exit 1) or report a
finite deviation (exit 0 within 1e-8, else 3).  A traceback or a numpy
``RuntimeWarning`` fails the test.
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasepulse.circuit import (
    CircuitError,
    CompilePolicy,
    PolicyMode,
    compile_circuit,
    parse_circuit,
    parse_schedule,
    simulate_schedule,
)
from phasepulse.cli import main

CIRCUIT = """qubits 2
X90 q0
U q1 0.3 -0.4 0.7
G2 CZ q0 q1
U q0 -1.1 0.2 1.2
G2 SQISW q1 q0
RZ q1 0.4
G2 CNOT q0 q1
M q0
"""
IR = parse_circuit(CIRCUIT)
SCHEDULES = [
    compile_circuit(IR, CompilePolicy(mode)).to_text().splitlines()
    for mode in (PolicyMode.THREE_ALWAYS, PolicyMode.AUTO)
]
KEYS = ("sigma=", "phase=", "z=")
JUNK = (
    "", "PULSE", "GATE2", "FRAME", "CZ", "q7", "q-1", "q", "nan", "inf", "-inf", "1e308",
    "-1e308", "1e309", "sigma=nan", "phase=inf", "z=1e308", "sigma=1e308", "phase=-1e308",
    "z=-inf", "sigma=", "=", "#",
)
junk = st.one_of(
    st.sampled_from(JUNK),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
numbers = st.one_of(
    st.sampled_from(("nan", "inf", "-inf", "1e308", "-1e308", "1e309", "-0", "")),
    st.floats().map(repr),
)
qubits = st.sampled_from(("q0", "q1", "q2", "q7", "q-1", "Q0", "q"))


@st.composite
def mangled_schedules(draw) -> str:
    lines = list(draw(st.sampled_from(SCHEDULES)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        op = draw(st.sampled_from(("replace", "insert", "delete", "strip-key", "value", "qubit", "line")))
        # the key and qubit edits aim at tokens of their kind, when the line has one
        mark = "=" if op in ("strip-key", "value") else "q"
        aimed = [k for k, t in enumerate(tokens) if mark in t]
        if op in ("strip-key", "value", "qubit") and aimed:
            j = draw(st.sampled_from(aimed))
        else:
            j = draw(st.integers(0, len(tokens)))
        if op == "line":
            lines.insert(i, " ".join(draw(st.lists(junk, max_size=4))))
            continue
        if op == "insert":
            tokens.insert(j, draw(junk))
        elif j < len(tokens):
            if op == "replace":
                tokens[j] = draw(junk)
            elif op == "delete":
                del tokens[j]
            elif op == "value":
                tokens[j] = tokens[j].partition("=")[0] + "=" + draw(numbers)
            elif op == "qubit":
                tokens[j] = draw(qubits)
            else:
                key = next((k for k in KEYS if tokens[j].startswith(k)), "")
                tokens[j] = tokens[j][len(key):]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "circuit.txt").write_text(CIRCUIT)
    return root / "circuit.txt", root / "schedule.txt"


@given(text=mangled_schedules())
@settings(max_examples=300, deadline=None)
def test_mangled_schedules_fail_cleanly(files, text):
    circuit, schedule = files
    schedule.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # the CLI reads a file without its leading byte-order mark, which junk may insert
            deviation = simulate_schedule(parse_schedule(text.removeprefix("\ufeff")), IR)
        except CircuitError:
            expected = 1
        else:
            assert math.isfinite(deviation)
            expected = 0 if deviation <= 1e-8 else 3
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", str(circuit), str(schedule)])
    assert code == expected, err.getvalue()
    assert "Traceback" not in err.getvalue()
