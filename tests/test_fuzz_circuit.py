"""Hypothesis fuzz of the compile boundary: ``parse_circuit``, CLI ``compile`` and ``stats``.

A valid circuit with every kind of op is mangled line by line: tokens
replaced by ``nan``, ``inf``, ``1e308``, ``q7`` and other junk, CUSTOM
entries by huge or malformed ones, a CUSTOM gate given one entry too few or
too many, token separators replaced by unicode whitespace, and lines
inserted, repeated or dropped.  ``parse_circuit`` -> ``compile_circuit``
may only raise a :class:`CircuitError` (``phasepulse compile`` exits 1), or
an :class:`IllegalPolicyError` for the chosen policy (exit 2), with one
``error:`` line; ``phasepulse stats`` on the same file exits 0, or 1 with
one ``error:`` line.  A traceback or a numpy ``RuntimeWarning`` fails the
test.
"""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasepulse.circuit import (
    CircuitError,
    CompilePolicy,
    IllegalPolicyError,
    PolicyMode,
    compile_circuit,
    parse_circuit,
)
from phasepulse.cli import main

SWAP_ENTRIES = " ".join(f"{z.real:g},{z.imag:g}" for z in np.eye(4)[[0, 2, 1, 3]].ravel())
CIRCUIT = f"""qubits 2
U q0 0.3 -0.4 0.7
X90 q1
G2 CZ q0 q1
RZ q0 1.2
X180 q1
G2 CPHASE(0.5) q1 q0
G2 FSIM(0.4,0.9) q0 q1
G2 CUSTOM q0 q1 {SWAP_ENTRIES}
G2 SQISW q1 q0
U q1 -1.1 0.2 1.2
M q0
G2 ISWAP q0 q1
"""
LINES = CIRCUIT.splitlines()
HUGE_CUSTOM = f"qubits 2\nG2 CUSTOM q0 q1 {' '.join(['1e308,0'] * 16)}\n"

JUNK = (
    "nan", "inf", "-inf", "1e308", "-1e308", "1e309", "q7", "q-1", "Q0", "q", "", "#", "G2",
    "CUSTOM", "CPHASE(nan)", "FSIM(1e308,inf)", "CPHASE()", "M", "qubits", "3", "1_0", "0x1",
    "\u0661", "q\u0661", "\uff10.5", "CPHASE(\u0661)",  # non-ASCII digits
)
ENTRIES = ("1e308,0", "0,1e308", "-1e308,1e308", "nan,0", "0,inf", "1", "1,2,3", ",", "1e309,0")
SPACES = ("\t", " ", "\xa0", "\x1f", "\x0b", "\x1c", " ", "  ")


@st.composite
def mangled_circuits(draw) -> str:
    lines = list(LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        op = draw(st.sampled_from(
            ("replace", "entry", "count", "space", "insert", "repeat", "drop")
        ))
        custom = tokens[1:2] == ["CUSTOM"] and len(tokens) > 4  # entries start at token 4
        if op == "entry" and custom:
            tokens[draw(st.integers(4, len(tokens) - 1))] = draw(st.sampled_from(ENTRIES))
        elif op == "count" and custom:
            if draw(st.booleans()):
                del tokens[draw(st.integers(4, len(tokens) - 1))]
            else:
                tokens.append(draw(st.sampled_from(ENTRIES + ("1,0",))))
        elif op == "space" and len(tokens) > 1:
            k = draw(st.integers(1, len(tokens) - 1))
            tokens[k - 1] += draw(st.sampled_from(SPACES)) + tokens.pop(k)
        elif op == "insert":
            junk = draw(st.lists(st.sampled_from(JUNK + tuple(LINES)), max_size=4))
            lines.insert(i, " ".join(junk))
            continue
        elif op == "repeat":
            lines.insert(i, lines[i])
            continue
        elif op == "drop":
            del lines[i]
            continue
        else:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(JUNK))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def circuit_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-circuit") / "circuit.txt"


@given(text=mangled_circuits(), mode=st.sampled_from(PolicyMode))
@settings(max_examples=300, deadline=None)
@example(text=HUGE_CUSTOM, mode=PolicyMode.THREE_ALWAYS)
def test_mangled_circuits_fail_cleanly(circuit_file, text, mode):
    circuit_file.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            compile_circuit(parse_circuit(text), CompilePolicy(mode))
        except IllegalPolicyError:
            expected = 2
        except CircuitError:
            expected = 1
        else:
            expected = 0
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["compile", str(circuit_file), "--policy", mode.value])
        stats_out, stats_err = io.StringIO(), io.StringIO()
        with redirect_stdout(stats_out), redirect_stderr(stats_err):
            stats_code = main(["stats", str(circuit_file)])
    assert code == expected, err.getvalue()
    if expected:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == "" and out.getvalue().startswith(("PULSE", "GATE2", "FRAME"))
    # stats compiles under every policy and reports the illegal ones
    assert stats_code == (1 if expected == 1 else 0), stats_err.getvalue()
    if stats_code:
        assert stats_out.getvalue() == ""
        assert len(stats_err.getvalue().splitlines()) == 1 and stats_err.getvalue().startswith("error: ")
    else:
        assert stats_err.getvalue() == "" and stats_out.getvalue().startswith("three-always: ")
