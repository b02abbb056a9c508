"""Hypothesis fuzz of CLI ``classify``: gate specs, CUSTOM entries, tolerances.

Valid specs are mangled (a token replaced by ``nan``, ``inf``, ``1e308`` or
junk, an argument added or dropped, a parenthesis lost), the 16 CUSTOM
``re,im`` tokens on stdin are replaced, dropped, repeated or joined by
unicode whitespace, and ``--tolerance`` is any number from a negative one
through ``1e308`` to NaN and the infinities.  ``phasepulse classify`` may
only exit 0 with its report, or exit 1 with one ``error:`` line; a
traceback or a numpy ``RuntimeWarning`` fails the test.  A tolerance that
is not a number is left to argparse, which rejects it as it does for every
option (usage message, exit 2).
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasepulse.cli import main

SPECS = ("CZ", "CNOT", "SWAP", "ISWAP", "SQISW", "CPHASE(0.5)", "FSIM(0.4,0.9)", "CUSTOM")
SPEC_JUNK = ("nan", "inf", "-inf", "1e308", "1e309", "", ",", "(", ")", "0x1", "1_0", "FSIM", "q0")
SQISW = np.array([[1, 0, 0, 0], [0, 1, 1j, 0], [0, 1j, 1, 0], [0, 0, 0, math.sqrt(2)]]) / math.sqrt(2)
BASES = (np.eye(4)[[0, 2, 1, 3]], SQISW, np.zeros((4, 4)), np.ones((4, 4)), np.eye(4)[[0, 0, 1, 2]])
ENTRIES = (
    "1e308,0", "0,1e308", "-1e308,1e308", "1e154,0", "1e-320,0", "nan,0", "0,inf", "1", "1,2,3",
    ",", "1e309,0", "2,0", "0,0", "1,0", "1e150,1e150",
)
SPACES = ("\t", " ", "\xa0", "\x1f", "\x0b", " ", "  ")
TOLERANCES = (
    "1e-8", "0", "-0.0", "1e-300", "1e-3", "0.25", "1", "10", "1e300", "1.7976931348623157e308",
    "nan", "-nan", "inf", "-inf", "1e309", "-1", "-1e-300",
)


def _entries(u) -> list[str]:
    return [f"{z.real!r},{z.imag!r}" for z in np.asarray(u, dtype=complex).ravel().tolist()]


@st.composite
def specs(draw) -> str:
    if draw(st.booleans()):
        return "CUSTOM"
    spec = draw(st.sampled_from(SPECS))
    if draw(st.booleans()):
        return spec
    op = draw(st.sampled_from(("number", "add", "drop", "paren", "case")))
    if op == "number" and "(" in spec:
        head, args = spec[:-1].split("(")
        args = args.split(",")
        args[draw(st.integers(0, len(args) - 1))] = draw(st.sampled_from(SPEC_JUNK))
        return f"{head}({','.join(args)})"
    if op == "add":
        return spec[:-1] + ",0.1)" if "(" in spec else spec + "(0.1)"
    if op == "drop":
        return spec.split("(")[0] + "()" if "(" in spec else spec[:-1]
    if op == "paren":
        return spec.replace(")", "") if ")" in spec else spec + ")"
    return spec.lower()


@st.composite
def custom_stdin(draw) -> str:
    tokens = _entries(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(("replace", "drop", "repeat")))
        if op == "replace":
            tokens[i] = draw(st.sampled_from(ENTRIES))
        elif op == "drop" and len(tokens) > 1:
            del tokens[i]
        else:
            tokens.insert(i, tokens[i])
    return "".join(tok + draw(st.sampled_from(SPACES)) for tok in tokens)


@given(spec=specs(), stdin=custom_stdin(), tolerance=st.sampled_from(TOLERANCES))
@settings(max_examples=300, deadline=None)
@example(spec="CUSTOM", stdin=" ".join(_entries(np.zeros((4, 4)))), tolerance="1")
@example(spec="CUSTOM", stdin=" ".join(["1e154,0"] * 16), tolerance="1.7976931348623157e308")
@example(spec="CUSTOM", stdin=" ".join(_entries(np.ones((4, 4)))), tolerance="nan")
def test_classify_fails_cleanly(spec, stdin, tolerance):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    with warnings.catch_warnings(), patch("sys.stdin", stdin):
        warnings.simplefilter("error")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["classify", spec, f"--tolerance={tolerance}"])
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().startswith(f"gate: {spec}\n")
        assert math.isfinite(float(tolerance)) and float(tolerance) >= 0.0
    else:
        assert code == 1, err.getvalue()
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
