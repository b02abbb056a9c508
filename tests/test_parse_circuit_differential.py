"""Differential test of ``parse_circuit`` against the line-by-line parser.

The reference below is the parser that built one ``Gate1``, ``Gate2`` or
``Measure`` per line before circuits became columnar, with the op loop of
``CircuitIR`` that checked them.  Circuit text, mangled as in
``test_fuzz_circuit.py`` and further with comments, blank lines, CRLF and
``\\x1c``/``\\u2028`` line breaks, a second ``qubits`` header, ops after a
measurement, a 2q gate on one qubit, ``gamma`` one ulp either side of the
ends of its range and CUSTOM gates one ulp either side of the 1e-8
unitarity defect, must get the same verdict from both: the same ops
(``GateParams`` bit for bit, the same names and qubits, equal matrix
bytes), or the same exception type, message and line.
"""

import math
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasepulse.circuit import (
    CircuitError,
    CircuitIR,
    CircuitSyntaxError,
    Gate1,
    Gate2,
    Measure,
    parse_circuit,
)
from phasepulse.su2 import GateParams, _unitarity_defect, as_unitary, standard_gate
from test_fuzz_circuit import ENTRIES, JUNK, LINES, SPACES, mangled_circuits

PI = math.pi

# ------------------------------------------------------------ the reference

_QUBIT_RE = re.compile(r"^q([0-9]+)$")  # ASCII digits only
_PARAM_GATE_RE = re.compile(r"^([A-Z]+)\((.*)\)$")
_FIXED_GATE2 = ("CZ", "CNOT", "SWAP", "ISWAP", "SQISW")

_X90_PARAMS = GateParams(0.0, -PI / 2, PI / 4)
_X180_PARAMS = GateParams(0.0, -PI / 2, PI / 2)


def _parse_float(tok: str) -> float:
    try:
        if not tok.isascii():  # ASCII digits only
            raise ValueError
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


def parse_gate_spec(spec, entries=()):
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


def _parse_op(tokens, n_qubits):
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


def _check_ir(n_qubits, ops):
    """The checks of the object-based ``CircuitIR``, in its order."""
    if n_qubits != 2:
        raise CircuitError(f"this compiler handles exactly 2 qubits, got {n_qubits}")
    measured = set()
    for i, op in enumerate(ops):
        qubits = op.qubits if isinstance(op, Gate2) else (op.qubit,)
        for q in qubits:
            if not 0 <= q < n_qubits:
                raise CircuitError(f"op {i}: qubit index {q} out of range", i)
            if q in measured:
                raise CircuitError(f"op {i}: qubit {q} already measured", i)
        if isinstance(op, Gate2) and op.qubits[0] == op.qubits[1]:
            raise CircuitError(f"op {i}: two-qubit gate needs distinct qubits", i)
        if isinstance(op, Measure):
            measured.add(op.qubit)


def reference_parse_circuit(text):
    """The line-by-line parser: one op object per line, then the IR checks."""
    n_qubits = None
    ops = []
    op_lines = []
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
                if not tokens[1].isascii():  # ASCII digits only
                    raise ValueError
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
        _check_ir(n_qubits, ops)
    except CircuitError as exc:
        raise CircuitSyntaxError(str(exc), op_lines[exc.op_index]) from None
    return ops


# ---------------------------------------------------------- the comparison


def _bits(x: float) -> str:
    return float(x).hex()


def assert_same_columns(got: CircuitIR, want: CircuitIR) -> None:
    """The columns of two circuits are equal bit for bit (``lines`` aside)."""
    assert got.kind.tolist() == want.kind.tolist()
    assert got.qubits.tolist() == want.qubits.tolist()
    assert [_bits(x) for x in got.angles.ravel().tolist()] == [
        _bits(x) for x in want.angles.ravel().tolist()
    ]
    assert got.gate2_row.tolist() == want.gate2_row.tolist()
    assert got.gate2_matrices.shape == want.gate2_matrices.shape
    assert got.gate2_matrices.tobytes() == want.gate2_matrices.tobytes()
    assert got.gate2_labels == want.gate2_labels


def assert_same_verdict(text: str) -> None:
    try:
        want = reference_parse_circuit(text)
    except Exception as exc:  # the parser must raise the same
        try:
            parse_circuit(text)
        except Exception as got:
            assert type(got) is type(exc)
            assert str(got) == str(exc)
            assert got.line == exc.line
        else:
            raise AssertionError(f"parse_circuit accepted what the reference rejects: {exc}")
        return
    ir = parse_circuit(text)
    assert_same_columns(CircuitIR(2, ir.ops), ir)  # one row builder for both
    assert len(ir.ops) == len(want)
    for got, op, angles in zip(ir.ops, want, ir.angles.tolist()):
        assert type(got) is type(op)
        if isinstance(op, Gate1):
            assert got.qubit == op.qubit
            p, q = got.params, op.params
            want_bits = [_bits(x) for x in (q.alpha, q.beta, q.gamma)]
            assert [_bits(x) for x in (p.alpha, p.beta, p.gamma)] == want_bits
            assert [_bits(x) for x in angles] == want_bits  # what the compiler reads
        elif isinstance(op, Gate2):
            assert got.qubits == op.qubits and got.name == op.name
            assert got.matrix.dtype == op.matrix.dtype and got.matrix.shape == op.matrix.shape
            assert got.matrix.tobytes() == op.matrix.tobytes()
        else:
            assert got.qubit == op.qubit


# ------------------------------------------------------------- the inputs


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def _custom(matrix) -> str:
    return " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in np.asarray(matrix).ravel())


def _near_threshold_customs() -> list[str]:
    """CUSTOM lines of scaled unitaries whose defect straddles 1e-8."""
    lines = []
    for base in (np.eye(4), standard_gate("ISWAP")):
        scale = math.sqrt(1.0 + 1e-8)
        for k in range(-3, 4):
            s = _ulps(scale, k)
            lines.append(f"G2 CUSTOM q0 q1 {_custom(s * base)}")
    return lines


CUSTOM_LINES = _near_threshold_customs()
# A scaled Haar unitary whose defect is 1.0000000161e-8 as named but 9.9999999e-9
# with the qubits exchanged: the unitarity check must see the matrix as written.
SEAM_CUSTOM = (
    "G2 CUSTOM q1 q0 0.3426648724311078,0.420519287906815 0.3798799103331779,0.3166821367631623 "
    "-0.6126703441318128,-0.11740910503977411 0.02569715066131034,0.26709138811191135 "
    "0.3298460121826492,-0.29474502016521464 0.21718844904494736,0.07278079340076221 "
    "0.4797230011117461,-0.4376201880887567 0.21454281061945532,0.533089974245832 "
    "0.09434697053260183,-0.5202819617589088 0.18847242069571582,-0.07260456853464226 "
    "-0.24501476489910828,-0.22004344281348207 -0.7524818741628961,-0.07022634831128012 "
    "-0.27547779574706366,0.39317759156021287 0.6595095255977486,-0.47664423903432257 "
    "0.2555303775535204,-0.12432798985041905 -0.13327452471051632,-0.09415683053697732"
)
CUSTOM_LINES.append(SEAM_CUSTOM)
GAMMA_LINES = [
    f"U q{q} 0.25 -0.5 {_ulps(g, k)!r}"
    for q, g in ((0, -1e-9), (1, PI / 2 + 1e-9))
    for k in (-1, 0, 1)
]
EXTRA_LINES = (
    CUSTOM_LINES
    + GAMMA_LINES
    + [
        "qubits 2", "G2 CZ q0 q0", "G2 CNOT q1 q1", "M q0", "M q1", "U q0 -0.0 -0.0 -0.0",
        f"U q1 {PI!r} {-PI!r} {PI / 2!r}", "U q0 1_0 0 0", "RZ q1 0x1", "X90 q01", "RZ q0 -0",
        "G2 CPHASE(0.5000000000001) q0 q1", "G2 CPHASE(0.5) q0 q1", "G2 FSIM(1e309,0) q1 q0",
        "U q0 1e309 0 0", "RZ q1 1e308", "U q0 1e 0 0", "X180 q1", "G2 SWAP q1 q0",
    ]
)
POOL = tuple(LINES[1:]) + tuple(EXTRA_LINES)


def _custom_with(**entries: str) -> str:
    """The identity as a CUSTOM line, with the entries at the given positions
    (``e0`` to ``e15``) replaced."""
    tokens = _custom(np.eye(4)).split()
    for name, tok in entries.items():
        tokens[int(name[1:])] = tok
    return "G2 CUSTOM q0 q1 " + " ".join(tokens)


BREAKS = ("\n", "\n", "\n", "\r\n", "\x1c", " ", "\x85", "\n\n")


@st.composite
def circuit_texts(draw) -> str:
    lines = draw(st.lists(st.sampled_from(POOL), max_size=14))
    if draw(st.integers(0, 9)):
        lines.insert(0, "qubits 2")
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        how = draw(st.sampled_from(("comment", "spaces", "junk", "entry", "blank")))
        if how == "comment":
            lines[i] += draw(st.sampled_from(("  # note", "#", " #x 1 2")))
        elif how == "spaces" and len(tokens) > 1:
            k = draw(st.integers(1, len(tokens) - 1))
            tokens[k - 1] += draw(st.sampled_from(SPACES)) + tokens.pop(k)
            lines[i] = " ".join(tokens)
        elif how == "junk":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(JUNK))
            lines[i] = " ".join(tokens)
        elif how == "entry" and len(tokens) > 4 and tokens[1] == "CUSTOM":
            tokens[draw(st.integers(4, len(tokens) - 1))] = draw(st.sampled_from(ENTRIES))
            lines[i] = " ".join(tokens)
        else:
            lines.insert(i, draw(st.sampled_from(("", "   ", "# comment"))))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(BREAKS))
    return text


@given(text=st.one_of(circuit_texts(), mangled_circuits()))
@settings(max_examples=400, deadline=None)
@example(text="qubits 2\nM q0\nU q0 0 0 0\nU q0 0 0 nan\n")  # a syntax error beats an earlier IR error
@example(text="qubits 2\nU q0 0 0 2\nG2 CZ q0 q5\n")  # gamma before a later bad qubit
@example(text=f"qubits 2\n{CUSTOM_LINES[4]}\nU q0 0 0 0 0\n")
@example(text=f"qubits 2\n{CUSTOM_LINES[4].replace('q0 q1', 'q0 q7')}\n")  # not unitary, then a bad qubit
@example(text="qubits 2\nG2 CPHASE(0.5000000000001) q0 q1\nG2 CPHASE(0.5) q0 q1\n")
@example(text="qubits 2\nG2 CPHASE(0.5) q0 q1\nG2 CPHASE(0.50) q0 q1\n")  # one gate, two spellings
@example(text="qubits 2\nG2 CZ q0 q1\nG2 CZ q0 q01\n")
@example(text=f"qubits 2\nX90 q0\n{SEAM_CUSTOM}\n")
@example(text="qubits 2\nX90 q0\nqubits 2\n")
@example(text="U q0 0 0 0\nqubits 2\n")
@example(text="")
# where a cheap check fails and the token checks word the error, in token order
@example(text="qubits 2\nU q0 inf x 0.5\n")  # the non-finite token comes first
@example(text="qubits 2\nU q0 1e308 1e308 0.5\n")  # finite angles whose sum overflows
@example(text="qubits 2\nU q0 -1e308 0.5 -1e308\n")  # the same, with gamma out of range
@example(text=f"qubits 2\nU q0 0 0 {math.nextafter(PI / 2 + 1e-9, 4.0)!r}\n")  # one ulp past
@example(text=f"qubits 2\nU q0 0 0 {PI / 2 + 1e-9!r}\n")  # the top of gamma's range
@example(text="qubits 2\nU q01 0 0 0\nU q1 0.5 0.5 0.5\n")  # a qubit read by the regex
@example(text="qubits 2\nU q0 0.5 0.5 \u0661\n")  # a non-ASCII digit as gamma
@example(text="qubits 2\nU q0 0.5 0.5 0.5 # \u0661\nU q2 0 0 0\n")  # non-ASCII text, ASCII line
@example(text="qubits 2\nRZ q0 nan\n")
@example(text="qubits 2\nG2 FSIM(inf,0) q0 q1\n")
@example(text=f"qubits 2\n{_custom_with(e1='1,2,3')}\n")  # after a good entry
@example(text=f"qubits 2\n{_custom_with(e3='nan,0')}\n")
@example(text=f"qubits 2\n{_custom_with(e2='nan,0', e5='1,2,3')}\n")
@example(text=f"qubits 2\n{_custom_with(e2='1,2,3', e5='nan,0')}\n")
@example(text=f"qubits 2\n{_custom_with(e0='1e308,1e308')}\n")  # finite, sum overflows, not unitary
@example(text="qubits \u0662\n")  # non-ASCII digits: a bad token of each kind
@example(text="qubits 2\nX90 q\u0661\n")
@example(text="qubits 2\nU q0 0.5 \u0661 9\n")
@example(text="qubits 2\nG2 FSIM(\u0661,2) q0 q1\n")
@example(text="qubits 2\n" + _custom_with(e4="\u0661,0") + "\n")
@example(text="qubits 2\n" + _custom_with(e2="0,\u0661", e5="1,2,3") + "\n")  # before a later bad entry
def test_parse_circuit_matches_line_by_line_reference(text):
    assert_same_verdict(text)


def test_threshold_customs_straddle_the_tolerance():
    # the CUSTOM lines above test both sides of the 1e-8 defect bound
    defects = [
        float(_unitarity_defect(np.array([complex(*map(float, tok.split(","))) for tok in line.split()[4:]])
                                .reshape(4, 4)))
        for line in CUSTOM_LINES
    ]
    assert min(defects) <= 1e-8 < max(defects)
    for line in CUSTOM_LINES:
        assert_same_verdict(f"qubits 2\n{line}\nM q0\n")


def test_same_label_different_matrix_keeps_both_matrices():
    ir = parse_circuit("qubits 2\nG2 CPHASE(0.5000000000001) q0 q1\nG2 CPHASE(0.5) q0 q1\n")
    assert ir.gate2_labels == ("CPHASE(0.5)", "CPHASE(0.5)")
    assert ir.gate2_row.tolist() == [0, 1]
    assert not np.array_equal(ir.gate2_matrices[0], ir.gate2_matrices[1])
