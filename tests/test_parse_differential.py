"""Differential test of ``parse_schedule`` and the schedule checks.

The reference below is the line-by-line parser that built one ``Pulse``
and one ``PulseEvent`` per line before schedules became columnar, with the
event loop that checked them.  Schedule text, mangled as in
``test_fuzz.py`` and further with unusual separators (``\\x0b``, ``\\x1c``,
``\\u2028``, ``\\u2003``), tokens such as ``1_0``, ``-0`` and ``1e309``,
and reordered, repeated or dropped lines, must get the same verdict from
both: the same error with the same line number, or the same events, the
same ``ScheduleMismatchError`` message and a bit-identical deviation.
"""

import math
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasepulse.circuit import (
    CircuitError,
    CircuitSyntaxError,
    FrameEvent,
    Gate2Event,
    PulseEvent,
    PulseSchedule,
    ScheduleMismatchError,
    parse_schedule,
    simulate_schedule,
)
from phasepulse.schemes import Pulse
from test_fuzz import IR, SCHEDULES, mangled_schedules

_QUBIT_RE = re.compile(r"^q(\d+)$")


def _reference_float(tok: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise CircuitError(f"expected a number, got {tok!r}") from None
    if not math.isfinite(value):
        raise CircuitError(f"number must be finite, got {tok!r}")
    return value


def _reference_qubit(tok: str) -> int:
    m = _QUBIT_RE.match(tok)
    if not m:
        raise CircuitError(f"expected a qubit like 'q0', got {tok!r}")
    q = int(m.group(1))
    if q >= 2:
        raise CircuitError(f"qubit {tok} out of range for 2 qubits")
    return q


def reference_parse_schedule(text: str) -> list:
    """The line-by-line parser: one event object per line."""
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "PULSE" and len(tokens) == 4:
                q = _reference_qubit(tokens[1])
                if not (tokens[2].startswith("sigma=") and tokens[3].startswith("phase=")):
                    raise CircuitError("malformed PULSE line")
                sigma = _reference_float(tokens[2][len("sigma="):])
                phase = _reference_float(tokens[3][len("phase="):])
                events.append(PulseEvent(q, Pulse(sigma, phase)))
            elif kind == "GATE2" and len(tokens) == 4:
                qubits = (_reference_qubit(tokens[2]), _reference_qubit(tokens[3]))
                events.append(Gate2Event(qubits, tokens[1]))
            elif kind == "FRAME" and len(tokens) == 3:
                q = _reference_qubit(tokens[1])
                if not tokens[2].startswith("z="):
                    raise CircuitError("malformed FRAME line")
                events.append(FrameEvent(q, _reference_float(tokens[2][len("z="):])))
            else:
                raise CircuitError(f"unrecognized schedule line {raw!r}")
        except ValueError as exc:
            raise CircuitSyntaxError(str(exc), line_no) from None
    return events


def reference_check(events, ir) -> None:
    """The event loop's checks, in its order; raises at the first bad event."""
    gate2_ops = ir.gate2_ops()
    framed = [False, False]
    next_gate2 = 0
    for ev in events:
        if isinstance(ev, PulseEvent):
            if framed[ev.qubit]:
                raise ScheduleMismatchError(f"PULSE on q{ev.qubit} after its FRAME")
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
            next_gate2 += 1
        else:
            if framed[ev.qubit]:
                raise ScheduleMismatchError(f"second FRAME for q{ev.qubit}")
            framed[ev.qubit] = True
    if next_gate2 != len(gate2_ops):
        raise ScheduleMismatchError("schedule is missing GATE2 events")
    if not all(framed):
        raise ScheduleMismatchError(f"schedule has no FRAME for q{framed.index(False)}")


# \x0b, \x1c, \u2028, \r\n and \x85 break lines for str.splitlines(); the
# others only separate tokens for str.split().
SEPARATORS = ("\x0b", "\x1c", "\u2028", "\u2003", "\t", "\xa0", "  ", "\r\n", "\x85", "\x1f")
# pi and 3 pi normalize to the seam, where a sigma is kept at +pi
TOKENS = (
    "1_0", "-0", "1e309", "-1e309", "+1", "1.", ".5", "1E5", "0x1", "\u0661", "1e-400", "--1",
    "1" * 400, "q00", "q\u0661", "q1 ", "CZ", "#", "3.141592653589793", "-3.141592653589793",
    "9.42477796076938", "1e-320",
)
CHARS = ("#", "=", "_", "e", "\x1f", "\u2003", "\xa0")


@st.composite
def differential_texts(draw) -> str:
    lines = draw(st.one_of(
        st.sampled_from(SCHEDULES).map(list),
        mangled_schedules().map(lambda text: text.splitlines()),
    ))
    for _ in range(draw(st.integers(0, 3))):
        # half the edits aim at the few GATE2 and FRAME lines
        rare = [i for i, line in enumerate(lines) if line.startswith(("GATE2", "FRAME"))]
        i = draw(st.sampled_from(rare if rare and draw(st.booleans()) else range(len(lines))))
        op = draw(st.sampled_from(
            ("separator", "char", "value", "token", "swap", "repeat", "drop")
        ))
        if op == "char":
            # after a key or inside a GATE2 name, or anywhere
            aimed = [k + 1 for k, c in enumerate(lines[i]) if c == "="] + [7, 8]
            k = draw(st.sampled_from(aimed) | st.integers(0, len(lines[i])))
            lines[i] = lines[i][:k] + draw(st.sampled_from(CHARS)) + lines[i][k:]
        elif op == "separator" and " " in lines[i]:
            k = draw(st.sampled_from([k for k, c in enumerate(lines[i]) if c == " "]))
            lines[i] = lines[i][:k] + draw(st.sampled_from(SEPARATORS)) + lines[i][k + 1:]
        elif op == "value" and "=" in lines[i]:
            tokens = lines[i].split(" ")
            k = draw(st.sampled_from([k for k, t in enumerate(tokens) if "=" in t]))
            tokens[k] = tokens[k].partition("=")[0] + "=" + draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "token":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "drop" and len(lines) > 1:
            del lines[i]
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\r\n", "\n\n")))


def _simulated(schedule) -> str:
    try:
        return repr(simulate_schedule(schedule, IR))
    except ScheduleMismatchError as exc:
        return f"mismatch: {exc}"


@given(text=differential_texts())
@settings(max_examples=600, deadline=None)
@example(text="PULSE q0 sigma=1_0 phase=-0\n")
@example(text="PULSE q0 sigma=3.141592653589793 phase=-3.141592653589793\n")
@example(text="GATE2 C#Z q0 q1\n")
@example(text="PULSE q0 sigma=\x1f1 phase=2\n")
@example(text="PULSE q0 sigma=1 phase=2\x0bPULSE q1 sigma=1e309 phase=0\n")
@example(text="PULSE q0 sigma=1 phase=2\nPULSE q1 sigma=1 phase=2 # note\n")
@example(text="PULSE q0 sigma=1e phase=2\n")  # a number token that float() rejects
def test_parse_schedule_matches_line_by_line_reference(text):
    try:
        expected = reference_parse_schedule(text)
    except CircuitError as want:
        try:
            parse_schedule(text)
        except CircuitError as got:
            assert (type(got), str(got), got.line) == (type(want), str(want), want.line)
        else:
            raise AssertionError(f"accepted, reference says {want}")
        return
    schedule = parse_schedule(text)
    # repr tells -0.0 from 0.0, and shows every float exactly
    assert repr(schedule.events) == repr(tuple(expected))
    columns = PulseSchedule.from_events(expected)  # the events' own columns, bit for bit
    for name in ("kind", "qubits", "values"):
        assert getattr(schedule, name).tobytes() == getattr(columns, name).tobytes(), name
    assert schedule.gate2_names == columns.gate2_names
    try:
        reference_check(expected, IR)
        verdict = None
    except ScheduleMismatchError as exc:
        verdict = f"mismatch: {exc}"
    got = _simulated(schedule)
    assert got == _simulated(expected)
    if verdict is not None or got.startswith("mismatch"):
        assert got == verdict
