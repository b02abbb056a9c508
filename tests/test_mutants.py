"""Mutant suite: ``verify`` must reject every corrupted golden schedule.

Both golden circuits are compiled under every legal policy, and each
schedule is mutated at every site of seven kinds: a dropped event, a
duplicated PULSE, two non-commuting PULSEs on one qubit swapped, a renamed
GATE2, a FRAME moved above its qubit's last PULSE, one phase shifted by
1e-6, and the text truncated at a line.  Rejection is what ``phasepulse
verify`` does: a :class:`CircuitError` (exit 1) or a deviation over its
default tolerance of 1e-8 (exit 3).  Sites whose mutant realizes the same
circuit are skipped by construction: an X180 applied twice is ``-I``, a
global phase, so only pulses of other areas are duplicated, and two X180s
at phases pi/2 apart anticommute, so a swap needs ``A B != c B A``.
"""

import math
from pathlib import Path

import pytest

from phasepulse.circuit import (
    CircuitError,
    CompilePolicy,
    IllegalPolicyError,
    PolicyMode,
    compile_circuit,
    parse_circuit,
    parse_schedule,
    simulate_schedule,
)
from phasepulse.cli import main
from phasepulse.su2 import conjugated_x, phase_distance

DATA = Path(__file__).parent / "data"
TOLERANCE = 1e-8  # the CLI verify default


def _schedules():
    for name in ("golden_circuit.txt", "golden_circuit_enc.txt"):
        ir = parse_circuit((DATA / name).read_text())
        for mode in PolicyMode:
            try:
                text = compile_circuit(ir, CompilePolicy(mode)).to_text()
            except IllegalPolicyError:
                continue
            yield pytest.param(name, ir, text, id=f"{name[:-4]}-{mode.value}")


SCHEDULES = list(_schedules())


def _pulse(line: str):
    _, q, sigma, phase = line.split()
    return q, float(sigma[len("sigma="):]), float(phase[len("phase="):])


def _mutants(lines: list[str]):
    """Yield ``(kind, mutated lines)`` for every site of every kind."""
    events = [i for i, line in enumerate(lines) if not line.startswith("#")]
    for i in events:
        yield "drop", lines[:i] + lines[i + 1:]
    for i in events:
        if lines[i].startswith("PULSE") and not math.isclose(abs(_pulse(lines[i])[1]), math.pi):
            yield "duplicate", lines[:i + 1] + lines[i:]
    for i in events:
        if not lines[i].startswith("PULSE"):
            continue
        q, sigma, phase = _pulse(lines[i])
        for j in range(i + 1, len(lines)):
            if lines[j].startswith("GATE2"):
                break
            if lines[j].startswith(f"PULSE {q} "):
                _, sigma2, phase2 = _pulse(lines[j])
                a, b = conjugated_x(sigma, phase), conjugated_x(sigma2, phase2)
                if phase_distance(a @ b, b @ a) > 1e-3:
                    swapped = list(lines)
                    swapped[i], swapped[j] = lines[j], lines[i]
                    yield "swap", swapped
                break
    for i in events:
        if lines[i].startswith("GATE2"):
            _, name, q0, q1 = lines[i].split()
            renamed = f"GATE2 {'CNOT' if name == 'CZ' else 'CZ'} {q0} {q1}"
            yield "rename", lines[:i] + [renamed] + lines[i + 1:]
    for i in events:
        if lines[i].startswith("FRAME"):
            q = lines[i].split()[1]
            pulses = [j for j in range(i) if lines[j].startswith(f"PULSE {q} ")]
            if pulses:
                rest = lines[:i] + lines[i + 1:]
                yield "move-frame", rest[:pulses[-1]] + [lines[i]] + rest[pulses[-1]:]
    for i in events:
        if lines[i].startswith("PULSE"):
            q, sigma, phase = _pulse(lines[i])
            shifted = f"PULSE {q} sigma={sigma!r} phase={phase + 1e-6!r}"
            yield "shift-phase", lines[:i] + [shifted] + lines[i + 1:]
    for k in range(len(events)):
        yield "truncate", lines[:events[k]]


def verify_rejects(ir, text: str) -> bool:
    try:
        return simulate_schedule(parse_schedule(text), ir) > TOLERANCE
    except CircuitError:
        return True


@pytest.mark.parametrize("name, ir, text", SCHEDULES)
def test_verify_rejects_every_mutant(name, ir, text):
    assert not verify_rejects(ir, text)
    kinds = set()
    for kind, lines in _mutants(text.splitlines()):
        mutant = "\n".join(lines) + "\n"
        assert verify_rejects(ir, mutant), f"{kind} mutant accepted:\n{mutant}"
        kinds.add(kind)
    assert kinds == {
        "drop", "duplicate", "swap", "rename", "move-frame", "shift-phase", "truncate"
    }


def test_cli_verify_exits_nonzero_on_each_mutant_kind(tmp_path, capsys):
    name, ir, text = SCHEDULES[0].values
    circuit, schedule = tmp_path / "circuit.txt", tmp_path / "schedule.txt"
    circuit.write_text((DATA / name).read_text())
    seen = set()
    for kind, lines in _mutants(text.splitlines()):
        if kind in seen:
            continue
        seen.add(kind)
        schedule.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(circuit), str(schedule)]) in (1, 3), kind
        capsys.readouterr()
    assert len(seen) == 7
