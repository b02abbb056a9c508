"""Golden schedules: a fixed circuit must keep compiling to the recorded text.

``data/golden_circuit.txt`` has 30 seeded layers of Haar-random and
Clifford ``U`` gates, ``RZ``, ``X90`` and ``X180``, with every two-qubit
family in both qubit orders.  ``three-always`` must reproduce its schedule
byte for byte.  ``auto`` multiplies 2x2 products, whose rounding may move
an angle in its last printed digit, so its schedule must match line for
line in kind, qubit and pulse counts, with every angle within 1e-11 rad.
"""

import math
from decimal import Decimal
from pathlib import Path

import pytest

from phasepulse.circuit import CompilePolicy, PolicyMode, compile_circuit, parse_circuit

DATA = Path(__file__).parent / "data"


def _compile(policy: str, circuit: str = "golden_circuit.txt") -> str:
    ir = parse_circuit((DATA / circuit).read_text())
    return compile_circuit(ir, CompilePolicy(PolicyMode(policy))).to_text()


def _angle_move(a: str, b: str) -> Decimal:
    """Distance of two printed angles, exact in decimal, across the +-pi seam."""
    d = abs(Decimal(a) - Decimal(b))
    return min(d, abs(d - Decimal(math.tau)))


def test_three_always_schedule_is_byte_identical():
    assert _compile("three-always") == (DATA / "golden_three-always.txt").read_text()


def test_auto_schedule_matches_within_last_digit():
    got = _compile("auto").splitlines()
    want = (DATA / "golden_auto.txt").read_text().splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if not g.startswith(("PULSE", "FRAME")):
            assert g == w  # GATE2 lines and the stats line with the pulse counts
            continue
        gt, wt = g.split(), w.split()
        assert gt[:2] == wt[:2] and len(gt) == len(wt), (g, w)
        for gv, wv in zip(gt[2:], wt[2:]):
            (gk, ga), (wk, wa) = gv.split("="), wv.split("=")
            assert gk == wk and _angle_move(ga, wa) <= Decimal("1e-11"), (g, w)


@pytest.mark.parametrize("policy", [mode.value for mode in PolicyMode])
def test_enc_circuit_schedule_is_byte_identical(policy):
    got = _compile(policy, "golden_circuit_enc.txt")
    assert got == (DATA / f"golden_enc_{policy}.txt").read_text()
