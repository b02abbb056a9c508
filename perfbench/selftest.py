"""Self-test of the reference checker on small circuits.

The reference must accept hand-written schedules that follow the README
conventions, reject a wrong frame, accept every genuine compiled schedule
under both policies, and reject every mutant kind; ``near_carrier`` must flag
an FSIM just off pi/2 and none of the fixed gates.  Run it from the root
of a checkout with ``python3 perfbench/selftest.py``; ``run.py`` also runs
it before measuring.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

import gen
import reference

POLICIES = ("three-always", "auto")

# X90 on q0, CZ, then RZ(0.5) on q1 left as a pending frame: physical ==
# (I x z(-0.5)) @ ideal, so the schedule reports FRAME q1 z=-0.5.
_HAND_CIRCUIT = gen.Circuit(
    "qubits 2\nX90 q0\nG2 CZ q0 q1\nRZ q1 0.5\nM q0\nM q1\n",
    1,
    (
        ("1q", 0, gen.x_rot(math.pi / 2)),
        gen.Gate2Op((0, 1), "CZ", (), gen.FIXED_GATE2["CZ"]),
        ("1q", 1, gen.z_rot(0.5)),
    ),
)
_HAND_SCHEDULE = "PULSE q0 sigma={} phase=0\nGATE2 CZ q0 q1\nFRAME q0 z=0\nFRAME q1 z={}\n"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"perfbench self-test: {message}")


def check(circuit_module) -> None:
    """Raise ``RuntimeError`` unless the reference judges every case right."""
    hand_ideal = reference.ideal(_HAND_CIRCUIT)
    good = _HAND_SCHEDULE.format(repr(math.pi / 2), -0.5)
    _expect(reference.accepts(good, _HAND_CIRCUIT, hand_ideal)[0], "hand-written schedule rejected")
    bad = _HAND_SCHEDULE.format(repr(math.pi / 2), 0.5)
    _expect(not reference.accepts(bad, _HAND_CIRCUIT, hand_ideal)[0], "wrong FRAME accepted")
    late = good.replace("FRAME q0 z=0\n", "") + "FRAME q0 z=0\n" + "PULSE q0 sigma=0 phase=0\n"
    _expect(not reference.accepts(late, _HAND_CIRCUIT, hand_ideal)[0], "PULSE after FRAME accepted")
    _expect(reference.near_carrier(gen.fsim(math.pi / 2 + 1e-4, 0.3)), "near-carrier FSIM not flagged")
    for name, m in gen.FIXED_GATE2.items():
        _expect(not reference.near_carrier(m), f"{name} flagged as a near-carrier gate")

    rng = np.random.default_rng(7)
    circuits = [
        gen.make_circuit(rng, 6, gen.WORKLOADS["clifford-mixed"].layer_fn),
        gen.make_circuit(rng, 3, gen.WORKLOADS["haar-cz"].layer_fn),
    ]
    for circ in circuits:
        ideal_u = reference.ideal(circ)
        for policy in POLICIES:
            ir = circuit_module.parse_circuit(circ.text)
            mode = circuit_module.PolicyMode(policy)
            text = circuit_module.compile_circuit(ir, circuit_module.CompilePolicy(mode)).to_text()
            ok, dev = reference.accepts(text, circ, ideal_u)
            _expect(ok, f"genuine {policy} schedule rejected (deviation {dev:.3g})")
            for kind in reference.MUTANT_KINDS:
                mutant = reference.mutate(text, kind, np.random.default_rng(1))
                _expect(not reference.accepts(mutant, circ, ideal_u)[0], f"{kind} mutant accepted")


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from phasepulse import circuit

    check(circuit)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
