"""phasepulse: compile two-qubit circuits to phase-shifted pulse schedules.

Single-qubit gates are realized as short sequences of fixed-angle X pulses
whose drive phase shifts carry the gate's parameters; two-qubit gates are
classified by whether per-qubit Z frames can be carried through them, and
the circuit compiler tracks those frames end to end.  An internal matrix
simulator verifies every emitted schedule against the ideal circuit.

``import phasepulse`` loads no submodule: each public name below, and each
submodule such as ``phasepulse.carrier``, is imported on first access
(PEP 562), so a command pays only for the modules it runs.
"""

import importlib

# The public names of each submodule.
_MODULES = {
    "carrier": "CarrierPermutation CarryMap ClassifierResult Segment abs_permutation carry_map "
    "classify equivariant_permutations is_enc is_generalized_enc is_phase_carrier segment_of",
    "circuit": "FRAME GATE2 PULSE CircuitError CircuitIR CircuitSyntaxError CompilePolicy "
    "FrameEvent Gate1 Gate2 Gate2Event IllegalPolicyError Measure PolicyMode PulseEvent "
    "PulseSchedule ScheduleMismatchError compile_circuit ideal_unitary merge_adjacent_1q "
    "parse_circuit parse_schedule simulate_schedule",
    "cli": "",
    "coverage": "AngleTriple CoverageCoeffs coverage_fraction covers_su2 haar_su2 product_coeffs "
    "rebuild_product solve_fixed_angles",
    "pulsesim": "Envelope constant_envelope drive_unitary gaussian_envelope integrate_sigma",
    "schemes": "CliffordCategory CliffordEntry CompiledGate Pulse PulseSequence Scheme absorb_z "
    "clifford_table four_pulse special_case three_pulse two_pulse virtual_z",
    "su2": "GateParams WeylCoords as_unitary conjugated_x equal_up_to_global_phase is_unitary "
    "normalize_angle normalize_rotation params_from_unitary phase_canonical phase_distance "
    "standard_gate unitarity_defect unitary_from_params weyl_coordinates x_rot y_rot z_rot",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_HOME})
