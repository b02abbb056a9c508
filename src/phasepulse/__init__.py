"""phasepulse: compile two-qubit circuits to phase-shifted pulse schedules.

Single-qubit gates are realized as short sequences of fixed-angle X pulses
whose drive phase shifts carry the gate's parameters; two-qubit gates are
classified by whether per-qubit Z frames can be carried through them, and
the circuit compiler tracks those frames end to end.  An internal matrix
simulator verifies every emitted schedule against the ideal circuit.
"""

from .carrier import (
    CarrierPermutation,
    CarryMap,
    ClassifierResult,
    Segment,
    abs_permutation,
    carry_map,
    classify,
    equivariant_permutations,
    is_enc,
    is_generalized_enc,
    is_phase_carrier,
    segment_of,
)
from .circuit import (
    FRAME,
    GATE2,
    PULSE,
    CircuitError,
    CircuitIR,
    CircuitSyntaxError,
    CompilePolicy,
    FrameEvent,
    Gate1,
    Gate2,
    Gate2Event,
    IllegalPolicyError,
    Measure,
    PolicyMode,
    PulseEvent,
    PulseSchedule,
    ScheduleMismatchError,
    compile_circuit,
    ideal_unitary,
    merge_adjacent_1q,
    parse_circuit,
    parse_schedule,
    simulate_schedule,
)
from .coverage import (
    AngleTriple,
    CoverageCoeffs,
    coverage_fraction,
    covers_su2,
    haar_su2,
    product_coeffs,
    rebuild_product,
    solve_fixed_angles,
)
from .pulsesim import Envelope, constant_envelope, drive_unitary, gaussian_envelope, integrate_sigma
from .schemes import (
    CliffordCategory,
    CliffordEntry,
    CompiledGate,
    Pulse,
    PulseSequence,
    Scheme,
    absorb_z,
    clifford_table,
    four_pulse,
    special_case,
    three_pulse,
    two_pulse,
    virtual_z,
)
from .su2 import (
    GateParams,
    Quaternion,
    WeylCoords,
    as_unitary,
    conjugated_x,
    equal_up_to_global_phase,
    from_quaternion,
    normalize_angle,
    normalize_rotation,
    params_from_unitary,
    phase_canonical,
    phase_distance,
    standard_gate,
    to_quaternion,
    unitary_from_params,
    weyl_coordinates,
    x_rot,
    y_rot,
    z_rot,
)

__version__ = "0.1.0"
