import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, random_gate_params
from phasepulse.circuit import (
    PULSE,
    CircuitIR,
    CompilePolicy,
    Gate1,
    Measure,
    PolicyMode,
    compile_circuit,
    parse_circuit,
)
from phasepulse.schemes import (
    STRUCTURE_TOL,
    CliffordCategory,
    CompiledGate,
    Pulse,
    PulseSequence,
    Scheme,
    _special_pairs,
    _virtual_z_pairs,
    absorb_z,
    clifford_table,
    four_pulse,
    special_case,
    three_pulse,
    two_pulse,
    virtual_z,
)
from phasepulse.su2 import (
    GateParams,
    normalize_angle,
    params_from_unitary,
    phase_distance,
    unitary_from_params,
    x_rot,
    y_rot,
    z_rot,
)

PI = math.pi
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def product_matches(compiled, target, tol=1e-10):
    return phase_distance(compiled.physical_unitary(), target) <= tol


def test_pulse_normalization():
    p = Pulse(3 * PI, 5 * PI / 2)
    assert p.sigma == PI  # rotation angles live in (-pi, pi]
    assert abs(p.phase - PI / 2) < 1e-12  # phases live in [-pi, pi)
    assert Pulse(-PI, 0.0).sigma == PI


def test_three_pulse_identity():
    cg = three_pulse(GateParams(0, 0, 0))
    sigmas = [p.sigma for p in cg.sequence]
    phases = [p.phase for p in cg.sequence]
    assert sigmas == [PI / 2, PI, PI / 2]
    assert phases == [0.0, -PI, 0.0]  # omega, phi, theta in time order
    assert cg.residual_z == 0.0 and cg.scheme is Scheme.THREE
    assert product_matches(cg, np.eye(2))


def test_three_pulse_hadamard():
    cg = three_pulse(GateParams(-PI / 2, -PI / 2, PI / 4))
    omega, phi, theta = cg.sequence
    assert abs(theta.phase) < 1e-12
    assert omega.phase == -PI  # -alpha-beta = pi, normalized
    assert abs(phi.phase + PI / 4) < 1e-12
    assert product_matches(cg, H)


def test_three_pulse_random():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        p = random_gate_params(rng)
        assert product_matches(three_pulse(p), unitary_from_params(p))


def test_virtual_z_identity():
    cg = virtual_z(GateParams(0, 0, 0))
    assert cg.scheme is Scheme.VZ and len(cg.sequence) == 2
    assert abs(cg.residual_z) < 1e-12
    assert product_matches(cg, np.eye(2))


def test_virtual_z_x90_residual():
    # The Euler bridge gives residual 2*alpha + 2*gamma; for X90 that is
    # pi/2 (no branch reaches zero: the two solutions are 2a+2g and 2a-2g).
    cg = virtual_z(GateParams(0.0, -PI / 2, PI / 4))
    assert abs(cg.residual_z - PI / 2) < 1e-12
    assert phase_distance(z_rot(-cg.residual_z) @ cg.physical_unitary(), x_rot(PI / 2)) < 1e-10


def test_virtual_z_contract_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = random_gate_params(rng)
        cg = virtual_z(p)
        target = unitary_from_params(p)
        assert phase_distance(z_rot(-cg.residual_z) @ cg.physical_unitary(), target) < 1e-10
        # residual == -(theta+phi+omega) for the bridge angles
        bridge_sum = (-p.alpha + p.beta) + (PI - 2 * p.gamma) + (-p.alpha - p.beta - PI)
        assert abs(normalize_angle(cg.residual_z + bridge_sum)) < 1e-10
        assert all(p_.sigma == PI / 2 for p_ in cg.sequence)


def test_four_pulse():
    assert product_matches(four_pulse(GateParams(0, 0, 0)), np.eye(2))
    rng = np.random.default_rng(12)
    for _ in range(300):
        p = random_gate_params(rng)
        f = four_pulse(p)
        assert len(f.sequence) == 4
        assert all(p_.sigma == PI / 2 for p_ in f.sequence)
        assert product_matches(f, unitary_from_params(p))
        # splitting the X180 leaves the product identical
        assert phase_distance(f.physical_unitary(), three_pulse(p).physical_unitary()) < 1e-12


def test_two_pulse_degenerate_sigma():
    cg = two_pulse(GateParams(0, 0, PI / 2))
    assert cg.elided == 1 and len(cg.sequence) == 1
    assert product_matches(cg, unitary_from_params(GateParams(0, 0, PI / 2)))


def test_two_pulse_hadamard():
    cg = two_pulse(GateParams(-PI / 2, -PI / 2, PI / 4))
    assert abs(cg.sequence[1].sigma + PI / 2) < 1e-12  # sigma = 2*gamma - pi
    assert cg.sequence[0].sigma == PI
    assert product_matches(cg, H)


def test_two_pulse_random():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p = random_gate_params(rng)
        cg = two_pulse(p)
        assert product_matches(cg, unitary_from_params(p))


def test_special_identity():
    cg = special_case(np.exp(0.3j) * np.eye(2))
    assert cg is not None and len(cg.sequence) == 0
    assert cg.scheme is Scheme.SPECIAL


def test_special_y180():
    cg = special_case(y_rot(PI))
    assert cg is not None
    assert [(p.sigma, p.phase) for p in cg.sequence] == [(PI, -PI / 2)]


def test_special_z90():
    cg = special_case(z_rot(PI / 2))
    assert cg is not None
    phases = [p.phase for p in cg.sequence]
    assert np.allclose(phases, [-3 * PI / 8, 3 * PI / 8], atol=1e-12)
    assert all(p.sigma == PI for p in cg.sequence)
    assert product_matches(cg, z_rot(PI / 2))


def test_special_antidiagonal_and_diagonal_random():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a, b = np.exp(1j * rng.uniform(-PI, PI, 2))
        anti = np.array([[0, a], [b, 0]], dtype=complex)
        cg = special_case(anti)
        assert cg is not None and len(cg.sequence) == 1
        assert product_matches(cg, anti)
        diag = np.diag([a, b])
        cg = special_case(diag)
        assert cg is not None and len(cg.sequence) <= 2
        assert product_matches(cg, diag)


def test_special_rejects_generic():
    rng = np.random.default_rng(15)
    for _ in range(100):
        u = haar_unitary(2, rng)
        assert special_case(u) is None


def test_special_never_longer_than_three():
    # Every Clifford has gamma 0, pi/4 or pi/2, so the closed form gives the
    # table's pulse count whatever the global phase.
    rng = np.random.default_rng(16)
    for entry in clifford_table():
        for _ in range(20):
            u = np.exp(1j * rng.uniform(-PI, PI)) * entry.matrix
            cg = special_case(u)
            assert cg is not None and len(cg.sequence) == len(entry.sequence) <= 2
            assert phase_distance(cg.physical_unitary(), u) <= 1e-12


# The oracle finds the special cases by the matrix's shape and a scan of the
# Clifford table, apart from the closed form over the gate's angles; its
# helpers take a 2x2's row-major entries.
CLIFFORD_TOL = 1e-12


def _su2_form(m):
    a, b, c, d = m
    k = cmath.exp(-0.5j * cmath.phase(a * d - b * c))
    return (a * k, b * k, c * k, d * k)


def _anti_diagonal_pair(su):
    # [[0, -exp(-i b)], [exp(i b), 0]] == conjugated_x(pi, 3*pi/2 - b)
    return (PI, 1.5 * PI - cmath.phase(su[2]))


def _diagonal_pairs(su):
    # diag(exp(i a), exp(-i a)) from two X180s of opposite phase shifts.
    theta = -0.5 * (cmath.phase(su[0]) + PI)
    return ((PI, theta), (PI, -theta))


def linear_scan_special_case(u, tol=STRUCTURE_TOL):
    """Oracle: ``special_case`` with a linear scan over the Clifford table."""
    if phase_distance(u, np.eye(2)) <= tol:
        return CompiledGate(PulseSequence(()), 0.0, Scheme.SPECIAL)
    su = _su2_form(tuple(np.asarray(u).ravel().tolist()))
    if max(abs(u[0, 0]), abs(u[1, 1])) <= tol:
        return CompiledGate(PulseSequence.of(_anti_diagonal_pair(su)), 0.0, Scheme.SPECIAL)
    if max(abs(u[0, 1]), abs(u[1, 0])) <= tol:
        return CompiledGate(PulseSequence.of(*_diagonal_pairs(su)), 0.0, Scheme.SPECIAL)
    for entry in clifford_table():
        if phase_distance(u, entry.matrix) <= CLIFFORD_TOL:
            return CompiledGate(entry.sequence, 0.0, Scheme.SPECIAL)
    return None


def assert_matches_linear_scan(u):
    # Both hit or both miss; a hit has the oracle's pulse count and product.
    got, want = special_case(u), linear_scan_special_case(u)
    assert (got is None) == (want is None)
    if got is not None:
        assert len(got.sequence) == len(want.sequence)
        assert phase_distance(got.physical_unitary(), want.physical_unitary()) <= 1e-12


def _nearby(u, eps, rng):
    # exp(-i eps n.sigma) @ u: a unitary between eps/sqrt2 and eps from u.
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    h = n[0] * np.array([[0, 1], [1, 0]]) + n[1] * np.array([[0, -1j], [1j, 0]])
    h = h + n[2] * np.array([[1, 0], [0, -1]])
    return (math.cos(eps) * np.eye(2) - 1j * math.sin(eps) * h) @ u


def test_special_case_lookup_matches_linear_scan():
    rng = np.random.default_rng(19)
    for entry in clifford_table():
        for _ in range(4):
            u = np.exp(1j * rng.uniform(-PI, PI)) * entry.matrix
            assert_matches_linear_scan(u)
            # a gate ~1e-14 off is a hit; one 1e-9 off is not (the tolerance is 1e-12)
            near, far = _nearby(u, 1e-14, rng), _nearby(u, 1e-9, rng)
            assert special_case(near) is not None
            assert_matches_linear_scan(near)
            assert special_case(far) is None and linear_scan_special_case(far) is None
    for _ in range(1000):
        assert_matches_linear_scan(haar_unitary(2, rng))


def test_quarter_turn_non_cliffords_cost_fewer_than_three_pulses():
    # gamma = pi/4 takes an X180 and an X90, and one X90 when alpha is 0 or
    # -pi, Clifford or not; a three-always compile emits the same counts.
    rng = np.random.default_rng(26)
    cases = [(rng.uniform(-PI, PI), rng.uniform(-PI, PI), 2) for _ in range(50)]
    cases += [(alpha, rng.uniform(-PI, PI), 1) for alpha in (0.0, -PI) for _ in range(25)]
    for alpha, beta, n_pulses in cases:
        p = GateParams(alpha, beta, PI / 4)
        u = unitary_from_params(p)
        cg = special_case(u)
        assert cg is not None and len(cg.sequence) == n_pulses
        assert phase_distance(cg.physical_unitary(), u) <= 1e-12
        schedule = compile_circuit(
            CircuitIR(2, (Gate1(0, p), Measure(0), Measure(1))), CompilePolicy(PolicyMode.THREE_ALWAYS)
        )
        assert schedule.stats.pulses == n_pulses and schedule.stats.schemes["special"] == 1


def test_clifford_table_shape():
    table = clifford_table()
    assert len(table) == 24
    total = sum(len(e.sequence) for e in table)
    assert total == 38
    assert abs(total / 24 - 19 / 12) < 1e-15
    counts = {cat: 0 for cat in CliffordCategory}
    for e in table:
        counts[e.category] += 1
        assert len(e.sequence) in (0, 1, 2)
        assert phase_distance(e.sequence.unitary(), e.matrix) < 1e-10
    assert counts[CliffordCategory.PAULI_ROT] == 10
    assert counts[CliffordCategory.HADAMARD_COUSIN] == 6
    assert counts[CliffordCategory.Y_ANALOG] == 8


# Every entry's pulses as float.hex() of (sigma, phase), pinned bit for bit.
CLIFFORD_PULSE_BITS = {
    "I": (),
    "X180": (("0x1.921fb54442d18p+1", "0x0.0p+0"),),
    "X90": (("0x1.921fb54442d18p+0", "0x0.0p+0"),),
    "X-90": (("0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+1"),),
    "Y180": (("0x1.921fb54442d18p+1", "-0x1.921fb54442d18p+0"),),
    "Y90": (("0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+0"),),
    "Y-90": (("0x1.921fb54442d18p+0", "0x1.921fb54442d18p+0"),),
    "Z180": (
        ("0x1.921fb54442d18p+1", "-0x1.921fb54442d18p-1"),
        ("0x1.921fb54442d18p+1", "0x1.921fb54442d18p-1"),
    ),
    "Z90": (
        ("0x1.921fb54442d18p+1", "-0x1.2d97c7f3321d2p+0"),
        ("0x1.921fb54442d18p+1", "0x1.2d97c7f3321d0p+0"),
    ),
    "Z-90": (
        ("0x1.921fb54442d18p+1", "-0x1.f6a7a2955385ep+0"),
        ("0x1.921fb54442d18p+1", "0x1.f6a7a29553860p+0"),
    ),
    "pi@(+x+y)": (("0x1.921fb54442d18p+1", "-0x1.921fb54442d20p-1"),),
    "pi@(+x-y)": (("0x1.921fb54442d18p+1", "0x1.921fb54442d20p-1"),),
    "pi@(+x+z)": (
        ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ("0x1.921fb54442d18p+0", "0x1.921fb54442d18p+0"),
    ),
    "pi@(+x-z)": (
        ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ("0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+0"),
    ),
    "pi@(+y+z)": (
        ("0x1.921fb54442d18p+1", "-0x1.921fb54442d18p+0"),
        ("0x1.921fb54442d18p+0", "0x0.0p+0"),
    ),
    "pi@(+y-z)": (
        ("0x1.921fb54442d18p+1", "-0x1.921fb54442d18p+0"),
        ("0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+1"),
    ),
    "2pi/3@(+x+y+z)": (
        ("0x1.921fb54442d18p+1", "-0x1.921fb54442d18p-1"),
        ("0x1.921fb54442d18p+0", "0x1.921fb54442d18p+0"),
    ),
    "2pi/3@(+x+y-z)": (
        ("0x1.921fb54442d18p+1", "-0x1.921fb54442d18p-1"),
        ("0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+1"),
    ),
    "2pi/3@(+x-y+z)": (
        ("0x1.921fb54442d18p+1", "0x1.921fb54442d18p-1"),
        ("0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+1"),
    ),
    "2pi/3@(+x-y-z)": (
        ("0x1.921fb54442d18p+1", "0x1.921fb54442d18p-1"),
        ("0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+0"),
    ),
    "-2pi/3@(+x+y+z)": (
        ("0x1.921fb54442d18p+1", "0x1.2d97c7f3321d2p+1"),
        ("0x1.921fb54442d18p+0", "0x0.0p+0"),
    ),
    "-2pi/3@(+x+y-z)": (
        ("0x1.921fb54442d18p+1", "0x1.2d97c7f3321d2p+1"),
        ("0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+0"),
    ),
    "-2pi/3@(+x-y+z)": (
        ("0x1.921fb54442d18p+1", "-0x1.2d97c7f3321d2p+1"),
        ("0x1.921fb54442d18p+0", "0x1.921fb54442d18p+0"),
    ),
    "-2pi/3@(+x-y-z)": (
        ("0x1.921fb54442d18p+1", "-0x1.2d97c7f3321d2p+1"),
        ("0x1.921fb54442d18p+0", "0x0.0p+0"),
    ),
}


def test_clifford_table_pulse_bits():
    got = {e.name: tuple((p.sigma.hex(), p.phase.hex()) for p in e.sequence) for e in clifford_table()}
    assert got == CLIFFORD_PULSE_BITS


def test_clifford_antidiagonal_cousins_single_pulse():
    s = 1 / math.sqrt(2)
    for e in clifford_table():
        if e.category is CliffordCategory.HADAMARD_COUSIN and abs(e.axis[2]) < 1e-12:
            assert len(e.sequence) == 1
    # the (1,1,0)/sqrt2 axis is present
    assert any(
        e.axis is not None and np.allclose(e.axis, (s, s, 0)) for e in clifford_table()
    )


def test_clifford_table_distinct_and_closed():
    table = clifford_table()
    for i in range(24):
        for j in range(i + 1, 24):
            assert phase_distance(table[i].matrix, table[j].matrix) > 1e-6
    # group closure: products land back in the table (mod phase)
    rng = np.random.default_rng(17)
    for _ in range(60):
        i, j = rng.integers(0, 24, 2)
        prod = table[i].matrix @ table[j].matrix
        assert any(phase_distance(prod, e.matrix) < 1e-8 for e in table)


def test_x180_phase_reflection_identity():
    # Z(-t) X180 Z(t) == Z(p-t) X180 Z(p+t), exactly (not just mod phase).
    rng = np.random.default_rng(18)
    for _ in range(1000):
        t, p = rng.uniform(-PI, PI, 2)
        lhs = z_rot(-t) @ x_rot(PI) @ z_rot(t)
        rhs = z_rot(p - t) @ x_rot(PI) @ z_rot(p + t)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_absorb_z_noop():
    p = GateParams(0.3, -0.7, 0.9)
    cg = three_pulse(p)
    same = absorb_z(cg, 0.0, 0.0)
    assert [(q.sigma, q.phase) for q in same.sequence] == [
        (q.sigma, q.phase) for q in cg.sequence
    ]


def test_absorb_z_hadamard_example():
    cg = three_pulse(GateParams(-PI / 2, -PI / 2, PI / 4))
    shifted = absorb_z(cg, PI / 2, 0.0)
    assert phase_distance(shifted.physical_unitary(), z_rot(PI / 2) @ H) < 1e-10


def test_absorb_z_random():
    rng = np.random.default_rng(19)
    for _ in range(500):
        p = random_gate_params(rng)
        dl, dr = rng.uniform(-PI, PI, 2)
        target = unitary_from_params(p)
        shifted = absorb_z(three_pulse(p), dl, dr)
        assert phase_distance(shifted.physical_unitary(), z_rot(dl) @ target @ z_rot(dr)) < 1e-10
        shifted2 = absorb_z(two_pulse(p), dl, dr)
        assert phase_distance(shifted2.physical_unitary(), z_rot(dl) @ target @ z_rot(dr)) < 1e-10


def test_absorb_z_two_pulse_elided():
    # gamma = pi/2 elides the variable pulse; absorption still works via the
    # X180 phase-reflection identity alone
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = GateParams(rng.uniform(-PI, PI), rng.uniform(-PI, PI), PI / 2)
        dl, dr = rng.uniform(-PI, PI, 2)
        cg = two_pulse(p)
        assert cg.elided == 1
        shifted = absorb_z(cg, dl, dr)
        target = unitary_from_params(p)
        assert phase_distance(shifted.physical_unitary(), z_rot(dl) @ target @ z_rot(dr)) < 1e-10


def test_absorb_z_wrong_scheme():
    with pytest.raises(ValueError):
        absorb_z(virtual_z(GateParams(0, 0, 0)), 0.1, 0.2)
    with pytest.raises(ValueError):
        absorb_z(three_pulse(GateParams(0, 0, 0)), math.inf, 0.0)


def test_fixed_angle_domain():
    rng = np.random.default_rng(20)
    for _ in range(200):
        p = random_gate_params(rng)
        for cg in (three_pulse(p), four_pulse(p)):
            assert all(q.sigma in (PI / 2, PI) for q in cg.sequence)
        assert all(q.sigma == PI / 2 for q in virtual_z(p).sequence)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-PI, PI - 1e-9),
    st.floats(-PI, PI - 1e-9),
    st.floats(0, PI / 2),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
def test_absorb_property(alpha, beta, gamma, dl, dr):
    p = GateParams(alpha, beta, gamma)
    target = unitary_from_params(p)
    shifted = absorb_z(three_pulse(p), dl, dr)
    assert phase_distance(shifted.physical_unitary(), z_rot(dl) @ target @ z_rot(dr)) < 1e-10


def test_sequence_time_ordering():
    # index 0 acts first: the product is applied right-to-left.
    seq = PulseSequence.of((PI / 2, 0.0), (PI, 0.25))
    manual = Pulse(PI, 0.25).unitary() @ Pulse(PI / 2, 0.0).unitary()
    assert np.max(np.abs(seq.unitary() - manual)) < 1e-15


def _pairs(compiled):
    return np.array([(p.sigma, p.phase) for p in compiled.sequence], dtype=float).reshape(-1, 2)


def test_compiled_pulses_are_the_public_schemes_bit_for_bit():
    # compile_circuit reads a lone gate off its angles, writes the scheme
    # cores' raw pairs and normalizes them when the schedule is built; the
    # public schemes normalize the same pairs in Pulse.  Both must give the
    # same bits.
    rng = np.random.default_rng(24)
    targets = [haar_unitary(2, rng) for _ in range(200)]
    targets += [np.eye(2), np.diag([1j, -1j]), np.array([[0, 1], [1, 0]])]
    for entry in clifford_table():
        targets += [np.exp(1j * rng.uniform(-PI, PI)) * entry.matrix for _ in range(3)]
    for u in targets:
        gate = Gate1.from_matrix(0, u)
        params = gate.params  # what the compiler reads
        special = _special_pairs(params.alpha, params.beta, params.gamma)
        public = special_case(gate.matrix())  # the same case, from the matrix
        assert (special is None) == (public is None)
        if special is None:
            exact = three_pulse(params)
        else:
            assert len(special) == len(public.sequence)
            exact = CompiledGate(PulseSequence.of(*special), 0.0, Scheme.SPECIAL)
        vz = virtual_z(params)
        # the virtual-Z special case: no pulse, one X90 or one X180
        pairs, residual = _virtual_z_pairs(params.alpha, params.beta, params.gamma, True)
        vz_special = CompiledGate(PulseSequence.of(*pairs), residual, Scheme.VZ)
        if len(pairs) == 2:
            assert pairs == _virtual_z_pairs(params.alpha, params.beta, params.gamma)[0]
        ir = CircuitIR(2, (gate, Measure(0), Measure(1)))
        for policy, compiled in [
            (CompilePolicy(PolicyMode.THREE_ALWAYS), exact),
            (CompilePolicy(PolicyMode.THREE_ALWAYS, special_cases=False), three_pulse(params)),
            (CompilePolicy(PolicyMode.VZ_CARRY, special_cases=False), vz),
            (CompilePolicy(PolicyMode.VZ_CARRY), vz_special),
        ]:
            schedule = compile_circuit(ir, policy)
            got = schedule.values[schedule.kind == PULSE]
            assert got.tobytes() == _pairs(compiled).tobytes()
            assert schedule.events[-2].angle == compiled.residual_z
        if special is not None:  # an exact special case, as every Clifford: at most one pulse
            assert len(vz_special.sequence) <= 1


def test_compile_builds_no_scheme_objects(monkeypatch):
    # The compiler writes the cores' raw pairs into its rows, from a cold start.
    ir = parse_circuit((Path(__file__).parent / "data" / "golden_circuit_enc.txt").read_text())

    def built(*args, **kwargs):
        raise AssertionError("compile_circuit built a scheme object")

    monkeypatch.setattr(Pulse, "__post_init__", built)
    monkeypatch.setattr(PulseSequence, "__init__", built)
    monkeypatch.setattr(CompiledGate, "__init__", built)
    monkeypatch.setattr(GateParams, "__post_init__", built)
    for mode in PolicyMode:  # the circuit is legal under every policy
        for special_cases in (True, False):
            compile_circuit(ir, CompilePolicy(mode, special_cases))
