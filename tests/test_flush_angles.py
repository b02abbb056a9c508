"""The compiler's angle flush against the 2x2 flush it replaced.

A flush compiles ``z_rot(t) @ U @ z_rot(-f)``: ``f`` is the qubit's frame,
``t`` the frame it must end on.  A buffer always holds one gate's angles
(two gates are folded into one by ``_product_angles``), and :func:`_flush`
reads the flush off them in closed form and compiles it.  The reference
here builds the 2x2 from the matrix :class:`GateParams` documents and reads
its angles with ``_gate_angles``, as the compiler did before.  With special
cases off, an exact flush is three pulses whose first and last phases are
``-alpha - beta`` and ``alpha - beta`` of the flushed angles, so the angles
are read off them.  Both must give the same angles, scheme and pulse count,
the same pulse product up to phase, and the same virtual-Z residual frame,
and every flush must keep the per-flush pulse bound.  With special cases
on, a virtual-Z flush whose ``gamma`` is 0, pi/4 or pi/2 takes no pulse,
one X90 or one X180 instead of two X90s.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import angles_matrix
from phasepulse.circuit import (
    CompilePolicy,
    PolicyMode,
    _flush,
    compile_circuit,
    parse_circuit,
)
from phasepulse.schemes import clifford_table
from phasepulse.su2 import (
    STRUCTURE_TOL,
    GateParams,
    _gate_angles,
    _product_angles,
    _special_pairs,
    _three_pulse_pairs,
    _unitary_entries,
    _virtual_z_pairs,
    conjugated_x,
    normalize_angle,
    phase_distance,
    unitary_from_params,
    z_rot,
)

PI = math.pi
SPECIAL_GAMMAS = (0.0, PI / 4, PI / 2)


def reference_angles(gate, f: float, t: float) -> tuple[float, float, float]:
    """``_gate_angles(z_rot(t) @ U @ z_rot(-f))`` of the 2x2s."""
    return _gate_angles(tuple(target(gate, f, t).ravel().tolist()))[:3]


def target(gate, f: float, t: float) -> np.ndarray:
    u = np.eye(2) if gate is None else angles_matrix(*gate)
    return z_rot(t) @ u @ z_rot(-f)


def virtual_z_off(buffered, f: float):
    """The pulses and residual of a virtual-Z flush with special cases off."""
    pairs, scheme, residual = _flush(buffered, f, 0.0, True, False)
    assert scheme == "vz"
    return pairs, residual


def two_x90_pairs(buffered, f: float):
    """The virtual-Z bridge's two X90s and residual, as the compiler wrote
    them for every flush before the special cases, for the angles a flush
    onto frame 0 compiles.  They are read off its three pulses, whose phases
    ``-alpha - beta`` and ``alpha - beta`` give ``omega = -alpha - beta - pi``
    and ``theta = -alpha + beta`` rounded as the bridge rounds them."""
    (_, before), _, (_, after) = _flush(buffered, f, 0.0, False, False)[0]
    theta = -after
    phi = PI - 2.0 * (buffered[2] if buffered else 0.0)
    omega = before - PI
    residual = normalize_angle(-(theta + phi + omega))
    return ((PI / 2, omega), (PI / 2, omega + phi)), residual


def exact_pairs(alpha, beta, gamma):
    pairs = _special_pairs(alpha, beta, gamma)
    if pairs is None:
        return "three", _three_pulse_pairs(alpha, beta, gamma)
    return "special", pairs


def product(pairs) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for sigma, phase in pairs:
        u = conjugated_x(sigma, phase) @ u
    return u


def at_tolerance_edge(gamma: float) -> bool:
    """Whether ``gamma`` lies within a few ulps of a special case's tolerance
    edge, where the rounding of the reference's ``gamma`` (a few ulps of 1)
    picks the side: there the two paths may take different, equally exact
    schemes."""
    return any(abs(abs(gamma - g) - STRUCTURE_TOL) <= 1e-15 for g in SPECIAL_GAMMAS)


def near(values):
    return st.sampled_from(values).flatmap(
        lambda v: st.sampled_from((0.0, 1e-13, -1e-13, 1e-12, -1e-12)).map(lambda d: v + d)
    )


gammas = st.one_of(
    near(SPECIAL_GAMMAS).filter(lambda g: 0.0 <= g <= PI / 2),
    st.floats(0.0, PI / 2),
)
alphas = st.one_of(st.sampled_from((-PI, PI, math.nextafter(PI, 0.0), 0.0)), st.floats(-PI, PI))
betas = st.one_of(st.sampled_from((-PI, 0.0, PI / 2)), st.floats(-PI, PI))
frames = st.one_of(
    st.sampled_from((0.0, PI / 2, -PI / 2, PI, -PI)), st.floats(-PI, PI)
).map(normalize_angle)
gates = st.one_of(
    st.none(),  # the identity: a frame change with no pending gate
    st.builds(GateParams, alphas, betas, gammas).map(lambda p: (p.alpha, p.beta, p.gamma)),
)


@given(gate=gates, f=frames, t=frames)
@settings(max_examples=1000, deadline=None)
@example(gate=(-PI, 0.3, 0.0), f=0.0, t=0.0)  # alpha on the seam of a diagonal gate
@example(gate=(-PI, 0.3, 0.0), f=PI / 2, t=-PI / 2)
@example(gate=(0.2, -0.5, PI / 2), f=-PI, t=PI / 2)
@example(gate=(0.2, -0.5, PI / 4), f=-PI, t=0.0)
@example(gate=(0.2, -0.5, PI / 4 + 1e-13), f=1.0, t=-2.0)
@example(gate=None, f=-PI, t=PI / 2)
def test_angle_flush_matches_the_matrix_flush(gate, f, t):
    buffered = None if gate is None else list(gate)  # a row of ir.angles, as compile reads it
    want = reference_angles(gate, f, t)
    three, scheme, frame = _flush(buffered, f, t, False, False)
    assert scheme == "three" and frame == t
    (_, before), _, (_, after) = three
    # the flushed angles; gamma passes a flush unchanged
    got = 0.5 * (after - before), -0.5 * (before + after), gate[2] if gate else 0.0
    edge = at_tolerance_edge(got[2]) or at_tolerance_edge(want[2])

    # The angles agree mod 2pi.  alpha is the phase of an entry of size
    # cos(gamma), beta of one of size sin(gamma); the reference reads it off
    # the rounded entry, and at a size under 1e-13 both take the gauge 0,
    # which shows as equal three-pulse phases (alpha = 0) or opposite ones
    # (beta = 0).
    for got_angle, want_angle, size, gauged in (
        (got[0], want[0], math.cos(got[2]), before == after),
        (got[1], want[1], math.sin(got[2]), before == -after),
    ):
        if size < 0.9e-13:
            assert gauged and want_angle == 0.0
        elif size > 1.1e-13:
            gap = abs(got_angle - want_angle) % (2 * PI)
            assert min(gap, 2 * PI - gap) <= 1e-12 + 1e-15 / size

    # exact flush onto frame t; a special case snaps gamma by up to
    # STRUCTURE_TOL, so at the edge the two schemes differ by that much
    got_pairs, got_scheme, frame = _flush(buffered, f, t, False, True)
    assert frame == t
    want_scheme, want_pairs = exact_pairs(*want)
    if not edge:
        assert got_scheme == want_scheme
        assert len(got_pairs) == len(want_pairs)
    assert len(got_pairs) <= (2 if got_scheme == "special" else 3)
    slack = STRUCTURE_TOL if edge else 0.0
    assert phase_distance(product(got_pairs), product(want_pairs)) <= 1e-12 + slack
    snap = STRUCTURE_TOL if got_scheme == "special" else 0.0
    assert phase_distance(product(got_pairs), target(gate, f, t)) <= 1e-12 + snap

    # virtual-Z flush (t = 0): two pulses and a residual frame
    vz_target = target(gate, f, 0.0)
    got_pairs, got_residual = virtual_z_off(buffered, f)
    want_pairs, want_residual = _virtual_z_pairs(*reference_angles(gate, f, 0.0))
    assert len(got_pairs) == len(want_pairs) <= 2
    assert phase_distance(product(got_pairs), product(want_pairs)) <= 1e-12
    assert phase_distance(product(got_pairs), z_rot(got_residual) @ vz_target) <= 1e-12
    residual_gap = abs(got_residual - want_residual) % (2 * PI)
    assert min(residual_gap, 2 * PI - residual_gap) <= 1e-12


def gate_rows(text: str) -> list[tuple[float, ...]]:
    """The angle rows the parser gives the 1q gates of ``text``, one per line."""
    return [tuple(row) for row in parse_circuit("qubits 2\n" + text).angles.tolist()]


def test_a_product_buffer_takes_the_matrix_path_bit_for_bit():
    # _product_angles multiplies two gates' quaternions and reads the angles
    # back: the 2x2 of its angles is the 2x2 product up to phase, on Haar
    # pairs and on seam products, where the entry of size cos(gamma) or
    # sin(gamma) cancels to rounding and the gauge sets its angle to 0.
    rng = np.random.default_rng(16)
    products = []  # (later, earlier, index of the gauged angle or None)
    for _ in range(500):
        a, b = (
            GateParams(*rng.uniform(-PI, PI, 2), math.acos(math.sqrt(rng.uniform())))  # Haar
            for _ in range(2)
        )
        products.append(((b.alpha, b.beta, b.gamma), (a.alpha, a.beta, a.gamma), None))
    x90, x180 = gate_rows("X90 q0\nX180 q0")
    products += [(x90, x90, 0), (x180, x180, 1)]  # X90.X90 = X180, X180.X180 = -I
    for _ in range(20):
        # gammas that sum to pi/2 and phases that match: m00 cancels to a
        # complex rounding residue, whose phase is noise
        a, a2, b, g = rng.uniform(-1.5, 1.5, 4).tolist()
        later, earlier = (
            GateParams(*angles) for angles in ((a, b, abs(g)), (a2, a + a2 + b, PI / 2 - abs(g)))
        )
        products.append(((later.alpha, later.beta, later.gamma),
                         (earlier.alpha, earlier.beta, earlier.gamma), 0))
    for t in [PI / 2, PI, -PI, 0.7, 1e-9] + rng.uniform(-PI, PI, 20).tolist():
        earlier, later = gate_rows(f"RZ q0 {t!r}\nRZ q0 {-t!r}")
        products.append((later, earlier, 1))  # the identity
    for later, earlier, gauged in products:
        product = _product_angles(later, earlier)
        want = unitary_from_params(GateParams(*later)) @ unitary_from_params(GateParams(*earlier))
        assert phase_distance(unitary_from_params(GateParams(*product)), want) <= 1e-14
        assert gauged is None or product[gauged] == 0.0

    # A gate that finds its buffer full is folded in at once.  So two gates
    # in a buffer compile bit for bit as the one gate _product_angles makes
    # of them, on the nonzero frames the first layer leaves.
    rng = np.random.default_rng(15)
    for _ in range(200):
        first, a, b = (
            (p.alpha, p.beta, p.gamma)
            for p in (GateParams(*rng.uniform(-PI, PI, 2), rng.uniform(0, PI / 2)) for _ in range(3))
        )
        product = _product_angles(b, a)
        head = ["qubits 2", "U q0 %r %r %r" % first, "U q1 %r %r %r" % first, "G2 ISWAP q0 q1"]
        two = parse_circuit("\n".join(
            head + ["U q0 %r %r %r" % a, "U q1 %r %r %r" % a, "U q0 %r %r %r" % b,
                    "U q1 %r %r %r" % b, "G2 ISWAP q0 q1"]))
        one = parse_circuit("\n".join(
            head + ["U q0 %r %r %r" % product, "U q1 %r %r %r" % product, "G2 ISWAP q0 q1"]))
        for mode in (PolicyMode.AUTO, PolicyMode.ENC_MIXED):
            want = compile_circuit(one, CompilePolicy(mode))
            got = compile_circuit(two, CompilePolicy(mode))
            assert got.values.tobytes() == want.values.tobytes()


# gamma within 1e-13 of 0, pi/4 and pi/2 (index 0-2), or any other (3)
VZ_CASE_PULSES = (0, 1, 1, 2)


def not_a_case(gamma: float) -> bool:
    return all(abs(gamma - g) > 2 * STRUCTURE_TOL for g in SPECIAL_GAMMAS)


vz_case_gammas = st.one_of(
    st.tuples(st.sampled_from((0, 1, 2)), st.floats(-1e-13, 1e-13)).map(
        lambda c: (c[0], min(max(SPECIAL_GAMMAS[c[0]] + c[1], 0.0), PI / 2))
    ),
    st.floats(0.0, PI / 2).filter(not_a_case).map(lambda g: (3, g)),
)


@given(case_gamma=vz_case_gammas, alpha=alphas, beta=betas, f=frames)
@settings(max_examples=1000, deadline=None)
@example(case_gamma=(0, 0.0), alpha=0.0, beta=0.0, f=0.0)  # the identity on frame 0
@example(case_gamma=(0, 1e-13), alpha=-PI, beta=0.3, f=PI)
@example(case_gamma=(1, PI / 4 - 1e-13), alpha=0.2, beta=-0.5, f=-PI / 2)
@example(case_gamma=(2, PI / 2), alpha=0.2, beta=-0.5, f=PI / 2)
@example(case_gamma=(2, PI / 2 - 1e-13), alpha=1.0, beta=2.0, f=-PI)
def test_virtual_z_special_cases_take_at_most_one_pulse(case_gamma, alpha, beta, f):
    case, gamma = case_gamma
    p = GateParams(alpha, beta, gamma)
    gate = (p.alpha, p.beta, p.gamma)
    pairs, scheme, residual = _flush(list(gate), f, 0.0, True, True)
    assert scheme == "vz"
    assert len(pairs) == VZ_CASE_PULSES[case]
    assert all(sigma in (PI / 2, PI) for sigma, _ in pairs)
    assert phase_distance(product(pairs), z_rot(residual) @ target(gate, f, 0.0)) <= 1e-12
    assert -PI <= residual < PI
    # with special cases off, and for any other gamma, the two-X90 bridge
    assert virtual_z_off(list(gate), f) == two_x90_pairs(list(gate), f)
    assert _virtual_z_pairs(*gate, False) == _virtual_z_pairs(*gate)
    if case == 3:
        assert (pairs, residual) == two_x90_pairs(list(gate), f)


def test_every_clifford_takes_at_most_one_pulse_per_virtual_z_flush():
    rng = np.random.default_rng(17)
    clifford_frames = [0.0, PI / 2, -PI / 2, -PI] + rng.uniform(-PI, PI, 16).tolist()
    lines = ["qubits 2"]
    for entry in clifford_table():
        gate = _gate_angles(_unitary_entries(np.exp(1j * rng.uniform(-PI, PI)) * entry.matrix))[:3]
        for f in clifford_frames:
            pairs, _, residual = _flush(list(gate), f, 0.0, True, True)
            assert len(pairs) <= 1, entry.name
            assert phase_distance(product(pairs), z_rot(residual) @ target(gate, f, 0.0)) <= 1e-12
            assert virtual_z_off(list(gate), f) == two_x90_pairs(list(gate), f)
        lines += ["U q0 %r %r %r" % gate, "U q1 %r %r %r" % gate, "G2 CZ q0 q1"]
    # CZ carries the frames, so vz-carry and auto flush every gate with
    # virtual-Z: at most one pulse per Clifford, two without the cases
    ir = parse_circuit("\n".join(lines))
    for mode in (PolicyMode.VZ_CARRY, PolicyMode.AUTO):
        stats = compile_circuit(ir, CompilePolicy(mode)).stats
        assert stats.schemes["vz"] == stats.gates_1q == 48
        assert stats.pulses <= 48
        off = compile_circuit(ir, CompilePolicy(mode, special_cases=False)).stats
        assert off.pulses == 2 * 48
