import cmath
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, makhlin_from_weyl, makhlin_invariants, random_gate_params
from phasepulse.carrier import classify
from phasepulse.schemes import special_case
from phasepulse import su2
from phasepulse.su2 import (
    GateParams,
    _normalize_angle_array,
    _unitarity_defect,
    _wrap,
    as_unitary,
    equal_up_to_global_phase,
    conjugated_x,
    is_unitary,
    normalize_angle,
    normalize_rotation,
    params_from_unitary,
    phase_canonical,
    phase_distance,
    standard_gate,
    unitarity_defect,
    unitary_from_params,
    weyl_coordinates,
    x_rot,
    y_rot,
    z_rot,
)

PI = math.pi

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def test_normalize_angle_range():
    for x in [-10.0, -PI, -1e-12, 0.0, 1.0, PI, 10.0, 123.456]:
        y = normalize_angle(x)
        assert -PI <= y < PI
        assert abs(math.remainder(y - x, 2 * PI)) < 1e-12


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
@settings(max_examples=200, deadline=None)
def test_normalize_angle_array_is_bit_identical(xs):
    seams = [PI, -PI, 3 * PI, -3 * PI, 2 * PI, -0.0, 0.0, 1e-300, -1e-300, 1e308, -1e308,
             math.nextafter(PI, 0.0), math.nextafter(-PI, 0.0), math.nextafter(PI, 4.0)]
    x = np.array(xs + seams)
    got = _normalize_angle_array(x)
    assert got.tobytes() == np.array([normalize_angle(v) for v in x.tolist()]).tobytes()


# +-pi and +-2pi, each also one ulp either side; the smallest subnormals and
# the largest magnitudes
_WRAP_SEAMS = [
    x for seam in (PI, -PI, 2 * PI, -2 * PI)
    for x in (math.nextafter(seam, -math.inf), seam, math.nextafter(seam, math.inf))
] + [5e-324, -5e-324, 1e308, -1e308, 0.0, -0.0]


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
@example(x=0.0)  # so that the seams run however few examples are drawn
def test_wrap_is_normalize_angle_bit_for_bit(x):
    # the package's own finite angles skip normalize_angle's conversion and
    # finiteness test; the arithmetic, and so every bit, -0.0 too, is the same
    for v in [x] + _WRAP_SEAMS:
        assert struct.pack("d", _wrap(v)) == struct.pack("d", normalize_angle(v))
        assert -PI <= _wrap(v) < PI


@pytest.mark.parametrize("big", [2.0, 1e308, 1.7e308 + 1.7e308j])
def test_huge_entries_are_not_unitary_without_overflow(big):
    m = np.full((4, 4), big)
    assert not is_unitary(m)
    with pytest.raises(ValueError, match="not unitary"):
        as_unitary(m)


@pytest.mark.parametrize("big", [1e308, 1.7e308 + 1.7e308j, -3e200j])
def test_unitarity_defect_of_huge_entries_is_inf_without_overflow(big):
    # tier-1 turns numpy's overflow RuntimeWarning into an error
    assert unitarity_defect(np.full((4, 4), big)) == math.inf


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
def test_unusable_tolerance_is_rejected(tol):
    # a NaN tolerance would pass every matrix (defect > nan is False), a
    # negative one would fail every one
    with pytest.raises(ValueError, match="tolerance"):
        as_unitary(np.ones((4, 4)), 4, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        is_unitary(np.ones((2, 2)), tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        is_unitary(np.eye(2), tol=tol)


def test_unitarity_defect_of_a_stack_is_each_matrix_defect():
    # tier-1 turns numpy's RuntimeWarnings into errors
    rng = np.random.default_rng(12)
    stack = np.array([
        haar_unitary(4, rng),
        np.full((4, 4), 1e308),
        np.full((4, 4), math.nan),
        np.full((4, 4), complex(math.inf, math.nan)),
        np.diag([1.0, 1.0, 1.0, -1j * math.inf]),
        np.diag([2.0**400, 1.0, 1.0, 1.0]),
        np.full((4, 4), 1.7e308 + 1.7e308j),
        2.0 * haar_unitary(4, rng),
    ])
    got = _unitarity_defect(stack)
    assert got.shape == (len(stack),)
    assert np.isnan(got[[2, 3, 4]]).all()
    assert got[1] == got[6] == math.inf
    for i in (0, 5, 7):
        assert got[i] == unitarity_defect(stack[i])
    assert _unitarity_defect(stack.reshape(2, 4, 4, 4)).tobytes() == got.tobytes()


def test_transposed_matrices_are_validated_like_their_copies():
    # np.array keeps a transposed input column-major
    rng = np.random.default_rng(14)
    u4, u2 = haar_unitary(4, rng), haar_unitary(2, rng)
    for m in (u4.T, u4.conj().T, np.eye(4).T, u2.conj().T):
        assert is_unitary(m)
        assert unitarity_defect(m) == unitarity_defect(m.copy())
        assert np.array_equal(as_unitary(m), m)
    assert params_from_unitary(u2.conj().T) == params_from_unitary(u2.conj().T.copy())
    assert special_case(u2.T) == special_case(u2.T.copy())
    cnot = standard_gate("CNOT")
    assert vars(classify(cnot.T)) == vars(classify(cnot.T.copy()))


def test_unitarity_defect_is_exact_below_the_overflow_guard():
    # entries of 2**400 square to 2**800: finite, and no overflow in the product
    m = np.diag([2.0**400, 1.0])
    assert unitarity_defect(m) == 2.0**800 - 1.0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
@settings(max_examples=200, deadline=None)
def test_normalize_angle_array_is_idempotent(xs):
    # Schedules normalize PULSE angles once, on rows that may be normalized
    # already, so a second application must keep every bit.
    seams = [PI, -PI, 3 * PI, -3 * PI, 2 * PI, -0.0, 0.0, 1e-300, -1e-300, 1e-20, -1e-20,
             math.nextafter(PI, 0.0), math.nextafter(-PI, 0.0), math.nextafter(PI, 4.0),
             math.nextafter(-PI, -4.0), PI / 2, -PI / 2, 1e308, -1e308]
    once = _normalize_angle_array(np.array(xs + seams))
    assert _normalize_angle_array(once).tobytes() == once.tobytes()


def test_entry_guard_keeps_what_the_defect_test_accepts():
    # entries just under sqrt(1 + tol): squared column norms 1 + 0.9 tol
    m = np.eye(2) * math.sqrt(1.0 + 0.9e-8)
    assert unitarity_defect(m) <= 1e-8
    assert is_unitary(m) and as_unitary(m, 2, 1e-8) is not None


def test_normalize_rotation_keeps_pi():
    assert normalize_rotation(PI) == PI
    assert normalize_rotation(-PI) == PI
    assert normalize_rotation(3 * PI) == PI
    assert normalize_angle(PI) == -PI


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rotations_reject_non_finite(bad):
    for f in (z_rot, x_rot, y_rot, normalize_angle):
        with pytest.raises(ValueError):
            f(bad)
    with pytest.raises(ValueError):
        conjugated_x(bad, 0.0)


def test_z_rot_values():
    assert np.allclose(z_rot(0.0), np.eye(2))
    assert np.allclose(z_rot(PI), np.diag([-1j, 1j]))
    # Z(pi/2) X180 Z(-pi/2) is the Y flip [[0,-1],[1,0]]
    m = z_rot(PI / 2) @ x_rot(PI) @ z_rot(-PI / 2)
    assert np.allclose(m, [[0, -1], [1, 0]], atol=1e-12)
    assert np.allclose(m, conjugated_x(PI, -PI / 2), atol=1e-12)


def test_x_rot_values():
    assert np.allclose(x_rot(0.0), np.eye(2))
    assert np.allclose(x_rot(PI), [[0, -1j], [-1j, 0]], atol=1e-12)
    s = 1 / math.sqrt(2)
    assert np.allclose(x_rot(PI / 2), [[s, -1j * s], [-1j * s, s]], atol=1e-12)


def test_conjugated_x_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        sigma, phase = rng.uniform(-PI, PI, 2)
        direct = z_rot(-phase) @ x_rot(sigma) @ z_rot(phase)
        assert np.max(np.abs(conjugated_x(sigma, phase) - direct)) < 1e-14
    theta = 0.37
    expected = np.array(
        [[0, -1j * np.exp(1j * theta)], [-1j * np.exp(-1j * theta), 0]]
    )
    assert np.allclose(conjugated_x(PI, theta), expected, atol=1e-12)
    assert np.allclose(conjugated_x(1.1, 0.0), x_rot(1.1), atol=1e-14)
    # Y90 == Z(pi/2) X90 Z(-pi/2), i.e. a -pi/2 phase shift
    assert np.allclose(conjugated_x(PI / 2, -PI / 2), y_rot(PI / 2), atol=1e-12)
    assert np.allclose(conjugated_x(PI / 2, PI / 2), y_rot(-PI / 2), atol=1e-12)


def test_rotation_unitarity_bulk():
    # Formula-level check over a large batch, plus constructed matrices.
    rng = np.random.default_rng(1)
    angles = rng.uniform(-50, 50, 1_000_000)
    half = 0.5 * angles
    # each construction has rows of norm cos^2 + sin^2
    defect = np.abs(np.cos(half) ** 2 + np.sin(half) ** 2 - 1.0)
    assert float(defect.max()) < 1e-12
    for theta in rng.uniform(-50, 50, 1000):
        for m in (z_rot(theta), x_rot(theta), y_rot(theta), conjugated_x(theta, theta / 3)):
            assert unitarity_defect(m) < 1e-12


def test_builder_is_the_basis_sum():
    # every 2x2 of a quaternion is _su2's; it must be sum_j q[j] * _BASIS[j]
    rng = np.random.default_rng(9)
    quaternions = [q / np.linalg.norm(q) for q in rng.normal(size=(500, 4))]
    # the seams: each component +-0.0, the others +-1 or a unit's share
    quaternions += [np.array(q) for q in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=4)]
    quaternions += [np.array(q) for q in itertools.product((0.0, -0.0, 0.5, -0.5), repeat=4)]
    for q in quaternions:
        assert np.array_equal(su2._su2(*q.tolist()), np.tensordot(q, su2._BASIS, 1)), q


def test_equal_up_to_global_phase():
    assert equal_up_to_global_phase(X, 1j * X, 1e-9)
    assert not equal_up_to_global_phase(X, Z, 1e-9)
    assert equal_up_to_global_phase(H, -1j * H, 1e-9)
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(X, X, tol)
    with pytest.raises(ValueError):
        phase_distance(X, np.eye(4))


def test_phase_canonical_deterministic():
    rng = np.random.default_rng(2)
    u = haar_unitary(2, rng)
    a = phase_canonical(u)
    b = phase_canonical(np.exp(0.71j) * u)
    assert np.max(np.abs(a - b)) < 1e-12


def test_phase_canonical_of_zero_is_zero():
    assert np.array_equal(phase_canonical(np.zeros((2, 2))), np.zeros((2, 2)))


def test_unitarity_defect_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="non-finite entries"):
        unitarity_defect(np.full((2, 2), math.nan))


def test_non_square_array_is_not_unitary():
    assert not is_unitary(np.ones((2, 3)))


def test_gate_params_reject_non_finite_gamma():
    with pytest.raises(ValueError, match="gamma must be finite, got nan"):
        GateParams(0, 0, math.nan)


def test_params_identity():
    p, phase = params_from_unitary(np.eye(2))
    assert (p.alpha, p.beta, p.gamma) == (0.0, 0.0, 0.0)
    assert phase == 0.0


def test_params_minus_ih():
    # -iH has det 1; matching the parameterized form entrywise gives
    # alpha = beta = -pi/2, gamma = pi/4 with zero global phase.
    p, phase = params_from_unitary(-1j * H)
    assert abs(p.alpha + PI / 2) < 1e-12
    assert abs(p.beta + PI / 2) < 1e-12
    assert abs(p.gamma - PI / 4) < 1e-12
    assert abs(phase) < 1e-12
    assert np.max(np.abs(unitary_from_params(p) - (-1j * H))) < 1e-12


def test_params_x90():
    p, phase = params_from_unitary(x_rot(PI / 2))
    assert abs(p.alpha) < 1e-12
    assert abs(p.beta + PI / 2) < 1e-12
    assert abs(p.gamma - PI / 4) < 1e-12
    assert np.max(np.abs(unitary_from_params(p) - x_rot(PI / 2))) < 1e-12


def test_params_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        u = haar_unitary(2, rng)
        p, phase = params_from_unitary(u)
        rebuilt = np.exp(1j * phase) * unitary_from_params(p)
        assert np.max(np.abs(rebuilt - u)) < 1e-10


def test_params_round_trip_params_direction():
    rng = np.random.default_rng(8)
    for _ in range(500):
        p = random_gate_params(rng)
        q, phase = params_from_unitary(unitary_from_params(p))
        assert abs(phase) < 1e-10
        if 1e-6 < p.gamma < PI / 2 - 1e-6:  # away from the degenerate corners
            assert abs(q.alpha - p.alpha) < 1e-10
            assert abs(q.beta - p.beta) < 1e-10
        assert abs(q.gamma - p.gamma) < 1e-10


def test_params_degenerate_angles():
    p, _ = params_from_unitary(z_rot(0.8))  # gamma = 0: beta unconstrained
    assert p.beta == 0.0 and abs(p.gamma) < 1e-12
    p, _ = params_from_unitary(conjugated_x(PI, 0.3))  # gamma = pi/2: alpha unconstrained
    assert p.alpha == 0.0 and abs(p.gamma - PI / 2) < 1e-12


def test_params_diagonal_clifford_products_have_zero_gamma():
    # |u00| of some of these products rounds to 1 - 1.1e-16, where
    # acos(|u00|) is 1.49e-8 but atan2(|u10|, |u00|) is exactly 0
    quarter_turns = [z_rot(k * PI / 2) for k in (-3, -2, -1, 1, 2, 3)]
    for factors in itertools.product(quarter_turns, repeat=4):
        u = factors[0] @ factors[1] @ factors[2] @ factors[3]
        assert params_from_unitary(u)[0].gamma == 0.0


def test_params_rejects_non_unitary():
    with pytest.raises(ValueError):
        params_from_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        GateParams(0.0, 0.0, 2.0)


def test_weyl_known_points():
    assert np.allclose(weyl_coordinates(np.eye(4)), (0, 0, 0), atol=1e-9)
    assert np.allclose(weyl_coordinates(standard_gate("CNOT")), (PI / 2, 0, 0), atol=1e-9)
    assert np.allclose(weyl_coordinates(standard_gate("CZ")), (PI / 2, 0, 0), atol=1e-9)
    assert np.allclose(
        weyl_coordinates(standard_gate("SWAP")), (PI / 2, PI / 2, PI / 2), atol=1e-9
    )
    assert np.allclose(
        weyl_coordinates(standard_gate("ISWAP")), (PI / 2, PI / 2, 0), atol=1e-9
    )
    assert np.allclose(
        weyl_coordinates(standard_gate("SQISW")), (PI / 4, PI / 4, 0), atol=1e-9
    )


def test_weyl_local_invariance():
    rng = np.random.default_rng(6)
    for _ in range(50):
        u = haar_unitary(4, rng)
        base = weyl_coordinates(u)
        locals_ = [haar_unitary(2, rng) for _ in range(4)]
        dressed = (
            np.kron(locals_[0], locals_[1]) @ u @ np.kron(locals_[2], locals_[3])
        )
        moved = weyl_coordinates(dressed)
        assert np.max(np.abs(np.array(base) - np.array(moved))) < 1e-8


def test_weyl_against_invariant_oracle():
    # Independent check: Makhlin invariants computed directly must match the
    # closed form evaluated at the reported coordinates.  The canonical
    # chamber identifies conjugate classes, so g2 is compared in magnitude.
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = haar_unitary(4, rng)
        g_direct = makhlin_invariants(u)
        c = weyl_coordinates(u)
        g_coords = makhlin_from_weyl(*c)
        assert abs(g_direct[0] - g_coords[0]) < 1e-8
        assert abs(abs(g_direct[1]) - abs(g_coords[1])) < 1e-8
        assert abs(g_direct[2] - g_coords[2]) < 1e-8
        assert PI / 2 + 1e-12 >= c.c1 >= c.c2 >= c.c3 >= -1e-12


def _canonical_interaction(c1, c2, c3):
    # exp(-i/2 (c1 XX + c2 YY + c3 ZZ)); the three generators commute and
    # square to the identity, so the exponential factors in closed form.
    paulis = [np.kron(X, X), np.kron(1j * (X @ Z), 1j * (X @ Z)), np.kron(Z, Z)]
    u = np.eye(4, dtype=complex)
    for c, p in zip((c1, c2, c3), paulis):
        u = (math.cos(c / 2) * np.eye(4) - 1j * math.sin(c / 2) * p) @ u
    return u


def test_weyl_recovers_canonical_interactions():
    # Ground truth: locally dressed canonical gates must report their own
    # interaction coefficients.
    rng = np.random.default_rng(9)
    for _ in range(150):
        c = np.sort(rng.uniform(0.02, PI / 2 - 0.02, 3))[::-1]
        u = (
            np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ _canonical_interaction(*c)
            @ np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        assert np.max(np.abs(np.array(weyl_coordinates(u)) - c)) < 1e-8
    for c in [(PI / 2, 0.3, 0.0), (PI / 2, PI / 2, 0.2), (0.7, 0.7, 0.1), (0.0, 0.0, 0.0)]:
        u = (
            np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ _canonical_interaction(*c)
            @ np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        assert np.max(np.abs(np.array(weyl_coordinates(u)) - np.array(c))) < 1e-8


def test_weyl_rejects_non_unitary():
    with pytest.raises(ValueError):
        weyl_coordinates(np.ones((4, 4)))


def test_standard_gates():
    assert np.allclose(standard_gate("CZ"), np.diag([1, 1, 1, -1]))
    iswap = standard_gate("ISWAP")
    assert iswap[1, 2] == 1j and iswap[2, 1] == 1j and iswap[0, 0] == 1
    sq = standard_gate("SQISW")
    assert np.max(np.abs(sq @ sq - iswap)) < 1e-12
    cp = standard_gate("CPHASE", 0.5)
    assert np.allclose(np.diag(cp), [1, 1, 1, np.exp(0.5j)])
    fs = standard_gate("FSIM", 0.3, 0.7)
    assert abs(fs[3, 3] - np.exp(-0.7j)) < 1e-12
    assert abs(fs[1, 2] + 1j * math.sin(0.3)) < 1e-12
    with pytest.raises(ValueError):
        standard_gate("XYZZY")
    with pytest.raises(ValueError, match="CPHASE takes one angle"):
        standard_gate("CPHASE")
    with pytest.raises(ValueError, match="CZ takes no parameters"):
        standard_gate("CZ", 1.0)
    with pytest.raises(ValueError, match="FSIM takes two angles"):
        standard_gate("FSIM", 0.3)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_finite, _finite)
@example(0.0, -0.0)
@example(-0.0, 0.0)
@example(PI, -PI)
@example(-PI, PI)
@example(1e300, -1e300)
def test_parameterized_standard_gates_are_their_nested_list_forms_bit_for_bit(theta, phi):
    c, s = math.cos(theta), math.sin(theta)
    fsim = np.array(
        [[1, 0, 0, 0], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [0, 0, 0, cmath.exp(-1j * phi)]],
        dtype=complex,
    )
    assert standard_gate("FSIM", theta, phi).tobytes() == fsim.tobytes()
    cphase = np.diag([1.0, 1.0, 1.0, cmath.exp(1j * phi)])
    assert standard_gate("CPHASE", phi).tobytes() == cphase.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_conjugated_x_always_unitary(sigma, phase):
    assert unitarity_defect(conjugated_x(sigma, phase)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6))
def test_normalize_angle_idempotent(x):
    y = normalize_angle(x)
    assert normalize_angle(y) == y
    assert -PI <= y < PI
