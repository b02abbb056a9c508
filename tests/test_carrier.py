import itertools
import math
from itertools import permutations

import numpy as np
import pytest

from conftest import haar_unitary
from phasepulse import su2
from phasepulse.carrier import (
    NotCarrierError,
    _frame_maps,
    Segment,
    abs_permutation,
    carry_defect,
    carry_map,
    classify,
    equivariant_permutations,
    is_enc,
    is_generalized_enc,
    is_phase_carrier,
    segment_of,
)
from phasepulse.su2 import WeylCoords, standard_gate, weyl_coordinates, z_rot

PI = math.pi

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

_PERM_MATS = {
    0: np.kron(I2, I2),
    1: np.kron(I2, X),
    2: np.kron(X, I2),
    3: np.kron(X, X),
}


def synthesize_carrier(rng, swap_class=None):
    """Random diagonal phases times an equivariant permutation matrix."""
    perms = equivariant_permutations()
    if swap_class is None:
        mapping = perms[rng.integers(0, len(perms))]
    else:
        # class 0: I/X x I/X; class 1: SWAP times those
        base = _PERM_MATS[rng.integers(0, 4)]
        if swap_class:
            base = standard_gate("SWAP") @ base
        phases = np.exp(1j * rng.uniform(-PI, PI, 4))
        return np.diag(phases) @ base
    pmat = np.zeros((4, 4), dtype=complex)
    for row, col in enumerate(mapping):
        pmat[row, col] = 1.0
    phases = np.exp(1j * rng.uniform(-PI, PI, 4))
    return np.diag(phases) @ pmat


def test_abs_permutation_goldens():
    assert abs_permutation(standard_gate("CZ")).mapping == (0, 1, 2, 3)
    assert abs_permutation(standard_gate("ISWAP")).mapping == (0, 2, 1, 3)
    assert abs_permutation(standard_gate("SQISW")) is None


def test_carrier_goldens():
    assert is_phase_carrier(standard_gate("CZ"))
    assert not is_phase_carrier(standard_gate("CNOT"))
    assert is_phase_carrier(standard_gate("SWAP"))
    assert is_phase_carrier(standard_gate("ISWAP"))
    assert not is_phase_carrier(standard_gate("SQISW"))
    rng = np.random.default_rng(30)
    for _ in range(20):
        assert is_phase_carrier(standard_gate("CPHASE", rng.uniform(-PI, PI)))
    assert not is_phase_carrier(standard_gate("FSIM", 0.4, 0.9))


def test_random_unitary_is_not_carrier():
    rng = np.random.default_rng(31)
    for _ in range(100):
        assert not is_phase_carrier(haar_unitary(4, rng))


def test_near_permutation_is_not_a_carrier():
    # pivots of |FSIM(pi/2 + 1e-4, phi)| are 1 - 5e-9, its other entries 1e-4
    assert not is_phase_carrier(standard_gate("FSIM", PI / 2 + 1e-4, 0.3))
    assert abs_permutation(standard_gate("FSIM", PI / 2 + 1e-4, 0.3)) is None
    assert is_phase_carrier(standard_gate("FSIM", PI / 2, 0.3))
    assert not classify(standard_gate("FSIM", PI / 2 + 1e-4, 0.3)).is_carrier


def test_carry_map_goldens():
    assert carry_map(standard_gate("CZ")).matrix == ((1, 0), (0, 1))
    assert carry_map(standard_gate("ISWAP")).matrix == ((0, 1), (1, 0))
    assert carry_map(standard_gate("SWAP")).matrix == ((0, 1), (1, 0))
    # direct matrix identity for the iSWAP relabeling
    rng = np.random.default_rng(32)
    u = standard_gate("ISWAP")
    for _ in range(20):
        t0, t1 = rng.uniform(-PI, PI, 2)
        lhs = u @ np.kron(z_rot(t0), z_rot(t1))
        rhs = np.kron(z_rot(t1), z_rot(t0)) @ u
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_carry_map_exact_no_phase_defect():
    rng = np.random.default_rng(33)
    for name in ("CZ", "SWAP", "ISWAP"):
        u = standard_gate(name)
        cmap = carry_map(u)
        for _ in range(100):
            assert carry_defect(u, cmap, *rng.uniform(-PI, PI, 2)) < 1e-10
    u = standard_gate("CPHASE", rng.uniform(-PI, PI))
    cmap = carry_map(u)
    for _ in range(100):
        assert carry_defect(u, cmap, *rng.uniform(-PI, PI, 2)) < 1e-10


def test_carry_map_rejects_non_carrier():
    with pytest.raises(NotCarrierError):
        carry_map(standard_gate("CNOT"))


def test_enc_goldens():
    assert is_enc(np.eye(4))
    assert is_enc(standard_gate("CPHASE", 1.2))
    assert is_enc(standard_gate("SQISW"))
    assert is_enc(standard_gate("ISWAP"))
    assert is_enc(standard_gate("FSIM", 0.3, 0.8))
    assert not is_enc(standard_gate("CNOT"))


def test_enc_equal_angle_commutation():
    # ENC gates commute with equal-angle Z x Z; CNOT does not.
    rng = np.random.default_rng(34)
    for name in ("SQISW", "ISWAP"):
        u = standard_gate(name)
        for _ in range(20):
            t = rng.uniform(-PI, PI)
            zz = np.kron(z_rot(t), z_rot(t))
            assert np.max(np.abs(u @ zz - zz @ u)) < 1e-12
    u = standard_gate("CNOT")
    zz = np.kron(z_rot(0.5), z_rot(0.5))
    assert np.max(np.abs(u @ zz - zz @ u)) > 1e-3


def test_generalized_enc():
    ok, m = is_generalized_enc(standard_gate("SQISW"))
    assert ok and m == (1, 1)
    ok, m = is_generalized_enc(standard_gate("SWAP"))
    assert ok and m == (1, 1)
    ok, m = is_generalized_enc(np.kron(X, X) @ standard_gate("CPHASE", 0.7))
    assert ok and m == (-1, -1)
    ok, m = is_generalized_enc(np.kron(I2, X))
    assert ok and m == (1, -1)
    ok, m = is_generalized_enc(standard_gate("CNOT"))
    assert not ok and m is None


def test_carriers_are_generalized_enc():
    # restriction of the carry map to equal angles
    rng = np.random.default_rng(35)
    for _ in range(30):
        u = synthesize_carrier(rng)
        ok, m = is_generalized_enc(u)
        assert ok
        cmap = carry_map(u)
        assert m == (sum(cmap.matrix[0]), sum(cmap.matrix[1]))


def test_equivariant_permutation_count():
    found = [p for p in permutations(range(4)) if all(p[3 - j] == 3 - p[j] for j in range(4))]
    assert len(found) == 8
    assert set(found) == set(equivariant_permutations())


def test_segment_goldens():
    rng = np.random.default_rng(36)
    for _ in range(20):
        u = standard_gate("CPHASE", rng.uniform(-PI, PI))
        assert segment_of(weyl_coordinates(u)) is Segment.I_CNOT
    assert segment_of(weyl_coordinates(np.eye(4))) is Segment.I_CNOT
    assert segment_of(weyl_coordinates(standard_gate("SWAP"))) is Segment.ISWAP_SWAP
    sq = weyl_coordinates(standard_gate("SQISW"))
    assert segment_of(sq) is Segment.OFF_SEGMENT
    assert np.allclose(sq, (PI / 4, PI / 4, 0.0), atol=1e-8)
    assert segment_of(WeylCoords(0.3, 0.0, 0.0)) is Segment.I_CNOT
    assert segment_of(WeylCoords(PI / 2, PI / 2, 0.4)) is Segment.ISWAP_SWAP


def test_synthesized_carriers_sound_and_on_segment():
    rng = np.random.default_rng(37)
    for k in range(500):
        u = synthesize_carrier(rng, swap_class=bool(k % 2))
        assert is_phase_carrier(u)
        cmap = carry_map(u)
        for _ in range(5):
            assert carry_defect(u, cmap, *rng.uniform(-PI, PI, 2)) < 1e-10
        assert segment_of(weyl_coordinates(u)) is not Segment.OFF_SEGMENT


def test_swap_class_lands_on_iswap_swap_segment():
    rng = np.random.default_rng(38)
    for _ in range(50):
        u = synthesize_carrier(rng, swap_class=True)
        seg = segment_of(weyl_coordinates(u))
        assert seg is Segment.ISWAP_SWAP
    for _ in range(50):
        u = synthesize_carrier(rng, swap_class=False)
        assert segment_of(weyl_coordinates(u)) is Segment.I_CNOT


def test_classify_coherence():
    rng = np.random.default_rng(39)
    gates = [
        standard_gate("CZ"),
        standard_gate("CNOT"),
        standard_gate("SWAP"),
        standard_gate("SQISW"),
        standard_gate("FSIM", 0.4, 0.2),
        haar_unitary(4, rng),
        synthesize_carrier(rng),
    ]
    for u in gates:
        r = classify(u)
        if r.is_carrier:
            assert r.segment is not Segment.OFF_SEGMENT
            assert r.carry is not None and r.permutation is not None
        if r.is_enc:
            assert r.is_generalized_enc and r.enc_map == (1, 1)


def test_classify_cz_vs_cnot():
    r = classify(standard_gate("CZ"))
    assert r.is_carrier and r.segment is Segment.I_CNOT
    r = classify(standard_gate("CNOT"))
    assert not r.is_carrier and not r.is_enc and not r.is_generalized_enc


_SWAPPED = [0, 2, 1, 3]


def _controlled(u2, control):
    """``u2`` on the other qubit when ``control`` is |1>, in the (q0, q1) basis."""
    ones = [2, 3] if control == 0 else [1, 3]
    u = np.eye(4, dtype=complex)
    u[np.ix_(ones, ones)] = u2
    return u


def test_frame_maps_partial_carry_goldens():
    rng = np.random.default_rng(40)
    cnot = standard_gate("CNOT")
    gates = {
        "CNOT (q0, q1)": (cnot, (0, (1, 0))),
        "CNOT (q1, q0)": (cnot[_SWAPPED][:, _SWAPPED], (1, (0, 1))),
        "controlled Haar U, control q0": (_controlled(haar_unitary(2, rng), 0), (0, (1, 0))),
        "controlled Haar U, control q1": (_controlled(haar_unitary(2, rng), 1), (1, (0, 1))),
        "SWAP after a controlled Haar U": (
            standard_gate("SWAP") @ _controlled(haar_unitary(2, rng), 0), (0, (0, 1))),
    }
    maps = _frame_maps(np.array([u for u, _ in gates.values()]))
    for (name, (u, want)), (perm, cmap, enc_map, partial) in zip(gates.items(), maps):
        assert (perm, cmap, enc_map, partial) == (None, None, None, want), name
        q, (p0, p1) = partial
        for t in (0.3, -2.1):
            z = [np.eye(2), np.eye(2)]
            z[q] = z_rot(t)
            assert np.allclose(u @ np.kron(*z), np.kron(z_rot(p0 * t), z_rot(p1 * t)) @ u,
                               atol=1e-12), name
    assert classify(cnot).partial_carry == (0, (1, 0))

    # carriers and ENC gates keep their maps; a Haar gate passes no frame
    others = [standard_gate("CZ"), standard_gate("ISWAP"), standard_gate("SQISW"),
              standard_gate("FSIM", 0.4, 0.2), haar_unitary(4, rng)]
    kinds = [(perm is not None, enc_map, partial) for perm, _, enc_map, partial in _frame_maps(
        np.array(others))]
    assert kinds == [
        (True, (1, 1), (0, (1, 0))),
        (True, (1, 1), (0, (0, 1))),
        (False, (1, 1), None),
        (False, (1, 1), None),
        (False, None, None),
    ]


def test_classify_validates_its_matrix_once(monkeypatch):
    calls = []
    original = su2._unitarity_defect

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(su2, "_unitarity_defect", counting)
    r = classify(standard_gate("SQISW"))
    assert calls == [(4, 4)]
    assert r.weyl == weyl_coordinates(standard_gate("SQISW"))
    with pytest.raises(ValueError, match="singular or too far from unitary"):
        classify(np.zeros((4, 4)), tol=2.0)


def _probe_generalized_enc(u, tol):
    """Reference: the former random probe for ``is_generalized_enc``.

    Each candidate ``(p, q)`` is checked at two incommensurate angles and
    then at 20 seeded random angles.
    """
    rng = np.random.default_rng(20)
    angles = [0.3, 1.1] + list(rng.uniform(-PI, PI, size=20))
    for p, q in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        ok = True
        for t in angles:
            lhs = u @ np.kron(z_rot(t), z_rot(t))
            rhs = np.kron(z_rot(p * t), z_rot(q * t)) @ u
            if float(np.max(np.abs(lhs - rhs))) > tol:
                ok = False
                break
        if ok:
            return True, (p, q)
    return False, None


def test_zero_pattern_matches_random_probe():
    """The exact test agrees with the probe it replaced.

    At angle t the probe's residual in entry (i, j) is ``|u_ij|`` times
    ``|2 sin(t d / 4)| <= 2``, where d is the eigenvalue gap, while the exact
    test bounds ``|u_ij|`` itself.  For FSIM within 1e-10 of a multiple of
    pi/2 the entries off the zero pattern are about ``tol``, so there the
    verdict may instead match the probe at ``2 tol``.
    """
    tol = 1e-10
    rng = np.random.default_rng(40)
    Y = np.array([[0, -1j], [1j, 0]])
    paulis = [np.kron(a, b) for a, b in itertools.product((I2, X, Y, np.diag([1, -1])), repeat=2)]

    def dressed(g, n):
        return [(paulis[i] @ g @ paulis[j], False) for i, j in rng.integers(0, 16, (n, 2))]

    cases = []
    for g in [standard_gate(n) for n in ("CZ", "SWAP", "ISWAP", "SQISW")] + [
        standard_gate("CPHASE", 0.7), standard_gate("FSIM", 0.4, 0.9), np.eye(4)
    ]:
        cases += dressed(g, 24)
    cases += [(np.diag(np.exp(1j * rng.uniform(-PI, PI, 4))), False) for _ in range(30)]
    cases += [(haar_unitary(4, rng), False) for _ in range(50)]
    for k, sign, exp in itertools.product(range(4), (1, -1), range(3, 13)):
        fsim = standard_gate("FSIM", k * PI / 2 + sign * 10.0**-exp, 0.3)
        cases += [(u, exp == 10) for u, _ in dressed(fsim, 2)]
    for u, at_tol in cases:
        got, expected = is_generalized_enc(u, tol), _probe_generalized_enc(u, tol)
        if at_tol and got != expected:
            expected = _probe_generalized_enc(u, 2 * tol)
        assert got == expected
        assert is_enc(u, tol) == (got[1] == (1, 1))
