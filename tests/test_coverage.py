import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasepulse import coverage
from phasepulse.coverage import (
    AngleTriple,
    coverage_fraction,
    covers_su2,
    haar_su2,
    product_coeffs,
    rebuild_product,
    solve_fixed_angles,
    u_value,
)
from phasepulse.schemes import three_pulse
from phasepulse.su2 import (
    as_unitary,
    normalize_rotation,
    params_from_unitary,
    phase_distance,
    x_rot,
    z_rot,
)

PI = math.pi


def closed_form_covers(t: AngleTriple) -> bool:
    """Independent characterization: one angle is pi, the others +-pi/2."""
    angles = [normalize_rotation(w) for w in t.as_tuple()]
    pis = [w for w in angles if abs(abs(w) - PI) < 1e-9]
    halves = [w for w in angles if abs(abs(w) - PI / 2) < 1e-9]
    return len(pis) == 1 and len(halves) == 2


def test_coeffs_three_pulse_triple():
    b, v = product_coeffs(AngleTriple(PI / 2, PI, PI / 2))
    assert np.allclose(b.as_tuple(), (0.0, -0.5, -0.5, 0.0), atol=1e-12)
    assert np.allclose(v, (0.0, 0.5, 0.0, -0.5), atol=1e-12)


def test_coeffs_all_zero_angles():
    b, v = product_coeffs(AngleTriple(0.0, 0.0, 0.0))
    assert np.allclose(b.as_tuple(), (1.0, 0.0, 0.0, 0.0), atol=1e-15)
    assert np.allclose(v, (0.0, 0.0, 0.0, 0.0), atol=1e-15)


def test_coeffs_all_pi():
    # all four U coefficients vanish; the surviving term is the u1*u3
    # component of the V part, with magnitude 1
    b, v = product_coeffs(AngleTriple(PI, PI, PI))
    assert np.max(np.abs(b.as_tuple())) < 1e-12
    assert np.allclose(v, (0.0, 0.0, 0.0, -1.0), atol=1e-12)


def test_norm_identity():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(10_000):
        t = AngleTriple(*rng.uniform(-PI, PI, 3))
        b, v = product_coeffs(t)
        u1, u2, u3 = np.exp(1j * rng.uniform(-PI, PI, 3))
        big_u = u_value(b, u1, u2)
        big_v = (v[0] + v[1] * u2 + v[2] * u1 * u2 + v[3] * u1) * u3
        worst = max(worst, abs(abs(big_u) ** 2 + abs(big_v) ** 2 - 1.0))
    assert worst < 1e-12


def test_u_coeff_norm_bound():
    # the U part has modulus <= 1 on unit inputs, so its coefficient vector
    # is confined to the unit ball
    rng = np.random.default_rng(45)
    for _ in range(2000):
        b, _ = product_coeffs(AngleTriple(*rng.uniform(-PI, PI, 3)))
        assert sum(x * x for x in b.as_tuple()) <= 1.0 + 1e-12


def test_covers_goldens():
    assert covers_su2(AngleTriple(PI / 2, PI, PI / 2))
    assert not covers_su2(AngleTriple(PI / 2, PI / 2, PI / 2))
    assert covers_su2(AngleTriple(PI, -PI / 2, PI / 2))
    assert not covers_su2(AngleTriple(PI, PI, PI))


def test_covers_exact_triples():
    # exactly the 12 triples {one angle pi, two angles +-pi/2}
    hits = 0
    for combo in itertools.product((PI, PI / 2, -PI / 2), repeat=3):
        t = AngleTriple(*combo)
        expected = sum(1 for w in combo if w == PI) == 1
        assert covers_su2(t) == expected
        hits += covers_su2(t)
    assert hits == 12


def test_covers_matches_closed_form_on_grid():
    grid = [k * PI / 7 for k in range(-7, 8)]
    for combo in itertools.product(grid, repeat=3):
        t = AngleTriple(*combo)
        assert covers_su2(t) == closed_form_covers(t)
        assert not covers_su2(t)  # pi/2 is not a multiple of pi/7


@pytest.mark.parametrize(
    "angles",
    [(PI / 2, PI, PI / 2), (PI, PI / 2, PI / 2), (PI / 2, PI / 2, PI), (-PI / 2, PI / 2, PI)],
    ids=["x180-middle", "x180-first", "x180-last", "x180-last-minus-x90"],
)
def test_solver_covering_triple(angles):
    # the X180 in each place takes each branch of the closed-form preimage:
    # b11 = 0 in the middle, b10 = 0 first, b01 = 0 last (of either X90 sign)
    t = AngleTriple(*angles)
    rng = np.random.default_rng(41)
    for _ in range(1000):
        target = haar_su2(rng)
        phases = solve_fixed_angles(target, t)
        assert phases is not None
        rebuilt = rebuild_product(t, phases)
        dev = min(
            float(np.max(np.abs(rebuilt - target))),
            float(np.max(np.abs(rebuilt + target))),
        )
        assert dev < 1e-9


def test_solver_agrees_with_three_pulse():
    # For the (pi/2, pi, pi/2) triple the closed-form branch reproduces the
    # standard phase assignment theta = a-b, phi = -b+g-pi, omega = -a-b
    # (matrix order), up to the pi ambiguity of the middle pulse.
    t = AngleTriple(PI / 2, PI, PI / 2)
    rng = np.random.default_rng(42)
    for _ in range(50):
        target = haar_su2(rng)
        p, _ = params_from_unitary(target)
        phases = solve_fixed_angles(target, t)
        seq = three_pulse(p).sequence  # time order: omega, phi, theta
        expect = (seq[2].phase, seq[1].phase, seq[0].phase)
        for got, want, sigma in zip(phases, expect, t.as_tuple()):
            diff = abs(math.remainder(got - want, 2 * PI))
            if abs(sigma) == PI:
                diff = min(diff, abs(diff - PI))
            assert diff < 1e-9
        assert phase_distance(rebuild_product(t, phases), target) < 1e-9


def test_solver_identity_target():
    for combo in ((PI / 2, PI, PI / 2), (PI, PI / 2, -PI / 2)):
        phases = solve_fixed_angles(np.eye(2), AngleTriple(*combo))
        assert phases is not None
        rebuilt = rebuild_product(AngleTriple(*combo), phases)
        assert min(np.max(np.abs(rebuilt - np.eye(2))), np.max(np.abs(rebuilt + np.eye(2)))) < 1e-9


def test_solver_non_covering_reachability():
    # Z rotations have |U component| = 1, attained by (pi/2, pi/2, pi/2)
    # only at isolated phases, so generic ones are unreachable.
    t = AngleTriple(PI / 2, PI / 2, PI / 2)
    for angle in (0.1, 0.8, 2.0):
        assert solve_fixed_angles(z_rot(angle), t) is None
    # -iX has U component 0, which this triple does reach.
    target = x_rot(PI)
    phases = solve_fixed_angles(target, t)
    assert phases is not None
    rebuilt = rebuild_product(t, phases)
    assert min(np.max(np.abs(rebuilt - target)), np.max(np.abs(rebuilt + target))) < 1e-6


_ANGLES = st.one_of(
    st.sampled_from((0.0, PI / 2, -PI / 2, PI, PI / 4, -PI / 4)),
    st.floats(-PI, PI),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(_ANGLES, _ANGLES, _ANGLES), st.tuples(_ANGLES, _ANGLES, _ANGLES))
def test_solver_finds_every_constructed_target(angles, phases):
    # a target built from the triple itself is reachable by construction,
    # so the solver must return phases that rebuild it
    t = AngleTriple(*angles)
    target = rebuild_product(t, phases)
    target = target / np.sqrt(np.linalg.det(target))
    got = solve_fixed_angles(target, t)
    assert got is not None
    rebuilt = rebuild_product(t, got)
    assert min(np.max(np.abs(rebuilt - target)), np.max(np.abs(rebuilt + target))) < 1e-6


def test_solver_every_t_a_root():
    # (pi/4, -pi/2, pi/2) on this target leaves p, q and r of the preimage
    # all zero to rounding: every first phase is a root, not a miss
    t = AngleTriple(PI / 4, -PI / 2, PI / 2)
    target = rebuild_product(t, (1.836, 0.0, 0.0))
    got = solve_fixed_angles(target / np.sqrt(np.linalg.det(target)), t)
    assert got is not None
    assert phase_distance(rebuild_product(t, got), target) < 1e-9


def test_solver_rejects_bad_det():
    with pytest.raises(ValueError):
        solve_fixed_angles(np.exp(0.3j) * np.eye(2), AngleTriple(PI / 2, PI, PI / 2))


def test_solver_checks_a_covering_triples_phases(monkeypatch):
    # a covering triple's phases are rebuilt and checked like any other's:
    # a wrong preimage gives None, not the wrong phases
    t = AngleTriple(PI / 2, PI, PI / 2)
    target = haar_su2(np.random.default_rng(46))
    assert solve_fixed_angles(target, t) is not None
    monkeypatch.setattr(coverage, "_preimage_uv", lambda b, w: (1.0 + 0j, 1.0 + 0j))
    assert solve_fixed_angles(target, t) is None


def test_solver_validates_its_target_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return as_unitary(*args, **kwargs)

    monkeypatch.setattr(coverage, "as_unitary", counting)
    target = haar_su2(np.random.default_rng(47))
    for t in (AngleTriple(PI / 2, PI, PI / 2), AngleTriple(PI / 2, PI / 2, PI / 2)):
        calls.clear()
        solve_fixed_angles(target, t)
        assert len(calls) == 1


def test_coverage_fraction_values():
    assert coverage_fraction(AngleTriple(PI / 2, PI, PI / 2), 200) == 1.0
    frac = coverage_fraction(AngleTriple(PI / 2, PI / 2, PI / 2), 200)
    assert 0.9 <= frac < 0.95  # 0.91: every reachable sample is solved
    assert coverage_fraction(AngleTriple(0.0, 0.0, 0.0), 100) <= 0.01


def test_coverage_fraction_needs_a_sample():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        coverage_fraction(AngleTriple(PI / 2, PI, PI / 2), 0)


def test_coverage_fraction_shard_independent(monkeypatch):
    # per-sample seeding: sample i is drawn from default_rng([seed, i]), so
    # the first 50 samples give the same verdicts whether or not the
    # remaining 150 are evaluated
    t = AngleTriple(PI / 2, PI / 2, PI / 2)
    runs = []

    def recording(target, triple):
        phases = solve_fixed_angles(target, triple)
        runs[-1].append((target.tobytes(), phases is not None))
        return phases

    monkeypatch.setattr(coverage, "solve_fixed_angles", recording)
    for n_samples in (50, 200):
        runs.append([])
        assert coverage_fraction(t, n_samples) == sum(hit for _, hit in runs[-1]) / n_samples
    drawn = [haar_su2(np.random.default_rng([0, i])).tobytes() for i in range(200)]
    assert [target for target, _ in runs[1]] == drawn
    assert runs[1][:50] == runs[0]


def test_ring_structure_when_b11_zero():
    # with the u1*u2 coefficient zero, |U - b00| is confined to the ring
    # [||b01|-|b10||, |b01|+|b10|]
    rng = np.random.default_rng(43)
    for _ in range(20):
        t = AngleTriple(rng.uniform(-PI, PI), PI, rng.uniform(-PI, PI))
        b, _ = product_coeffs(t)
        assert abs(b.b11) < 1e-12
        inner = abs(abs(b.b01) - abs(b.b10))
        outer = abs(b.b01) + abs(b.b10)
        for _ in range(200):
            u1, u2 = np.exp(1j * rng.uniform(-PI, PI, 2))
            r = abs(u_value(b, u1, u2) - b.b00)
            assert inner - 1e-9 <= r <= outer + 1e-9


def test_haar_su2_is_special_unitary():
    rng = np.random.default_rng(44)
    for _ in range(100):
        u = haar_su2(rng)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
