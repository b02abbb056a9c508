import math
import warnings

import numpy as np
import pytest

from phasepulse.pulsesim import (
    Envelope,
    constant_envelope,
    drive_unitary,
    gaussian_envelope,
    integrate_sigma,
)
from phasepulse.su2 import conjugated_x, phase_distance, x_rot, z_rot

PI = math.pi


def test_constant_area_exact():
    env = constant_envelope(PI, duration=2.0, n_samples=401)
    assert abs(integrate_sigma(env) - PI) < 1e-12


def test_zero_envelope():
    env = Envelope(np.zeros(50), 0.01, 0.3)
    assert integrate_sigma(env) == 0.0
    assert np.allclose(drive_unitary(env), np.eye(2))


def test_gaussian_area_closed_form():
    # amplitude fixed from the truncated-Gaussian integral; with fine
    # sampling the trapezoid reproduces the requested area to 1e-9
    env = gaussian_envelope(PI / 2, n_samples=200_001)
    assert abs(integrate_sigma(env) - PI / 2) < 1e-9


def test_envelope_validation():
    with pytest.raises(ValueError):
        Envelope(np.array([]), 0.1, 0.0)
    with pytest.raises(ValueError):
        Envelope(np.array([1.0, math.nan]), 0.1, 0.0)
    with pytest.raises(ValueError):
        Envelope(np.array([1.0]), -0.1, 0.0)
    with pytest.raises(ValueError):
        Envelope(np.array([1.0]), 0.1, math.inf)


def test_constant_drive_is_x180():
    env = constant_envelope(PI, phase=0.0, n_samples=201)
    assert phase_distance(drive_unitary(env), x_rot(PI)) < 1e-10


def test_gaussian_drive_matches_conjugated_x():
    env = gaussian_envelope(PI / 2, phase=PI / 3, n_samples=2001)
    sigma = integrate_sigma(env)
    assert phase_distance(drive_unitary(env), conjugated_x(sigma, PI / 3)) < 1e-6
    # the error is pure float accumulation, far below the contract
    assert phase_distance(drive_unitary(env), conjugated_x(sigma, PI / 3)) < 1e-10


def test_step_size_violation():
    env = constant_envelope(PI, n_samples=5)  # ~0.8 rad per step
    with pytest.raises(ValueError):
        drive_unitary(env)


def test_axis_independence_of_error():
    # the rotation axis never changes, so any envelope shape reproduces the
    # closed form to full precision
    rng = np.random.default_rng(50)
    t = np.linspace(0, 1, 1501)
    shapes = [
        np.sin(PI * t) ** 2,
        1.0 + 0.5 * np.cos(3 * t),
        np.abs(rng.normal(size=t.size)) * 0.2 + 0.05,
    ]
    for samples in shapes:
        env = Envelope(samples * 0.1, float(t[1] - t[0]), 0.7)
        sigma = integrate_sigma(env)
        assert phase_distance(drive_unitary(env), conjugated_x(sigma, 0.7)) < 1e-10


def test_phase_covariance():
    phi = 1.234
    env0 = gaussian_envelope(1.1, phase=0.0, n_samples=1001)
    env1 = gaussian_envelope(1.1, phase=phi, n_samples=1001)
    lhs = drive_unitary(env1)
    rhs = z_rot(-phi) @ drive_unitary(env0) @ z_rot(phi)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_amplitude_linearity():
    base = gaussian_envelope(0.7, n_samples=1001)
    scaled = Envelope(2.5 * base.samples, base.dt, base.phase)
    assert abs(integrate_sigma(scaled) - 2.5 * integrate_sigma(base)) < 1e-12


def test_random_envelopes_match_closed_form():
    rng = np.random.default_rng(51)
    for _ in range(100):
        area = rng.uniform(0.05, 2 * PI)
        phase = rng.uniform(-PI, PI)
        env = (
            constant_envelope(area, phase, n_samples=501)
            if rng.integers(2)
            else gaussian_envelope(area, phase, n_samples=801)
        )
        sigma = integrate_sigma(env)
        assert phase_distance(drive_unitary(env), conjugated_x(sigma, phase)) < 1e-6


@pytest.mark.parametrize(
    "env",
    [
        constant_envelope(1e308, n_samples=2001),
        constant_envelope(-1e308, n_samples=2001),
        Envelope(np.full(2, 1.5e308), 0.5, 0.0),  # the two samples add up to 3e308
    ],
    ids=["1e308", "-1e308", "pair"],
)
def test_huge_area_integrates_without_overflow(env):
    # the envelope check bounds the area, and the steps halve each sample
    # before adding two, so nothing overflows on the way to the step check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = integrate_sigma(env)
        with pytest.raises(ValueError, match="per-step rotation"):
            drive_unitary(env)
    assert math.isfinite(sigma) and abs(sigma) >= 7.5e307


def test_integrate_sigma_is_numpy_trapezoid():
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 has only trapz
    rng = np.random.default_rng(52)
    for _ in range(200):
        samples = rng.normal(size=rng.integers(1, 40)) * 10.0 ** rng.uniform(-5, 5)
        dt = 10.0 ** rng.uniform(-4, 1)
        assert integrate_sigma(Envelope(samples, dt, 0.1)) == float(trapezoid(samples, dx=dt))
