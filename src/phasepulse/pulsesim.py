"""Time-ordered integration of a resonant, phase-shifted drive.

In the frame rotating with the qubit the drive Hamiltonian is
``(amp(t)/2) * (cos(phase) X + sin(phase) Y)``; its time-ordered product
must reproduce a single conjugated X rotation of area ``integral(amp) dt``.
The rotation axis never changes, so any deviation beyond float roundoff is
an integrator bug, which is exactly what this module lets tests probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .su2 import conjugated_x

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True, eq=False)
class Envelope:
    """Sampled pulse envelope: amplitudes in rad/s, timestep in s."""

    samples: np.ndarray
    dt: float
    phase: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        dt = float(self.dt)
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        phase = float(self.phase)
        if not math.isfinite(phase):
            raise ValueError("phase must be finite")
        # Bounds the area and every step area, so integrating cannot overflow.
        if not math.isfinite(float(np.max(np.abs(samples))) * (samples.size * dt)):
            raise ValueError("envelope area overflows a float")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "phase", phase)


def constant_envelope(area: float, phase: float = 0.0, duration: float = 1.0, n_samples: int = 101) -> Envelope:
    """Flat envelope of the given pulse area over ``duration`` seconds."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    amp = area / duration
    dt = duration / (n_samples - 1)
    return Envelope(np.full(n_samples, amp), dt, phase)


def gaussian_envelope(
    area: float,
    phase: float = 0.0,
    sigma_t: float = 1.0,
    truncation: float = 3.0,
    n_samples: int = 2001,
) -> Envelope:
    """Gaussian envelope truncated at ``+-truncation*sigma_t``.

    The amplitude is fixed from the closed-form truncated-Gaussian integral,
    so the requested area is exact up to the trapezoidal discretization.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    t = np.linspace(-truncation * sigma_t, truncation * sigma_t, n_samples)
    closed_form_area = sigma_t * math.sqrt(2.0 * math.pi) * math.erf(truncation / math.sqrt(2.0))
    amp = area / closed_form_area
    return Envelope(amp * np.exp(-0.5 * (t / sigma_t) ** 2), float(t[1] - t[0]), phase)


def integrate_sigma(envelope: Envelope) -> float:
    """Pulse area: trapezoidal integral of the envelope."""
    return float(_trapezoid(envelope.samples, dx=envelope.dt))


def drive_unitary(envelope: Envelope, max_step: float = 0.1) -> np.ndarray:
    """Time-ordered product of per-step propagators.

    Each step uses the exact 2x2 rotation for its trapezoidal sub-area, so
    time ordering is the only thing being exercised.  Steps are required to
    stay below ``max_step`` radians.
    """
    s = envelope.samples
    if s.size == 1:
        return np.eye(2, dtype=complex)
    step_areas = 0.5 * (s[1:] + s[:-1]) * envelope.dt
    largest = float(np.max(np.abs(step_areas)))
    if largest >= max_step:
        raise ValueError(
            f"per-step rotation {largest:.3g} rad exceeds {max_step:.3g}; "
            "use more samples"
        )
    u = np.eye(2, dtype=complex)
    for d in step_areas:
        u = conjugated_x(float(d), envelope.phase) @ u
    return u
