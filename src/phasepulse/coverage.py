"""Which triples of fixed X-rotation angles can reach all of SU(2)/{+-1}.

A sequence ``Z(t0) X(w1) Z(t1) X(w2) Z(t2) X(w3) Z(t3)`` with zero phase
sum is, in the quaternion picture, ``U(u1, u2) + V(u1, u2, u3) j`` where
``u_t = exp(-i*t_t)`` and ``U`` is bilinear with real coefficients:

    U = b00 + b01*u1 + b10*u2 + b11*u1*u2.

The scheme covers every target exactly when ``b00 = 0``, one of the other
coefficients is 0 and the remaining two are +-1/2 — equivalently when one
rotation angle is pi and the other two are +-pi/2.

:func:`solve_fixed_angles` cross-checks that verdict for any triple: U is
affine in ``u2``, so the preimage of a target's U part is one closed form,
and a target is reached exactly when it has one (see :func:`_preimage_uv`).
Every triple's phases, a covering one's too, are rebuilt and checked, so
:func:`coverage_fraction` can disagree with :func:`covers_su2`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .su2 import _NO_PHASE, _su2, as_unitary, conjugated_x, normalize_angle, normalize_rotation

PI = math.pi

COEFF_TOL = 1e-10
SEARCH_TOL = 1e-6
_DET_TOL = 1e-9  # how far from 1 a target's determinant may lie
_BRACKET_TOL = 1e-9  # a V bracket this small leaves u3 free, as V is then ~0 too
_PI_PULSE_TOL = 1e-12  # a middle angle this close to pi is a pi pulse


@dataclass(frozen=True)
class AngleTriple:
    """Three fixed rotation angles, normalized to ``(-pi, pi]``.

    The upper end is kept closed so a pi rotation stays labeled ``+pi``.
    """

    omega1: float
    omega2: float
    omega3: float

    def __post_init__(self):
        object.__setattr__(self, "omega1", normalize_rotation(self.omega1))
        object.__setattr__(self, "omega2", normalize_rotation(self.omega2))
        object.__setattr__(self, "omega3", normalize_rotation(self.omega3))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.omega1, self.omega2, self.omega3)


@dataclass(frozen=True)
class CoverageCoeffs:
    """Real coefficients of ``1, u1, u2, u1*u2`` in the U part."""

    b00: float
    b01: float
    b10: float
    b11: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.b00, self.b01, self.b10, self.b11)


def product_coeffs(t: AngleTriple) -> tuple[CoverageCoeffs, tuple[float, float, float, float]]:
    """U-part and V-part coefficients of the fixed-angle product.

    The V part is ``(v0 + v1*u2 + v2*u1*u2 + v3*u1) * u3`` with
    ``(v0, v1, v2, v3)`` the returned tuple.  On unit inputs
    ``|U|^2 + |V|^2 == 1``.
    """
    c1, s1 = math.cos(0.5 * t.omega1), math.sin(0.5 * t.omega1)
    c2, s2 = math.cos(0.5 * t.omega2), math.sin(0.5 * t.omega2)
    c3, s3 = math.cos(0.5 * t.omega3), math.sin(0.5 * t.omega3)
    u_part = CoverageCoeffs(c1 * c2 * c3, -s1 * s2 * c3, -c1 * s2 * s3, -s1 * c2 * s3)
    v_part = (c1 * c2 * s3, c1 * s2 * c3, s1 * c2 * c3, -s1 * s2 * s3)
    return u_part, v_part


def u_value(b: CoverageCoeffs, u1: complex, u2: complex) -> complex:
    return b.b00 + b.b01 * u1 + b.b10 * u2 + b.b11 * u1 * u2


def covers_su2(t: AngleTriple, tol: float = COEFF_TOL) -> bool:
    """True iff the triple reaches every element of SU(2)/{+-1}."""
    b = product_coeffs(t)[0]
    if abs(b.b00) > tol:
        return False
    rest = (b.b01, b.b10, b.b11)
    zeros = sum(1 for x in rest if abs(x) <= tol)
    halves = sum(1 for x in rest if abs(abs(x) - 0.5) <= tol)
    return zeros == 1 and halves == 2


def _preimage_uv(b: CoverageCoeffs, w: complex) -> tuple[complex, complex]:
    """Unit ``(u1, u2)`` with ``U(u1, u2) = w``, wherever such a pair exists.

    ``U - b00 = b01*u1 + u2*(b10 + b11*u1)`` is affine in ``u2``, so with
    ``z = w - b00`` and ``u1 = exp(i*t)`` a unit ``u2`` exists iff
    ``|z - b01*u1| = |b10 + b11*u1|``, which is ``p*cos(t) + q*sin(t) = r``
    below; then ``u2`` is the phase of ``(z - b01*u1) / (b10 + b11*u1)``.
    ``r / hypot(p, q)`` is clamped to [-1, 1], so a boundary double root
    just past it is kept, and where ``p``, ``q`` and ``r`` all vanish every
    ``t`` is a root.  Where there is no root, the pair is the nearest miss.
    """
    z = w - b.b00
    p = -2.0 * (b.b01 * z.real + b.b10 * b.b11)
    q = -2.0 * b.b01 * z.imag
    r = b.b10 * b.b10 + b.b11 * b.b11 - b.b01 * b.b01 - abs(z) ** 2
    h = math.hypot(p, q)
    t = math.atan2(q, p) - math.acos(max(-1.0, min(1.0, r / h))) if h else 0.0
    u1 = cmath.exp(1j * t)
    # where b10 + b11*u1 vanishes, U does not depend on u2 and any phase will do
    u2 = cmath.exp(1j * (cmath.phase(z - b.b01 * u1) - cmath.phase(b.b10 + b.b11 * u1)))
    return u1, u2


def _solve_u3(v: tuple[float, float, float, float], u1: complex, u2: complex, rhs: complex) -> complex:
    bracket = v[0] + v[1] * u2 + v[2] * u1 * u2 + v[3] * u1  # V = bracket * u3
    if abs(bracket) < _BRACKET_TOL:
        return 1.0  # |rhs| matches |bracket| by the norm identity, so it is ~0 too
    u3 = rhs / bracket
    mag = abs(u3)
    return u3 / mag if mag > _NO_PHASE else 1.0


def _phases_from_units(t: AngleTriple, u1: complex, u2: complex, u3: complex) -> tuple[float, float, float]:
    # u_t = exp(-i*t_t); conjugated-rotation phases are suffix sums of the t's.
    t1, t2, t3 = -cmath.phase(u1), -cmath.phase(u2), -cmath.phase(u3)
    ph1 = normalize_angle(t1 + t2 + t3)
    ph2 = normalize_angle(t2 + t3)
    ph3 = normalize_angle(t3)
    if abs(normalize_rotation(t.omega2) - PI) < _PI_PULSE_TOL:
        # pi-pulse phases are only defined mod pi; keep the middle one small.
        if ph2 >= PI / 2:
            ph2 -= PI
        elif ph2 < -PI / 2:
            ph2 += PI
    return ph1, ph2, ph3


def rebuild_product(t: AngleTriple, phases: tuple[float, float, float]) -> np.ndarray:
    """Matrix-ordered product of the three conjugated rotations."""
    p1, p2, p3 = phases
    return (
        conjugated_x(t.omega1, p1)
        @ conjugated_x(t.omega2, p2)
        @ conjugated_x(t.omega3, p3)
    )


def solve_fixed_angles(
    target, t: AngleTriple, tol: float = SEARCH_TOL
) -> tuple[float, float, float] | None:
    """Phase shifts realizing ``target`` (up to sign) with the fixed angles of ``t``.

    Returns the phases in matrix order (the third acts first in time), or
    ``None`` when the triple cannot reach the target within ``tol``.  Every
    triple is solved one way: the exact preimage of ``+target``'s U part,
    else of ``-target``'s, then the V part's ``u3``; the phases are kept
    only if they rebuild the target within ``tol``, a covering triple's too.
    The target is validated once, here.
    """
    tu = as_unitary(target, 2)
    det = tu[0, 0] * tu[1, 1] - tu[0, 1] * tu[1, 0]
    if abs(det - 1.0) > _DET_TOL:
        raise ValueError("target must have determinant 1")
    # the target as a quaternion u + v*j: u = conj(m00), v = i*m10
    w, v = complex(tu[0, 0]).conjugate(), 1j * complex(tu[1, 0])
    bu, bv = product_coeffs(t)
    for sign in (1.0, -1.0):
        u1, u2 = _preimage_uv(bu, sign * w)
        phases = _phases_from_units(t, u1, u2, _solve_u3(bv, u1, u2, sign * v))
        rebuilt = rebuild_product(t, phases)
        if min(np.abs(rebuilt - tu).max(), np.abs(rebuilt + tu).max()) <= tol:
            return phases
    return None


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of SU(2) (uniform on the unit quaternions)."""
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    a0, a1, a2, a3 = x.tolist()
    return _su2(a0, -a1, a3, -a2)


def coverage_fraction(t: AngleTriple, n_samples: int, seed: int = 0) -> float:
    """Fraction of Haar-random targets the triple reaches within ``SEARCH_TOL``.

    Each sample draws from its own ``(seed, index)``-keyed generator, so the
    result does not depend on how samples are sharded across workers.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    hits = 0
    for i in range(n_samples):
        rng = np.random.default_rng([seed, i])
        target = haar_su2(rng)
        if solve_fixed_angles(target, t) is not None:
            hits += 1
    return hits / n_samples
