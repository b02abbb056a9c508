"""Which triples of fixed X-rotation angles can reach all of SU(2)/{+-1}.

A sequence ``Z(t0) X(w1) Z(t1) X(w2) Z(t2) X(w3) Z(t3)`` with zero phase
sum is, in the quaternion picture, ``U(u1, u2) + V(u1, u2, u3) j`` where
``u_t = exp(-i*t_t)`` and ``U`` is bilinear with real coefficients:

    U = b00 + b01*u1 + b10*u2 + b11*u1*u2.

The scheme covers every target exactly when ``b00 = 0``, one of the other
coefficients is 0 and the remaining two are +-1/2 — equivalently when one
rotation angle is pi and the other two are +-pi/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .su2 import as_unitary, conjugated_x, normalize_angle, normalize_rotation

PI = math.pi

COEFF_TOL = 1e-10
SEARCH_TOL = 1e-6


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


def _v_bracket(v: tuple[float, float, float, float], u1: complex, u2: complex) -> complex:
    return v[0] + v[1] * u2 + v[2] * u1 * u2 + v[3] * u1


def covers_su2(t: AngleTriple, tol: float = COEFF_TOL) -> bool:
    """True iff the triple reaches every element of SU(2)/{+-1}."""
    b = product_coeffs(t)[0]
    if abs(b.b00) > tol:
        return False
    rest = (b.b01, b.b10, b.b11)
    zeros = sum(1 for x in rest if abs(x) <= tol)
    halves = sum(1 for x in rest if abs(abs(x) - 0.5) <= tol)
    return zeros == 1 and halves == 2


def target_uv(target) -> tuple[complex, complex]:
    """The quaternion components ``(u, v)`` of a det-1 target, as ``u + v*j``:
    ``u = conj(m00)`` and ``v = i*m10``."""
    m = as_unitary(target, 2)
    return complex(m[0, 0]).conjugate(), 1j * complex(m[1, 0])


def _sgn(x: float) -> float:
    return 1.0 if x >= 0 else -1.0


def _covering_uv(b: CoverageCoeffs, w: complex) -> tuple[complex, complex]:
    # Exact preimage of w under U for a covering coefficient pattern.
    aw = min(abs(w), 1.0)
    chi = cmath.phase(w) if abs(w) > 1e-300 else 0.0
    if abs(b.b11) <= COEFF_TOL:
        delta = math.acos(aw)
        u1 = _sgn(b.b01) * cmath.exp(1j * (chi + delta))
        u2 = _sgn(b.b10) * cmath.exp(1j * (chi - delta))
    elif abs(b.b10) <= COEFF_TOL:
        # U = u1 * (b01 + b11*u2)
        chi2 = 2.0 * math.acos(aw)
        u2 = _sgn(b.b01) * _sgn(b.b11) * cmath.exp(1j * chi2)
        bracket = b.b01 + b.b11 * u2
        u1 = w / bracket if abs(bracket) > 1e-12 else 1.0
    else:
        # U = u2 * (b10 + b11*u1)
        chi2 = 2.0 * math.acos(aw)
        u1 = _sgn(b.b10) * _sgn(b.b11) * cmath.exp(1j * chi2)
        bracket = b.b10 + b.b11 * u1
        u2 = w / bracket if abs(bracket) > 1e-12 else 1.0
    return u1 / abs(u1), u2 / abs(u2)


def _search_uv(b: CoverageCoeffs, w: complex) -> tuple[complex, complex, float, float]:
    """Grid-plus-refinement minimizer of ``min(|U - w|, |U + w|)``.

    The U part depends on two phases only, so a 64x64 coarse grid with
    shrinking local refinements is an exhaustive search at these scales.
    Returns ``(u1, u2, sign, distance)``.
    """
    n = 64
    ang = np.linspace(-PI, PI, n, endpoint=False)
    a1 = ang[:, None]
    a2 = ang[None, :]

    def eval_grid(p1, p2):
        u1 = np.exp(1j * p1)
        u2 = np.exp(1j * p2)
        f = b.b00 + b.b01 * u1 + b.b10 * u2 + b.b11 * u1 * u2
        dplus = np.abs(f - w)
        dminus = np.abs(f + w)
        return np.minimum(dplus, dminus), dplus <= dminus

    d, plus = eval_grid(a1, a2)
    k = int(np.argmin(d))
    i, j = divmod(k, n)
    best1, best2 = float(ang[i]), float(ang[j])
    half = PI / n
    for _ in range(6):
        loc = np.linspace(-half, half, 17)
        p1 = best1 + loc[:, None]
        p2 = best2 + loc[None, :]
        d, plus = eval_grid(p1, p2)
        k = int(np.argmin(d))
        i, j = divmod(k, 17)
        best1 += float(loc[i])
        best2 += float(loc[j])
        half /= 8.0
    dmin, is_plus = eval_grid(np.array([[best1]]), np.array([[best2]]))
    sign = 1.0 if bool(is_plus[0, 0]) else -1.0
    return cmath.exp(1j * best1), cmath.exp(1j * best2), sign, float(dmin[0, 0])


def _solve_u3(v: tuple[float, float, float, float], u1: complex, u2: complex, rhs: complex) -> complex:
    bracket = _v_bracket(v, u1, u2)
    if abs(bracket) < 1e-9:
        return 1.0  # |rhs| matches |bracket| by the norm identity, so it is ~0 too
    u3 = rhs / bracket
    mag = abs(u3)
    return u3 / mag if mag > 1e-300 else 1.0


def _phases_from_units(t: AngleTriple, u1: complex, u2: complex, u3: complex) -> tuple[float, float, float]:
    # u_t = exp(-i*t_t); conjugated-rotation phases are suffix sums of the t's.
    t1, t2, t3 = -cmath.phase(u1), -cmath.phase(u2), -cmath.phase(u3)
    ph1 = normalize_angle(t1 + t2 + t3)
    ph2 = normalize_angle(t2 + t3)
    ph3 = normalize_angle(t3)
    if abs(normalize_rotation(t.omega2) - PI) < 1e-12:
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
    ``None`` when the triple cannot reach the target within ``tol``.
    Covering triples are solved in closed form; others fall back to a grid
    search over the two phases the U part depends on.
    """
    tu = as_unitary(target, 2)
    det = tu[0, 0] * tu[1, 1] - tu[0, 1] * tu[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise ValueError("target must have determinant 1")
    w, v = target_uv(tu)
    bu, bv = product_coeffs(t)
    if covers_su2(t):
        u1, u2 = _covering_uv(bu, w)
        sign = 1.0
    else:
        u1, u2, sign, _ = _search_uv(bu, w)
    u3 = _solve_u3(bv, u1, u2, sign * v)
    phases = _phases_from_units(t, u1, u2, u3)
    if covers_su2(t):
        return phases
    rebuilt = rebuild_product(t, phases)
    dev = min(
        float(np.max(np.abs(rebuilt - tu))),
        float(np.max(np.abs(rebuilt + tu))),
    )
    return phases if dev <= tol else None


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of SU(2) (uniform on the unit quaternions)."""
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    a0, a1, a2, a3 = x.tolist()
    return np.array([[complex(a0, -a1), complex(-a3, -a2)], [complex(a3, -a2), complex(a0, a1)]])


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
