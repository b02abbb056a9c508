"""Fixed-size complex linear algebra for one- and two-qubit gates.

Conventions used across the package (all angles in radians):

* ``z_rot(theta) == diag(exp(-i*theta/2), exp(+i*theta/2))``
* ``x_rot(omega) == exp(-i*omega*X/2)``
* two-qubit basis order is ``|00>, |01>, |10>, |11>`` with qubit 0 as the
  most significant bit.

Matrices are plain complex128 numpy arrays; validation helpers are provided
instead of wrapper classes.  Phase-like angles are normalized to
``[-pi, pi)`` while rotation angles use ``(-pi, pi]`` so a pi-pulse keeps
the ``+pi`` label.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PI = math.pi
TAU = 2.0 * math.pi

DEFAULT_TOL = 1e-9
UNITARY_TOL = 1e-8

__all__ = [
    "DEFAULT_TOL",
    "UNITARY_TOL",
    "GateParams",
    "Quaternion",
    "WeylCoords",
    "as_unitary",
    "conjugated_x",
    "equal_up_to_global_phase",
    "from_quaternion",
    "is_unitary",
    "normalize_angle",
    "normalize_rotation",
    "params_from_unitary",
    "phase_canonical",
    "phase_distance",
    "standard_gate",
    "to_quaternion",
    "unitarity_defect",
    "unitary_from_params",
    "weyl_coordinates",
    "x_rot",
    "y_rot",
    "z_rot",
]


def normalize_angle(x: float) -> float:
    """Reduce an angle to ``[-pi, pi)``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    y = math.fmod(x + PI, TAU)
    if y < 0.0:
        y += TAU
    y -= PI
    if y >= PI:  # guard against rounding at the upper seam
        y -= TAU
    return y


def normalize_rotation(x: float) -> float:
    """Reduce a rotation angle to ``(-pi, pi]``, keeping pi-pulses at +pi."""
    y = normalize_angle(x)
    return PI if y == -PI else y


def _normalize_angle_array(x: np.ndarray) -> np.ndarray:
    """:func:`normalize_angle` of finite angles, elementwise and bit for bit."""
    y = np.fmod(x + PI, TAU)
    np.add(y, TAU, out=y, where=y < 0.0)
    y -= PI
    np.subtract(y, TAU, out=y, where=y >= PI)  # the rounding guard at the upper seam
    return y


def _check_shape(shape: tuple[int, ...], dim: int | None = None) -> None:
    """Raise the ``ValueError`` of :func:`as_unitary` for a matrix of the wrong shape."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if dim is not None and shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {shape}")


def _finite_matrix(m, dim: int | None = None) -> np.ndarray:
    a = np.array(m, dtype=complex)
    _check_shape(a.shape, dim)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def unitarity_defect(m) -> float:
    """Max-norm of ``m^dag m - I``; ``inf`` for an entry above ``2**500``."""
    return float(_unitarity_defect(_finite_matrix(m)))


def _unitarity_defect(a: np.ndarray) -> np.ndarray:
    """:func:`unitarity_defect` of each matrix of a complex ``(..., d, d)`` stack.

    A matrix with a non-finite entry gets ``nan``.  A column's squared norm,
    a diagonal entry of ``a^dag a``, is at least its largest entry squared,
    so an entry above ``2**500`` puts the defect above ``2**1000``; such a
    matrix gets ``inf``.  Neither kind enters the product, so nothing
    overflows and nothing warns.  Halving keeps ``abs()`` finite near
    1e308; it halves the float components of a row-major copy (``np.array``
    keeps a transposed input column-major), as a complex ``0.5 * inf``
    would warn.
    """
    a = np.ascontiguousarray(a)
    scale = np.abs((0.5 * a.view(float)).view(complex)).max(axis=(-2, -1))
    small = scale <= 2.0**499  # False for nan and inf too
    whole = small.all()
    if not whole:
        a = np.where(small[..., None, None], a, 0.0)
    product = a.conj().swapaxes(-2, -1) @ a
    defect = np.abs(product - np.eye(a.shape[-1])).max(axis=(-2, -1))
    if whole:
        return defect
    return np.where(small, defect, np.where(np.isfinite(scale), math.inf, math.nan))


def _unitary_error(defect: float, tol: float) -> ValueError | None:
    """The error :func:`as_unitary` raises for a matrix of this defect, or None.

    A NaN ``tol``, which no defect exceeds, or a negative one, which every
    defect does, raises ``ValueError``.
    """
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be a non-negative number, got {tol!r}")
    if defect <= tol:
        return None
    if math.isnan(defect):
        return ValueError("matrix has non-finite entries")
    return ValueError(f"matrix is not unitary (defect {defect:.3g} > {tol:.3g})")


def is_unitary(m, tol: float = UNITARY_TOL) -> bool:
    """True iff ``m`` is a finite square matrix of defect at most ``tol``.

    A NaN or negative ``tol`` raises ``ValueError``.
    """
    try:
        a = np.array(m, dtype=complex)
        _check_shape(a.shape)
    except ValueError:
        return False
    return _unitary_error(float(_unitarity_defect(a)), tol) is None


def as_unitary(m, dim: int | None = None, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate and return ``m`` as a complex128 unitary array."""
    a = np.array(m, dtype=complex)
    _check_shape(a.shape, dim)
    error = _unitary_error(float(_unitarity_defect(a)), tol)
    if error is not None:
        raise error
    return a


def _unitary_entries(u, tol: float = UNITARY_TOL) -> tuple[complex, ...]:
    """Validate ``u`` as a 2x2 unitary and return its row-major entries."""
    return tuple(as_unitary(u, 2, tol).ravel().tolist())


def _mul_entries(x: tuple[complex, ...], y: tuple[complex, ...]) -> tuple[complex, ...]:
    """Row-major entries of the 2x2 product ``x @ y``."""
    a, b, c, d = x
    p, q, r, s = y
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def z_rot(theta: float) -> np.ndarray:
    """Z rotation ``diag(exp(-i*theta/2), exp(+i*theta/2))``."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    e = cmath.exp(-0.5j * theta)
    return np.array((e, 0j, 0j, e.conjugate())).reshape(2, 2)


def x_rot(omega: float) -> np.ndarray:
    """X rotation ``exp(-i*omega*X/2)``."""
    omega = float(omega)
    if not math.isfinite(omega):
        raise ValueError(f"angle must be finite, got {omega!r}")
    c, s = math.cos(0.5 * omega), math.sin(0.5 * omega)
    return np.array([[c, -1j * s], [-1j * s, c]])


def y_rot(theta: float) -> np.ndarray:
    """Y rotation ``exp(-i*theta*Y/2)``."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def conjugated_x(sigma: float, phase: float) -> np.ndarray:
    """The unitary ``z_rot(-phase) @ x_rot(sigma) @ z_rot(phase)``.

    Physically: an X pulse of area ``sigma`` whose drive carries an extra
    phase shift ``phase``.
    """
    sigma, phase = float(sigma), float(phase)
    if not (math.isfinite(sigma) and math.isfinite(phase)):
        raise ValueError("angles must be finite")
    # [[c, -i s e], [-i s e*, c]] with c, s = cos, sin(sigma / 2) and e = exp(i*phase)
    half = 0.5 * sigma
    se = -1j * np.sin(half) * np.exp(1j * phase)
    c = np.cos(half)
    return np.array([[c, se], [-se.conjugate(), c]])


def phase_canonical(m) -> np.ndarray:
    """Divide by the phase of the largest-magnitude entry.

    Ties are broken by the lowest row-major index, which makes the result
    deterministic for exact inputs.
    """
    a = np.array(m, dtype=complex)
    k = int(np.argmax(np.abs(a).ravel()))
    pivot = a.ravel()[k]
    if pivot == 0:
        return a
    return a * (abs(pivot) / pivot)


def phase_distance(a, b) -> float:
    """Max-norm distance between ``a`` and the best phase-aligned ``b``.

    The aligning phase is the Frobenius-optimal ``c = <b,a>/|<b,a>|``,
    which realizes ``min_c ||a - c*b||`` without relying on entry-magnitude
    tie-breaking.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ip = complex(np.vdot(b, a))
    c = ip / abs(ip) if abs(ip) > 1e-300 else 1.0
    return float(np.max(np.abs(a - c * b)))


def equal_up_to_global_phase(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``a == c*b`` for some unit phase ``c``, within ``tol``."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    return phase_distance(a, b) <= tol


@dataclass(frozen=True)
class GateParams:
    """Three real parameters of a det-1 single-qubit gate.

    The associated matrix is
    ``[[exp(i*alpha)*cos(gamma), -exp(-i*beta)*sin(gamma)],
       [exp(i*beta)*sin(gamma),  exp(-i*alpha)*cos(gamma)]]``
    with ``gamma`` in ``[0, pi/2]`` and ``alpha``, ``beta`` in ``[-pi, pi)``.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a = normalize_angle(self.alpha)
        b = normalize_angle(self.beta)
        g = float(self.gamma)
        if not math.isfinite(g):
            raise ValueError(f"gamma must be finite, got {g!r}")
        if g < -1e-9 or g > PI / 2 + 1e-9:
            raise ValueError(f"gamma must lie in [0, pi/2], got {g!r}")
        g = min(max(g, 0.0), PI / 2)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)


def unitary_from_params(p: GateParams) -> np.ndarray:
    """Matrix of ``p`` (see :class:`GateParams`)."""
    return np.array(_angle_entries(p.alpha, p.beta, p.gamma)).reshape(2, 2)


def _angle_entries(alpha: float, beta: float, gamma: float) -> tuple[complex, ...]:
    """Row-major entries of :func:`unitary_from_params` of the angles a
    :class:`GateParams` keeps.

    Python scalar arithmetic on purpose: numpy's complex division differs
    from Python's by an ulp in about a third of the divided entries.
    """
    cg, sg = math.cos(gamma), math.sin(gamma)
    ea, eb = cmath.exp(1j * alpha), cmath.exp(1j * beta)
    return (ea * cg, -sg / eb, eb * sg, cg / ea)


def params_from_unitary(u, tol: float = UNITARY_TOL) -> tuple[GateParams, float]:
    """Invert :func:`unitary_from_params` up to a global phase.

    Returns ``(params, phase)`` with ``u == exp(i*phase) * matrix(params)``.
    ``gamma = atan2(|m10|, |m00|)`` of the det-1 form ``m``, which stays
    exact at 0 where ``acos(|m00|)`` would give 1.5e-8 for ``|m00|`` one
    rounding below 1.  When ``gamma`` hits 0 or pi/2 the unconstrained
    angle is set to 0.  Validates ``u`` first.
    """
    alpha, beta, gamma, gphase = _gate_angles(_unitary_entries(u, tol))
    return GateParams(alpha, beta, gamma), gphase


def _gate_angles(m: tuple[complex, ...]) -> tuple[float, float, float, float]:
    """``(alpha, beta, gamma, phase)`` of :func:`params_from_unitary` on the
    row-major entries of a 2x2 unitary the caller has validated, as floats,
    the angles normalized as :class:`GateParams` keeps them."""
    a, b, c, d = m
    gphase = 0.5 * cmath.phase(a * d - b * c)
    k = cmath.exp(-1j * gphase)
    m00, m10 = a * k, c * k
    alpha = normalize_angle(cmath.phase(m00)) if abs(m00) > 1e-13 else 0.0
    beta = normalize_angle(cmath.phase(m10)) if abs(m10) > 1e-13 else 0.0
    # atan2 of two magnitudes lies in [0, pi/2], as GateParams keeps gamma.
    return alpha, beta, math.atan2(abs(m10), abs(m00)), gphase


def _product_angles(later: Sequence[float], earlier: Sequence[float]) -> tuple[float, float, float]:
    """``(alpha, beta, gamma)`` of ``U(later) @ U(earlier)``, two gates given
    by the angles a :class:`GateParams` keeps, read off the product's 2x2
    entries by :func:`_gate_angles`."""
    return _gate_angles(_mul_entries(_angle_entries(*later), _angle_entries(*earlier)))[:3]


@dataclass(frozen=True)
class Quaternion:
    """Quaternion ``a0 + a1*i + a2*j + a3*k``.

    The isomorphism with det-1 2x2 unitaries maps
    ``1 -> I, i -> -iZ, j -> -iX, k -> -iY``.
    """

    a0: float
    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        for v in (self.a0, self.a1, self.a2, self.a3):
            if not math.isfinite(v):
                raise ValueError("quaternion components must be finite")

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a0, a1, a2, a3 = self.a0, self.a1, self.a2, self.a3
        b0, b1, b2, b3 = other.a0, other.a1, other.a2, other.a3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def norm(self) -> float:
        return math.sqrt(self.a0**2 + self.a1**2 + self.a2**2 + self.a3**2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero quaternion")
        return Quaternion(self.a0 / n, self.a1 / n, self.a2 / n, self.a3 / n)


def to_quaternion(u, tol: float = 1e-9) -> Quaternion:
    """Quaternion of a det-1 2x2 unitary (``u = a0*I - a1*iZ - a2*iX - a3*iY``)."""
    u = as_unitary(u, 2)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if abs(det - 1.0) > tol:
        raise ValueError(f"determinant must be 1 (got {det:.6g}); normalize first")
    m00, m01 = complex(u[0, 0]), complex(u[0, 1])
    m10, m11 = complex(u[1, 0]), complex(u[1, 1])
    return Quaternion(
        0.5 * (m00.real + m11.real),
        0.5 * (m11.imag - m00.imag),
        -0.5 * (m10.imag + m01.imag),
        0.5 * (m10.real - m01.real),
    )


def from_quaternion(q: Quaternion) -> np.ndarray:
    """Inverse of :func:`to_quaternion`."""
    return np.array(
        [
            [q.a0 - 1j * q.a1, -q.a3 - 1j * q.a2],
            [q.a3 - 1j * q.a2, q.a0 + 1j * q.a1],
        ]
    )


class WeylCoords(NamedTuple):
    """Canonical two-qubit interaction coefficients, ``pi/2 >= c1 >= c2 >= c3 >= 0``."""

    c1: float
    c2: float
    c3: float


_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_Y, _Y)


def _canonical_weyl(raw: np.ndarray) -> WeylCoords:
    # Quotient by mod-pi shifts, coordinate sign flips and permutations.
    # Sorted representatives with c1 <= pi/2 are unique (boundary points
    # coincide across patterns), so the lexicographic minimum is canonical.
    best = None
    for signs in itertools.product((1.0, -1.0), repeat=3):
        v = np.mod(raw * np.array(signs), PI)
        v = np.sort(v)[::-1]
        if v[0] <= PI / 2 + 1e-9:
            cand = (float(v[0]), float(v[1]), float(v[2]))
            if best is None or cand < best:
                best = cand
    assert best is not None  # flipping every component > pi/2 always qualifies
    return WeylCoords(*best)


def weyl_coordinates(u, tol: float = UNITARY_TOL) -> WeylCoords:
    """Weyl-chamber coordinates of a two-qubit unitary.

    Invariant under single-qubit rotations before/after ``u``: computed from
    the spectrum of ``m = v (YY v^T YY)`` with ``v`` the det-normalized gate
    (the eigenphases of ``m`` are local invariants), then canonicalized.
    A loose ``tol`` can admit a singular ``u``, or one so far from unitary
    that the spectrum is not finite: that raises ``ValueError``.
    """
    return _weyl_coordinates(as_unitary(u, 4, tol))


def _weyl_coordinates(u: np.ndarray) -> WeylCoords:
    """:func:`weyl_coordinates` of a 4x4 the caller has validated."""
    with np.errstate(all="ignore"):  # a non-finite result is reported below
        det = complex(np.linalg.det(u))
        v = u / det**0.25
        m = v @ (_YY @ v.T @ _YY)
        spectrum = np.linalg.eigvals(m) if np.isfinite(m).all() else m
    if not np.isfinite(spectrum).all():
        raise ValueError("matrix is singular or too far from unitary for Weyl coordinates")
    ang = np.angle(spectrum) / PI  # in (-1, 1]
    ang = np.where(ang <= -0.5, ang + 2.0, ang)
    s = np.sort(ang / 2.0)[::-1]
    shift = int(round(float(s.sum())))
    s[:shift] -= 1.0
    s = np.roll(s, -shift)
    raw = np.array([s[0] + s[1], s[0] + s[2], s[1] + s[2]]) * PI
    return _canonical_weyl(raw)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_FIXED_GATES = {
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "ISWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    # Principal square root of ISWAP.
    "SQISW": np.array(
        [
            [1, 0, 0, 0],
            [0, _INV_SQRT2, 1j * _INV_SQRT2, 0],
            [0, 1j * _INV_SQRT2, _INV_SQRT2, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    ),
}


def standard_gate(name: str, *params: float) -> np.ndarray:
    """Standard two-qubit gate by name.

    Fixed gates: CZ, CNOT, SWAP, ISWAP, SQISW.  Parameterized:
    ``CPHASE(phi)`` and ``FSIM(theta, phi)`` (which sends ``|11>`` to
    ``exp(-i*phi)|11>``).
    """
    key = name.upper()
    if key in _FIXED_GATES:
        if params:
            raise ValueError(f"{key} takes no parameters")
        return _FIXED_GATES[key].copy()
    if key == "CPHASE":
        if len(params) != 1:
            raise ValueError("CPHASE takes one angle")
        m = np.eye(4, dtype=complex)
        m[3, 3] = cmath.exp(1j * float(params[0]))
        return m
    if key == "FSIM":
        if len(params) != 2:
            raise ValueError("FSIM takes two angles")
        theta, phi = float(params[0]), float(params[1])
        c, s = math.cos(theta), math.sin(theta)
        m = np.eye(4, dtype=complex)
        m[1, 1] = m[2, 2] = c
        m[1, 2] = m[2, 1] = -1j * s
        m[3, 3] = cmath.exp(-1j * phi)
        return m
    raise ValueError(f"unknown gate {name!r}")
