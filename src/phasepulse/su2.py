"""Fixed-size complex linear algebra for one- and two-qubit gates.

Conventions used across the package (all angles in radians):

* ``z_rot(theta) == diag(exp(-i*theta/2), exp(+i*theta/2))``
* ``x_rot(omega) == exp(-i*omega*X/2)``
* two-qubit basis order is ``|00>, |01>, |10>, |11>`` with qubit 0 as the
  most significant bit.
* the one SU(2) form: ``U(alpha, beta, gamma)`` (see :class:`GateParams`)
  is the unit quaternion ``q = (cos a cos g, sin a cos g, cos b sin g,
  sin b sin g)``, and its 2x2 is ``sum_j q[j] * _BASIS[j]``.
* the phase-shift formulas (``_three_pulse_pairs``, ``_virtual_z_pairs``,
  ``_special_pairs``) take those angles to time-ordered ``(sigma, phase)``
  pulses, which the compiler emits and :mod:`phasepulse.schemes` wraps.

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
    if not tol > 0:  # NaN too
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


# The 2x2 of a quaternion q, the sum of q[j] times _BASIS[j], is
# [[q0 + i*q1, -q2 + i*q3], [q2 + i*q3, q0 - i*q1]]: m00 = q0 + i*q1 and
# m10 = q2 + i*q3.
_BASIS = np.array([[1, 0, 0, 1], [1j, 0, 0, -1j], [0, -1, 1, 0], [0, 1j, 1j, 0]]).reshape(4, 2, 2)


def unitary_from_params(p: GateParams) -> np.ndarray:
    """Matrix of ``p`` (see :class:`GateParams`)."""
    return np.tensordot(_quaternion(p.alpha, p.beta, p.gamma), _BASIS, 1)


def _quaternion(alpha, beta, gamma, cos=math.cos, sin=math.sin):
    """The unit quaternion of ``U(alpha, beta, gamma)`` (see :data:`_BASIS`),
    of floats, or of arrays when handed ``np.cos`` and ``np.sin``."""
    cg, sg = cos(gamma), sin(gamma)
    return (cos(alpha) * cg, sin(alpha) * cg, cos(beta) * sg, sin(beta) * sg)


def _quaternion_product(a, b):
    """The quaternion of the 2x2 product ``A @ B`` of quaternions ``a`` and
    ``b`` in the form of :data:`_BASIS`, whose units square to -1 and
    multiply as ``e1 e2 = -e3`` (cyclic).  Plain arithmetic, so the
    components may be floats or arrays."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 - a2 * b3 + a3 * b2,
        a0 * b2 + a2 * b0 - a3 * b1 + a1 * b3,
        a0 * b3 + a3 * b0 - a1 * b2 + a2 * b1,
    )


def _quaternion_angles(q) -> tuple[float, float, float]:
    """``(alpha, beta, gamma)`` of a unit quaternion, normalized as
    :class:`GateParams` keeps them.  ``gamma = atan2(|m10|, |m00|)``, which
    stays exact at 0 where ``acos(|m00|)`` would give 1.5e-8 for ``|m00|``
    one rounding below 1.  The angle of an entry under 1e-13 is set to 0."""
    q0, q1, q2, q3 = q
    # abs of a complex is libm's hypot, as the magnitude of an entry always was
    c, s = abs(complex(q0, q1)), abs(complex(q2, q3))
    alpha = normalize_angle(math.atan2(q1, q0)) if c > 1e-13 else 0.0
    beta = normalize_angle(math.atan2(q3, q2)) if s > 1e-13 else 0.0
    # atan2 of two magnitudes lies in [0, pi/2], as GateParams keeps gamma.
    return alpha, beta, math.atan2(s, c)


def params_from_unitary(u, tol: float = UNITARY_TOL) -> tuple[GateParams, float]:
    """Invert :func:`unitary_from_params` up to a global phase.

    Returns ``(params, phase)`` with ``u == exp(i*phase) * matrix(params)``,
    read by :func:`_quaternion_angles`.  Validates ``u`` first.
    """
    *angles, gphase = _gate_angles(_unitary_entries(u, tol))
    return GateParams(*angles), gphase


def _gate_angles(m: tuple[complex, ...]) -> tuple[float, float, float, float]:
    """``(alpha, beta, gamma, phase)`` of :func:`params_from_unitary` on the
    row-major entries of a 2x2 unitary the caller has validated, as floats."""
    a, b, c, d = m
    gphase = 0.5 * cmath.phase(a * d - b * c)
    k = cmath.exp(-1j * gphase)
    m00, m10 = a * k, c * k
    return (*_quaternion_angles((m00.real, m00.imag, m10.real, m10.imag)), gphase)


def _product_angles(later: Sequence[float], earlier: Sequence[float]) -> tuple[float, float, float]:
    """``(alpha, beta, gamma)`` of ``U(later) @ U(earlier)``, two gates given
    by the angles a :class:`GateParams` keeps."""
    return _quaternion_angles(_quaternion_product(_quaternion(*later), _quaternion(*earlier)))


# Detection threshold of the special cases: a gate this close to a case takes
# its exact pulses, and the gaps add up, so it is the text format's 1e-12.
STRUCTURE_TOL = 1e-12

# Time-ordered pulses as raw (sigma, phase) pairs.
_Pairs = tuple[tuple[float, float], ...]


def _three_pulse_pairs(alpha: float, beta: float, gamma: float) -> _Pairs:
    """The pulses of :func:`phasepulse.schemes.three_pulse` for the angles of a
    :class:`GateParams`."""
    return ((PI / 2, -alpha - beta), (PI, -beta + gamma - PI), (PI / 2, alpha - beta))


# The gammas that keep the two-X90 bridge lie in (tol, pi/4 - tol) or
# (pi/4 + tol, pi/2 - tol); any other is 0, pi/4 or pi/2 within tol.  As
# four precomputed bounds, the test costs a flush two chained comparisons.
_BRIDGE_LO, _X90_LO = STRUCTURE_TOL, PI / 4 - STRUCTURE_TOL
_X90_HI, _BRIDGE_HI = PI / 4 + STRUCTURE_TOL, PI / 2 - STRUCTURE_TOL


def _virtual_z_pairs(
    alpha: float, beta: float, gamma: float, special: bool = False
) -> tuple[_Pairs, float]:
    """The pulses and the normalized residual of
    :func:`phasepulse.schemes.virtual_z`, or with ``special`` of its special
    cases where the angles allow them.

    Every gate has ``z_rot(2*alpha) @ U(alpha, beta, gamma) ==
    conjugated_x(2*gamma, -alpha - beta - pi/2)``.  So when ``gamma`` is 0,
    pi/4 or pi/2, each within ``STRUCTURE_TOL``, the gate takes no pulse, one
    X90 or one X180 of that phase and leaves the residual ``2*alpha``.
    """
    if special and not (_BRIDGE_LO < gamma < _X90_LO or _X90_HI < gamma < _BRIDGE_HI):
        sigma = round(4.0 * gamma / PI) * (PI / 2)  # 0, pi/2 or pi
        pairs = ((sigma, -alpha - beta - PI / 2),) if sigma else ()
        return pairs, normalize_angle(2.0 * alpha)
    theta = -alpha + beta
    phi = PI - 2.0 * gamma
    omega = -alpha - beta - PI
    residual = normalize_angle(-(theta + phi + omega))
    return ((PI / 2, omega), (PI / 2, omega + phi)), residual


def _special_pairs(
    alpha: float, beta: float, gamma: float, tol: float = STRUCTURE_TOL
) -> _Pairs | None:
    """The pulses of :func:`phasepulse.schemes.special_case` for the angles of
    a :class:`GateParams`, or None.

    A gate takes fewer than three X pulses exactly when ``gamma`` is 0, pi/4
    or pi/2, each within ``tol``: the identity (``sin(alpha)`` 0 too) none,
    any other diagonal gate two X180s of opposite phase shifts, an
    anti-diagonal gate one X180, and a gate with ``|m00| = 1/sqrt2`` (every
    Clifford that is neither) an X180 then an X90, or one X90 when
    ``sin(alpha)`` is 0.
    """
    if gamma <= tol:  # diag(exp(i a), exp(-i a))
        if abs(math.sin(alpha)) <= tol:
            return ()
        theta = -0.5 * (alpha + PI)
        return ((PI, theta), (PI, -theta))
    if gamma >= PI / 2 - tol:  # [[0, -exp(-i b)], [exp(i b), 0]]
        return ((PI, 1.5 * PI - beta),)
    if abs(gamma - PI / 4) <= tol:
        if abs(math.sin(alpha)) <= tol:
            return ((PI / 2, -0.5 * PI - alpha - beta),)
        return ((PI, -0.5 * PI - beta), (PI / 2, alpha - beta + 0.5 * PI))
    return None


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
