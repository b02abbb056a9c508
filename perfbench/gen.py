"""Seeded circuit generators for the benchmark workloads.

A circuit is made from a seed alone.  It has two forms: the circuit text,
which is all the program under test receives, and the list of ops the
generator drew, from which the reference checker builds the ideal unitary
on its own.  Matrices follow the conventions of the package README.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

PI = math.pi
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
_S = 1.0 / math.sqrt(2.0)
FIXED_GATE2 = {
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "ISWAP": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
    "SQISW": np.array([[1, 0, 0, 0], [0, _S, 1j * _S, 0], [0, 1j * _S, _S, 0], [0, 0, 0, 1]]),
}


def z_rot(theta: float) -> np.ndarray:
    return np.array([[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]])


def x_rot(omega: float) -> np.ndarray:
    c, s = math.cos(0.5 * omega), math.sin(0.5 * omega)
    return np.array([[c, -1j * s], [-1j * s, c]])


def u_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The README's ``U q alpha beta gamma`` gate."""
    ea, eb = cmath.exp(1j * alpha), cmath.exp(1j * beta)
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array([[ea * c, -s / eb], [eb * s, c / ea]])


def fsim(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [[1, 0, 0, 0], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [0, 0, 0, cmath.exp(-1j * phi)]]
    )


def phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between ``a`` and ``b`` after the best global phase."""
    ip = complex(np.vdot(b, a))
    c = ip / abs(ip) if abs(ip) > 1e-300 else 1.0
    return float(np.max(np.abs(a - c * b)))


def su2_params(u: np.ndarray) -> tuple[float, float, float]:
    """``(alpha, beta, gamma)`` with ``u == phase * u_matrix(alpha, beta, gamma)``."""
    su = u / cmath.sqrt(complex(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]))
    a, b = complex(su[0, 0]), complex(su[1, 0])
    alpha = cmath.phase(a) if abs(a) > 1e-12 else 0.0
    beta = cmath.phase(b) if abs(b) > 1e-12 else 0.0
    return alpha, beta, math.atan2(abs(b), abs(a))


def _clifford_params() -> list[tuple[float, float, float]]:
    # The 24 single-qubit Cliffords mod phase, as the closure of X90 and Z90.
    found = [np.eye(2, dtype=complex)]
    frontier = list(found)
    while frontier:
        grown = []
        for m in frontier:
            for g in (x_rot(PI / 2), z_rot(PI / 2)):
                p = g @ m
                if all(phase_deviation(p, f) > 1e-9 for f in found):
                    found.append(p)
                    grown.append(p)
        frontier = grown
    if len(found) != 24:
        raise RuntimeError(f"expected 24 Cliffords, built {len(found)}")
    return [su2_params(m) for m in found]


CLIFFORD_PARAMS = _clifford_params()


@dataclass(frozen=True, eq=False)
class Gate2Op:
    qubits: tuple[int, int]
    family: str  # CZ, CNOT, ISWAP, SQISW, FSIM or CUSTOM
    args: tuple[float, ...]  # (theta, phi) for FSIM, else ()
    matrix: np.ndarray  # in the order the qubits are named

    def effective(self) -> np.ndarray:
        return self.matrix if self.qubits == (0, 1) else SWAP @ self.matrix @ SWAP


@dataclass(frozen=True, eq=False)
class Circuit:
    text: str
    layers: int
    ops: tuple  # ("1q", qubit, 2x2 matrix) or Gate2Op, in circuit order

    def gate2_ops(self) -> list[Gate2Op]:
        return [op for op in self.ops if isinstance(op, Gate2Op)]


def _u_line(q: int, params) -> str:
    return f"U q{q} " + " ".join(repr(float(v)) for v in params)


def _haar_su2(rng) -> tuple[float, float, float]:
    v = rng.normal(size=4)
    a, b = complex(v[0], v[1]), complex(v[2], v[3])
    return cmath.phase(a), cmath.phase(b), math.atan2(abs(b), abs(a))


def _haar_u4(rng) -> np.ndarray:
    z = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _haar_cz_layer(rng, lines: list, ops: list) -> None:
    for q in (0, 1):
        params = _haar_su2(rng)
        lines.append(_u_line(q, params))
        ops.append(("1q", q, u_matrix(*params)))
    lines.append("G2 CZ q0 q1")
    ops.append(Gate2Op((0, 1), "CZ", (), FIXED_GATE2["CZ"]))


def _clifford_mixed_layer(rng, lines: list, ops: list) -> None:
    for q in (0, 1):
        kind = int(rng.integers(4))
        if kind == 0:
            lines.append(f"X90 q{q}")
            ops.append(("1q", q, x_rot(PI / 2)))
        elif kind == 1:
            lines.append(f"X180 q{q}")
            ops.append(("1q", q, x_rot(PI)))
        elif kind == 2:
            theta = int(rng.integers(1, 4)) * PI / 2
            lines.append(f"RZ q{q} {theta!r}")
            ops.append(("1q", q, z_rot(theta)))
        else:
            params = CLIFFORD_PARAMS[int(rng.integers(24))]
            lines.append(_u_line(q, params))
            ops.append(("1q", q, u_matrix(*params)))
    qubits = (0, 1) if rng.integers(2) == 0 else (1, 0)
    where = f"q{qubits[0]} q{qubits[1]}"
    family = ("CZ", "CNOT", "ISWAP", "SQISW", "FSIM", "CUSTOM")[int(rng.integers(6))]
    if family == "FSIM":
        theta, phi = (float(x) for x in rng.uniform(-PI, PI, size=2))
        lines.append(f"G2 FSIM({theta!r},{phi!r}) {where}")
        ops.append(Gate2Op(qubits, family, (theta, phi), fsim(theta, phi)))
    elif family == "CUSTOM":
        m = _haar_u4(rng)
        entries = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in m.ravel())
        lines.append(f"G2 CUSTOM {where} {entries}")
        ops.append(Gate2Op(qubits, family, (), m))
    else:
        lines.append(f"G2 {family} {where}")
        ops.append(Gate2Op(qubits, family, (), FIXED_GATE2[family]))


def make_circuit(rng, layers: int, layer_fn) -> Circuit:
    lines, ops = ["qubits 2"], []
    for _ in range(layers):
        layer_fn(rng, lines, ops)
    lines += ["M q0", "M q1"]
    return Circuit("\n".join(lines) + "\n", layers, tuple(ops))


@dataclass(frozen=True)
class Workload:
    layer_fn: object
    layers: int
    circuits: int
    cli_share: float  # share of the measuring time spent on CLI subprocesses


# Each workload has at least 110 circuits, so that at least ten of the
# (circuit, policy) samples of each policy lie above p90.  The layer counts
# and CLI shares let each workload reach its three in-process passes within
# a 35-second run while leaving the CLI about 15-25 compile/verify pairs.
WORKLOADS = {
    # Haar-random 1q gates never hit a special case, so three-always pays the
    # full Clifford scan; every 2q gate is the same carrier (CZ).
    "haar-cz": Workload(_haar_cz_layer, 15, 110, 0.45),
    # Clifford 1q gates mostly hit special cases; the six 2q families make
    # auto use carry, ENC and zero-out, and a third of them are distinct.
    "clifford-mixed": Workload(_clifford_mixed_layer, 20, 110, 0.55),
    # Short circuits from the clifford-mixed generator through the CLI, where
    # process start-up dominates.
    "cli-small": Workload(_clifford_mixed_layer, 10, 110, 0.7),
}


def corpus(name: str, seed: int) -> list[Circuit]:
    """The circuits of workload ``name`` for ``seed``; the same seed gives the same circuits."""
    wl = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    return [make_circuit(rng, wl.layers, wl.layer_fn) for _ in range(wl.circuits)]
