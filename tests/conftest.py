"""Shared test helpers: random unitaries and independent oracles."""

import cmath
import math

import numpy as np

from phasepulse.circuit import (
    CircuitIR,
    CompilePolicy,
    PulseSchedule,
    compile_circuit,
    simulate_schedule,
)
from phasepulse.su2 import GateParams

PI = math.pi

_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_Y, _Y)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def angles_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The 2x2 of ``U(alpha, beta, gamma)`` from the formula :class:`GateParams`
    documents, in complex exponentials rather than ``su2``'s quaternions."""
    cg, sg = math.cos(gamma), math.sin(gamma)
    ea, eb = cmath.exp(1j * alpha), cmath.exp(1j * beta)
    return np.array([[ea * cg, -sg / eb], [eb * sg, cg / ea]])


def random_gate_params(rng: np.random.Generator) -> GateParams:
    return GateParams(
        rng.uniform(-PI, PI), rng.uniform(-PI, PI), rng.uniform(0.0, PI / 2)
    )


def makhlin_invariants(u: np.ndarray) -> tuple[float, float, float]:
    """Local invariants (g1, g2, g3) computed directly from the matrix."""
    det = complex(np.linalg.det(u))
    v = np.asarray(u, dtype=complex) / det**0.25
    m = v @ (_YY @ v.T @ _YY)
    tr = complex(np.trace(m))
    g12 = tr**2 / 16.0
    g3 = (tr**2 - complex(np.trace(m @ m))) / 4.0
    return g12.real, g12.imag, g3.real


def makhlin_from_weyl(c1: float, c2: float, c3: float) -> tuple[float, float, float]:
    """The same invariants from Weyl coordinates (closed form)."""
    g1 = (
        math.cos(c1) ** 2 * math.cos(c2) ** 2 * math.cos(c3) ** 2
        - math.sin(c1) ** 2 * math.sin(c2) ** 2 * math.sin(c3) ** 2
    )
    g2 = 0.25 * math.sin(2 * c1) * math.sin(2 * c2) * math.sin(2 * c3)
    g3 = 4 * g1 - math.cos(2 * c1) * math.cos(2 * c2) * math.cos(2 * c3)
    return g1, g2, g3


def compile_verifying_prefixes(ir: CircuitIR, policy: CompilePolicy) -> PulseSchedule:
    """Compile ``ir``, first checking that every prefix verifies within 1e-9.

    A prefix's schedule is the schedule so far plus the flushes and FRAMEs
    that end it, so ``simulate_schedule`` checks the compiler's frame
    invariant after every op.  Returns the schedule of the whole circuit.
    """
    for k in range(len(ir.ops) + 1):
        prefix = CircuitIR(ir.n_qubits, ir.ops[:k])
        schedule = compile_circuit(prefix, policy)
        deviation = simulate_schedule(schedule, prefix)
        assert deviation <= 1e-9, f"prefix of {k} ops deviates by {deviation:.3g}"
    return schedule
