"""Machine-speed calibration of the benchmark's timings.

On a shared host the CPU speed one process sees drifts by a third or more
over seconds to minutes, and the package and the interpreter slow down
together.  So a fixed kernel that never touches the package is timed
before each measured operation, and each raw time is reported at the
nominal speed: ``raw * nominal / k``.  A change to the package does not
move the kernel, so it still moves the reported times.  In-process
timings use the reference check of a fixed schedule, and ``k`` is the
median of the 11 kernel times around the operation.  Subprocess timings
use a fresh interpreter that imports numpy, since start-up drifts apart
from in-process speed; start-up speed drifts within seconds, so ``k`` is
the kernel time right before the subprocess.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import reference

# The kernels' typical times on a shared 2-vCPU x86-64 virtual machine (Python 3.11, numpy 2.4).
NOMINAL_S = 0.002
NOMINAL_START_S = 0.15


def _kernel_input() -> tuple:
    # The reference check of a fixed synthetic schedule: text parsing, 2x2
    # complex products and small numpy products, the same kinds of work as
    # the compiler and the verifier.  The pulses are random, so the
    # deviation it computes is meaningless; only its cost matters.
    rng = np.random.default_rng(0)
    circ = gen.make_circuit(rng, 20, gen.WORKLOADS["clifford-mixed"].layer_fn)
    lines = []
    for op in circ.ops:
        if isinstance(op, gen.Gate2Op):
            name = f"FSIM({op.args[0]!r},{op.args[1]!r})" if op.family == "FSIM" else op.family
            lines.append(f"GATE2 {name} q{op.qubits[0]} q{op.qubits[1]}")
        else:
            for sigma, phase in rng.uniform(-math.pi, math.pi, size=(3, 2)):
                lines.append(f"PULSE q{op[1]} sigma={sigma:.12g} phase={phase:.12g}")
    text = "\n".join(lines + ["FRAME q0 z=0.25", "FRAME q1 z=-0.5"]) + "\n"
    return text, circ, reference.ideal(circ)


_INPUT = _kernel_input()


def _kernel() -> float:
    return reference.deviation(*_INPUT)


def _start_numpy() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)


class Calibration:
    """Times of one fixed kernel in run order; :meth:`mark` times it once more."""

    def __init__(self, kernel, nominal_s: float, half_window: int):
        self._kernel = kernel
        self._nominal_s = nominal_s
        self._half_window = half_window
        self._times: list[float] = []

    def mark(self) -> int:
        t0 = time.perf_counter()
        self._kernel()
        self._times.append(time.perf_counter() - t0)
        return len(self._times) - 1

    def factor(self, index: int) -> float:
        """The factor that scales raw times measured right after mark ``index`` to the nominal speed."""
        window = self._times[max(0, index - self._half_window):index + self._half_window + 1]
        return self._nominal_s / statistics.median(window)


def in_process() -> Calibration:
    """For in-process timings: the reference check of a fixed schedule."""
    return Calibration(_kernel, NOMINAL_S, 5)


def start_up() -> Calibration:
    """For subprocess timings: a fresh interpreter that imports numpy and exits."""
    return Calibration(_start_numpy, NOMINAL_START_S, 0)
