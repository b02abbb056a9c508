"""Differential test of the batched 2q-gate validation and classification.

The reference below is the scalar path that validated and classified one
distinct gate at a time before the compiler batched them: ``as_unitary``
with its own defect, the four ``_enc_map`` mask tests, and the carrier and
partial-carry tests entry by entry.  A carrier is the first equivariant
permutation with no entry off it above ``ENTRY_ZERO_TOL``, whatever its
pivots; its carry map comes from the permutation's signs.  The only change
is that a matrix that is not 4x4 gets the shape error in both qubit orders
(the scalar path raised ``IndexError`` for ``(1, 0)``).

Stacks mix Haar unitaries, phase-permutation matrices and standard gates
with matrices at the classifier's bounds: a pivot at ``1 - 1e-8`` (the
bound an older carrier test put on pivots) or one ulp either side, an entry
that must vanish at ``ENTRY_ZERO_TOL`` or one ulp either side, a scale that
puts the defect near the unitarity tolerance, entries at the ``2**500``
overflow guard, ``1e308``, NaN and infinities, and wrong shapes; gates
repeat and come in both qubit orders.
Controlled gates, a Haar U on either qubit, come plain, with a phase on the
control or after a SWAP.  For every gate the batched calls must give the
same carry matrix, the same ENC ``(p, q)``, the same partial carry
``(qubit, image)`` and the same exception type and message.  Under every
policy, building the circuit and calling ``_gate2_rules`` must give the
first ``reference_as_unitary`` failure over the ops in order, as the
``CircuitIR`` constructor checks them, and else the reference rules.
"""

import math
from itertools import permutations
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from phasepulse.carrier import ENTRY_ZERO_TOL, _frame_maps
from phasepulse.circuit import (
    CircuitIR,
    Gate1,
    Gate2,
    IllegalPolicyError,
    PolicyMode,
    _gate2_rules,
)
from phasepulse.su2 import (
    UNITARY_TOL,
    GateParams,
    _unitarity_defect,
    _unitary_error,
    standard_gate,
)

# --- the scalar reference -------------------------------------------------


def reference_as_unitary(m, dim=None, tol=UNITARY_TOL):
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(0.5 * a).max() > 2.0**499:
        defect = math.inf
    else:
        defect = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3g} > {tol:.3g})")
    return a


def _signs(index):
    return (1 if index < 2 else -1, 1 if index % 2 == 0 else -1)


def reference_carry(u, tol=ENTRY_ZERO_TOL):
    """The carry matrix of the first equivariant permutation with no entry of
    ``u`` off it above ``tol`` in magnitude, or None for a non-carrier."""
    for mapping in permutations(range(4)):
        if not all(mapping[3 - j] == 3 - mapping[j] for j in range(4)):
            continue
        if all(abs(u[i, j]) <= tol for i in range(4) for j in range(4) if j != mapping[i]):
            e0, e1 = _signs(mapping[0]), _signs(mapping[1])
            return (
                ((e0[0] + e1[0]) // 2, (e0[1] + e1[1]) // 2),
                ((e0[0] - e1[0]) // 2, (e0[1] - e1[1]) // 2),
            )
    return None


_SIGNS = np.array([_signs(i) for i in range(4)])
_CANDIDATES = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def reference_enc(u, tol=ENTRY_ZERO_TOL):
    for p, q in _CANDIDATES:
        mask = (p * _SIGNS[:, 0] + q * _SIGNS[:, 1])[:, None] != _SIGNS.sum(axis=1)[None, :]
        if np.max(np.abs(u[mask])) <= tol:
            return (p, q)
    return None


_PARTIAL_IMAGES = {0: ((1, 0), (-1, 0), (0, 1), (0, -1)), 1: ((0, 1), (0, -1), (1, 0), (-1, 0))}


def reference_partial(u, tol=ENTRY_ZERO_TOL):
    """The first ``(qubit, (p0, p1))`` with ``u (Z_t on qubit) == (Z_p0t x Z_p1t) u``."""
    for qubit, images in _PARTIAL_IMAGES.items():
        for p0, p1 in images:
            if all(
                abs(u[i, j]) <= tol
                for i in range(4) for j in range(4)
                if p0 * _signs(i)[0] + p1 * _signs(i)[1] != _signs(j)[qubit]
            ):
                return qubit, (p0, p1)
    return None


def reference_maps(u):
    return reference_carry(u), reference_enc(u), reference_partial(u)


_RULES = {
    PolicyMode.THREE_ALWAYS: ("zero",),
    PolicyMode.VZ_CARRY: ("carry",),
    PolicyMode.ENC_MIXED: ("enc",),
    PolicyMode.AUTO: ("carry", "enc", "partial", "zero"),
}
_NEEDS = {"carry": "phase carriers", "enc": "excitation-number-conserving gates"}
_SWAPPED = [0, 2, 1, 3]


def reference_effective(op):
    m = np.asarray(op.matrix)
    if m.shape != (4, 4):
        reference_as_unitary(m, 4)  # words the shape error
    return m if op.qubits == (0, 1) else m[_SWAPPED][:, _SWAPPED]


def reference_gate2_rules(ir, mode):
    table = _RULES[mode]
    rules, seen = {}, {}
    for i, op in enumerate(ir.ops):
        if not isinstance(op, Gate2):
            continue
        key = (op.qubits, op.matrix.shape, op.matrix.dtype, op.matrix.tobytes())
        if key not in seen:
            u = reference_as_unitary(reference_effective(op), 4)
            carry, enc, partial = reference_maps(u)
            applicable = {"zero": ("zero", ((0, 0), (0, 0)))}
            if carry is not None:
                applicable["carry"] = ("carry", carry)
            if enc is not None:
                applicable["enc"] = ("enc", ((enc[0], 0), (0, enc[1])))
            if partial is not None:
                q, (a, b) = partial
                frames = [[0, 0], [0, 0]]
                frames[0][q], frames[1][q] = a, b
                applicable["partial"] = (f"partial q{q}", tuple(map(tuple, frames)))
            rule = next((applicable[r] for r in table if r in applicable), None)
            if rule is None:
                needs = " or ".join(_NEEDS[r] for r in table)
                raise IllegalPolicyError(
                    f"policy {mode.value!r} needs {needs}, but {op.name} (op {i}) is not one",
                    i,
                    op.name,
                )
            seen[key] = rule
        rules[i] = seen[key]
    return rules


# --- the stacks ---------------------------------------------------------------

PHASES = (1.0, -1.0, 1j, -1j)  # |z| of each times a float is that float, exactly
PIVOT = 1.0 - 1e-8


def _around(x):
    return (math.nextafter(x, 0.0), x, math.nextafter(x, 2.0))


KINDS = ("haar", "perm", "gate", "controlled", "entry", "pivot", "scaled")
VALID_KINDS = KINDS[:5]  # the first five pass validation


def controlled(rng, draw):
    """A controlled Haar U, control on either qubit, maybe with a phase on
    the control or followed by a SWAP."""
    control = draw(st.integers(0, 1))
    u = np.eye(4, dtype=complex)
    # the control's |1> half: basis states 2, 3 for control q0, and 1, 3 for q1
    ones = [2, 3] if control == 0 else [1, 3]
    u[np.ix_(ones, ones)] = haar_unitary(2, rng)
    if draw(st.booleans()):  # a Z rotation on the control
        bit = [0, 0, 1, 1] if control == 0 else [0, 1, 0, 1]
        u = np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 2))[bit]) @ u
    if draw(st.booleans()):
        u = standard_gate("SWAP") @ u
    return u


@st.composite
def unitaries(draw, kinds=KINDS):
    """A finite 4x4 near a unitary, often at a classification bound."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "haar":
        return haar_unitary(4, rng)
    if kind == "controlled":
        return controlled(rng, draw)
    if kind == "gate":
        name = draw(st.sampled_from(("CZ", "CNOT", "SWAP", "ISWAP", "SQISW", "CPHASE", "FSIM")))
        angle = st.sampled_from((0.0, math.pi / 2, math.pi, float(rng.uniform(-4, 4))))
        params = {"CPHASE": 1, "FSIM": 2}.get(name, 0)
        return standard_gate(name, *(draw(angle) for _ in range(params)))
    exact = kind != "perm" or draw(st.booleans())
    phases = ([draw(st.sampled_from(PHASES)) for _ in range(4)] if exact
              else np.exp(1j * rng.uniform(-math.pi, math.pi, 4)))
    perm = draw(st.permutations(range(4)))
    u = np.zeros((4, 4), dtype=complex)
    u[range(4), perm] = phases
    if kind == "pivot":
        row = draw(st.integers(0, 3))
        u[row, perm[row]] = draw(st.sampled_from(_around(PIVOT))) * draw(st.sampled_from(PHASES))
    elif kind == "entry":
        base = draw(st.sampled_from(("perm", "FSIM", "controlled")))
        if base == "FSIM":  # an ENC gate rather than a permutation
            u = standard_gate("FSIM", *rng.uniform(-4, 4, 2))
        elif base == "controlled":
            u = controlled(rng, draw)
        zeros = np.argwhere(u == 0)
        row, col = zeros[draw(st.integers(0, len(zeros) - 1))]
        u[row, col] = draw(st.sampled_from(_around(ENTRY_ZERO_TOL))) * draw(st.sampled_from(PHASES))
    elif kind == "scaled":
        u = u * (1.0 + draw(st.sampled_from((2e-9, 5e-9, 1e-8, 5e-8, 1e-6))))
    return u


BAD_ENTRIES = (
    1e308, -1e308j, 1.7e308 + 1.7e308j, 2.0**500, math.nextafter(2.0**500, math.inf), 1e200,
    math.nan, math.inf, -math.inf * 1j, complex(math.inf, math.nan), 2.0,
)


@st.composite
def matrices(draw):
    """A 4x4 to validate: near unitary, or with huge or non-finite entries."""
    u = draw(unitaries())
    if draw(st.integers(0, 5)) == 0:
        u = np.array(u, dtype=complex)
        if draw(st.booleans()):
            u[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = draw(st.sampled_from(BAD_ENTRIES))
        else:
            u[:] = draw(st.sampled_from(BAD_ENTRIES))
    return u


WRONG_SHAPES = (
    np.eye(2), np.eye(3, dtype=complex), np.ones(16), np.eye(4)[:, :3],
    np.eye(4, dtype=complex).ravel(),  # the bytes of EYE, but its own distinct gate
)
EYE = np.eye(4, dtype=complex)


@st.composite
def circuits(draw):
    """The ops of a circuit whose 2q gates repeat a small pool in both qubit orders."""
    pool = draw(st.lists(st.one_of(unitaries(VALID_KINDS), matrices()), min_size=1, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        pool.append(draw(st.sampled_from(WRONG_SHAPES + (EYE,))))
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 3)) == 0:
            ops.append(Gate1(draw(st.integers(0, 1)), GateParams(0.1, 0.2, 0.3)))
        k = draw(st.integers(0, len(pool) - 1))
        ops.append(Gate2(draw(st.sampled_from(((0, 1), (1, 0)))), f"G{k}", pool[k]))
    return tuple(ops)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "op_index", None), getattr(exc, "gate_name", None)


# --- the tests ------------------------------------------------------------------


def _frame_map_matrices(stack):
    return [(None if carry is None else carry.matrix, enc, partial)
            for _, carry, enc, partial in _frame_maps(stack)]


@given(st.lists(unitaries(), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_frame_maps_match_the_scalar_classifiers(us):
    stack = np.array(us, dtype=complex)
    assert _frame_map_matrices(stack) == [reference_maps(u) for u in stack]


@given(st.lists(matrices(), min_size=1, max_size=8),
       st.sampled_from((UNITARY_TOL, 1e-6, 1.0, 0.0)))
@settings(max_examples=200, deadline=None)
def test_batched_validation_matches_as_unitary(us, tol):
    stack = np.array(us, dtype=complex)
    defects = _unitarity_defect(stack)
    errors = [_unitary_error(float(d), tol) for d in defects]
    valid = [e is None for e in errors]
    maps = iter(_frame_map_matrices(stack[valid]))
    for u, error in zip(us, errors):
        try:
            a = reference_as_unitary(u, 4, tol)
        except ValueError as exc:
            assert error is not None and (type(error), str(error)) == (type(exc), str(exc))
        else:
            assert error is None
            assert next(maps) == reference_maps(a)


@given(circuits())
@settings(max_examples=200, deadline=None)
def test_gate2_rules_match_the_scalar_reference(ops):
    # CircuitIR(2, ops) checks every gate as named, in op order, before any
    # is classified.
    def batched(mode):
        return _gate2_rules(CircuitIR(2, ops), mode)

    def reference(mode):
        for op in ops:
            if isinstance(op, Gate2):
                reference_as_unitary(op.matrix, 4)
        return reference_gate2_rules(SimpleNamespace(ops=ops), mode)

    for mode in PolicyMode:
        assert _outcome(batched, mode) == _outcome(reference, mode)
