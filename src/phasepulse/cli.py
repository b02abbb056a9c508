"""Command line front end.

Subcommands: compile, classify, stats, verify, uniqueness, pulsesim.
All angles everywhere are radians; emitted schedules are time-ordered
(the first PULSE line acts first).

Exit codes: 0 success, 1 input error, 2 policy/legality error,
3 verification failure, 141 the reader of stdout closed it before the output
was written (the status of a process that SIGPIPE ends), without a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import circuit as circ
from .su2 import UNITARY_TOL, conjugated_x, phase_distance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_POLICY = 2
EXIT_VERIFY = 3
EXIT_BROKEN_PIPE = 141

VERIFY_TOL = 1e-8  # verify's default threshold; not the unitarity bound

# The most envelope samples pulsesim integrates: the steps are multiplied in
# batches, so a call at this bound takes about 0.4 s wall (0.09 s of it the
# product, whose arrays peak near 70 MiB) on a 2-core Xeon.
MAX_STEPS = 1_000_000

_UNITS_NOTE = (
    "All angles are radians. Schedules are time-ordered: the first PULSE "
    "line acts first."
)


def _read_input(path: str) -> str:
    """The text of a file, or of stdin for '-', read as UTF-8 whatever the
    locale, without a leading byte-order mark; bytes that are not UTF-8, or
    a closed stdin (``sys.stdin`` is None), raise
    :class:`~phasepulse.circuit.CircuitError`."""
    try:
        if path == "-":
            if sys.stdin is None:
                raise circ.CircuitError("stdin is closed")
            return sys.stdin.buffer.read().decode("utf-8-sig")
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise circ.CircuitError(f"{name} is not UTF-8 text: {exc}") from None


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _tolerance_problem(tol: float) -> str | None:
    """Why ``--tolerance`` cannot be used, or None.

    A NaN tolerance would pass nothing (or, compared the other way,
    everything), an infinite one everything, a negative one nothing.
    """
    if math.isfinite(tol) and tol >= 0.0:
        return None
    return f"--tolerance must be a finite non-negative number, got {tol!r}"


def cmd_compile(args) -> int:
    try:
        ir = circ.parse_circuit(_read_input(args.circuit))
    except (OSError, circ.CircuitError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    policy = circ.CompilePolicy(circ.PolicyMode(args.policy), args.special_cases)
    try:
        schedule = circ.compile_circuit(ir, policy)
    except circ.IllegalPolicyError as exc:
        return _fail(str(exc), EXIT_POLICY)
    out = schedule.to_text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            return _fail(str(exc), EXIT_INPUT)
        print(schedule.stats.stats_line())
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_classify(args) -> int:
    from .carrier import classify  # each command imports only the modules it runs

    spec = args.gate.upper()
    problem = _tolerance_problem(args.tolerance)
    if problem is not None:
        return _fail(problem, EXIT_INPUT)
    try:
        entries = _read_input("-").split() if spec == "CUSTOM" else ()
        _, matrix = circ.parse_gate_spec(spec, entries)
        result = classify(matrix, tol=args.tolerance)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    print(f"gate: {args.gate}")
    print(f"phase_carrier: {'yes' if result.is_carrier else 'no'}")
    if result.permutation is not None:
        print(f"permutation: {result.permutation.mapping}")
        (a, b), (c, d) = result.carry.matrix
        print(f"carry_map: phi0 = {a}*theta0 + {b}*theta1, phi1 = {c}*theta0 + {d}*theta1")
    print(f"enc: {'yes' if result.is_enc else 'no'}")
    if result.enc_map is not None:
        p, q = result.enc_map
        print(f"generalized_enc: yes (phi0 = {p}*theta, phi1 = {q}*theta)")
    else:
        print("generalized_enc: no")
    if result.partial_carry is not None:
        qubit, (p0, p1) = result.partial_carry
        print(f"partial_carry: q{qubit} (phi0 = {p0}*theta, phi1 = {p1}*theta)")
    else:
        print("partial_carry: no")
    print(f"weyl: ({result.weyl.c1:.9f}, {result.weyl.c2:.9f}, {result.weyl.c3:.9f})")
    print(f"segment: {result.segment.value}")
    return EXIT_OK


def cmd_stats(args) -> int:
    try:
        ir = circ.parse_circuit(_read_input(args.circuit))
    except (OSError, circ.CircuitError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    baseline = None
    for mode in circ.PolicyMode:
        try:
            schedule = circ.compile_circuit(
                ir, circ.CompilePolicy(mode, args.special_cases)
            )
        except circ.IllegalPolicyError as exc:
            print(f"{mode.value}: illegal ({exc.gate_name})")
            continue
        pulses = schedule.stats.pulses
        if mode is circ.PolicyMode.THREE_ALWAYS:
            baseline = pulses
        ratio = f" ratio={pulses / baseline:.4f}" if baseline else ""
        print(f"{mode.value}: pulses={pulses}{ratio}")
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = _tolerance_problem(args.tolerance)
    if problem is not None:
        return _fail(problem, EXIT_INPUT)
    if args.circuit == args.schedule == "-":
        return _fail("stdin ('-') can hold the circuit or the schedule, not both", EXIT_INPUT)
    try:
        ir = circ.parse_circuit(_read_input(args.circuit))
        schedule = circ.parse_schedule(_read_input(args.schedule))
    except (OSError, circ.CircuitError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        deviation = circ.simulate_schedule(schedule, ir)
    except circ.ScheduleMismatchError as exc:
        return _fail(str(exc), EXIT_INPUT)
    print(f"max deviation: {deviation:.6g}")
    return EXIT_OK if deviation <= args.tolerance else EXIT_VERIFY


def cmd_uniqueness(args) -> int:
    from . import coverage as cov

    for option, value in (("--samples", args.samples), ("--seed", args.seed)):
        if value < 0:
            return _fail(f"{option} must be a non-negative integer, got {value}", EXIT_INPUT)
    try:
        triple = cov.AngleTriple(args.omega1, args.omega2, args.omega3)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    u_part, v_part = cov.product_coeffs(triple)
    covers = cov.covers_su2(triple)
    print(f"angles: ({triple.omega1:.9f}, {triple.omega2:.9f}, {triple.omega3:.9f})")
    print(f"covers_su2: {'yes' if covers else 'no'}")
    b = u_part.as_tuple()
    print(f"u_coeffs: b00={b[0]:.9f} b01={b[1]:.9f} b10={b[2]:.9f} b11={b[3]:.9f}")
    print(f"v_coeffs: ({v_part[0]:.9f}, {v_part[1]:.9f}, {v_part[2]:.9f}, {v_part[3]:.9f})")
    if args.samples > 0:
        fraction = cov.coverage_fraction(triple, args.samples, seed=args.seed)
        print(f"coverage: {fraction:.4f} ({args.samples} samples, seed {args.seed})")
    return EXIT_OK


def cmd_pulsesim(args) -> int:
    from . import pulsesim as psim

    envelope = psim.constant_envelope if args.shape == "const" else psim.gaussian_envelope
    if args.steps > MAX_STEPS:  # refused before the envelope is allocated
        return _fail(f"--steps must be at most {MAX_STEPS:,}, got {args.steps:,}", EXIT_INPUT)
    try:
        env = envelope(args.area, args.phase, n_samples=args.steps)
        sigma = psim.integrate_sigma(env)
        u = psim.drive_unitary(env)
        deviation = phase_distance(u, conjugated_x(sigma, env.phase))
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    print(f"sigma: {sigma:.12g}")
    for row in u:
        print("  " + "  ".join(f"{z.real:+.9f}{z.imag:+.9f}j" for z in row))
    print(f"deviation from closed form: {deviation:.6g}")
    return EXIT_OK


# A token that float() reads as a negative number: argparse's own pattern
# takes -0.5 but not -1.5e-3 or -inf, which it would read as an option.
_NEGATIVE_NUMBER = re.compile(
    r"-(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[-+]?[0-9]+)?$|-(?:inf|infinity|nan)$", re.IGNORECASE
)


def _ascii(convert):
    """``convert`` (``float`` or ``int``, which read every script's digits) of
    an ASCII token only, under its name, which argparse's error gives."""
    def read(token: str):
        if not token.isascii():
            raise ValueError(token)
        return convert(token)
    read.__name__ = convert.__name__
    return read


_FLOAT, _INT = _ascii(float), _ascii(int)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser``, and so each of its subparsers, that reads a
    negative number in any form ``float`` takes as an option's value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phasepulse",
        description="Compile two-qubit circuits to phase-shifted pulse schedules. "
        + _UNITS_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compile",
        help="compile a circuit to a pulse schedule",
        description="Compile a circuit file ('-' for stdin) to a pulse schedule. "
        + _UNITS_NOTE,
    )
    p.add_argument("circuit", help="circuit file, or '-' for stdin")
    p.add_argument(
        "--policy",
        choices=[m.value for m in circ.PolicyMode],
        default=circ.PolicyMode.THREE_ALWAYS.value,
        help="compilation policy (default: three-always)",
    )
    p.add_argument(
        "--no-special-cases",
        dest="special_cases",
        action="store_false",
        help="compile every exact flush in three pulses and every virtual-Z flush in two",
    )
    p.add_argument("-o", "--output", help="write the schedule here instead of stdout")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "classify",
        help="classify a two-qubit gate",
        description="Classify a two-qubit gate: carrier/ENC verdicts, carry map, "
        "Weyl coordinates (radians), segment. Use gate names like CZ, "
        "CPHASE(0.5), or CUSTOM (16 're,im' pairs on stdin). " + _UNITS_NOTE,
    )
    p.add_argument("gate", help="gate name, CPHASE(phi), FSIM(theta,phi), or CUSTOM")
    p.add_argument("--tolerance", type=_FLOAT, default=UNITARY_TOL, help="unitarity tolerance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "stats",
        help="compare pulse counts across policies",
        description="Compile a circuit under every legal policy and print the "
        "pulse counts and ratios against three-always. " + _UNITS_NOTE,
    )
    p.add_argument("circuit", help="circuit file, or '-' for stdin")
    p.add_argument(
        "--no-special-cases", dest="special_cases", action="store_false",
        help="compile every exact flush in three pulses and every virtual-Z flush in two",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "verify",
        help="re-simulate a schedule against its circuit",
        description="Re-simulate a schedule against its circuit and report the "
        "max deviation up to global phase. " + _UNITS_NOTE,
    )
    p.add_argument("circuit", help="circuit file, or '-' for stdin")
    p.add_argument("schedule", help="schedule file, or '-' for stdin if the circuit is not")
    p.add_argument("--tolerance", type=_FLOAT, default=VERIFY_TOL, help="pass/fail threshold")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "uniqueness",
        help="coverage analysis of a fixed-angle triple",
        description="Report whether three fixed rotation angles (radians) can "
        "reach every single-qubit gate, with the product coefficients and an "
        "empirical coverage fraction. " + _UNITS_NOTE,
    )
    p.add_argument("--omega1", type=_FLOAT, required=True, help="first rotation angle (radians)")
    p.add_argument("--omega2", type=_FLOAT, required=True, help="second rotation angle (radians)")
    p.add_argument("--omega3", type=_FLOAT, required=True, help="third rotation angle (radians)")
    p.add_argument("--samples", type=_INT, default=200, help="coverage sample count (0 to skip)")
    p.add_argument("--seed", type=_INT, default=0, help="seed for the coverage sampler")
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser(
        "pulsesim",
        help="integrate a drive envelope",
        description="Integrate the rotating-frame drive for an envelope shape and "
        "compare against the closed-form conjugated X rotation. " + _UNITS_NOTE,
    )
    p.add_argument("--shape", choices=["const", "gauss"], default="const")
    p.add_argument("--area", type=_FLOAT, required=True, help="pulse area (radians)")
    p.add_argument("--phase", type=_FLOAT, default=0.0, help="drive phase shift (radians)")
    p.add_argument("--steps", type=_INT, default=2001,
                   help=f"number of envelope samples, at most {MAX_STEPS:,}")
    p.set_defaults(func=cmd_pulsesim)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
