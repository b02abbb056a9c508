import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phasepulse
from phasepulse.carrier import carry_defect, classify
from phasepulse.circuit import parse_circuit
from phasepulse.cli import EXIT_BROKEN_PIPE, build_parser, main
from phasepulse.su2 import standard_gate
from test_circuit import NON_ASCII_DIGITS

PI = math.pi

CIRCUIT = """qubits 2
X90 q0
U q1 0.3 -0.4 0.7
G2 CZ q0 q1
U q0 -1.1 0.2 1.2
M q0
M q1
"""

# classify CUSTOM's 16 re,im entries of the 4x4 identity
IDENTITY_ENTRIES = " ".join("1,0" if i % 5 == 0 else "0,0" for i in range(16))

SQISW_CIRCUIT = """qubits 2
U q0 0.3 -0.4 0.7
G2 SQISW q0 q1
M q0
M q1
"""


def _stdin(data: str | bytes) -> io.TextIOWrapper:
    """A stdin stand-in over bytes, as the CLI reads ``sys.stdin.buffer``."""
    if isinstance(data, str):
        data = data.encode()
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.txt"
    path.write_text(CIRCUIT)
    return str(path)


def test_compile_to_stdout(circuit_file, capsys):
    assert main(["compile", circuit_file, "--policy", "vz-carry"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("PULSE q0 sigma=")
    assert "GATE2 CZ q0 q1" in out
    assert "# stats: pulses=" in out


def test_compile_deterministic(circuit_file, capsys):
    main(["compile", circuit_file, "--policy", "vz-carry"])
    first = capsys.readouterr().out
    main(["compile", circuit_file, "--policy", "vz-carry"])
    second = capsys.readouterr().out
    assert first == second


def test_compile_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(CIRCUIT.encode()), encoding="utf-8"))
    assert main(["compile", "-", "--policy", "three-always"]) == 0
    assert "GATE2 CZ q0 q1" in capsys.readouterr().out


def test_input_with_a_byte_order_mark_reads_as_without(circuit_file, tmp_path, monkeypatch, capsys):
    # a UTF-8 byte-order mark, as some editors save, leading a file or stdin
    assert main(["compile", circuit_file, "-o", str(tmp_path / "schedule.txt")]) == 0
    (tmp_path / "other.txt").write_text(CIRCUIT.replace("0.3 -0.4", "0.4 -0.4"))
    (tmp_path / "custom.txt").write_text(IDENTITY_ENTRIES)
    names = ("circuit", "schedule", "other", "custom")
    texts = {name: (tmp_path / f"{name}.txt").read_bytes() for name in names}
    runs = [
        (["compile", "circuit"], None),
        (["verify", "circuit", "schedule"], None),
        (["verify", "other", "schedule"], None),
        (["compile", "-"], "circuit"),
        (["verify", "-", "schedule"], "circuit"),
        (["verify", "circuit", "-"], "schedule"),
        (["classify", "CUSTOM"], "custom"),  # entries on stdin, read as a file is
    ]

    def run(bom: bytes) -> list:
        for name, data in texts.items():
            (tmp_path / f"{name}.txt").write_bytes(bom + data)
        results = []
        for argv, stdin in runs:
            data = bom + texts[stdin] if stdin else b""
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            code = main([str(tmp_path / f"{a}.txt") if a in texts else a for a in argv])
            results.append((code, *capsys.readouterr()))
        return results

    capsys.readouterr()
    plain = run(b"")
    assert [code for code, _, _ in plain] == [0, 0, 3, 0, 0, 0, 0]
    assert run("\ufeff".encode()) == plain


def test_compile_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("qubits 2\nU q0 1 2\n")
    assert main(["compile", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("parse, text, line, error", NON_ASCII_DIGITS)
def test_non_ascii_digit_is_one_error_line(parse, text, line, error, circuit_file, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    argv = ["compile", str(path)] if parse is parse_circuit else ["verify", circuit_file, str(path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: line {line}: {error}\n")


def test_compile_policy_error(tmp_path, capsys):
    path = tmp_path / "sq.txt"
    path.write_text(SQISW_CIRCUIT)
    assert main(["compile", str(path), "--policy", "vz-carry"]) == 2
    assert "SQISW" in capsys.readouterr().err


@pytest.mark.parametrize("special", [[], ["--no-special-cases"]])
def test_enc_partner_already_on_frame_costs_nothing(tmp_path, capsys, special):
    # Neither qubit has a pending gate and both frames are 0, so the ENC
    # partner needs no pulses, and nothing counts as a compiled 1q gate.
    path = tmp_path / "sq.txt"
    path.write_text("qubits 2\nG2 SQISW q0 q1\nG2 SQISW q0 q1\nM q0\nM q1\n")
    assert main(["compile", str(path), "--policy", "enc-mixed", *special]) == 0
    assert capsys.readouterr().out == (
        "GATE2 SQISW q0 q1\nGATE2 SQISW q0 q1\nFRAME q0 z=0\nFRAME q1 z=0\n"
        "# stats: pulses=0 q0=0 q1=0 gates_1q=0 gates_2q=2 compiled_1q=0 pulses_per_1q=0 "
        "vz=0 three=0 special=0 frames=2\n"
    )


def test_compile_verify_round_trip(circuit_file, tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    assert main(["compile", circuit_file, "--policy", "auto", "-o", str(sched)]) == 0
    capsys.readouterr()
    assert main(["verify", circuit_file, str(sched)]) == 0
    assert "max deviation:" in capsys.readouterr().out


def test_verify_detects_corruption(circuit_file, tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    main(["compile", circuit_file, "-o", str(sched)])
    text = sched.read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("PULSE"):
            head, phase = line.rsplit("=", 1)
            lines[i] = f"{head}={float(phase) + 0.1}"
            break
    sched.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", circuit_file, str(sched)]) == 3


def test_verify_rejects_renamed_gate2(circuit_file, tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    assert main(["compile", circuit_file, "-o", str(sched)]) == 0
    text = sched.read_text()
    assert "GATE2 CZ q0 q1" in text
    sched.write_text(text.replace("GATE2 CZ q0 q1", "GATE2 CNOT q0 q1"))
    capsys.readouterr()
    assert main(["verify", circuit_file, str(sched)]) == 1
    assert "CNOT" in capsys.readouterr().err


def test_verify_rejects_frame_above_pulses(circuit_file, tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    assert main(["compile", circuit_file, "--policy", "vz-carry", "-o", str(sched)]) == 0
    lines = sched.read_text().splitlines()
    frames = [line for line in lines if line.startswith("FRAME")]
    assert len(frames) == 2
    sched.write_text("\n".join(frames + [ln for ln in lines if ln not in frames]) + "\n")
    capsys.readouterr()
    assert main(["verify", circuit_file, str(sched)]) == 1
    err = capsys.readouterr().err
    assert "after its FRAME" in err and "Traceback" not in err


def test_verify_needs_exactly_one_frame_per_qubit(circuit_file, tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    assert main(["compile", circuit_file, "-o", str(sched)]) == 0
    text = sched.read_text()
    assert "FRAME q0 z=0\n" in text and "FRAME q1 z=0\n" in text
    for bad, message in (
        (text + "FRAME q0 z=0\n", "second FRAME for q0"),
        (text.replace("FRAME q1 z=0\n", ""), "no FRAME for q1"),
    ):
        sched.write_text(bad)
        capsys.readouterr()
        assert main(["verify", circuit_file, str(sched)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_verify_refuses_stdin_for_both_files(monkeypatch, capsys):
    # stdin holds one file: read twice, the schedule would be empty
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(CIRCUIT.encode()), encoding="utf-8"))
    assert main(["verify", "-", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stdin ('-') can hold the circuit or the schedule, not both\n"


# Gates a hair from a special case: the dispatcher used to give them the
# case's exact pulses, and the gaps added up past verify's 1e-8.
NEAR_SPECIAL = {
    # X90 with gamma 4e-9 off, four times
    "near-x90": "qubits 2\n" + "U q0 0.0 -1.5707963267948966 0.7853981673974483\n" * 4,
    # 6e-11 from the identity, 200 times
    "near-identity": "qubits 2\n" + "U q0 0 0 6e-11\n" * 200,
}


@pytest.mark.parametrize("name", sorted(NEAR_SPECIAL))
def test_near_special_gates_compile_to_a_schedule_that_verifies(name, tmp_path, capsys):
    path, sched = tmp_path / "circuit.txt", tmp_path / "sched.txt"
    path.write_text(NEAR_SPECIAL[name])
    assert main(["compile", str(path), "-o", str(sched)]) == 0
    assert " pulses_per_1q=3 " in sched.read_text()  # no gate takes a special case
    assert main(["verify", str(path), str(sched)]) == 0


def test_verify_accepts_auto_schedule_of_exact_frames(tmp_path, capsys):
    # The frame after the first CZ makes |u00| of the last RZ's target round
    # to 1 - 1.1e-16; an acos-based gamma put one pulse off by 3e-8.
    path = tmp_path / "circuit.txt"
    path.write_text(
        "qubits 2\nRZ q0 3.141592653589793\nRZ q0 3.141592653589793\n"
        "RZ q0 1.5707963267948966\nG2 CZ q0 q1\nRZ q0 1.5707963267948966\nG2 CZ q0 q1\n"
    )
    sched = tmp_path / "sched.txt"
    assert main(["compile", str(path), "--policy", "auto", "-o", str(sched)]) == 0
    assert "phase=1.57079629699" not in sched.read_text()
    capsys.readouterr()
    assert main(["verify", str(path), str(sched)]) == 0


_CARRY_CZ = (
    "phase_carrier: yes\npermutation: (0, 1, 2, 3)\n"
    "carry_map: phi0 = 1*theta0 + 0*theta1, phi1 = 0*theta0 + 1*theta1\n"
)
_CARRY_SWAP = (
    "phase_carrier: yes\npermutation: (0, 2, 1, 3)\n"
    "carry_map: phi0 = 0*theta0 + 1*theta1, phi1 = 1*theta0 + 0*theta1\n"
)
_ENC = "enc: yes\ngeneralized_enc: yes (phi0 = 1*theta, phi1 = 1*theta)\n"
_PARTIAL_Q0 = "partial_carry: q0 (phi0 = 1*theta, phi1 = 0*theta)\n"
_PARTIAL_SWAP = "partial_carry: q0 (phi0 = 0*theta, phi1 = 1*theta)\n"
_NO_PARTIAL = "partial_carry: no\n"
CLASSIFY_GOLDENS = {
    "CZ": _CARRY_CZ + _ENC + _PARTIAL_Q0
    + "weyl: (1.570796327, 0.000000000, 0.000000000)\nsegment: I-CNOT\n",
    "CNOT": "phase_carrier: no\nenc: no\ngeneralized_enc: no\n" + _PARTIAL_Q0
    + "weyl: (1.570796327, 0.000000000, 0.000000000)\nsegment: I-CNOT\n",
    "SWAP": _CARRY_SWAP + _ENC + _PARTIAL_SWAP
    + "weyl: (1.570796327, 1.570796327, 1.570796327)\nsegment: iSWAP-SWAP\n",
    "ISWAP": _CARRY_SWAP + _ENC + _PARTIAL_SWAP
    + "weyl: (1.570796327, 1.570796327, 0.000000000)\nsegment: iSWAP-SWAP\n",
    "SQISW": "phase_carrier: no\n" + _ENC + _NO_PARTIAL
    + "weyl: (0.785398163, 0.785398163, 0.000000000)\nsegment: off-segment\n",
    "CPHASE(0.5)": _CARRY_CZ + _ENC + _PARTIAL_Q0
    + "weyl: (0.250000000, 0.000000000, 0.000000000)\nsegment: I-CNOT\n",
    "FSIM(0.4,0.2)": "phase_carrier: no\n" + _ENC + _NO_PARTIAL
    + "weyl: (0.400000000, 0.400000000, 0.100000000)\nsegment: off-segment\n",
}


@pytest.mark.parametrize("spec", sorted(CLASSIFY_GOLDENS))
def test_classify_goldens(spec, capsys):
    assert main(["classify", spec]) == 0
    assert capsys.readouterr().out == f"gate: {spec}\n" + CLASSIFY_GOLDENS[spec]


def test_classify_lowercase_name(capsys):
    assert main(["classify", "cz"]) == 0
    assert capsys.readouterr().out == "gate: cz\n" + CLASSIFY_GOLDENS["CZ"]


def test_classify_malformed_specs(monkeypatch, capsys):
    assert main(["classify", "FSIM(0.1)"]) == 1
    err = capsys.readouterr().err
    assert "FSIM(0.1)" in err and "Traceback" not in err
    monkeypatch.setattr("sys.stdin", _stdin(" ".join(["1,2,3"] + ["1,0"] * 15)))
    assert main(["classify", "CUSTOM"]) == 1
    err = capsys.readouterr().err
    assert "'1,2,3'" in err and "Traceback" not in err


def test_classify_cz(capsys):
    assert main(["classify", "CZ"]) == 0
    out = capsys.readouterr().out
    assert "phase_carrier: yes" in out
    assert "segment: I-CNOT" in out
    assert "carry_map: phi0 = 1*theta0 + 0*theta1" in out


def test_classify_cnot(capsys):
    assert main(["classify", "CNOT"]) == 0
    out = capsys.readouterr().out
    assert "phase_carrier: no" in out
    assert "enc: no" in out


def test_classify_prints_the_partial_carry_of_either_qubit(monkeypatch, capsys):
    # a CNOT passes its control's frame (the goldens hold q0's, and "no" for
    # SQISW and FSIM); with the qubits swapped, the control is q1
    m = standard_gate("CNOT")[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])]
    text = " ".join(f"{z.real!r},{z.imag!r}" for z in m.ravel().tolist())
    monkeypatch.setattr("sys.stdin", _stdin(text))
    assert main(["classify", "CUSTOM"]) == 0
    assert "\npartial_carry: q1 (phi0 = 0*theta, phi1 = 1*theta)\n" in capsys.readouterr().out


def test_classify_sqisw(capsys):
    assert main(["classify", "SQISW"]) == 0
    out = capsys.readouterr().out
    assert "phase_carrier: no" in out
    assert "enc: yes" in out
    assert "segment: off-segment" in out


def test_classify_custom_stdin(monkeypatch, capsys):
    m = standard_gate("ISWAP")
    text = " ".join(f"{z.real},{z.imag}" for z in m.ravel())
    monkeypatch.setattr("sys.stdin", _stdin(text))
    assert main(["classify", "CUSTOM"]) == 0
    assert "phase_carrier: yes" in capsys.readouterr().out


def test_classify_custom_stdin_must_be_utf8(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(b"\xff" + IDENTITY_ENTRIES.encode()))
    assert main(["classify", "CUSTOM"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stdin is not UTF-8 text: ")
    assert len(captured.err.splitlines()) == 1


def test_classify_non_unitary(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(" ".join(["1,0"] * 16)))
    assert main(["classify", "CUSTOM"]) == 1
    assert "error" in capsys.readouterr().err


def test_classify_custom_honours_tolerance(monkeypatch, capsys):
    # unitarity defect about 6e-7: accepted at 1e-5, rejected at the default 1e-8
    m = standard_gate("ISWAP") * (1.0 + 3e-7)
    text = " ".join(f"{z.real!r},{z.imag!r}" for z in m.ravel().tolist())
    monkeypatch.setattr("sys.stdin", _stdin(text))
    assert main(["classify", "CUSTOM", "--tolerance", "1e-5"]) == 0
    assert "phase_carrier: yes" in capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", _stdin(text))
    assert main(["classify", "CUSTOM"]) == 1
    err = capsys.readouterr().err
    assert "not unitary" in err and "Traceback" not in err


def test_classify_loose_tolerance_carrier_whatever_its_pivots(monkeypatch, capsys):
    # diag(1, 1, 1, 0.995) is unitary to 1e-2 and has the zero pattern of the
    # identity permutation, so it carries frames by the identity map, exactly
    text = "1,0 0,0 0,0 0,0 0,0 1,0 0,0 0,0 0,0 0,0 1,0 0,0 0,0 0,0 0,0 0.995,0"
    monkeypatch.setattr("sys.stdin", _stdin(text))
    assert main(["classify", "CUSTOM", "--tolerance", "0.01"]) == 0
    assert capsys.readouterr().out.startswith("gate: CUSTOM\n" + _CARRY_CZ + _ENC + _PARTIAL_Q0)
    u = np.diag([1.0, 1.0, 1.0, 0.995]).astype(complex)
    cmap = classify(u, tol=0.01).carry
    assert cmap.matrix == ((1, 0), (0, 1))
    assert all(carry_defect(u, cmap, t0, t1) == 0.0 for t0, t1 in ((0.3, -1.2), (2.5, 0.7)))


def _cli_env() -> dict[str, str]:
    """The environment of a ``python -m phasepulse`` child that imports this package."""
    src = str(Path(phasepulse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def _run_with_closed_stdout(*args: str) -> subprocess.CompletedProcess:
    """``python -m phasepulse ARGS`` whose stdout's reader is gone before the
    child starts, as ``phasepulse ARGS | (exec 0<&-; true)``."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "phasepulse", *args],
                              stdout=write, stderr=subprocess.PIPE, env=_cli_env(), timeout=60)
    finally:
        os.close(write)


def test_a_closed_stdout_exits_without_traceback():
    proc = _run_with_closed_stdout("classify", "SQISW")
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")


def test_compile_to_a_closed_stdout_exits_without_traceback(circuit_file):
    proc = _run_with_closed_stdout("compile", circuit_file)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")


@pytest.mark.parametrize("args", [
    ["compile", "-"], ["verify", "{circuit}", "-"], ["stats", "-"], ["classify", "CUSTOM"],
])
def test_a_closed_stdin_is_an_input_error(args, circuit_file):
    # fd 0 closed, as ``phasepulse ARGS <&-``: Python's sys.stdin is None
    args = [a.format(circuit=circuit_file) for a in args]
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m phasepulse "$@" <&-', sys.executable, *args],
                          capture_output=True, env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"error: stdin is closed\n")


def test_stats_subcommand(tmp_path, capsys):
    path = tmp_path / "bench.txt"
    path.write_text(SQISW_CIRCUIT)
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "three-always: pulses=" in out
    assert "vz-carry: illegal (SQISW)" in out
    assert "enc-mixed: pulses=" in out and "ratio=" in out


def test_stats_auto_beats_three_always_on_the_golden_circuit(capsys):
    # The golden circuit's 1q gates are mostly Cliffords, each of which a
    # virtual-Z flush compiles in at most one pulse, so auto's frames save
    # pulses over three-always (with two X90s per flush it took 122 to 108).
    path = str(Path(__file__).parent / "data" / "golden_circuit.txt")
    assert main(["stats", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "three-always: pulses=108 ratio=1.0000"
    assert lines[-1] == "auto: pulses=74 ratio=0.6852"
    assert float(lines[-1].split("ratio=")[1]) < 1


def test_uniqueness_subcommand(capsys):
    code = main(
        [
            "uniqueness",
            "--omega1", str(PI / 2),
            "--omega2", str(PI),
            "--omega3", str(PI / 2),
            "--samples", "25",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "covers_su2: yes" in out
    assert "coverage: 1.0000" in out


def test_uniqueness_negative(capsys):
    main(
        [
            "uniqueness",
            "--omega1", str(PI / 2),
            "--omega2", str(PI / 2),
            "--omega3", str(PI / 2),
            "--samples", "0",
        ]
    )
    assert "covers_su2: no" in capsys.readouterr().out


def test_pulsesim_subcommand(capsys):
    assert main(["pulsesim", "--shape", "gauss", "--area", "1.57", "--phase", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "deviation from closed form:" in out
    deviation = float(out.strip().splitlines()[-1].split(":")[1])
    assert deviation < 1e-6


# Each float option, with the other arguments its subcommand needs.
FLOAT_OPTIONS = {
    ("pulsesim", "--area"): ["pulsesim", "--steps", "3"],
    ("pulsesim", "--phase"): ["pulsesim", "--area", "0.01", "--steps", "3"],
    ("uniqueness", "--omega1"): ["uniqueness", "--omega2", "1", "--omega3", "1", "--samples", "0"],
    ("uniqueness", "--omega2"): ["uniqueness", "--omega1", "1", "--omega3", "1", "--samples", "0"],
    ("uniqueness", "--omega3"): ["uniqueness", "--omega1", "1", "--omega2", "1", "--samples", "0"],
    ("classify", "--tolerance"): ["classify", "CZ"],
    ("verify", "--tolerance"): ["verify", "CIRCUIT", "SCHEDULE"],
}


# Each int option, with the other arguments its subcommand needs.
INT_OPTIONS = {
    ("uniqueness", "--samples"): ["uniqueness", "--omega1", "1", "--omega2", "1", "--omega3", "1"],
    ("uniqueness", "--seed"): ["uniqueness", "--omega1", "1", "--omega2", "1", "--omega3", "1",
                               "--samples", "0"],
    ("pulsesim", "--steps"): ["pulsesim", "--area", "1.5"],
}


def _options_of_type(name: str) -> set[tuple[str, str]]:
    subparsers = build_parser()._subparsers._group_actions[0].choices
    return {
        (command, action.option_strings[-1])
        for command, sub in subparsers.items()
        for action in sub._actions
        if getattr(action.type, "__name__", None) == name
    }


def test_float_options_are_the_listed_ones():
    assert _options_of_type("float") == set(FLOAT_OPTIONS)


def test_int_options_are_the_listed_ones():
    assert _options_of_type("int") == set(INT_OPTIONS)


# one in Arabic-Indic, fullwidth and Bengali digits
@pytest.mark.parametrize("digit", ["\u0661", "\uff11", "\u09e7"])
@pytest.mark.parametrize(
    "option, kind",
    [(o, "float") for o in sorted(FLOAT_OPTIONS)] + [(o, "int") for o in sorted(INT_OPTIONS)],
    ids=lambda x: "-".join(x) if isinstance(x, tuple) else x,
)
def test_numeric_option_takes_ascii_digits_only(option, kind, digit, capsys):
    # float() and int() read every script's digits; an option's value is
    # ASCII, as the numbers of circuit and schedule files are
    argv = {**FLOAT_OPTIONS, **INT_OPTIONS}[option]
    argv = ["-" if a in ("CIRCUIT", "SCHEDULE") else a for a in argv]
    value = f"{digit}5" if kind == "int" else f"{digit}.5"
    with pytest.raises(SystemExit) as exc:
        main(argv + [option[1], value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option[1]}: invalid {kind} value: {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["-1.5e-3", "-1E+1", "-.5e0", "-inf"])
@pytest.mark.parametrize("option", sorted(FLOAT_OPTIONS), ids="-".join)
def test_float_option_takes_a_negative_number_as_a_separate_token(
    option, value, circuit_file, tmp_path, capsys
):
    # argparse's own test for a negative number has no exponent form; the
    # value must still be read as in "--area=-1.5e-3", never as an option
    argv = FLOAT_OPTIONS[option]
    if "SCHEDULE" in argv:
        schedule = str(tmp_path / "schedule.txt")
        assert main(["compile", circuit_file, "-o", schedule]) == 0
        argv = [{"CIRCUIT": circuit_file, "SCHEDULE": schedule}.get(a, a) for a in argv]
    capsys.readouterr()
    code = main(argv + [option[1], value])
    spaced = capsys.readouterr()
    assert code == main(argv + [f"{option[1]}={value}"]) in (0, 1)
    assert spaced == capsys.readouterr()


HUGE_ENTRIES = " ".join(["1e308,0"] * 16)  # their products overflow
BAD_NUMBERS_STDIN = {
    "compile": f"qubits 2\nG2 CUSTOM q0 q1 {HUGE_ENTRIES}\n",
    "classify": HUGE_ENTRIES,
    "verify": CIRCUIT,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["pulsesim", "--area", "nan"],
        ["pulsesim", "--area", "inf"],
        ["pulsesim", "--area", "1.57", "--steps", "0"],
        ["pulsesim", "--area", "1.57", "--steps", "1"],
        ["pulsesim", "--shape", "gauss", "--area", "nan"],
        ["pulsesim", "--area", "1.57", "--phase", "nan"],
        ["uniqueness", "--omega1", "nan", "--omega2", "1.57", "--omega3", "3.14"],
        ["uniqueness", "--omega1", "1.57", "--omega2", "inf", "--omega3", "3.14"],
        ["pulsesim", "--area", "1e308", "--steps", "2"],
        ["pulsesim", "--area", "1", "--steps", "100000000000"],  # refused before allocating
        ["compile", "-"],  # a CUSTOM gate of huge entries, from BAD_NUMBERS_STDIN
        ["classify", "CUSTOM"],
        # a tolerance that is NaN, infinite or negative passes or fails everything
        ["classify", "CUSTOM", "--tolerance", "nan"],
        ["classify", "CUSTOM", "--tolerance", "inf"],
        ["classify", "CZ", "--tolerance", "inf"],
        ["classify", "CZ", "--tolerance=-1e-3"],
        ["verify", "-", "SCHEDULE", "--tolerance", "nan"],  # CIRCUIT's correct schedule
        ["verify", "-", "SCHEDULE", "--tolerance", "inf"],
        ["verify", "-", "SCHEDULE", "--tolerance=-inf"],
        ["verify", "-", "SCHEDULE", "--tolerance=-1e-3"],
        # a negative seed or sample count: numpy's ValueError, or a silent skip
        ["uniqueness", "--omega1", str(PI), "--omega2", str(PI / 2), "--omega3", str(PI / 2),
         "--samples", "1", "--seed", "-1"],
        ["uniqueness", "--omega1", str(PI), "--omega2", str(PI / 2), "--omega3", str(PI / 2),
         "--samples", "-3"],
    ],
)
def test_bad_numbers_exit_1_without_traceback(argv, monkeypatch, capsys, circuit_file, tmp_path):
    if "SCHEDULE" in argv:
        schedule = str(tmp_path / "schedule.txt")
        assert main(["compile", circuit_file, "-o", schedule]) == 0
        capsys.readouterr()
        argv = [schedule if a == "SCHEDULE" else a for a in argv]
    stdin = BAD_NUMBERS_STDIN.get(argv[0], "").encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numeric warning is not a clean error either
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


NOT_UTF8 = b"qubits 2\nX90 q0  # caf\xe9\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "LATIN1"],
        ["stats", "LATIN1"],
        ["verify", "LATIN1", "SCHEDULE"],
        ["verify", "CIRCUIT", "LATIN1"],
        ["compile", "-"],  # the same bytes on stdin
        ["stats", "-"],
        ["verify", "-", "SCHEDULE"],
        ["verify", "CIRCUIT", "-"],
        ["compile", "CIRCUIT", "-o", "NO_SUCH_DIR"],
    ],
)
def test_unreadable_input_or_output_exits_1_without_traceback(argv, monkeypatch, capsys,
                                                               circuit_file, tmp_path):
    paths = {
        "CIRCUIT": circuit_file,
        "LATIN1": str(tmp_path / "latin1.txt"),
        "SCHEDULE": str(tmp_path / "schedule.txt"),
        "NO_SUCH_DIR": str(tmp_path / "missing" / "schedule.txt"),
    }
    (tmp_path / "latin1.txt").write_bytes(NOT_UTF8)
    assert main(["compile", circuit_file, "-o", paths["SCHEDULE"]]) == 0
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    assert main([paths.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_help_documents_conventions():
    parser = build_parser()
    assert "radians" in parser.description
    for name in ("compile", "verify", "uniqueness", "pulsesim", "classify", "stats"):
        sub = parser._subparsers._group_actions[0].choices[name]
        assert "radians" in sub.description
        assert "time-ordered" in sub.description
