"""The package's lazy names, and the modules each CLI command imports.

``import phasepulse`` loads no submodule, and each command imports only the
modules it runs; the compiler's flush works as soon as circuit is imported.  The in-process tests have imported every module long
before these run, so the import sets are read in fresh interpreters.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasepulse

MODULES = ("carrier", "circuit", "cli", "coverage", "pulsesim", "schemes", "su2")
SRC = str(Path(phasepulse.__file__).resolve().parents[1])

# Runs ``python -m phasepulse ARGS`` in this interpreter, then prints the exit
# code and the phasepulse modules it loaded.
_CLI_PROBE = """
import runpy, sys
sys.argv = ["phasepulse", *sys.argv[1:]]
try:
    runpy.run_module("phasepulse", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m for m in sys.modules if m.partition(".")[0] == "phasepulse"))
"""


def _fresh(code: str, *args: str) -> list[str]:
    """The last stdout line of ``python -c code args``, split on spaces."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_no_submodule():
    loaded = _fresh("import phasepulse, sys; print(*(m for m in sys.modules if 'phasepulse' in m))")
    assert loaded == ["phasepulse"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["verify", "{circuit}", "{schedule}"], []),
        (["compile", "{circuit}"], []),
        (["compile", "{circuit}", "--policy", "auto"], ["carrier"]),
    ],
    ids=["verify", "compile", "compile-auto"],
)
def test_cli_command_loads_only_what_it_runs(argv, extra, tmp_path):
    circuit, schedule = tmp_path / "circuit.txt", tmp_path / "schedule.txt"
    circuit.write_text("qubits 2\nX90 q0\nG2 ISWAP q0 q1\nU q1 0.3 -0.2 0.9\nG2 CNOT q1 q0\n")
    schedule.write_text(
        phasepulse.compile_circuit(phasepulse.parse_circuit(circuit.read_text())).to_text()
    )
    args = [a.format(circuit=circuit, schedule=schedule) for a in argv]
    code, *loaded = _fresh(_CLI_PROBE, *args)
    assert code == "0"
    expected = {"phasepulse", *(f"phasepulse.{m}" for m in ["circuit", "cli", "su2", *extra])}
    assert loaded == sorted(expected)


def test_flush_works_before_any_compile():
    # circuit binds su2's phase-shift formulas at import, so a flush needs no
    # compile_circuit first, and importing circuit loads only su2 with it
    code = (
        "import sys\n"
        "from phasepulse.circuit import _flush\n"
        "print(repr(_flush((0.3, 0.7, 0.5), 0.0, 0.0, False, True)).replace(' ', ''),"
        " *sorted(m for m in sys.modules if m.startswith('phasepulse')))"
    )
    flush, *loaded = _fresh(code)
    pi = math.pi
    want = ((pi / 2, -0.3 - 0.7), (pi, -0.7 + 0.5 - pi), (pi / 2, 0.3 - 0.7)), "three", 0.0
    assert flush == repr(want).replace(" ", "")
    assert loaded == ["phasepulse", "phasepulse.circuit", "phasepulse.su2"]


def test_each_submodule_is_an_attribute():
    for module in MODULES:
        assert getattr(phasepulse, module) is sys.modules[f"phasepulse.{module}"]


def test_module_getattr_imports_a_submodule():
    # a bound submodule is found without __getattr__, so call it directly
    assert phasepulse.__getattr__("carrier") is sys.modules["phasepulse.carrier"]


def test_every_public_name_is_its_submodules_object():
    assert len(phasepulse.__all__) == len(set(phasepulse.__all__)) == 79
    assert phasepulse.is_unitary is phasepulse.su2.is_unitary
    assert phasepulse.unitarity_defect is phasepulse.su2.unitarity_defect
    for name in phasepulse.__all__:
        value = getattr(phasepulse, name)
        # each class and function names its module; FRAME, GATE2 and PULSE are circuit's ints
        module = getattr(value, "__module__", "phasepulse.circuit")
        assert module.startswith("phasepulse.") and vars(sys.modules[module])[name] is value, name


def test_dir_lists_every_name_and_submodule():
    assert {*phasepulse.__all__, *MODULES} <= set(dir(phasepulse))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        phasepulse.nope  # noqa: B018
    assert not hasattr(phasepulse, "_frame_maps")


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from phasepulse import *", namespace)
    assert set(phasepulse.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(phasepulse, name) for name in phasepulse.__all__)
