"""Hypothesis fuzz of the numeric CLI subcommands, ``uniqueness`` and ``pulsesim``.

Every float option is drawn from the awkward values (NaN, +-inf, +-1e308,
signed zeros, subnormals) and from all floats, and ``--steps``,
``--samples`` and ``--seed`` from small integers, negative ones included.
The counts stay small (a ``uniqueness`` sample costs about half a
millisecond), so no draw asks for a large allocation.  With warnings as
errors, a run must exit 0, or exit 1 with exactly one ``error:`` line and
nothing on stdout: no traceback and no numeric warning.
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasepulse.cli import main

AWKWARD = (
    math.nan, math.inf, -math.inf, 1e308, -1e308, 1.7e308, 0.0, -0.0,
    5e-324, -5e-324, 2.2e-308, 1e-310, math.pi, 1.57,
)
floats = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=True, allow_infinity=True))


def run_cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numeric warning is not a clean exit
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue(), argv
    else:
        assert code == 1, (argv, code, err.getvalue())
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


@given(
    shape=st.sampled_from(("const", "gauss")),
    area=floats,
    phase=floats,
    steps=st.one_of(st.integers(-5, 40), st.integers(-3000, 3000)),
)
@settings(max_examples=200, deadline=None)
@example(shape="const", area=1e308, phase=0.0, steps=2001)  # overflowed adding two samples
@example(shape="const", area=-1e308, phase=0.0, steps=2001)
@example(shape="gauss", area=1.7e308, phase=1e308, steps=3)
@example(shape="const", area=5e-324, phase=-5e-324, steps=2)
def test_pulsesim_exits_cleanly(shape, area, phase, steps):
    run_cli(["pulsesim", "--shape", shape, f"--area={area!r}", f"--phase={phase!r}",
             f"--steps={steps}"])


@given(
    omegas=st.tuples(floats, floats, floats),
    samples=st.integers(-5, 20),
    seed=st.integers(-5, 1000),
)
@settings(max_examples=150, deadline=None)
@example(omegas=(1e308, -1e308, 5e-324), samples=3, seed=0)
@example(omegas=(math.pi, math.pi / 2, math.pi / 2), samples=0, seed=-1)
def test_uniqueness_exits_cleanly(omegas, samples, seed):
    argv = ["uniqueness"] + [f"--omega{i}={w!r}" for i, w in enumerate(omegas, start=1)]
    run_cli(argv + [f"--samples={samples}", f"--seed={seed}"])
