"""Hypothesis fuzz of the numeric CLI subcommands, ``uniqueness`` and ``pulsesim``.

Every float option is drawn from the awkward values (NaN, +-inf, +-1e308,
signed zeros, subnormals) and from all floats, and ``--steps``,
``--samples`` and ``--seed`` from small integers, negative ones included.
The counts stay small (a ``uniqueness`` sample costs about half a
millisecond), so no draw asks for a large allocation.  The options are
passed as ``--opt value`` or as ``--opt=value``, by turns.  With warnings
as errors, a run must exit 0, or exit 1 with exactly one ``error:`` line
and nothing on stdout: no traceback and no numeric warning.
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


def options(spaced: bool, **values) -> list[str]:
    """``--name value`` for each value, two tokens if ``spaced``, else one."""
    if spaced:
        return [token for name, value in values.items() for token in (f"--{name}", repr(value))]
    return [f"--{name}={value!r}" for name, value in values.items()]


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
    spaced=st.booleans(),
)
@settings(max_examples=200, deadline=None)
@example(shape="const", area=1e308, phase=0.0, steps=2001, spaced=False)  # overflowed adding two samples
@example(shape="const", area=-1e308, phase=0.0, steps=2001, spaced=True)
@example(shape="gauss", area=1.7e308, phase=1e308, steps=3, spaced=False)
@example(shape="const", area=5e-324, phase=-5e-324, steps=2, spaced=True)
@example(shape="const", area=-1.5e-3, phase=-math.inf, steps=3, spaced=True)
def test_pulsesim_exits_cleanly(shape, area, phase, steps, spaced):
    run_cli(["pulsesim", "--shape", shape] + options(spaced, area=area, phase=phase, steps=steps))


@given(
    omegas=st.tuples(floats, floats, floats),
    samples=st.integers(-5, 20),
    seed=st.integers(-5, 1000),
    spaced=st.booleans(),
)
@settings(max_examples=150, deadline=None)
@example(omegas=(1e308, -1e308, 5e-324), samples=3, seed=0, spaced=False)
@example(omegas=(1e308, -1e308, -5e-324), samples=3, seed=0, spaced=True)
@example(omegas=(math.pi, math.pi / 2, math.pi / 2), samples=0, seed=-1, spaced=True)
def test_uniqueness_exits_cleanly(omegas, samples, seed, spaced):
    omega1, omega2, omega3 = omegas
    run_cli(["uniqueness"] + options(spaced, omega1=omega1, omega2=omega2, omega3=omega3,
                                     samples=samples, seed=seed))
