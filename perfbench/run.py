#!/usr/bin/env python3
"""Compile/verify benchmark for phasepulse.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload haar-cz --seed 1 --seconds 20 --trace 0

One run generates the workload's circuits from the seed.  For the
``--seconds`` it measures, it interleaves three kinds of work:

* in process, single-threaded: per (circuit, policy), for the policies
  three-always and auto, the time of ``parse_circuit -> compile_circuit ->
  to_text`` (compile) and of ``parse_schedule -> simulate_schedule``
  (verify), in passes over the circuits;
* ``python -m phasepulse compile`` and ``verify`` subprocesses, default
  policy, one at a time;
* fresh interpreters that import the package and compile and verify the
  first circuit under both policies (``setup_s``).

Every schedule is then checked by the reference checker in
``reference.py``, and one seeded mutant per (circuit, policy) is given to
the program's verifier.  With ``--trace 1`` the in-process passes
alternate untraced and traced (see ``tracing.py``), the subprocesses only
import the package, and the per-layer metrics are reported instead.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A report with the
schedule hashes, mutant verdicts, sample counts and raw wall-clock times
is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gen
import reference
import selftest
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
POLICIES = ("three-always", "auto")
MIN_PASSES = 3  # measurements per (circuit, policy) sample, whose median is its time
MIN_CLI_PAIRS = 5
CLI_CIRCUITS = 5
PROBES = 11
SUBPROCESS_TIMEOUT_S = 60

# Prints the verify deviation of each policy's schedule; run.py checks that
# it equals the in-process one, so the probe did the same work.
SETUP_PROBE = """
import sys
from phasepulse import circuit as c
ir = c.parse_circuit(open(sys.argv[1], encoding="utf-8").read())
for mode in sys.argv[2:]:
    text = c.compile_circuit(ir, c.CompilePolicy(c.PolicyMode(mode))).to_text()
    print(repr(c.simulate_schedule(c.parse_schedule(text), ir)))
"""

# Defects of the package at the time the benchmark was written.  An
# operation that shows one is attempted but not failed: it is counted by
# kind, printed, kept in the report and reported as a per-layer metric, so
# a fix shows and a larger count shows.  Anything outside these kinds and
# their bounds is a failure.
ACOS_DEVIATION = 1e-7
NEAR_CARRIER_DEVIATION = 1e-3
KNOWN_DEFECTS = {
    "verify accepts rename-gate2 mutant":
        "simulate_schedule matches GATE2 events by position and qubits, not by name",
    "auto schedule deviation in (1e-8, 1e-7]":
        "su2.params_from_unitary takes gamma = acos(|m00|), which is 1.49e-8 instead of 0 "
        "when |m00| rounds to 1 - 1.1e-16",
    "auto schedule deviation in (1e-8, 1e-3] with a near-carrier gate":
        "carrier.abs_permutation accepts pivots of magnitude 1 - 1e-8, so auto carries frames "
        "through a gate such as FSIM(pi/2 + 1e-4, phi) whose other entries are up to 1.4e-4",
}


class Counts:
    """Operations attempted and failed, each distinct operation counted once.

    Failures and known defects (``KNOWN_DEFECTS``) are grouped by kind,
    keeping the first example of each; a known defect is not a failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, dict] = {}
        self.known = {kind: {"count": 0, "example": "", "cause": cause}
                      for kind, cause in KNOWN_DEFECTS.items()}

    def record(self, ok: bool, kind: str, example: str) -> None:
        self.attempted += 1
        if ok:
            return
        if kind in self.known:
            entry = self.known[kind]
        else:
            self.failed += 1
            entry = self.failures.setdefault(kind, {"count": 0, "example": ""})
        entry["count"] += 1
        entry["example"] = entry["example"] or example.strip()


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _timed_run(argv: list[str], mark: int) -> tuple[tuple[float, int], subprocess.CompletedProcess]:
    """Run a subprocess from the checkout root; ``((raw s, speed mark), process)``."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return (time.perf_counter() - t0, mark), proc


class InProcess:
    """Timed passes over the corpus, both policies per circuit, one circuit per step.

    ``timings[policy]`` holds (circuit index, compile ns, verify ns, traced,
    speed mark) per sample.  The first pass records each schedule text and
    the program's verify deviation; later passes must reproduce the text.
    With a tracer, odd passes are traced.
    """

    def __init__(self, C, package, corpus, clock: speed.Calibration, tracer):
        self.C, self.package, self.corpus, self.clock, self.tracer = C, package, corpus, clock, tracer
        self.policies = {p: C.CompilePolicy(C.PolicyMode(p)) for p in POLICIES}
        self.min_passes = 2 if tracer else MIN_PASSES
        self.passes = 0
        self.next = 0
        self.timings = {p: [] for p in POLICIES}
        self.texts: dict[tuple[int, str], str] = {}
        self.deviations: dict[tuple[int, str], float] = {}
        self.errors: dict[tuple[int, str], str] = {}
        self.changed: set[tuple[int, str]] = set()
        self.traced_samples: list[tuple[int, str]] = []
        self.traced_marks: list[int] = []

    def _sample(self, i: int, p: str, traced: bool, mark: int) -> None:
        C, clock, key = self.C, time.perf_counter_ns, (i, p)
        t0 = clock()
        try:
            ir = C.parse_circuit(self.corpus[i].text)
            text = C.compile_circuit(ir, self.policies[p]).to_text()
        except Exception:
            self.errors.setdefault(key, traceback.format_exc(limit=3))
            return
        t1 = clock()
        try:
            dev = C.simulate_schedule(C.parse_schedule(text), ir)
        except C.CircuitError:
            dev = math.inf
        t2 = clock()
        if self.texts.setdefault(key, text) != text:
            self.changed.add(key)
        self.deviations.setdefault(key, dev)
        self.timings[p].append((i, t1 - t0, t2 - t1, traced, mark))

    def step(self) -> None:
        i = self.next
        traced = self.tracer is not None and self.passes % 2 == 1
        mark = self.clock.mark()
        if traced and i == 0:
            self.tracer.install(self.package)
        for p in POLICIES:
            if traced:
                self.tracer.current = len(self.traced_samples)
                self.traced_samples.append((i, p))
                self.traced_marks.append(mark)
            self._sample(i, p, traced, mark)
        self.next += 1
        if self.next == len(self.corpus):
            self.finish_pass()

    def finish_pass(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        if self.next:
            self.passes += 1
            self.next = 0


class Subprocesses:
    """CLI compile/verify pairs and start-up probes, each a fresh interpreter."""

    def __init__(self, corpus, clock: speed.Calibration, counts: Counts, trace: bool):
        self.clock, self.counts, self.trace = clock, counts, trace
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        for k in range(CLI_CIRCUITS):
            (self.tmp / f"circuit{k}.txt").write_text(corpus[k].text, encoding="utf-8")
        self.cli_compile: list[tuple[float, int]] = []
        self.cli_verify: list[tuple[float, int]] = []
        self.probes: list[tuple[float, int]] = []
        self.cli_results: list[tuple[int, str, int]] = []  # first round: (circuit, schedule text, verify exit)
        self.probe_results: list[tuple[int, str, str]] = []  # (exit code, stdout, stderr)

    def probe(self) -> None:
        """``setup_s``: start, import, compile and verify circuit 0; traced runs only import."""
        if self.trace:
            argv = [sys.executable, "-c", "import phasepulse"]
        else:
            argv = [sys.executable, "-c", SETUP_PROBE, _rel(self.tmp / "circuit0.txt"), *POLICIES]
        elapsed, proc = _timed_run(argv, self.clock.mark())
        self.probes.append(elapsed)
        self.probe_results.append((proc.returncode, proc.stdout, proc.stderr))

    def cli_pair(self) -> None:
        """One ``compile`` and one ``verify``, cycling over the first circuits, each after its speed mark."""
        k = len(self.cli_compile) % CLI_CIRCUITS
        circuit, schedule = _rel(self.tmp / f"circuit{k}.txt"), _rel(self.tmp / f"schedule{k}.txt")
        elapsed, compiled = _timed_run(
            [sys.executable, "-m", "phasepulse", "compile", circuit, "-o", schedule], self.clock.mark()
        )
        self.cli_compile.append(elapsed)
        elapsed, verified = _timed_run(
            [sys.executable, "-m", "phasepulse", "verify", circuit, schedule], self.clock.mark()
        )
        self.cli_verify.append(elapsed)
        if len(self.cli_results) < CLI_CIRCUITS:
            text = (ROOT / schedule).read_text(encoding="utf-8") if compiled.returncode == 0 else ""
            self.cli_results.append((k, text, verified.returncode))


def measure(bench: InProcess, subs: Subprocesses, seconds: float, cli_share: float) -> None:
    """Interleave in-process steps, CLI pairs and probes for ``seconds``.

    Probes are spread evenly over the time; CLI pairs take ``cli_share`` of
    the rest.  The run goes on past ``seconds`` until every minimum count
    is reached, doing only the work still short of its minimum.
    """
    start = time.perf_counter()
    busy = {"cli": 0.0, "inproc": 0.0}
    try:
        while True:
            now = time.perf_counter() - start
            inproc_short = bench.passes < bench.min_passes
            cli_short = cli_share > 0 and len(subs.cli_compile) < MIN_CLI_PAIRS
            if now >= seconds and not inproc_short and not cli_short and len(subs.probes) >= PROBES:
                break
            if now < seconds:
                use_cli = cli_share > 0 and busy["cli"] <= cli_share * (busy["cli"] + busy["inproc"])
            else:
                use_cli = not inproc_short
            t0 = time.perf_counter()
            if len(subs.probes) < PROBES and now >= len(subs.probes) * seconds / PROBES:
                subs.probe()
            elif use_cli:
                subs.cli_pair()
                busy["cli"] += time.perf_counter() - t0
            else:
                bench.step()
                busy["inproc"] += time.perf_counter() - t0
    finally:
        bench.finish_pass()


def program_accepts(C, text: str, ir) -> bool:
    try:
        return C.simulate_schedule(C.parse_schedule(text), ir) <= reference.TOLERANCE
    except C.CircuitError:
        return False


def check_outputs(C, bench: InProcess, subs: Subprocesses, ideals, seed: int, counts: Counts) -> dict:
    """Count each (circuit, policy)'s compile, reference check, verify and mutant verify.

    A failure is a compile that raised or was not reproducible, a genuine
    schedule the reference rejects, or a verify verdict that differs from
    the reference's, unless it is one of ``KNOWN_DEFECTS``.  The CLI's
    schedules must equal the in-process ones, and each start-up probe must
    print the in-process verify deviations of circuit 0.
    """
    corpus = bench.corpus
    verdicts: dict[tuple[int, str], bool] = {}
    max_dev = {p: 0.0 for p in POLICIES}
    over = {p: 0 for p in POLICIES}
    mutants = {k: {"attempted": 0, "wrong_verdicts": 0} for k in reference.MUTANT_KINDS}
    for i, circ in enumerate(corpus):
        for pidx, p in enumerate(POLICIES):
            key, where = (i, p), f"{p} circuit {i}"
            if key in bench.errors:
                counts.record(False, "compile raised", f"{where}: {bench.errors[key]}")
                continue
            counts.record(key not in bench.changed, "compile not reproducible", where)
            text = bench.texts[key]
            ok, dev = reference.accepts(text, circ, ideals[i])
            verdicts[key] = ok
            max_dev[p] = max(max_dev[p], dev)
            over[p] += not ok
            kind = "reference rejects genuine schedule"
            if p == "auto" and dev <= ACOS_DEVIATION:
                kind = "auto schedule deviation in (1e-8, 1e-7]"
            elif p == "auto" and dev <= NEAR_CARRIER_DEVIATION and any(
                    reference.near_carrier(op.matrix) for op in circ.gate2_ops()):
                kind = "auto schedule deviation in (1e-8, 1e-3] with a near-carrier gate"
            counts.record(ok, kind, f"{where} (deviation {dev:.3g})")
            verdict = bench.deviations[key] <= reference.TOLERANCE
            counts.record(verdict == ok, "verify verdict on genuine schedule", f"{where}: verify says {verdict}")
            kind = reference.MUTANT_KINDS[(i + pidx) % len(reference.MUTANT_KINDS)]
            mutant = reference.mutate(text, kind, np.random.default_rng([seed, i, pidx]))
            if reference.accepts(mutant, circ, ideals[i])[0]:
                raise RuntimeError(f"reference accepted a {kind} mutant of {where}")
            wrong = program_accepts(C, mutant, C.parse_circuit(circ.text))
            counts.record(not wrong, f"verify accepts {kind} mutant", where)
            mutants[kind]["attempted"] += 1
            mutants[kind]["wrong_verdicts"] += wrong
    for k, text, exit_code in subs.cli_results:
        counts.record(text == bench.texts.get((k, "three-always")), "CLI compile", f"circuit {k}")
        expected = 0 if verdicts.get((k, "three-always")) else 3
        counts.record(exit_code == expected, "CLI verify", f"circuit {k}: exit {exit_code}")
    expected = "" if subs.trace else "".join(f"{bench.deviations.get((0, p))!r}\n" for p in POLICIES)
    for exit_code, out, err in subs.probe_results:
        counts.record(exit_code == 0 and out == expected, "start-up probe",
                      f"exit {exit_code}, printed {out!r}, expected {expected!r}: {err[-300:]}")
    return {"max_deviation": max_dev, "over_tolerance": over, "mutants": mutants}


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _p90(values) -> float:
    return float(np.percentile(values, 90))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "phasepulse" / "__init__.py").is_file():
        print(f"error: no package at {_rel(SRC)}/phasepulse; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phasepulse
    from phasepulse import circuit as C

    selftest.check(C)
    wl = gen.WORKLOADS[args.workload]
    corpus = gen.corpus(args.workload, args.seed)
    ideals = [reference.ideal(c) for c in corpus]
    OUT.mkdir(exist_ok=True)
    counts = Counts()
    clock, starts = speed.in_process(), speed.start_up()
    tracer = tracing.Tracer() if args.trace else None
    bench = InProcess(C, phasepulse, corpus, clock, tracer)
    subs = Subprocesses(corpus, starts, counts, bool(args.trace))
    measure(bench, subs, args.seconds, 0.0 if args.trace else wl.cli_share)
    checks = check_outputs(C, bench, subs, ideals, args.seed, counts)

    schedules = {}
    for p in POLICIES:
        joined = "".join(bench.texts.get((i, p), "") for i in range(len(corpus)))
        pulses = sum(line.startswith("PULSE") for line in joined.splitlines())
        schedules[p] = {"sha256": hashlib.sha256(joined.encode()).hexdigest(), "pulses": pulses}

    # Times are reported at the nominal machine speed (see speed.py); the
    # raw wall-clock figures go to the report alongside.
    metrics: dict[str, dict] = {}
    raw: dict[str, float] = {}

    def subprocess_timing(name: str, rows) -> None:
        metrics[name] = _metric(statistics.median([t * starts.factor(m) for t, m in rows]), "s")
        raw[name] = statistics.median([t for t, _ in rows])

    def per_circuit(p: str, field: int, traced: bool, scaled: bool = True) -> list[float]:
        """Per-layer time of each (circuit, policy) sample: the median over its passes."""
        passes: dict[int, list[float]] = {}
        for i, t_compile, t_verify, was_traced, mark in bench.timings[p]:
            if was_traced == traced:
                t = (t_compile, t_verify)[field] / 1e3 / corpus[i].layers
                passes.setdefault(i, []).append(t * clock.factor(mark) if scaled else t)
        return [statistics.median(v) for v in passes.values()]

    samples = {p: len(per_circuit(p, 0, False)) for p in POLICIES}
    samples["passes"] = bench.passes
    if args.trace:
        layers = [corpus[i].layers for i, _ in bench.traced_samples]
        for p in POLICIES:
            factors = [clock.factor(m) for m in bench.traced_marks]
            values = tracing.layer_metrics(tracer, bench.traced_samples, layers, factors, p)
            for name, value in values.items():
                unit = "us/layer" if "us_per_layer" in name else (
                    "calls/layer" if "calls_per_layer" in name else "share")
                metrics[f"{name}.{p}"] = _metric(value, unit)
            overhead = (statistics.median(per_circuit(p, 0, True))
                        - statistics.median(per_circuit(p, 0, False)))
            metrics[f"trace.compile_overhead_us_per_layer.{p}"] = _metric(overhead, "us/layer")
            metrics[f"reference.max_deviation.{p}"] = _metric(checks["max_deviation"][p], "1")
            metrics[f"reference.over_tolerance.{p}"] = _metric(checks["over_tolerance"][p], "count")
        for kind, m in checks["mutants"].items():
            metrics[f"verify.mutant_wrong_verdicts.{kind}"] = _metric(m["wrong_verdicts"], "count")
        subprocess_timing("cli.import_s", subs.probes)
        tracer.save(OUT / f"spans-{args.workload}.npz", bench.traced_samples)
    else:
        total_layers = sum(c.layers for c in corpus)
        for p in POLICIES:
            for name, field in (("compile", 0), ("verify", 1)):
                for suffix, stat in (("", statistics.median), ("_p90", _p90)):
                    key = f"{name}_us_per_layer{suffix}.{p}"
                    metrics[key] = _metric(stat(per_circuit(p, field, False)), "us/layer")
                    raw[key] = stat(per_circuit(p, field, False, scaled=False))
            metrics[f"pulses_per_layer.{p}"] = _metric(schedules[p]["pulses"] / total_layers, "pulses/layer")
        subprocess_timing("setup_s", subs.probes)
        subprocess_timing("cli_compile_s", subs.cli_compile)
        subprocess_timing("cli_verify_s", subs.cli_verify)
        samples["cli"] = len(subs.cli_compile)
    samples["probes"] = len(subs.probes)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "circuits": len(corpus), "layers_per_circuit": wl.layers, "samples": samples,
        "attempted": counts.attempted, "failed": counts.failed, "failures": counts.failures,
        "known_defects": counts.known,
        "schedules": schedules, **checks, "metrics": metrics, "raw_wall_clock": raw,
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(corpus)} circuits x {wl.layers} layers; samples {samples}")
    for name, m in metrics.items():
        wall = f"  (raw wall clock {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']}{wall}")
    print(f"  failed/attempted: {counts.failed}/{counts.attempted}")
    for kind, entry in counts.failures.items():
        print(f"  failed: {entry['count']} x {kind}, e.g. {entry['example'][:200]}")
    for kind, entry in counts.known.items():
        print(f"  known defect, not counted as failed: {entry['count']} x {kind}"
              + (f", e.g. {entry['example'][:200]}" if entry["count"] else "") + f"; cause: {entry['cause']}")
    for kind, m in checks["mutants"].items():
        print(f"  mutant {kind:14s} wrong verify verdicts {m['wrong_verdicts']}/{m['attempted']}")
    for p in POLICIES:
        print(f"  {p:13s} max reference deviation {checks['max_deviation'][p]:.3g}, "
              f"{checks['over_tolerance'][p]} schedules over {reference.TOLERANCE:g}; "
              f"pulses {schedules[p]['pulses']}; sha256 {schedules[p]['sha256']}")
    print(json.dumps({"correct": counts.failed == 0, "attempted": counts.attempted,
                      "failed": counts.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
