"""Span tracing of the package's layers, from outside the package.

:func:`Tracer.install` rebinds each public function listed in ``LAYERS``
to a recording wrapper in every ``phasepulse`` module that holds it (so
``phasepulse.circuit.special_case`` and ``phasepulse.su2.as_unitary`` are
both rebound), and :func:`Tracer.uninstall` puts the originals back.  No
source file is edited.  Spans (name, start, end, parent, sample) are kept
in memory in flat arrays and written out when the benchmark ends; the
per-layer metrics are derived from them.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

LAYERS = {
    "circuit": (
        "parse_circuit", "compile_circuit", "PulseSchedule.to_text",
        "parse_schedule", "simulate_schedule", "ideal_unitary",
    ),
    "carrier": ("is_phase_carrier", "carry_map", "is_enc", "is_generalized_enc"),
    "schemes": ("special_case", "three_pulse", "virtual_z"),
    "su2": ("as_unitary", "params_from_unitary", "phase_distance"),
}
CARRIER_CALLS = tuple(f"carrier.{f}" for f in LAYERS["carrier"])


def _span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.rsplit('.', 1)[-1]}"


def _flag(name: str, result) -> int:
    """The count recorded with a span: a special-case hit or a positive verdict."""
    if name == "schemes.special_case":
        return result is not None
    if name in ("carrier.is_phase_carrier", "carrier.is_enc"):
        return bool(result)
    if name == "carrier.is_generalized_enc":
        return bool(result[0])
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.sample = array("i")
        self.flag = array("b")
        self.gate2_keys: dict[int, list[bytes]] = {}
        self.current = -1  # id of the (circuit, policy) sample being traced
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_col, start, end, parent, sample, flag = (
            self.name, self.start, self.end, self.parent, self.sample, self.flag
        )
        stack, clock = self._stack, time.perf_counter_ns
        keys = self.gate2_keys if name == "carrier.is_phase_carrier" else None

        def traced(*args, **kwargs):
            idx = len(end)
            name_col.append(nid)
            parent.append(stack[-1] if stack else -1)
            sample.append(self.current)
            flag.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            flag[idx] = _flag(name, result)
            if keys is not None:
                keys.setdefault(self.current, []).append(np.asarray(args[0]).tobytes())
            return result

        return traced

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items() if n == "phasepulse" or n.startswith("phasepulse.")]
        for layer, funcs in LAYERS.items():
            home = getattr(package, layer)
            for func in funcs:
                owner, attr = home, func
                if "." in func:
                    cls, attr = func.split(".")
                    owner = getattr(home, cls)
                original = getattr(owner, attr)
                wrapper = self._wrap(_span_name(layer, func), original)
                targets = [owner] if owner is not home else [
                    m for m in modules if vars(m).get(attr) is original
                ]
                for target in targets:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "sample": np.frombuffer(self.sample, dtype=np.int32),
            "flag": np.frombuffer(self.flag, dtype=np.int8),
        }

    def save(self, path, samples: list[tuple[int, str]]) -> None:
        """Write the spans, the name table and the ``(circuit, policy)`` of each sample id."""
        np.savez(
            path, names=np.array(self.names), samples=np.array(samples, dtype=object).astype(str),
            **self.arrays(),
        )


def layer_metrics(tracer: Tracer, samples: list[tuple[int, str]], layers: list[int],
                  factors: list[float], policy: str) -> dict[str, float]:
    """Per-layer metrics for one policy from the spans of its traced samples.

    ``samples[sid]`` is the ``(circuit index, policy)`` of sample id ``sid``
    and ``layers[sid]`` its layer count; its span times are scaled by
    ``factors[sid]``.  Times and counts are totals over the policy's samples
    divided by their total layer count.
    """
    a = tracer.arrays()
    dur = (a["end"] - a["start"]) / 1e3 * np.asarray(factors)[a["sample"]]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_us = dur - child
    mine = np.array([p == policy for _, p in samples], dtype=bool)
    total_layers = float(np.sum(np.asarray(layers)[mine]))
    in_policy = mine[a["sample"]]
    ids = {n: i for i, n in enumerate(tracer.names)}

    def select(*names):
        return np.isin(a["name"], [ids[n] for n in names if n in ids]) & in_policy

    def per_layer(values, *names) -> float:
        return float(np.sum(values[select(*names)])) / total_layers

    special = select("schemes.special_case")
    calls = int(np.sum(special))
    out = {
        "circuit.parse_circuit.us_per_layer": per_layer(dur, "circuit.parse_circuit"),
        "circuit.compile_circuit.self_us_per_layer": per_layer(self_us, "circuit.compile_circuit"),
        "circuit.to_text.us_per_layer": per_layer(dur, "circuit.to_text"),
        "carrier.us_per_layer": per_layer(dur, *CARRIER_CALLS),
        "carrier.is_generalized_enc.us_per_layer": per_layer(dur, "carrier.is_generalized_enc"),
        "carrier.distinct_gate2_share": _distinct_share(tracer, samples, mine),
        "schemes.special_case.us_per_layer": per_layer(dur, "schemes.special_case"),
        "schemes.special_case.hit_share": float(np.sum(a["flag"][special])) / calls if calls else 0.0,
        "schemes.three_pulse.us_per_layer": per_layer(dur, "schemes.three_pulse"),
        "schemes.virtual_z.us_per_layer": per_layer(dur, "schemes.virtual_z"),
        "su2.as_unitary.calls_per_layer": float(np.sum(select("su2.as_unitary"))) / total_layers,
        "su2.as_unitary.us_per_layer": per_layer(dur, "su2.as_unitary"),
        "su2.params_from_unitary.us_per_layer": per_layer(dur, "su2.params_from_unitary"),
        "su2.phase_distance.calls_per_layer": float(np.sum(select("su2.phase_distance"))) / total_layers,
        "circuit.parse_schedule.us_per_layer": per_layer(dur, "circuit.parse_schedule"),
        "circuit.simulate_schedule.self_us_per_layer": per_layer(self_us, "circuit.simulate_schedule"),
        "circuit.ideal_unitary.us_per_layer": per_layer(dur, "circuit.ideal_unitary"),
    }
    if policy == "auto":
        out.update(_rule_shares(a, ids, in_policy))
    return out


def _distinct_share(tracer: Tracer, samples, mine) -> float:
    # Distinct 2q matrices over 2q ops, once per circuit: the miss rate of a
    # process-wide memo of the classification.
    seen_circuits, keys, ops = set(), set(), 0
    for sid, sample_keys in tracer.gate2_keys.items():
        if mine[sid] and samples[sid][0] not in seen_circuits:
            seen_circuits.add(samples[sid][0])
            keys.update(sample_keys)
            ops += len(sample_keys)
    return len(keys) / ops if ops else 0.0


def _rule_shares(a, ids, in_policy) -> dict[str, float]:
    """Shares of 2q ops that auto would carry, treat as ENC, or zero out.

    The compiler asks ``is_phase_carrier`` and ``is_enc`` once per 2q op and
    ``is_generalized_enc`` once per non-ENC op, in op order; if the calls
    no longer line up that way the shares are reported as 0.
    """
    out = {f"carrier.rule_share.{r}": 0.0 for r in ("carry", "enc", "zero")}

    def flags(name):
        if name not in ids:
            return None
        m = (a["name"] == ids[name]) & in_policy
        return a["flag"][m].astype(bool)

    carrier, enc, gen = (flags(n) for n in CARRIER_CALLS[:1] + CARRIER_CALLS[2:])
    if carrier is None or enc is None or gen is None or not len(carrier):
        return out
    if len(enc) != len(carrier) or len(gen) != int(np.sum(~enc)):
        return out
    any_enc = enc.copy()
    any_enc[~enc] = gen
    n = float(len(carrier))
    out["carrier.rule_share.carry"] = float(np.sum(carrier)) / n
    out["carrier.rule_share.enc"] = float(np.sum(~carrier & any_enc)) / n
    out["carrier.rule_share.zero"] = float(np.sum(~carrier & ~any_enc)) / n
    return out
