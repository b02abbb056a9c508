"""Every policy's schedule text, pinned byte for byte.

For one seed of each benchmark corpus and both golden circuits, the
schedules under each of the four policies, with special cases on and off,
are hashed: each circuit's schedule text, or the text of the
:class:`IllegalPolicyError` its policy raises, in corpus order, into one
sha256 per (source, policy, special cases).  ``data/schedule_sha256.json``
holds the recorded hashes; regenerate it with
``PYTHONPATH=src python tests/test_schedule_hashes.py`` only where a change
means to alter schedule text, and say why.
"""

import hashlib
import json
import sys
from pathlib import Path

from phasepulse.circuit import (
    CompilePolicy,
    IllegalPolicyError,
    PolicyMode,
    compile_circuit,
    parse_circuit,
)

DATA = Path(__file__).parent / "data"
HASHES = DATA / "schedule_sha256.json"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded circuit generators)

# (workload, seed) of each benchmark corpus hashed here
CORPORA = (("haar-cz", 777), ("clifford-mixed", 2001), ("cli-small", 3001))
GOLDEN = ("golden_circuit.txt", "golden_circuit_enc.txt")
POLICIES = [(mode, special) for mode in PolicyMode for special in (True, False)]


def _sources() -> dict[str, list[str]]:
    """Each source's circuit texts, keyed by its name in the hash file."""
    sources = {
        f"{name} seed {seed}": [c.text for c in gen.corpus(name, seed)] for name, seed in CORPORA
    }
    sources.update((name, [(DATA / name).read_text()]) for name in GOLDEN)
    return sources


def _key(source: str, mode: PolicyMode, special: bool) -> str:
    return f"{source} | {mode.value} | special_cases={'on' if special else 'off'}"


def _digest(irs, policy: CompilePolicy) -> str:
    h = hashlib.sha256()
    for ir in irs:
        try:
            text = compile_circuit(ir, policy).to_text()
        except IllegalPolicyError as exc:
            text = f"IllegalPolicyError: {exc}\n"
        h.update(text.encode())
    return h.hexdigest()


def _hashes() -> dict[str, str]:
    hashes = {}
    for source, texts in _sources().items():
        irs = [parse_circuit(text) for text in texts]
        for mode, special in POLICIES:
            hashes[_key(source, mode, special)] = _digest(irs, CompilePolicy(mode, special))
    return hashes


def test_every_policy_compiles_the_recorded_schedules():
    want = json.loads(HASHES.read_text())
    got = _hashes()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed


if __name__ == "__main__":
    HASHES.write_text(json.dumps(_hashes(), indent=2) + "\n")
    print(f"wrote {HASHES}")
