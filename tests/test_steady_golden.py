"""Golden parity: steady-state skip decisions stay put.

``tests/golden/steady.json`` pins, per run, the routing strategy, the
cycle count and the periodic steady-state skip counters
(``steady_skips``, ``skipped_instructions``; docs/timing.md, "Periodic
steady state"). The skip is an accelerator, so cycles would survive a
change to *which* checkpoints match — but the counters would not, and
the report's telemetry page publishes them. Any change to the
checkpoint search that moves a single skip decision fails here with
the case and the operating point that drifted.

The cases are the seven paper kernels and the first 24 kernels of
``corpus/default-100.toml``, all at the tiny scale, each compiled as
dm/slice and swsm on uniform memory (the route with the skip armed).
Every case runs the generalization study's three operating points:
the unlimited window at md=0 and md=60, and window 32 at md=60.

The fixture is a record, not a derivation: regenerate it only for a
change that is *meant* to move skip decisions, with
``PYTHONPATH=src python tests/test_steady_golden.py --record``.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.api import Session
from repro.api.spec import Point
from repro.experiments.scales import PRESETS
from repro.kernels import list_kernels
from repro.workloads.corpus import load_manifest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "golden" / "steady.json"
MANIFEST = ROOT / "corpus" / "default-100.toml"

TARGETS = ("dm/slice", "swsm")
CORPUS_KERNELS = 24
#: ``(window, memory differential)``; ``None`` is the unlimited window.
OPERATING_POINTS = ((None, 0), (None, 60), (32, 60))


def cases() -> list[tuple[str, str]]:
    """``(kernel name, target)`` for every pinned run set."""
    names = list(list_kernels())
    names += load_manifest(MANIFEST).names[:CORPUS_KERNELS]
    return [(name, target) for name in names for target in TARGETS]


def case_id(case: tuple[str, str]) -> str:
    return "|".join(("tiny",) + case)


@lru_cache(maxsize=1)
def _session() -> Session:
    return Session(scale=PRESETS["tiny"].scale)


def runs(name: str, target: str) -> dict[str, dict]:
    """Strategy, cycles and skip counters at each operating point."""
    machine, _, partition = target.partition("/")
    out = {}
    for window, md in OPERATING_POINTS:
        result = _session().evaluate(Point(
            program=name, machine=machine, window=window,
            memory_differential=md, partition=partition or "slice",
        ))
        counters = result.telemetry.counters
        out[f"w={window or 'unlimited'},md={md}"] = {
            "strategy": result.telemetry.strategy,
            "cycles": result.cycles,
            "steady_skips": counters.get("steady_skips", 0),
            "skipped_instructions": counters.get("skipped_instructions", 0),
        }
    return out


@lru_cache(maxsize=1)
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_skip_decisions_match_golden(case):
    expected = _fixture()[case_id(case)]
    got = runs(*case)
    drifted = sorted(k for k in expected if got.get(k) != expected[k])
    assert not drifted, (
        f"{case_id(case)}: "
        + "; ".join(f"{k}: {expected[k]} -> {got.get(k)}" for k in drifted)
    )


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(case_id(c) for c in cases())


def test_fixture_exercises_the_skip():
    skips = sum(
        run["steady_skips"]
        for case in _fixture().values()
        for run in case.values()
    )
    assert skips > 0


def record() -> None:
    doc = {case_id(case): runs(*case) for case in cases()}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_steady_golden.py --record")
    record()
