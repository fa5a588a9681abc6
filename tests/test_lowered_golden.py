"""Golden parity: compiled machine programs stay bit-identical.

``tests/golden/lowered.json`` pins, per compile case, a SHA-256 of each
observable face of a compiled program: every public
:class:`~repro.machines.lowered.LoweredProgram` column, the steady-state
analysis, ``meta``, ``unit_counts()``, the per-instruction stream rows,
plus the source trace's ``Program.digest()`` and its
``characterize()`` profile. Any change to partitioning, SWSM lowering,
the struct-of-arrays builder or the characterizer that moves a single
column entry fails here with the case and the face that drifted.

The cases are the seven paper kernels at the tiny and small scales,
each compiled as dm/slice, dm/memory-only, dm/balanced and swsm, and
every kernel of ``corpus/default-100.toml`` at the tiny scale as
dm/slice and swsm.

The fixture is a record, not a derivation: regenerate it only for a
change that is *meant* to move compiled programs, with
``PYTHONPATH=src python tests/test_lowered_golden.py --record``.
"""

from __future__ import annotations

import enum
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.api.spec import Point
from repro.config import DEFAULT_LATENCIES
from repro.experiments.scales import PRESETS
from repro.kernels import build_kernel, list_kernels
from repro.machines.registry import get_machine
from repro.workloads import characterize
from repro.workloads.corpus import load_manifest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "golden" / "lowered.json"
MANIFEST = ROOT / "corpus" / "default-100.toml"

PAPER_TARGETS = ("dm/slice", "dm/memory-only", "dm/balanced", "swsm")
CORPUS_TARGETS = ("dm/slice", "swsm")

#: Every public LoweredProgram column, in a fixed order.
COLUMNS = (
    "total", "units", "stream_gids", "n_srcs", "src_off", "cons", "mode",
    "lat", "addr", "unit_index", "orig_index", "base_addlat",
    "memory_gids", "mem_units", "is_mem", "min_latency", "min_dep_offset",
    "dep_span", "pair", "delivers", "pair_missing",
)


def cases() -> list[tuple[str, str, str]]:
    """``(scale name, kernel name, target)`` for every pinned compile."""
    out = [
        (scale, name, target)
        for scale in ("tiny", "small")
        for name in list_kernels()
        for target in PAPER_TARGETS
    ]
    out += [
        ("tiny", name, target)
        for name in load_manifest(MANIFEST).names
        for target in CORPUS_TARGETS
    ]
    return out


def case_id(case: tuple[str, str, str]) -> str:
    return "|".join(case)


@lru_cache(maxsize=8)
def _program(scale: str, name: str):
    return build_kernel(name, PRESETS[scale].scale)


@lru_cache(maxsize=8)
def _profile(scale: str, name: str) -> str:
    return json.dumps(
        characterize(_program(scale, name)).to_dict(), sort_keys=True
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(value):
    """Enums to their values, containers to lists: a stable repr."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, (bytes, bytearray)):
        return list(value)
    return value


def faces(scale: str, name: str, target: str) -> dict[str, str]:
    """SHA-256 of each observable face of one compiled program."""
    program = _program(scale, name)
    machine, _, partition = target.partition("/")
    point = Point(program=name, machine=machine,
                  partition=partition or "slice")
    compiled = get_machine(machine).compile(
        program, point, DEFAULT_LATENCIES
    )
    low = compiled.lowered()
    steady = low.steady()
    rows = [
        repr((inst.gid, inst.unit.value, inst.mem_kind.value, inst.latency,
              inst.srcs, inst.addr, inst.orig_index, inst.tag))
        for unit in compiled.units
        for inst in compiled.stream(unit)
    ]
    return {
        "columns": _sha(repr([
            (column, _plain(getattr(low, column))) for column in COLUMNS
        ])),
        "steady": _sha(repr(None if steady is None else (
            steady.start, steady.period, steady.unit_counts,
            steady.dep_span,
        ))),
        "meta": _sha(json.dumps(compiled.meta, sort_keys=True)),
        "unit_counts": _sha(repr(sorted(
            (unit.value, count)
            for unit, count in compiled.unit_counts().items()
        ))),
        "rows": _sha("\n".join(rows)),
        "program": program.digest(),
        "profile": _sha(_profile(scale, name)),
    }


@lru_cache(maxsize=1)
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_compile_matches_golden(case):
    expected = _fixture()[case_id(case)]
    got = faces(*case)
    drifted = sorted(k for k in expected if got.get(k) != expected[k])
    assert not drifted, f"{case_id(case)}: {', '.join(drifted)} drifted"


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(case_id(c) for c in cases())


def record() -> None:
    doc = {case_id(case): faces(*case) for case in cases()}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_lowered_golden.py --record")
    record()
