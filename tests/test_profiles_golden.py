"""Golden parity: generated kernels keep their traces and profiles.

``tests/golden/profiles.json`` pins, for every grammar family and
seeds 0 and 1 at the tiny and small scales, the SHA-256 of
``characterize(p).to_dict()`` and the program's ``Program.digest()``.
The corpus manifest pins only band, LOD rate and memory fraction of a
generated kernel, and ``tests/golden/lowered.json`` covers only the
paper kernels' full profiles; this fixture closes that gap, so a
change to the builder, the digest or the characterizer that moves one
profile field or one trace row fails here.

The fixture is a record, not a derivation: regenerate it only for a
change that is *meant* to move generated traces or their profiles,
with ``PYTHONPATH=src python tests/test_profiles_golden.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.experiments.scales import PRESETS
from repro.workloads import FAMILIES, build_generated, characterize

FIXTURE = Path(__file__).resolve().parent / "golden" / "profiles.json"

SCALES = ("tiny", "small")
SEEDS = (0, 1)


def cases() -> list[tuple[str, str, int]]:
    """``(scale name, family, seed)`` for every pinned kernel."""
    return [
        (scale, family, seed)
        for scale in SCALES
        for family in FAMILIES
        for seed in SEEDS
    ]


def case_id(case: tuple[str, str, int]) -> str:
    scale, family, seed = case
    return f"{scale}|{family}|{seed}"


def faces(scale: str, family: str, seed: int) -> dict[str, str]:
    """The pinned faces of one generated kernel."""
    program = build_generated(family, seed, PRESETS[scale].scale)
    profile = json.dumps(characterize(program).to_dict(), sort_keys=True)
    return {
        "profile": hashlib.sha256(profile.encode("utf-8")).hexdigest(),
        "program": program.digest(),
    }


@lru_cache(maxsize=1)
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_profile_matches_golden(case):
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
        sys.exit("usage: test_profiles_golden.py --record")
    record()
