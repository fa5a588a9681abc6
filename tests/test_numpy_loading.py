"""When the batch planner imports NumPy, and what a sweep does without it.

Importing :mod:`repro.machines.batch` and planning a sweep never import
NumPy: only a group of two or more vectorizable lanes about to run
through ``simulate_batch`` does. The NumPy-free checks run in a fresh
interpreter, where ``sys.modules`` tells what was imported; the
NumPy-less ones block the import with ``sys.modules["numpy"] = None``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.api.presets import table1_sweep
from repro.experiments import PRESETS, run_table1

SRC = Path(__file__).resolve().parent.parent / "src"
TINY = PRESETS["tiny"].scale


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def table1_cycles(session: Session) -> dict[str, int]:
    return {
        f"{point.program}/{point.window}/{point.memory_differential}":
        result.cycles
        for point, result in session.run(table1_sweep())
    }


def test_sweeps_without_a_batch_group_never_import_numpy(
    tiny_report_site, tmp_path
):
    _, _, filled = tiny_report_site
    report = run_python(f"""
import json, sys
from repro import Session, build_report, generate_corpus
from repro.api.presets import hierarchy_sweep
from repro.experiments import PRESETS, run_generalization_study

preset = PRESETS["tiny"]
study = Session(scale=preset.scale)
run_generalization_study(
    study, generate_corpus(2, seed=0, scale=preset.scale)
)
hierarchy = Session(scale=preset.scale)
hierarchy.run(hierarchy_sweep("mdg", 32))
warm = Session(scale=preset.scale)
warm.store({str(filled.store().path)!r})
build_report(
    warm, preset, {str(tmp_path / "site")!r},
    corpus=generate_corpus(4, seed=0, scale=preset.scale),
)
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "batch": "repro.machines.batch" in sys.modules,
    "simulated": [s.stats["evaluated"] for s in (study, hierarchy, warm)],
    "groups": [s.stats["batch_groups"] for s in (study, hierarchy, warm)],
}}))
""")
    assert report["simulated"][0] > 0 and report["simulated"][1] > 0
    assert report["simulated"][2] == 0  # the warm report is all store hits
    assert report["groups"] == [0, 0, 0]
    assert report["batch"]  # the planner ran and imported the engine
    assert not report["numpy"]


def test_table1_still_batches():
    pytest.importorskip("numpy")
    session = Session(scale=TINY)
    run_table1(session)
    assert session.stats["batch_groups"] == 7
    assert session.telemetry()["strategies"] == {
        "batch": 68, "uniform-table": 30,
    }


def test_table1_without_numpy_matches_and_never_batches():
    blocked = run_python(f"""
import json, sys
sys.modules["numpy"] = None
from repro.api import Session
from repro.api.presets import table1_sweep
from repro.experiments import run_table1

session = Session(scale={TINY})
run_table1(session)
group = list(table1_sweep(programs=("trfd",), windows=(8, 16)).points())
lanes = Session(scale={TINY}).evaluate_batch(
    [session._canonical(point) for point in group]
)
print(json.dumps({{
    "cycles": {{
        f"{{point.program}}/{{point.window}}/{{point.memory_differential}}":
        result.cycles
        for point, result in session.run(table1_sweep())
    }},
    "groups": session.stats["batch_groups"],
    "strategies": session.telemetry()["strategies"],
    "lanes": [
        [result.telemetry.strategy,
         result.telemetry.counters["batch_fallback_lanes"],
         result.cycles == session.evaluate(point).cycles]
        for point, (_, result) in zip(group, lanes)
    ],
}}))
""")
    session = Session(scale=TINY)
    run_table1(session)
    assert blocked["cycles"] == table1_cycles(session)
    assert len(blocked["cycles"]) == 98
    assert blocked["groups"] == 0
    assert "batch" not in blocked["strategies"]
    assert sum(blocked["strategies"].values()) == 98
    # A group handed to the batch engine directly falls back lane by lane.
    assert len(blocked["lanes"]) == 4
    for strategy, fallbacks, same_cycles in blocked["lanes"]:
        assert strategy != "batch" and fallbacks == 1 and same_cycles
