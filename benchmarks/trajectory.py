"""Benchmark-trajectory recording for the engine (``BENCH_engine.json``).

The engine benchmarks append their measured instructions-per-second
rows here so the repo carries a machine-readable perf trajectory from
PR to PR. Rows are upserted by ``(scale, machine, engine)``: re-running
a benchmark refreshes its numbers without touching the others.

The paper-artifact report folds this file into its engine-benchmark
page: ``repro report`` (``--bench BENCH_engine.json``) renders the
trajectory table alongside the paper artefacts, so the perf history is
part of the published site rather than a loose JSON blob.
"""

from __future__ import annotations

import json
from datetime import date
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def load_trajectory(path: Path = BENCH_PATH) -> dict:
    """The current trajectory payload (header + rows), or a fresh header.

    Tolerant of a missing or corrupt file — benchmarks must be able to
    rebuild the trajectory from scratch.
    """
    if path.exists():
        try:
            payload = json.loads(path.read_text())
            if isinstance(payload, dict):
                return payload
        except json.JSONDecodeError:
            pass
    payload = dict(_HEADER)
    payload["rows"] = []
    return payload

_HEADER = {
    "benchmark": "engine throughput, machine instructions per second",
    "kernel": "flo52q",
    "window": 32,
    "memory_differential": 60,
    "engines": {
        "soa": "struct-of-arrays engine (repro.machines.engine.simulate)",
        "objects": "historical: the pre-SoA object engine, since "
                   "deleted; its rows are frozen history, no longer "
                   "measured",
        "events": "event-heap scheduler, driven directly "
                  "(repro.machines.engine._simulate_events; "
                  "docs/timing.md, 'Event scheduling')",
        "probing": "the probe route's cycle loop (_simulate_fast with "
                   "its probe branch) run with probes off: chunked "
                   "queries, no skip, no speculation; the event "
                   "heap's baseline for time-sensitive models. Rows "
                   "before the fold measured the separate per-cycle "
                   "probing loop it replaced",
        "per-point": "scalar dispatch of a whole sweep axis, one "
                     "simulate() per operating point (the batch "
                     "engine's baseline; rows carry a 'lanes' field "
                     "with the axis width)",
        "batch": "batched sweep engine, every lane of the axis in one "
                 "SoA stepping loop (repro.machines.batch; rows carry "
                 "'lanes' and 'speedup_vs_per_point')",
        "search-armed": "uniform-table fast loop with the periodic "
                        "steady-state skip armed, on a run whose search "
                        "never matches (rows carry "
                        "'overhead_vs_disarmed')",
        "search-disarmed": "the same run with the skip disarmed "
                           "(_cycle_loop(..., steady_ok=False); rows "
                           "before the dataflow pass called it through "
                           "_simulate_fast)",
        "loop": "the uniform-table cycle loop driven directly "
                "(repro.machines.engine._cycle_loop, skip armed): what "
                "the shipped table route ran before the dataflow pass; "
                "the baseline of the '<machine>@unlimited' rows, whose "
                "'soa' row carries 'speedup_vs_loop'",
    },
    "machines": {
        "dm": "access decoupled machine, fixed-differential memory",
        "swsm": "single-window superscalar, fixed-differential memory",
        "dm+<model>": "DM under a stateful memory model (bypass buffer, "
                      "cache hierarchy, banked memory, stream prefetcher); "
                      "rows carry a 'memory' field with the model "
                      "description",
        "swsm/<kernel>": "SWSM on another kernel than the header's, "
                         "fixed-differential memory; rows carry the "
                         "'window'",
        "<machine>@unlimited": "DM or SWSM at the paper's unlimited "
                               "window (as large as the compiled "
                               "program), fixed-differential memory; "
                               "rows carry the 'window'",
    },
}


def record_engine_rows(rows: list[dict], path: Path = BENCH_PATH) -> dict:
    """Merge measurement rows into the JSON trajectory file."""
    payload = load_trajectory(path)
    merged = {
        (row["scale"], row["machine"], row["engine"]): row
        for row in payload.get("rows", ())
    }
    for row in rows:
        merged[(row["scale"], row["machine"], row["engine"])] = row
    payload.update(_HEADER)
    payload["updated"] = date.today().isoformat()
    payload["rows"] = [
        merged[key] for key in sorted(merged, key=_row_order)
    ]
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


_SCALE_ORDER = {"tiny": 0, "small": 1, "paper": 2, "huge": 3}


def _row_order(key: tuple[str, str, str]):
    scale, machine, engine = key
    return (_SCALE_ORDER.get(scale, 99), scale, machine, engine)


# -- the service load benchmark (BENCH_service.json) -------------------------------

SERVICE_BENCH_PATH = BENCH_PATH.parent / "BENCH_service.json"

_SERVICE_HEADER = {
    "benchmark": "simulation-as-a-service load (benchmarks/bench_service.py)",
    "protocol": "HTTP submit -> poll -> fetch against `repro serve` "
                "booted in-process (stdlib ThreadingHTTPServer)",
    "phases": {
        "cold": "fresh result store and disk cache: the job simulates",
        "warm": "same sweep resubmitted: coalesced/served from the "
                "store, no re-simulation",
        "warm-restart": "fresh server process on the warm store: rows "
                        "rehydrated from store payloads",
    },
}


def record_service_rows(
    rows: list[dict], path: Path = SERVICE_BENCH_PATH
) -> dict:
    """Merge service load-benchmark rows (upsert by scale + phase)."""
    payload = load_trajectory(path)
    merged = {
        (row["scale"], row["phase"]): row
        for row in payload.get("rows", ())
        if "phase" in row
    }
    for row in rows:
        merged[(row["scale"], row["phase"])] = row
    payload.pop("rows", None)
    for stale in [key for key in payload if key not in _SERVICE_HEADER
                  and key != "updated"]:
        del payload[stale]
    payload.update(_SERVICE_HEADER)
    payload["updated"] = date.today().isoformat()
    payload["rows"] = [
        merged[key] for key in sorted(
            merged,
            key=lambda k: (_SCALE_ORDER.get(k[0], 99), k[0], k[1]),
        )
    ]
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload
