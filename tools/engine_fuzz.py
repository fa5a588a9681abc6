"""Differential fuzzer: the scheduling engines against the naive oracle.

Crosses a corpus of generated kernels (``gen:<family>:<seed>`` names)
plus two paper kernels with both machines (DM, SWSM) and every memory
model kind in the hierarchy scenario space, then runs each case
through seven columns — shipped ``simulate`` routing (``shipped``), the
event-heap scheduler driven directly (``events``), the fast loop's
stateful issue branch forced with probes off (``chunked``: the
chunked route, which the router takes only when a stateful model
declines both speculation and the event heap), the naive
cycle-by-cycle oracle (``naive``, :mod:`repro.machines.reference`),
the batched sweep engine (``repro.machines.batch``, run as a
two-lane batch at two memory differentials and compared lane by
lane), the probe route (``probes``: shipped ``simulate`` with the
buffer probe on, plus the ESW probe on the DM, against the oracle
with the same probes), and the warm route (``warm``: shipped
``simulate`` without issue times, run twice on the compiled program
every earlier column ran on, so its uniform-table passes come from the
program's pass memo) — and diffs the results field by field.
``shipped`` collects issue times and so never reaches the memo; the
``warm`` runs must match it in every field but issue times, telemetry
strategy and counters included. Any divergence is a bug
in one of the engines; the tool prints the first mismatching field per
case and exits non-zero. The oracle steps every cycle, so keep the
scale small.

Usage (CI runs it at tiny scale, mirroring tools/service_smoke.py):

    REPRO_SCALE=tiny PYTHONPATH=src python tools/engine_fuzz.py

    # more seeds, different memory differential:
    python tools/engine_fuzz.py --seeds 8 --md 30
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DecoupledMachine, SuperscalarMachine  # noqa: E402
from repro.api.presets import HIERARCHY_MEMORY_VARIANTS  # noqa: E402
from repro.config import DEFAULT_LATENCIES, UnitConfig  # noqa: E402
from repro.experiments import active_preset  # noqa: E402
from repro.kernels import build_kernel  # noqa: E402
from repro.machines import simulate, simulate_naive  # noqa: E402
from repro.machines.batch import BatchLane, simulate_batch  # noqa: E402
from repro.machines.engine import (  # noqa: E402
    _simulate_events,
    _simulate_fast,
)
from repro.obs.telemetry import TelemetryCollector  # noqa: E402
from repro.partition import Unit  # noqa: E402
from repro.workloads import FAMILIES  # noqa: E402

MACHINES = (
    ("dm", DecoupledMachine.compile),
    ("swsm", SuperscalarMachine.compile),
)

#: SimulationResult fields every engine must agree on, bit for bit.
COMPARED_FIELDS = (
    "cycles",
    "instructions",
    "unit_stats",
    "issue_times",
    "esw_peak",
    "esw_mean",
    "buffer_occupancy",
)


def _shipped(compiled, configs, memory):
    return simulate(compiled, configs, memory, collect_issue_times=True)


def diff_fields(reference, candidate, fields=COMPARED_FIELDS) -> list[str]:
    """Names of the result fields on which two engines disagree."""
    mismatches = []
    for field_name in fields:
        if getattr(reference, field_name) != getattr(candidate, field_name):
            mismatches.append(field_name)
    return mismatches


#: What the ``warm`` column must reproduce of the ``shipped`` one:
#: every field but issue times, plus the route and its counters.
WARM_FIELDS = tuple(f for f in COMPARED_FIELDS if f != "issue_times")
WARM_TELEMETRY = ("strategy", "counters")


def diff_warm(shipped, warm) -> list[str]:
    """Fields on which a run without issue times leaves ``shipped``."""
    return diff_fields(shipped, warm, WARM_FIELDS) + [
        f"telemetry.{name}" for name in WARM_TELEMETRY
        if getattr(shipped.telemetry, name) != getattr(warm.telemetry, name)
    ]


def run_case(program_name: str, scale: int, md: int,
             verbose: bool) -> tuple[list[str], int]:
    """All machines x memory kinds x engines for one program.

    Returns the failures and the passes the warm column reused.
    """
    failures = []
    reused = 0
    program = build_kernel(program_name, scale)
    for machine_name, compile_fn in MACHINES:
        compiled = compile_fn(program)
        if machine_name == "dm":
            configs = {
                Unit.AU: UnitConfig(window=32, width=4, name="AU"),
                Unit.DU: UnitConfig(window=32, width=5, name="DU"),
            }
        else:
            configs = {Unit.SINGLE: UnitConfig(window=32, width=9)}
        for label, spec in HIERARCHY_MEMORY_VARIANTS:
            case = f"{program_name} x {machine_name} x {label}"
            shipped = _shipped(compiled, configs, spec.build(md))
            low = compiled.lowered()
            events = _simulate_events(
                low, compiled, configs, spec.build(md),
                DEFAULT_LATENCIES, collect_issue_times=True,
                collector=TelemetryCollector(),
            )
            chunked = _simulate_fast(
                low, compiled, configs, spec.build(md), low.base_addlat,
                DEFAULT_LATENCIES, True, steady_ok=False, chunked=True,
                collector=TelemetryCollector(),
            )[0]
            naive = simulate_naive(compiled, configs, spec.build(md))
            fields = diff_fields(naive, chunked)
            if fields:
                failures.append(
                    f"{case}: chunked vs naive differ on {', '.join(fields)}"
                )
            for engine_name, candidate in (
                ("events", events), ("naive", naive)
            ):
                fields = diff_fields(shipped, candidate)
                if fields:
                    failures.append(
                        f"{case}: shipped vs {engine_name} differ on "
                        f"{', '.join(fields)}"
                    )
            # Batch column: a two-lane batch at two differentials,
            # each lane held to the matching scalar reference (lane 1
            # gets its own shipped run at the shifted differential).
            alt = md + 17
            batch = simulate_batch(
                compiled,
                [
                    BatchLane(unit_configs=configs, memory=spec.build(md)),
                    BatchLane(unit_configs=configs, memory=spec.build(alt)),
                ],
                collect_issue_times=True,
            )
            shipped_alt = _shipped(compiled, configs, spec.build(alt))
            for lane_index, reference in ((0, shipped), (1, shipped_alt)):
                fields = diff_fields(reference, batch[lane_index])
                if fields:
                    failures.append(
                        f"{case}: batch lane {lane_index} differs from "
                        f"its scalar reference on {', '.join(fields)}"
                    )
            # Probe column: the probe route against the oracle, both
            # with the buffer probe (and the ESW probe on the DM).
            probe_esw = machine_name == "dm"
            probed = simulate(
                compiled, configs, spec.build(md), probe_buffers=True,
                probe_esw=probe_esw, collect_issue_times=True,
            )
            naive_probed = simulate_naive(
                compiled, configs, spec.build(md), probe_buffers=True,
                probe_esw=probe_esw,
            )
            fields = diff_fields(naive_probed, probed)
            if fields:
                failures.append(
                    f"{case}: probed shipped vs naive differ on "
                    f"{', '.join(fields)}"
                )
            # Warm column: the shipped route without issue times, twice
            # on this compiled program (the memo's reuse path).
            for attempt in (1, 2):
                warm = simulate(compiled, configs, spec.build(md))
                reused += warm.telemetry.reused_passes
                fields = diff_warm(shipped, warm)
                if fields:
                    failures.append(
                        f"{case}: warm run {attempt} vs shipped differ on "
                        f"{', '.join(fields)}"
                    )
            if verbose and not failures:
                print(f"  ok {case}: {shipped.cycles} cycles")
    return failures, reused


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2,
                        help="generated seeds per family (default 2)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed value (default 0)")
    parser.add_argument("--md", type=int, default=60,
                        help="memory differential (default 60)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every passing case")
    args = parser.parse_args(argv)

    preset = active_preset()
    corpus = ["flo52q", "mdg"]
    corpus.extend(
        f"gen:{family}:{args.seed_base + i}"
        for family in FAMILIES
        for i in range(args.seeds)
    )

    failures: list[str] = []
    reused = 0
    for name in corpus:
        case_failures, case_reused = run_case(
            name, preset.scale, args.md, args.verbose
        )
        failures.extend(case_failures)
        reused += case_reused
    if not reused:
        failures.append("warm column: no run reused a memoised pass")

    cases = len(corpus) * len(MACHINES) * len(HIERARCHY_MEMORY_VARIANTS)
    if failures:
        print(f"engine fuzz: FAIL — {len(failures)}/{cases} cases diverge")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"engine fuzz: OK — {cases} cases (x7 columns) agree on every "
        f"field (scale={preset.name}, md={args.md}; warm runs reused "
        f"{reused} passes)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
