"""Differential fuzzer: the scheduling engines against the naive oracle.

Crosses a corpus of generated kernels (``gen:<family>:<seed>`` names)
plus two paper kernels with both machines (DM, SWSM) and every memory
model kind in the hierarchy scenario space, then runs each case
through eight columns — shipped ``simulate`` routing (``shipped``), the
event-heap scheduler driven directly (``events``), the cycle loop's
stateful issue branch forced with probes off (``chunked``: the
chunked route, which the router takes only when a stateful model
declines both speculation and the event heap), the cycle loop's
table branch driven directly with the steady skip armed (``loop``:
``_cycle_loop``, uniform models only, held to the oracle — shipped
routing schedules runs whose windows never bind in the dataflow pass
instead, so the loop needs a column of its own), the naive
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
strategy and counters included.

Those cases use window 32. An unlimited-window case set adds, per
program and machine, the paper's unlimited window (as large as the
compiled program) on the fixed model at md 0 and at ``--md``, through
``shipped``, ``loop`` and ``naive``: shipped must match the oracle and
take exactly the loop's steady skips. Any divergence is a bug in one
of the engines; the tool prints the first mismatching field per case
and exits non-zero. The oracle steps every cycle, so keep the scale
small.

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
    _cycle_loop,
    _simulate_events,
    _simulate_fast,
)
from repro.memory import FixedLatencyMemory  # noqa: E402
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


def unit_configs(machine_name: str, window: int):
    if machine_name == "dm":
        return {
            Unit.AU: UnitConfig(window=window, width=4, name="AU"),
            Unit.DU: UnitConfig(window=window, width=5, name="DU"),
        }
    return {Unit.SINGLE: UnitConfig(window=window, width=9)}


def _loop(compiled, configs, memory):
    """The cycle loop's table branch, skip armed, on a uniform model:
    its result and the steady skips it took."""
    low = compiled.lowered()
    table = low.addlat_for(
        DEFAULT_LATENCIES.mem_base + memory.uniform_extra_latency()
    )
    collector = TelemetryCollector()
    result = _cycle_loop(
        low, compiled, configs, memory, table, DEFAULT_LATENCIES, True,
        steady_ok=True, chunked=False, collector=collector,
    )[0]
    return result, collector.counters["steady_skips"]


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
        configs = unit_configs(machine_name, 32)
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
            memory = spec.build(md)
            if memory.uniform_extra_latency() is not None:
                fields = diff_fields(naive, _loop(compiled, configs, memory)[0])
                if fields:
                    failures.append(
                        f"{case}: loop vs naive differ on {', '.join(fields)}"
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


def run_unlimited_case(program_name: str, scale: int, md: int,
                       verbose: bool) -> list[str]:
    """The unlimited window on the fixed model, both machines, md 0 and
    ``md``: shipped and loop against the oracle, and equal skips."""
    failures = []
    program = build_kernel(program_name, scale)
    for machine_name, compile_fn in MACHINES:
        compiled = compile_fn(program)
        configs = unit_configs(machine_name, compiled.num_instructions)
        for case_md in sorted({0, md}):
            case = f"{program_name} x {machine_name} x unlimited md={case_md}"
            memory = FixedLatencyMemory(case_md)
            shipped = _shipped(compiled, configs, memory)
            loop, loop_skips = _loop(compiled, configs, memory)
            naive = simulate_naive(compiled, configs, memory)
            for engine_name, candidate in (
                ("shipped", shipped), ("loop", loop)
            ):
                fields = diff_fields(naive, candidate)
                if fields:
                    failures.append(
                        f"{case}: {engine_name} vs naive differ on "
                        f"{', '.join(fields)}"
                    )
            skips = shipped.telemetry.counters["steady_skips"]
            if skips != loop_skips:
                failures.append(
                    f"{case}: shipped took {skips} steady skips, "
                    f"the loop {loop_skips}"
                )
            if verbose and not failures:
                print(f"  ok {case}: {shipped.cycles} cycles")
    return failures


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
        failures.extend(
            run_unlimited_case(name, preset.scale, args.md, args.verbose)
        )
    if not reused:
        failures.append("warm column: no run reused a memoised pass")

    cases = len(corpus) * len(MACHINES) * len(HIERARCHY_MEMORY_VARIANTS)
    unlimited = len(corpus) * len(MACHINES) * len({0, args.md})
    if failures:
        print(
            f"engine fuzz: FAIL — {len(failures)} failures over {cases} "
            f"cases and {unlimited} unlimited-window cases"
        )
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"engine fuzz: OK — {cases} cases (x8 columns) and {unlimited} "
        f"unlimited-window cases agree on every field "
        f"(scale={preset.name}, md={args.md}; warm runs reused "
        f"{reused} passes)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
