"""A deliberately naive cycle-by-cycle simulator: the test oracle.

This implements the docs/timing.md semantics as directly as
possible — scanning every window every cycle, no heaps, no event
skipping, no lowered arrays, one scalar
:meth:`~repro.memory.MemorySystem.extra_latency` call per access — so
the test-suite can check that every optimised strategy of
:func:`repro.machines.engine.simulate` produces the *identical*
result: cycles, per-unit statistics, issue times and both probes. It
is orders of magnitude slower and must only be used on small programs.
"""

from __future__ import annotations

from ..config import DEFAULT_LATENCIES, LatencyModel, UnitConfig
from ..errors import SimulationError
from ..memory import FixedLatencyMemory, MemorySystem, occupancy_from_intervals
from ..partition.machine_program import MachineProgram, MemKind, Unit
from .engine import SimulationResult, UnitStats

__all__ = ["simulate_naive"]

_DEFAULT_CYCLE_BOUND = 2_000_000

_MEMORY_KINDS = (MemKind.LOAD_ISSUE, MemKind.SELF_LOAD, MemKind.PREFETCH_LOAD)
# Memory operations whose datum waits in a buffer until consumed.
_DELIVERING_KINDS = (MemKind.LOAD_ISSUE, MemKind.PREFETCH_LOAD)
# Kinds whose issue consumes a buffered datum delivered by srcs[0].
_CONSUMER_KINDS = (MemKind.RECEIVE, MemKind.ACCESS_LOAD)


def simulate_naive(
    program: MachineProgram,
    unit_configs: dict[Unit, UnitConfig],
    memory: MemorySystem | None = None,
    latencies: LatencyModel = DEFAULT_LATENCIES,
    probe_buffers: bool = False,
    probe_esw: bool = False,
    cycle_bound: int = _DEFAULT_CYCLE_BOUND,
) -> SimulationResult:
    """Run cycle by cycle; returns the full result, issue times included.

    ``probe_buffers`` and ``probe_esw`` mean what they mean for
    :func:`repro.machines.engine.simulate`; the ESW probe is sampled
    once per cycle.
    """
    if memory is None:
        memory = FixedLatencyMemory(0)
    memory.reset()

    instructions = program.by_gid
    avail: dict[int, int] = {}
    issue_at: dict[int, int] = {}
    dispatch_at: dict[int, int] = {}
    windows: dict[Unit, list[int]] = {unit: [] for unit in program.units}
    pointers: dict[Unit, int] = {unit: 0 for unit in program.units}
    issued = {unit: 0 for unit in program.units}
    issue_cycles = {unit: 0 for unit in program.units}
    last_issue = {unit: 0 for unit in program.units}

    # Buffer residency probe: arrival time of each delivered datum, and
    # (arrival, consume) intervals closed when its consumer issues.
    arrivals: dict[int, int] = {}
    intervals: list[tuple[int, int]] = []
    if probe_buffers:
        for inst in instructions.values():
            if inst.mem_kind in _CONSUMER_KINDS and not inst.srcs:
                raise SimulationError(
                    f"{inst.mem_kind.value} gid={inst.gid} has no "
                    "paired memory operation"
                )

    esw_enabled = (
        probe_esw and Unit.AU in program.units and Unit.DU in program.units
    )
    oldest_du = 0  # stream position of the oldest unissued DU instruction
    esw_peak = 0
    esw_total = 0
    esw_cycles = 0

    def finished() -> bool:
        return all(
            not windows[unit] and pointers[unit] >= len(program.stream(unit))
            for unit in program.units
        )

    time = 0
    while not finished():
        if time > cycle_bound:
            raise SimulationError(
                f"naive simulation exceeded {cycle_bound} cycles"
            )
        for unit in program.units:
            config = unit_configs[unit]
            window = windows[unit]
            # Issue phase: oldest-first among ready instructions that
            # were dispatched in an *earlier* cycle with all operands
            # available by now.
            ready = [
                gid
                for gid in window
                if dispatch_at[gid] < time
                and all(avail.get(dep, None) is not None and avail[dep] <= time
                        for dep in instructions[gid].srcs)
            ]
            ready.sort()
            del ready[config.width:]
            for gid in ready:
                inst = instructions[gid]
                issue_at[gid] = time
                if inst.mem_kind in _MEMORY_KINDS:
                    addr = inst.addr if inst.addr is not None else 0
                    avail[gid] = (
                        time + latencies.mem_base + memory.extra_latency(addr, time)
                    )
                    if probe_buffers and inst.mem_kind in _DELIVERING_KINDS:
                        arrivals[gid] = avail[gid]
                elif inst.mem_kind is MemKind.PREFETCH_STORE:
                    avail[gid] = time + 1
                else:
                    avail[gid] = time + inst.latency
                if probe_buffers and inst.mem_kind in _CONSUMER_KINDS:
                    arrival = arrivals.pop(inst.srcs[0], None)
                    if arrival is not None:
                        intervals.append((arrival, time))
                window.remove(gid)
            if ready:
                issued[unit] += len(ready)
                issue_cycles[unit] += 1
                last_issue[unit] = time
            # Dispatch phase: in order, up to width, into free slots.
            stream = program.stream(unit)
            dispatched = 0
            while (
                dispatched < config.width
                and len(window) < config.window
                and pointers[unit] < len(stream)
            ):
                inst = stream[pointers[unit]]
                window.append(inst.gid)
                dispatch_at[inst.gid] = time
                pointers[unit] += 1
                dispatched += 1
        if esw_enabled:
            # Effective single window (paper section 3): from the oldest
            # unissued DU instruction to the youngest dispatched AU one,
            # in architectural instructions.
            du_stream = program.stream(Unit.DU)
            while (
                oldest_du < len(du_stream)
                and du_stream[oldest_du].gid in issue_at
            ):
                oldest_du += 1
            au_dispatched = pointers[Unit.AU]
            if oldest_du < len(du_stream) and au_dispatched:
                youngest = program.stream(Unit.AU)[au_dispatched - 1].orig_index
                oldest = du_stream[oldest_du].orig_index
                if youngest >= oldest:
                    sample = youngest - oldest + 1
                    esw_total += sample
                    esw_cycles += 1
                    esw_peak = max(esw_peak, sample)
        time += 1

    cycles = max(avail.values()) if avail else 0
    return SimulationResult(
        name=program.name,
        cycles=cycles,
        instructions=program.num_instructions,
        unit_stats={
            unit: UnitStats(
                unit=unit,
                instructions=issued[unit],
                last_issue=last_issue[unit],
                issue_cycles=issue_cycles[unit],
            )
            for unit in program.units
        },
        buffer_occupancy=(
            occupancy_from_intervals(intervals) if probe_buffers else None
        ),
        esw_peak=esw_peak,
        esw_mean=esw_total / esw_cycles if esw_cycles else 0.0,
        issue_times=issue_at,
        meta={"memory": memory.describe(), **program.meta},
    )
