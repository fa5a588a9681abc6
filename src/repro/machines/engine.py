"""Event-driven out-of-order scheduling engine (struct-of-arrays core).

Simulates one or more out-of-order units executing unit-tagged
instruction streams under the timing semantics specified in
docs/timing.md: in-order dispatch into per-unit windows, oldest-first
out-of-order issue up to ``width`` per cycle, full bypassing, and
memory accesses that deliver ``mem_base + extra`` cycles after issue,
where ``extra`` comes from the pluggable
:class:`~repro.memory.MemorySystem`.

The engine never walks per-instruction objects: it schedules over the
flat parallel arrays of :mod:`repro.machines.lowered`, which a compiled
:class:`~repro.partition.machine_program.MachineProgram` is a view
over (:meth:`~repro.partition.machine_program.MachineProgram.lowered`), and
the dispatch/issue loop runs over integer arrays and integer-encoded
ready queues. The memory system is queried exclusively through the
batched :meth:`~repro.memory.MemorySystem.latencies` protocol — there
is no per-access scalar call anywhere in the engine — and the model
and the requested probes pick the strategy:

* **uniform** models (the paper's fixed differential, declared through
  :meth:`~repro.memory.MemorySystem.uniform_extra_latency`) fold the
  whole availability rule into one precomputed per-gid latency table;
  on structurally periodic programs (every loop-nest trace) the fast
  loop then also detects a repeating scheduler state and skips whole
  iterations at once (docs/timing.md, "Periodic steady state");
* every other model (caches, bypass buffers, banked memories,
  prefetchers, or any address-dependent rule) first gets the
  *speculative schedule fixed point* (:func:`_simulate_speculative`):
  guess a per-gid table, run at full table speed (steady-state skip
  included), replay the model over the resulting access stream, and
  verify the guess — exact whenever it converges. Models that decline
  (or fail to converge) run either in the same fast loop with one
  chunked, issue-ordered query per unit per cycle, or — when the model
  reports ``time_sensitive`` behaviour (bank queuing, in-flight
  prefetch arrivals) — in the **event-heap scheduler**
  (:func:`_simulate_events`): one global min-heap of
  ``(time, seq, event)`` entries for dispatches, completions and
  memory arrivals, advancing the clock straight to the next event with
  deterministic FIFO tie-breaking at equal timestamps (docs/timing.md,
  "Event scheduling");
* runs that ask for the buffer or ESW probes (or carry zero-latency
  operations) take the **probe route**: the chunked route's issue
  branch for every model, with the residency intervals, the ESW
  samples and the zero-latency wakeup floor switched on.

:func:`_cycle_loop` (the fast loop) and :func:`_simulate_events` are
the only two per-run cycle loops. A latency-table run (uniform route,
speculative passes) first tries :func:`_dataflow_pass`, which
schedules a run whose windows never bind — the paper's unlimited
window — in one pass in gid order without a cycle loop, and declines
whenever a window binds or the loop could take a steady skip
(docs/timing.md, "Non-binding windows"); :func:`_simulate_fast` picks
between the two. The choice depends only on the inputs — memory
model, probes, latencies, windows — and whichever route runs, the
schedule is bit-exact. Each result's
:class:`~repro.obs.telemetry.RunTelemetry` records the strategy taken
and the run's accelerator counters.
:func:`simulate` reads and writes no process state; its only state
is one transient per-program memo, never pickled: each lowered
program keeps its last uniform-table pass (:func:`_table_pass`),
which the uniform route and the speculative fixed point's first guess
share, and a repeat is rebuilt from it. Both loops are
event-driven — idle cycles are skipped — and cycle-exact: whole
results (cycles, unit statistics, issue times, probes) are identical
to the naive cycle-by-cycle oracle (:mod:`repro.machines.reference`),
a property the test-suite checks kernel by kernel and model by model.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from operator import add
from time import perf_counter

from ..config import DEFAULT_LATENCIES, LatencyModel, UnitConfig
from ..errors import SimulationDeadlockError, SimulationError
from ..memory import (
    FixedLatencyMemory,
    MemorySystem,
    OccupancyStats,
    occupancy_from_intervals,
)
from ..obs.telemetry import RunTelemetry, TelemetryCollector
from ..partition.machine_program import MachineProgram, Unit
from .lowered import LoweredProgram, SteadyState

__all__ = ["UnitStats", "SimulationResult", "simulate"]

_INFINITY = float("inf")

#: Skip-layer tuning: programs below this size never amortise the
#: steady-state search, and at most this many checkpoints are
#: snapshotted before the engine stops looking.
_SKIP_MIN_TOTAL = 2048
_MAX_CHECKPOINTS = 64


#: Event-heap keys pack ``(time << _TIME_SHIFT) | seq`` into one int so
#: heap comparisons are single integer compares. 40 bits of ``seq``
#: (one per pushed event, ~10^12) far exceeds any reachable run.
_TIME_SHIFT = 40
_SEQ_MASK = (1 << _TIME_SHIFT) - 1


def _chosen(
    collector: TelemetryCollector, strategy: str, result: SimulationResult
) -> SimulationResult:
    collector.choose(strategy)
    return result


@dataclass(frozen=True)
class UnitStats:
    """Per-unit outcome of a simulation."""

    unit: Unit
    instructions: int
    last_issue: int
    issue_cycles: int  # cycles in which the unit issued at least once

    @property
    def mean_issue_rate(self) -> float:
        """Instructions per *busy* cycle (not per elapsed cycle)."""
        return self.instructions / self.issue_cycles if self.issue_cycles else 0.0


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one machine program."""

    name: str
    cycles: int
    instructions: int
    unit_stats: dict[Unit, UnitStats]
    buffer_occupancy: OccupancyStats | None = None
    esw_peak: int = 0
    esw_mean: float = 0.0
    issue_times: dict[int, int] | None = None
    meta: dict[str, object] = field(default_factory=dict)
    #: Per-run observability record. Excluded from equality (two equal
    #: schedules stay equal across cache tiers and wall clocks) and
    #: from every cache key; ``None`` on results unpickled from
    #: pre-telemetry caches, which the class-level default absorbs.
    telemetry: RunTelemetry | None = field(default=None, compare=False)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def simulate(
    program: MachineProgram,
    unit_configs: dict[Unit, UnitConfig],
    memory: MemorySystem | None = None,
    latencies: LatencyModel = DEFAULT_LATENCIES,
    probe_buffers: bool = False,
    probe_esw: bool = False,
    collect_issue_times: bool = False,
) -> SimulationResult:
    """Run a machine program to completion and return timing results.

    Args:
        program: lowered machine program (one stream per unit).
        unit_configs: window/width per unit; must cover every stream.
        memory: memory-system model; defaults to a zero-differential
            fixed model.
        latencies: operation latencies (only ``mem_base`` is read here;
            per-instruction latencies were baked in during lowering).
        probe_buffers: record decoupled-memory / prefetch-buffer
            residency intervals and report occupancy statistics.
        probe_esw: track the effective single window (only meaningful
            for two-unit programs with AU and DU streams).
        collect_issue_times: return the issue time of every gid (for
            tests and debugging; costs memory).
    """
    if memory is None:
        memory = FixedLatencyMemory(0)
    memory.reset()

    for unit in program.units:
        if unit not in unit_configs:
            raise SimulationError(f"no unit configuration for {unit.value}")

    collector = TelemetryCollector()
    started = perf_counter()
    result = _route(
        program, unit_configs, memory, latencies, probe_buffers,
        probe_esw, collect_issue_times, collector,
    )
    telemetry = RunTelemetry(
        strategy=collector.strategy,
        counters=collector.snapshot(),
        memory_stats=dict(memory.stats()),
        wall_seconds=perf_counter() - started,
        sim_cycles=result.cycles,
        reused_passes=collector.reused_passes,
    )
    return replace(result, telemetry=telemetry)


def _route(
    program: MachineProgram,
    unit_configs: dict[Unit, UnitConfig],
    memory: MemorySystem,
    latencies: LatencyModel,
    probe_buffers: bool,
    probe_esw: bool,
    collect_issue_times: bool,
    collector: TelemetryCollector,
) -> SimulationResult:
    """Pick a strategy and run it; records the choice on ``collector``."""
    low = program.lowered()
    if probe_buffers or probe_esw or low.min_latency < 1:
        # Probes (or zero-latency operations): the fast loop's stateful
        # branch, one chunked issue-order query per unit per cycle.
        return _chosen(collector, "probing", _simulate_fast(
            low, program, unit_configs, memory, low.base_addlat, latencies,
            collect_issue_times, steady_ok=False, chunked=True,
            collector=collector, probes=(probe_buffers, probe_esw),
        )[0])
    uniform = memory.uniform_extra_latency()
    if uniform is None and not low.memory_gids:
        uniform = 0  # no accesses: any model degenerates to uniform
    if uniform is not None:
        # One constant: precomputed table, steady-state skip armed.
        mem_latency = latencies.mem_base + uniform
        if collect_issue_times:
            result = _simulate_fast(
                low, program, unit_configs, memory,
                low.addlat_for(mem_latency), latencies,
                collect_issue_times=True, steady_ok=True, chunked=False,
                collector=collector,
            )[0]
        else:
            result = _table_pass(
                low, program, unit_configs, memory, mem_latency, latencies,
                collector,
            )[0]
        return _chosen(collector, "uniform-table", result)
    if (
        memory.speculation_friendly()
        and low.total >= _SKIP_MIN_TOTAL
        and low.single_memory_unit()
        and low.steady() is not None
    ):
        result = _simulate_speculative(
            low, program, unit_configs, memory, latencies,
            collect_issue_times, collector,
        )
        if result is not None:
            return _chosen(collector, "speculative", result)
    if memory.time_sensitive():
        # Time-sensitive stateful models (bank queuing, in-flight
        # prefetch arrivals) burn idle cycles between long-latency
        # arrivals in the cycle loop; the event heap jumps the clock
        # straight to the next arrival instead. Every event it pushes
        # is strictly in the future: ``min_latency >= 1`` here, and
        # :class:`LatencyModel` keeps ``mem_base >= 1``.
        return _chosen(collector, "events-chunked", _simulate_events(
            low, program, unit_configs, memory, latencies,
            collect_issue_times, collector=collector,
        ))
    # Stateful-ordered: the probe route's issue branch with probes off,
    # one chunked issue-order query per unit per cycle.
    return _chosen(collector, "chunked", _simulate_fast(
        low, program, unit_configs, memory, low.base_addlat, latencies,
        collect_issue_times, steady_ok=False, chunked=True,
        collector=collector,
    )[0])


#: Fast-loop runs a speculative fixed point may spend before giving up
#: and handing the program to the chunked live path.
_SPEC_MAX_RUNS = 3


def _simulate_speculative(
    low: LoweredProgram,
    program: MachineProgram,
    unit_configs: dict[Unit, UnitConfig],
    memory: MemorySystem,
    latencies: LatencyModel,
    collect_issue_times: bool,
    collector: TelemetryCollector,
) -> SimulationResult | None:
    """Schedule fixed point: decouple the stateful model from the loop.

    A stateful model only feeds the schedule through its extras, and
    its extras only depend on the issue-ordered access stream — so the
    engine *guesses* a per-gid extras table, simulates at full
    table-driven speed (the steady-state skip re-arms whenever the
    table proves periodic), replays the model over the resulting
    access stream in batched chunks, and verifies: if a run's access
    schedule reproduces the one its table was derived from, the
    guessed extras are exactly what a live in-loop model would have
    produced, and the schedule is exact. On the paper's loop-nest
    kernels locality models stabilise within one refinement, turning a
    stateful simulation into two skip-accelerated runs plus one model
    replay. No convergence within :data:`_SPEC_MAX_RUNS` returns None
    (the caller falls back to the chunked live path); models whose
    extras feed back into timing too strongly (bank queuing) opt out
    up front via :meth:`MemorySystem.speculation_friendly`.
    """
    total = low.total
    mem_base = latencies.mem_base
    memory_gids = low.memory_gids
    prev_access: list[int] | None = None
    # Seed with the model's dominant answer so the first access
    # schedule lands near the real one (one refinement to converge).
    # That guess is a uniform table, so the first run is the uniform
    # route's pass at that latency and shares its memo.
    seed = mem_base + memory.typical_extra_latency()
    table = low.addlat_for(seed)
    for run in range(_SPEC_MAX_RUNS):
        if run or collect_issue_times:
            result, issue = _simulate_fast(
                low, program, unit_configs, memory, table, latencies,
                collect_issue_times, steady_ok=True, chunked=False,
                collector=collector,
            )
            mem_issue = map(issue.__getitem__, memory_gids)
        else:
            result, mem_issue = _table_pass(
                low, program, unit_configs, memory, seed, latencies,
                collector,
            )
        # The access stream, encoded issue-order first (cycle, gid).
        access = [
            cycle * total + gid for cycle, gid in zip(mem_issue, memory_gids)
        ]
        access.sort()
        if access == prev_access:
            # Same schedule as the run the table was replayed from:
            # the table is self-consistent, the run is exact, and the
            # model has already consumed exactly this access stream.
            return result
        memory.reset()
        extras = _replay(low, memory, access)
        refined = list(low.base_addlat)
        for encoded, extra in zip(access, extras):
            refined[encoded % total] = mem_base + extra
        if refined == table:
            return result  # the guess was already a fixed point
        table = refined
        prev_access = access
    memory.reset()
    return None


def _replay(
    low: LoweredProgram, memory: MemorySystem, access: list[int]
) -> list[int]:
    """Feed an encoded access stream to a model, chunked as live issue.

    ``access`` holds ``cycle * total + gid`` keys in issue order. Time
    -insensitive models take the whole stream in one batched call;
    time-sensitive ones get one chunk per cycle, with the cycle as
    ``now`` — the same call pattern the chunked live path produces.
    """
    total = low.total
    addr = low.addr
    if not memory.time_sensitive():
        return memory.latencies(
            [addr[encoded % total] for encoded in access], 0
        )
    extras: list[int] = []
    length = len(access)
    i = 0
    while i < length:
        cycle = access[i] // total
        j = i
        while j < length and access[j] // total == cycle:
            j += 1
        extras.extend(memory.latencies(
            [addr[access[k] % total] for k in range(i, j)], cycle
        ))
        i = j
    return extras


@dataclass(frozen=True)
class _PassMemo:
    """One table-driven pass, kept on its program for an exact rerun.

    ``key`` is per-unit ``(window, width)`` in ``low.units`` order plus
    the table's ``mem_latency``: everything a uniform-table pass reads
    besides the program. ``unit_rows`` holds each unit's
    ``(instructions, last_issue, issue_cycles)``, ``mem_issue`` the
    issue cycle of each ``low.memory_gids`` entry, and ``skips`` /
    ``skipped`` the pass's steady-skip counter increments.
    """

    key: tuple
    cycles: int
    unit_rows: tuple[tuple[int, int, int], ...]
    mem_issue: array
    skips: int
    skipped: int


def _table_pass(
    low: LoweredProgram,
    program: MachineProgram,
    unit_configs: dict[Unit, UnitConfig],
    memory: MemorySystem,
    mem_latency: int,
    latencies: LatencyModel,
    collector: TelemetryCollector,
) -> tuple[SimulationResult, array]:
    """The uniform-table pass at ``mem_latency``, run once per program.

    Returns the result and the issue cycles of ``low.memory_gids``
    (aligned with it). A table-driven pass never queries the memory
    model, so its schedule depends only on the program, the unit
    configurations and the table; the uniform route and the
    speculative fixed point's first guess run exactly this pass. The
    program keeps the last one (``LoweredProgram._pass_memo``, never
    pickled), and a repeat is rebuilt from it: the counters the pass
    bumped are bumped again, and name and ``meta`` come from the
    current program and memory. Passes that collect issue times,
    probe, run chunked or use a refined table never come here.
    """
    units = low.units
    key = (
        tuple((unit_configs[u].window, unit_configs[u].width) for u in units),
        mem_latency,
    )
    counters = collector.counters
    memo = low._pass_memo
    if memo is not None and memo.key == key:
        counters["steady_skips"] += memo.skips
        counters["skipped_instructions"] += memo.skipped
        collector.reused_passes += 1
        unit_stats = {
            unit: UnitStats(unit, *row)
            for unit, row in zip(units, memo.unit_rows)
        }
        return _result(
            low, program, memory, memo.cycles, unit_stats, None, 0, 0.0,
            None,
        ), memo.mem_issue
    skips = counters["steady_skips"]
    skipped = counters["skipped_instructions"]
    result, issue = _simulate_fast(
        low, program, unit_configs, memory, low.addlat_for(mem_latency),
        latencies, False, steady_ok=True, chunked=False,
        collector=collector,
    )
    mem_issue = array("q", map(issue.__getitem__, low.memory_gids))
    low._pass_memo = _PassMemo(
        key=key,
        cycles=result.cycles,
        unit_rows=tuple(
            (stats.instructions, stats.last_issue, stats.issue_cycles)
            for stats in result.unit_stats.values()
        ),
        mem_issue=mem_issue,
        skips=counters["steady_skips"] - skips,
        skipped=counters["skipped_instructions"] - skipped,
    )
    return result, mem_issue


def _result(
    low: LoweredProgram,
    program: MachineProgram,
    memory: MemorySystem,
    cycles: int,
    unit_stats: dict[Unit, UnitStats],
    occupancy: OccupancyStats | None,
    esw_peak: int,
    esw_mean: float,
    issue_times: dict[int, int] | None,
) -> SimulationResult:
    return SimulationResult(
        name=program.name,
        cycles=cycles,
        instructions=low.total,
        unit_stats=unit_stats,
        buffer_occupancy=occupancy,
        esw_peak=esw_peak,
        esw_mean=esw_mean,
        issue_times=issue_times,
        meta={"memory": memory.describe(), **program.meta},
    )


def _simulate_fast(
    low: LoweredProgram,
    program: MachineProgram,
    unit_configs: dict[Unit, UnitConfig],
    memory: MemorySystem,
    addlat: list[int],
    latencies: LatencyModel,
    collect_issue_times: bool,
    steady_ok: bool,
    chunked: bool,
    collector: TelemetryCollector,
    probes: tuple[bool, bool] = (False, False),
) -> tuple[SimulationResult, list[int]]:
    """One table-driven or chunked run: the dataflow pass, else the loop.

    The table branch (``chunked`` off) first tries
    :func:`_dataflow_pass`, which schedules a run whose windows never
    bind without a cycle loop and declines everything else; the
    stateful branch and every declined pass run :func:`_cycle_loop`.
    Arguments and the returned ``(result, issue_time_list)`` are the
    loop's.
    """
    if not chunked:
        done = _dataflow_pass(
            low, program, unit_configs, memory, addlat,
            collect_issue_times, steady_ok,
        )
        if done is not None:
            return done
    return _cycle_loop(
        low, program, unit_configs, memory, addlat, latencies,
        collect_issue_times, steady_ok, chunked, collector, probes,
    )


def _dataflow_pass(
    low: LoweredProgram,
    program: MachineProgram,
    unit_configs: dict[Unit, UnitConfig],
    memory: MemorySystem,
    addlat: list[int],
    collect_issue_times: bool,
    steady_ok: bool,
) -> tuple[SimulationResult, list[int]] | None:
    """The table branch's schedule in one gid-order pass, or None.

    While no unit's window binds, stream position ``p`` of a unit of
    width ``w`` dispatches at cycle ``p // w``, and oldest-first issue
    puts each gid at the first cycle at or after
    ``max(p // w + 1, latest operand)`` where fewer than ``w`` older
    gids of its unit issue. Those depend only on older gids, so one
    pass in gid order places every instruction, with a per-unit
    per-cycle slot count and a "full" mask searched by
    ``bytearray.find``. Once a unit's counts are final through its
    dispatch cycle ``d`` (every later position issues after ``d``), the
    pass checks ``dispatched - issued <= window`` there, and returns
    None at the first cycle where the window would have held dispatch
    back (docs/timing.md, "Non-binding windows").

    The result equals :func:`_cycle_loop`'s, the steady-skip counters
    included: with ``steady_ok``, the loop's checkpoint sequence is
    replayed from the counts, and the pass returns None if the loop
    could skip (:func:`_skip_possible`). It also returns None unless
    every latency is at least one cycle, dependencies point at older
    gids, each stream is ascending in gid and every width fits a byte.
    """
    total = low.total
    units = low.units
    nu = len(units)
    streams = low.stream_gids
    widths = [unit_configs[u].width for u in units]
    windows = [unit_configs[u].window for u in units]
    if (
        low.min_latency < 1
        or low.min_dep_offset < 1
        or max(widths, default=1) > 255
        or any(list(stream) != sorted(stream) for stream in streams)
    ):
        return None
    lens = [len(stream) for stream in streams]
    size = max((n // w for n, w in zip(lens, widths)), default=0) + 2
    counts = [bytearray(size) for _ in range(nu)]
    slots = [(bytearray(size), count, w) for count, w in zip(counts, widths)]
    ptrs = [0] * nu
    watch = [
        [u, n, w, window, -1, 0]
        for u, (n, w, window) in enumerate(zip(lens, widths, windows))
        if n > window
    ]
    next_check = 0 if watch else total
    opmax = [0] * total
    issue_time = [0] * total
    for g, u, lat, users in zip(range(total), low._unit, addlat, low.cons):
        if g == next_check:
            if not _windows_hold(watch, ptrs, counts):
                return None
            next_check = g + _CHECK_EVERY if watch else total
        full, count, w = slots[u]
        p = ptrs[u]
        ptrs[u] = p + 1
        c = p // w + 1
        if opmax[g] > c:
            c = opmax[g]
        try:
            taken = full[c]
        except IndexError:
            taken = 1
        if taken:
            ready = c
            c = full.find(0, ready)
            if c < 0:
                # Every slot from the ready cycle on is taken, or it
                # lies past the arrays: grow them (doubling).
                c = max(ready, len(full))
                grow = bytes(max(c + 1, 2 * len(full)) - len(full))
                full.extend(grow)
                count.extend(grow)
        n = count[c] + 1
        count[c] = n
        if n == w:
            full[c] = 1
        issue_time[g] = c
        avail = c + lat
        for x in users:
            if opmax[x] < avail:
                opmax[x] = avail
    if watch and not _windows_hold(watch, ptrs, counts):
        return None
    if steady_ok:
        steady = _steady_for(low, addlat)
        if steady is not None and _skip_possible(
            steady, streams, widths, counts
        ):
            return None

    unit_stats = {}
    for u in range(nu):
        used = counts[u].rstrip(b"\0")
        unit_stats[units[u]] = UnitStats(
            unit=units[u],
            instructions=lens[u],
            last_issue=max(len(used) - 1, 0),
            issue_cycles=len(used) - used.count(0),
        )
    result = _result(
        low, program, memory, max(map(add, issue_time, addlat), default=0),
        unit_stats, None, 0, 0.0,
        dict(enumerate(issue_time)) if collect_issue_times else None,
    )
    return result, issue_time


#: Gids the dataflow pass places between two window checks: an attempt
#: on a binding window aborts within about this much work.
_CHECK_EVERY = 256


def _windows_hold(
    watch: list[list[int]], ptrs: list[int], counts: list[bytearray]
) -> bool:
    """The dataflow pass's running ``dispatched - issued <= window`` test.

    ``watch`` holds ``[unit, length, width, window, checked cycle,
    issued through it]`` for each unit whose window could still bind,
    and ``ptrs`` each unit's count of placed stream positions. The
    unplaced positions dispatch no earlier than cycle ``ptrs[u] // w``
    and so issue after it, which makes the unit's counts final through
    that cycle. Each newly final dispatch cycle is checked; False at
    the first where dispatch would have been held back. A unit leaves
    ``watch`` once its window holds the rest of its stream
    (``length - issued <= window``): from then on nothing can bind.
    """
    for state in watch:
        u, n, w, window, checked, issued = state
        count = counts[u]
        last = min(ptrs[u], n - 1) // w
        for d in range(checked + 1, last + 1):
            issued += count[d]
            dispatched = (d + 1) * w
            if dispatched > n:
                dispatched = n
            if dispatched - issued > window:
                return False
            if n - issued <= window:
                last = n
                break
        state[4] = last
        state[5] = issued
    watch[:] = [state for state in watch if state[4] < state[1]]
    return True


def _skip_possible(
    steady: SteadyState,
    streams: tuple[tuple[int, ...], ...],
    widths: list[int],
    counts: list[bytearray],
) -> bool:
    """Whether the cycle loop could take a steady skip on this schedule.

    Replays the loop's checkpoints on a schedule whose windows never
    bind: the checkpoint for boundary ``B`` falls in the first cycle
    whose dispatch reaches a gid ``>= B``, and ``counts`` give each
    unit's issues and occupancy there. A skip needs two consecutive
    checkpoints (among the loop's first :data:`_MAX_CHECKPOINTS`) one
    period apart, with equal per-unit occupancy and per-unit issue
    deltas of ``steady.unit_counts``; False means no pair has them, so
    the loop would take no skip and bump no counter.
    """
    period = steady.period
    next_boundary = steady.start + period
    issued = [0] * len(streams)
    last_t = -1
    previous = None
    for _ in range(_MAX_CHECKPOINTS):
        t = min(
            (
                bisect_left(stream, next_boundary) // w
                for stream, w in zip(streams, widths)
                if stream and stream[-1] >= next_boundary
            ),
            default=-1,
        )
        if t < 0:
            return False
        boundary = next_boundary
        fmax = max(
            stream[min(len(stream), (t + 1) * w) - 1]
            for stream, w in zip(streams, widths)
            if stream
        )
        while next_boundary <= fmax:
            next_boundary += period
        occupancy = []
        for u, (stream, w, count) in enumerate(zip(streams, widths, counts)):
            issued[u] += sum(count[last_t + 1: t + 1])
            occupancy.append(min(len(stream), (t + 1) * w) - issued[u])
        last_t = t
        if (
            previous is not None
            and boundary - previous[0] == period
            and occupancy == previous[2]
            and all(
                now - before == share
                for now, before, share in zip(
                    issued, previous[1], steady.unit_counts
                )
            )
        ):
            return True
        previous = (boundary, tuple(issued), occupancy)
    return False


def _steady_for(low: LoweredProgram, addlat: list[int]) -> SteadyState | None:
    """The structural period the steady skip may use with ``addlat``.

    None for programs below :data:`_SKIP_MIN_TOTAL` or without a
    verified structural period. The structural period ignores
    addresses, so a per-gid table (speculative extras) must itself
    repeat for the skip to stay cycle-exact. Uniform tables pass the
    one slice compare trivially; tables with a warmup prefix
    (cold-start misses) get their verified start raised past it
    instead — block-wise slice compares keep the scan at C speed.
    """
    total = low.total
    if total < _SKIP_MIN_TOTAL:
        return None
    steady = low.steady()
    if steady is None:
        return None
    period = steady.period
    if addlat[steady.start: total - period] == addlat[steady.start + period:]:
        return steady
    ok_from = total - period
    start = steady.start
    while ok_from > start:
        probe = max(start, ok_from - 4096)
        if addlat[probe: ok_from] == addlat[probe + period: ok_from + period]:
            ok_from = probe
            continue
        for gid in range(ok_from - 1, probe - 1, -1):
            if addlat[gid] != addlat[gid + period]:
                ok_from = gid + 1
                break
        break
    if total - ok_from >= 3 * period + steady.dep_span + 64:
        return replace(steady, start=ok_from)
    return None


def _cycle_loop(
    low: LoweredProgram,
    program: MachineProgram,
    unit_configs: dict[Unit, UnitConfig],
    memory: MemorySystem,
    addlat: list[int],
    latencies: LatencyModel,
    collect_issue_times: bool,
    steady_ok: bool,
    chunked: bool,
    collector: TelemetryCollector,
    probes: tuple[bool, bool] = (False, False),
) -> tuple[SimulationResult, list[int]]:
    """The cycle loop: every latency baked or chunk-batched.

    ``addlat`` folds the availability rule into one add per issue,
    heaps hold plain integers (wakeups encode ``time * total + gid``,
    which orders by time then age), and a matured batch that fits the
    issue width bypasses the ready heap entirely. There are two issue
    branches. The table branch reads every latency from ``addlat``.
    The stateful branch (``chunked``: the chunked and probe routes)
    answers the memory accesses of each issue batch with one
    :meth:`MemorySystem.latencies` call in issue order, so ``addlat``
    only covers the non-memory modes. ``steady_ok`` arms the periodic
    steady-state skip, which stays armed only if ``addlat`` itself
    proves periodic over the verified region. Returns ``(result,
    issue_time_list)`` — the raw per-gid issue times feed the
    speculative fixed point without paying for a dict; without
    ``collect_issue_times``, a skipped range fills in only the memory
    gids' entries.

    ``probes = (probe_buffers, probe_esw)`` (with ``chunked``) turns on
    the buffer residency intervals (each delivering gid's arrival,
    closed when its paired consumer first issues) and the ESW samples
    (once per visited step, weighted by the idle gap to the next). The
    stateful branch also floors a zero-latency result to the next cycle
    when its consumer's unit is the issuing one or comes before it
    (docs/timing.md, "Bypass and result availability"); off the probe
    route ``min_latency >= 1`` and ``mem_base >= 1``, so it never fires.
    """
    total = low.total
    units = low.units
    nu = len(units)
    is_mem = low.is_mem
    addr_arr = low.addr
    mem_base = latencies.mem_base
    chunk_latencies = memory.latencies if chunked else None
    cons = low.cons
    unit_of = low._unit
    pending = list(low._n_srcs)
    opmax = [0] * total
    dispatched = bytearray(total)
    issue_time = [-1] * total

    streams = low.stream_gids
    widths = [unit_configs[u].width for u in units]
    windows = [unit_configs[u].window for u in units]
    lens = [len(s) for s in streams]
    ptrs = [0] * nu
    occs = [0] * nu
    readys: list[list[int]] = [[] for _ in range(nu)]
    wakeups: list[list[int]] = [[] for _ in range(nu)]
    issued_cnt = [0] * nu
    icyc = [0] * nu
    last_issue = [0] * nu
    oldest = [0] * nu  # per-unit oldest-unissued stream position

    # Probe state (probe route only): buffer residency intervals and
    # the effective-single-window accumulators.
    arrivals: dict[int, int] | None = None
    intervals: list[tuple[int, int]] = []
    pair = low._pair
    delivers = low.delivers
    esw_au = esw_du = -1
    esw_peak = esw_weighted = esw_cycles = 0
    probe_buffers, probe_esw = probes
    if probe_buffers:
        if low.pair_missing:
            gid, kind = low.pair_missing[0]
            raise SimulationError(
                f"{kind} gid={gid} has no paired memory operation"
            )
        arrivals = {}
    if probe_esw and Unit.AU in units and Unit.DU in units:
        esw_au = units.index(Unit.AU)
        esw_du = units.index(Unit.DU)
        orig_index = low._orig

    steady = _steady_for(low, addlat) if steady_ok else None
    if steady is not None:
        period = steady.period
        next_boundary = steady.start + period
        prev_snap: tuple | None = None
        prev_canon: tuple | None = None
        prev_boundary = -1
        prev_t = -1
        prev_icyc: tuple[int, ...] = ()
        prev_issued: tuple[int, ...] = ()
        checkpoints = 0
    fmax = -1  # dispatch frontier (max dispatched gid); skip layer only
    skip_shift = 0
    skip_dt = 0

    horizon = 0
    t = 0
    while True:
        all_done = True
        any_progress = False
        width_blocked = False
        for u in range(nu):
            occ = occs[u]
            ptr = ptrs[u]
            stream_len = lens[u]
            if not occ and ptr >= stream_len:
                continue
            all_done = False
            ready = readys[u]
            wakeup = wakeups[u]
            # Mature wakeups whose ready time has come.
            limit = t * total + total - 1
            batch: list[int] | None = None
            while wakeup and wakeup[0] <= limit:
                gid = heappop(wakeup) % total
                if batch is None:
                    batch = [gid]
                else:
                    batch.append(gid)
            # Issue phase: oldest-first, up to width. When the matured
            # batch fits the width and nothing else is waiting, issue
            # order within the cycle is irrelevant — skip the heap.
            budget = widths[u]
            if batch is not None and (ready or len(batch) > budget):
                for gid in batch:
                    heappush(ready, gid)
                batch = None
            if batch is None and ready:
                batch = []
                while len(batch) < budget and ready:
                    batch.append(heappop(ready))
            if batch:
                if chunk_latencies is None:
                    for gid in batch:
                        issue_time[gid] = t
                        avail = t + addlat[gid]
                        if avail > horizon:
                            horizon = avail
                        for c in cons[gid]:
                            remaining = pending[c] - 1
                            pending[c] = remaining
                            if opmax[c] < avail:
                                opmax[c] = avail
                            if not remaining and dispatched[c]:
                                heappush(
                                    wakeups[unit_of[c]], opmax[c] * total + c
                                )
                else:
                    # Stateful memory: the model must see accesses
                    # oldest-first (heap order), so sort batches that
                    # bypassed the ready heap, then answer the memory
                    # subset with one issue-ordered chunked query. The
                    # probe route adds the buffer residency intervals;
                    # the zero-latency floor fires only there.
                    if len(batch) > 1:
                        batch.sort()
                    mem_gids = [g for g in batch if is_mem[g]]
                    if mem_gids:
                        extra_iter = iter(chunk_latencies(
                            [addr_arr[g] for g in mem_gids], t
                        ))
                    for gid in batch:
                        issue_time[gid] = t
                        if is_mem[gid]:
                            avail = t + mem_base + next(extra_iter)
                            if arrivals is not None and delivers[gid]:
                                arrivals[gid] = avail
                        else:
                            avail = t + addlat[gid]
                        if arrivals is not None and pair[gid] >= 0:
                            arrival = arrivals.pop(pair[gid], None)
                            if arrival is not None:
                                intervals.append((arrival, t))
                        if avail > horizon:
                            horizon = avail
                        for c in cons[gid]:
                            remaining = pending[c] - 1
                            pending[c] = remaining
                            if opmax[c] < avail:
                                opmax[c] = avail
                            if not remaining and dispatched[c]:
                                # A result available now reaches only
                                # units not yet visited this cycle.
                                ready_at = opmax[c]
                                if ready_at == t and unit_of[c] <= u:
                                    ready_at = t + 1
                                heappush(
                                    wakeups[unit_of[c]], ready_at * total + c
                                )
                occ -= len(batch)
                any_progress = True
                issued_cnt[u] += len(batch)
                icyc[u] += 1
                last_issue[u] = t
            # Dispatch phase: in order, up to width, into freed slots.
            count = widths[u]
            room = windows[u] - occ
            if count > room:
                count = room
            remaining = stream_len - ptr
            if count > remaining:
                count = remaining
            if count > 0:
                new_ptr = ptr + count
                next_t = t + 1
                for gid in streams[u][ptr:new_ptr]:
                    dispatched[gid] = 1
                    if not pending[gid]:
                        ready_at = opmax[gid]
                        if ready_at < next_t:
                            ready_at = next_t
                        heappush(wakeup, ready_at * total + gid)
                ptr = new_ptr
                occ += count
                any_progress = True
                if steady is not None:
                    gid = streams[u][new_ptr - 1]
                    if gid > fmax:
                        fmax = gid
                if count == widths[u] and ptr < stream_len and occ < windows[u]:
                    width_blocked = True
            ptrs[u] = ptr
            occs[u] = occ

        # Steady-state checkpoint: when the dispatch frontier crosses a
        # period boundary, snapshot the scheduler state at C speed. Two
        # consecutive boundaries whose states are identical relative to
        # (boundary, t) prove the schedule is periodic from here on,
        # and the remaining full periods are applied as one shift. The
        # canonical forms are built only once the cheap per-period
        # checks pass, which most checkpoints fail.
        if steady is not None and fmax >= next_boundary:
            boundary = next_boundary
            while next_boundary <= fmax:
                next_boundary += period
            snap = _snapshot(
                boundary, t, fmax, nu, streams, ptrs, lens, occs, readys,
                wakeups, oldest, pending, opmax, dispatched, issue_time,
                steady.dep_span,
            )
            canon = None
            if (
                snap is not None
                and prev_snap is not None
                and boundary - prev_boundary == period
                and t > prev_t
                and snap[2] >= steady.start
                and all(
                    issued_cnt[u] - prev_issued[u] == steady.unit_counts[u]
                    for u in range(nu)
                )
            ):
                if prev_canon is None:
                    prev_canon = _canonical(prev_snap, total)
                canon = _canonical(snap, total)
            if canon is not None and canon == prev_canon:
                dt = t - prev_t
                margin = 2 * period + steady.dep_span + 8
                k = (total - 1 - fmax - margin) // period
                if k >= 1:
                    d_gid = k * period
                    d_t = k * dt
                    shift = d_t * total + d_gid
                    for u in range(nu):
                        wakeups[u] = [e + shift for e in wakeups[u]]
                        readys[u] = [g + d_gid for g in readys[u]]
                        advance = k * steady.unit_counts[u]
                        ptrs[u] += advance
                        oldest[u] += advance
                        issued_cnt[u] += k * steady.unit_counts[u]
                        icyc[u] += k * (icyc[u] - prev_icyc[u])
                    lo, hi = snap[2], snap[3]
                    for g in range(hi, lo - 1, -1):
                        g2 = g + d_gid
                        pending[g2] = pending[g]
                        o = opmax[g]
                        opmax[g2] = o + d_t if o else 0
                        dispatched[g2] = dispatched[g]
                    t += d_t
                    fmax += d_gid
                    skip_shift = period
                    skip_dt = dt
                    collector.counters["steady_skips"] += 1
                    collector.counters["skipped_instructions"] += d_gid
                steady = None
            else:
                prev_snap = snap
                prev_canon = canon
                prev_boundary = boundary
                prev_t = t
                prev_icyc = tuple(icyc)
                prev_issued = tuple(issued_cnt)
                checkpoints += 1
                if checkpoints >= _MAX_CHECKPOINTS:
                    steady = None

        if all_done:
            break
        # Earliest future activity across all units.
        next_time = _INFINITY
        for u in range(nu):
            if not occs[u] and ptrs[u] >= lens[u]:
                continue
            if readys[u]:
                next_time = t + 1
                break
            wakeup = wakeups[u]
            if wakeup:
                candidate = wakeup[0] // total
                if candidate < next_time:
                    next_time = candidate
        if width_blocked and next_time > t + 1:
            next_time = t + 1
        if esw_du >= 0:
            # Effective single window (paper section 3): from the oldest
            # unissued DU instruction to the youngest dispatched AU one,
            # in architectural instructions. The scheduling state holds
            # until the next visited step, so the sample does too.
            du_gids = streams[esw_du]
            position = oldest[esw_du]
            while (
                position < lens[esw_du]
                and issue_time[du_gids[position]] >= 0
            ):
                position += 1
            oldest[esw_du] = position
            if position < lens[esw_du] and ptrs[esw_au]:
                sample = orig_index[streams[esw_au][ptrs[esw_au] - 1]] \
                    - orig_index[du_gids[position]] + 1
                if sample > 0:
                    span = 1 if next_time is _INFINITY else next_time - t
                    esw_weighted += sample * span
                    esw_cycles += span
                    if sample > esw_peak:
                        esw_peak = sample
        if next_time is _INFINITY:
            if any_progress:
                # Progress happened this cycle but nothing is
                # scheduled: re-scan next cycle (only reachable through
                # dispatch races).
                t += 1
                continue
            outstanding = sum(
                lens[u] - ptrs[u] + occs[u] for u in range(nu)
            )
            raise SimulationDeadlockError(
                f"no unit can make progress at cycle {t} with "
                f"{outstanding} instructions outstanding"
            )
        t = int(next_time)

    if skip_shift:
        # Fill in the issue times of the skipped iterations. Every
        # instruction still unissued at the matched checkpoint issues
        # exactly one period's cycles after its one-period-earlier
        # counterpart, so an ascending sweep telescopes through the
        # whole skipped range (the counterpart is always either
        # simulated or already filled). Without collected issue times
        # the sweep covers only the memory gids, all the callers read
        # (they telescope among themselves — structural periodicity
        # keeps g - period a memory gid whenever g is one).
        d_gid = skip_shift
        d_t = skip_dt
        fill = range(total) if collect_issue_times else low.memory_gids
        for g in fill:
            if issue_time[g] < 0:
                issue_time[g] = issue_time[g - d_gid] + d_t

    unit_stats = {
        units[u]: UnitStats(
            unit=units[u],
            instructions=issued_cnt[u],
            last_issue=last_issue[u],
            issue_cycles=icyc[u],
        )
        for u in range(nu)
    }
    issue_times = None
    if collect_issue_times:
        issue_times = {gid: issue_time[gid] for gid in range(total)}
    result = _result(
        low, program, memory, horizon, unit_stats,
        occupancy_from_intervals(intervals) if arrivals is not None else None,
        esw_peak, esw_weighted / esw_cycles if esw_cycles else 0.0,
        issue_times,
    )
    return result, issue_time


def _snapshot(
    boundary, t, fmax, nu, streams, ptrs, lens, occs, readys, wakeups,
    oldest, pending, opmax, dispatched, issue_time, dep_span,
):
    """Raw scheduler state at a checkpoint, copied with C-speed slices.

    Covers everything the future evolution can read: per-unit stream
    positions, occupancies and queues, plus the pending/opmax/window
    flags of every gid between the oldest live instruction (``lo``)
    and the dispatch frontier plus the dependence span (``hi``).
    ``None`` when no live region exists or it runs past the program.
    """
    total = len(pending)
    lo = total
    for u in range(nu):
        position = oldest[u]
        gids = streams[u]
        limit = ptrs[u]
        while position < limit and issue_time[gids[position]] >= 0:
            position += 1
        oldest[u] = position
        if position < limit and gids[position] < lo:
            lo = gids[position]
        if limit < lens[u] and gids[limit] < lo:
            lo = gids[limit]
    hi = fmax + dep_span
    if lo == total or hi >= total:
        return None
    unit_part = [
        (
            streams[u][ptrs[u]] - boundary if ptrs[u] < lens[u] else -total,
            occs[u], wakeups[u][:], readys[u][:],
        )
        for u in range(nu)
    ]
    return (
        boundary, t, lo, hi, unit_part, pending[lo:hi + 1],
        opmax[lo:hi + 1], dispatched[lo:hi + 1], issue_time[lo:hi + 1],
    )


def _canonical(snapshot, total):
    """A snapshot relative to its (boundary, t): equality of two taken
    one period apart implies the evolutions are identical up to the
    (gid, time) shift."""
    boundary, t, lo, _, units, pending, opmax, dispatched, issued = snapshot
    base = t * total + boundary
    unit_part = tuple([
        (
            next_gid, occ,
            tuple(sorted([e - base for e in wakeup])),
            tuple(sorted([g - boundary for g in ready])),
        )
        for next_gid, occ, wakeup, ready in units
    ])
    region = tuple([
        (p, o - t if o else None, 1 if d and i < 0 else 0)
        for p, o, d, i in zip(pending, opmax, dispatched, issued)
    ])
    return lo - boundary, unit_part, region


def _simulate_events(
    low: LoweredProgram,
    program: MachineProgram,
    unit_configs: dict[Unit, UnitConfig],
    memory: MemorySystem,
    latencies: LatencyModel,
    collect_issue_times: bool,
    collector: TelemetryCollector,
    trace: list[tuple[int, int, int]] | None = None,
) -> SimulationResult:
    """Event-heap scheduler: the clock jumps straight to the next event.

    One global min-heap holds gid wakeups — operand completions and
    memory arrivals — as bare integer keys
    ``(time << _TIME_SHIFT) | seq``, so pushes allocate nothing and
    every heap comparison is one int compare; ``seq_codes[seq]``
    decodes a popped key back to its gid. *Unit-cycle* events (a unit
    that must run again
    next cycle: ready-heap backlog, or an in-order dispatch stream
    still width-limited) can only ever target ``t + 1``, so they skip
    the heap entirely and go through a plain armed-unit list that is
    drained at the next timestamp. ``seq`` is a monotone insertion
    counter stamped on every event — packed into the key's low bits
    for heap entries — so events at equal timestamps order FIFO: the
    same determinism treatment as the scheduler heap in
    :mod:`repro.service.jobs`, making event order (and hence every
    stateful-model query) reproducible across runs and worker
    processes. Arming is deduplicated (``cycle_pending``), so no lazy
    cancellation is needed; gid wakeups are pushed exactly once per
    gid. The optional ``trace`` list receives the decoded
    ``(time, seq, code)`` triple per consumed event, seq-merged
    across both sources; ``code >= 0`` is a gid wakeup, ``code < 0``
    a cycle event for unit ``-1 - code``.

    Per popped timestamp the loop drains *all* events, then processes
    the touched units in ascending unit order — the order the cycle
    loops use — so a stateful model sees exactly one
    issue-ordered :meth:`~repro.memory.MemorySystem.latencies` chunk
    per issuing unit per visited cycle, with ``now`` jumping across
    the skipped idle cycles (see docs/timing.md, "Event scheduling",
    and the non-contiguous-timestamp contract in
    :class:`~repro.memory.MemorySystem`). Every pushed event is
    strictly in the future (the caller guarantees ``min_latency >= 1``
    and ``mem_base >= 1``), so no timestamp is visited twice and the
    schedule is bit-exact with :func:`_simulate_fast`.
    """
    total = low.total
    units = low.units
    nu = len(units)
    is_mem = low.is_mem
    addr_arr = low.addr
    mem_base = latencies.mem_base
    chunk_latencies = memory.latencies
    addlat = low.base_addlat
    cons = low.cons
    unit_of = low._unit
    pending = list(low._n_srcs)
    opmax = [0] * total
    dispatched = bytearray(total)
    issue_time = [-1] * total if collect_issue_times else None

    streams = low.stream_gids
    widths = [unit_configs[u].width for u in units]
    windows = [unit_configs[u].window for u in units]
    lens = [len(s) for s in streams]
    ptrs = [0] * nu
    occs = [0] * nu
    readys: list[list[int]] = [[] for _ in range(nu)]
    matured: list[list[int]] = [[] for _ in range(nu)]
    issued_cnt = [0] * nu
    icyc = [0] * nu
    last_issue = [0] * nu

    # The heap holds bare int keys — ``(time << _TIME_SHIFT) | seq`` —
    # so pushes allocate nothing and every sift compare is one int
    # compare; ``seq_codes[seq]`` decodes a popped key back to its gid
    # (cycle events never enter the heap; when tracing they burn a seq
    # on a ``-1 - u`` placeholder so the recorded FIFO order is global).
    seq_codes: list[int] = []
    events: list[int] = []  # gid wakeup keys only
    cycle_pending = bytearray(nu)  # one in-flight arming per unit
    active = bytearray(nu)  # dedupes touched units within a timestamp
    arm: list[int] = []  # units that must run at the next timestamp
    arm_seqs: list[int] | None = [] if trace is not None else None
    for u in range(nu):
        if lens[u]:
            arm.append(u)
            if arm_seqs is not None:
                arm_seqs.append(len(seq_codes))
                seq_codes.append(-1 - u)
            cycle_pending[u] = 1

    horizon = 0
    t = -1
    touched: list[int] = []
    while events or arm:
        # Armed units always target t + 1, and every heap entry is
        # strictly future, so the next timestamp is t + 1 whenever any
        # unit is armed — otherwise the clock jumps to the heap's min.
        if arm:
            t += 1
        else:
            t = events[0] >> _TIME_SHIFT
        del touched[:]
        boundary = (t + 1) << _TIME_SHIFT
        if trace is None:
            while events and events[0] < boundary:
                code = seq_codes[heappop(events) & _SEQ_MASK]
                u = unit_of[code]
                matured[u].append(code)
                if not active[u]:
                    active[u] = 1
                    touched.append(u)
            for u in arm:
                cycle_pending[u] = 0
                if not active[u]:
                    active[u] = 1
                    touched.append(u)
            del arm[:]
        else:
            # Traced path: merge heap pops and armed cycle events by
            # seq so the recorded order is the global FIFO order.
            merged = [(s, -1 - u) for u, s in zip(arm, arm_seqs)]
            while events and events[0] < boundary:
                s = heappop(events) & _SEQ_MASK
                merged.append((s, seq_codes[s]))
            merged.sort()
            del arm[:]
            del arm_seqs[:]
            for s, code in merged:
                trace.append((t, s, code))
                if code >= 0:
                    u = unit_of[code]
                    matured[u].append(code)
                else:
                    u = -1 - code
                    cycle_pending[u] = 0
                if not active[u]:
                    active[u] = 1
                    touched.append(u)
        if len(touched) > 1:
            touched.sort()
        for u in touched:
            active[u] = 0
            ready = readys[u]
            budget = widths[u]
            # Issue phase: oldest-first, up to width. A matured batch
            # that fits the width with no backlog bypasses the ready
            # heap (sorted so stateful models still see oldest-first);
            # the matured list is reused, never reallocated.
            mat = matured[u]
            nb = len(mat)
            if nb:
                if ready or nb > budget:
                    for gid in mat:
                        heappush(ready, gid)
                    del mat[:]
                    nb = 0
                elif nb > 1:
                    mat.sort()
            if nb:
                batch = mat
            elif ready:
                batch = []
                while nb < budget and ready:
                    batch.append(heappop(ready))
                    nb += 1
            else:
                batch = None
            if batch:
                if nb == 1:
                    # Single-gid issue: the long-latency trickle case —
                    # skip the chunk listcomps and iterator machinery.
                    gid = batch[0]
                    if issue_time is not None:
                        issue_time[gid] = t
                    if is_mem[gid]:
                        avail = t + mem_base + chunk_latencies(
                            [addr_arr[gid]], t
                        )[0]
                    else:
                        avail = t + addlat[gid]
                    if avail > horizon:
                        horizon = avail
                    for c in cons[gid]:
                        remaining = pending[c] - 1
                        pending[c] = remaining
                        if opmax[c] < avail:
                            opmax[c] = avail
                        if not remaining and dispatched[c]:
                            heappush(
                                events,
                                (opmax[c] << _TIME_SHIFT) | len(seq_codes),
                            )
                            seq_codes.append(c)
                else:
                    mem_gids = [g for g in batch if is_mem[g]]
                    if mem_gids:
                        extra_iter = iter(chunk_latencies(
                            [addr_arr[g] for g in mem_gids], t
                        ))
                    for gid in batch:
                        if issue_time is not None:
                            issue_time[gid] = t
                        if is_mem[gid]:
                            avail = t + mem_base + next(extra_iter)
                        else:
                            avail = t + addlat[gid]
                        if avail > horizon:
                            horizon = avail
                        for c in cons[gid]:
                            remaining = pending[c] - 1
                            pending[c] = remaining
                            if opmax[c] < avail:
                                opmax[c] = avail
                            if not remaining and dispatched[c]:
                                heappush(
                                    events,
                                    (opmax[c] << _TIME_SHIFT)
                                    | len(seq_codes),
                                )
                                seq_codes.append(c)
                if batch is mat:
                    del mat[:]
                occs[u] -= nb
                issued_cnt[u] += nb
                icyc[u] += 1
                last_issue[u] = t
            # Dispatch phase: in order, up to width, into freed slots.
            occ = occs[u]
            ptr = ptrs[u]
            stream_len = lens[u]
            n = budget
            room = windows[u] - occ
            if n > room:
                n = room
            remaining = stream_len - ptr
            if n > remaining:
                n = remaining
            if n > 0:
                new_ptr = ptr + n
                next_t = t + 1
                for gid in streams[u][ptr:new_ptr]:
                    dispatched[gid] = 1
                    if not pending[gid]:
                        ready_at = opmax[gid]
                        if ready_at < next_t:
                            ready_at = next_t
                        heappush(
                            events,
                            (ready_at << _TIME_SHIFT) | len(seq_codes),
                        )
                        seq_codes.append(gid)
                ptr = new_ptr
                occ += n
                ptrs[u] = ptr
                occs[u] = occ
            # Re-arm the unit's cycle event iff it must run next cycle:
            # ready backlog, or a width-limited dispatch stream (room
            # and instructions both left over means width was the cap).
            if not cycle_pending[u] and (
                ready or (ptr < stream_len and occ < windows[u])
            ):
                arm.append(u)
                if arm_seqs is not None:
                    arm_seqs.append(len(seq_codes))
                    seq_codes.append(-1 - u)
                cycle_pending[u] = 1

    if any(occs[u] or ptrs[u] < lens[u] for u in range(nu)):
        outstanding = sum(lens[u] - ptrs[u] + occs[u] for u in range(nu))
        raise SimulationDeadlockError(
            f"no unit can make progress at cycle {t} with "
            f"{outstanding} instructions outstanding"
        )
    collector.counters["event_runs"] += 1
    unit_stats = {
        units[u]: UnitStats(
            unit=units[u],
            instructions=issued_cnt[u],
            last_issue=last_issue[u],
            issue_cycles=icyc[u],
        )
        for u in range(nu)
    }
    issue_times = None
    if issue_time is not None:
        issue_times = {gid: issue_time[gid] for gid in range(total)}
    return _result(
        low, program, memory, horizon, unit_stats, None, 0, 0.0, issue_times
    )
