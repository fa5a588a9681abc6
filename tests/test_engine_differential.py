"""Differential and property-based testing of the event-driven engine.

The optimised engine must produce schedules *identical* to the naive
cycle-by-cycle reference on arbitrary programs, and every schedule must
satisfy the structural invariants of the machine (issue-width bounds,
dependence ordering, window ordering).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_soa import assert_same_schedule

from repro import KernelBuilder, Program, Unit, UnitConfig
from repro.machines import simulate, simulate_naive
from repro.memory import FixedLatencyMemory
from repro.partition import MemKind, lower_swsm, partition_dm
from repro.partition.machine_program import MachineInstruction, MachineProgram

MEMORY_KINDS = (MemKind.LOAD_ISSUE, MemKind.SELF_LOAD, MemKind.PREFETCH_LOAD)


def random_program(seed: int, size: int = 60) -> Program:
    """A random but well-formed architectural trace."""
    rng = random.Random(seed)
    builder = KernelBuilder(f"rand{seed}", seed=seed)
    array = builder.array("a", 32)
    values = []
    gate = None
    for _ in range(size):
        choice = rng.random()
        deps = []
        if values and rng.random() < 0.7:
            deps.append(rng.choice(values[-12:]))
        if gate is not None and rng.random() < 0.2:
            deps.append(gate)
        index = rng.randrange(32)
        if choice < 0.25:
            values.append(builder.load(array, index, *deps))
        elif choice < 0.35:
            data = rng.choice(values) if values and rng.random() < 0.8 else None
            builder.store(array, index, data, *deps)
        elif choice < 0.55:
            values.append(builder.iadd(*deps))
        elif choice < 0.9:
            values.append(builder.fmul(*deps) if deps else builder.fadd())
        else:
            if values:
                gate = builder.cvt_f2i(rng.choice(values))
    program = builder.build()
    return program


#: Hand-built stream kinds per machine: (plain kinds, memory kinds,
#: the kind that consumes a buffered datum).
_HAND_KINDS = {
    "dm": (
        (MemKind.NONE, MemKind.COPY, MemKind.STORE_DATA),
        (MemKind.LOAD_ISSUE, MemKind.PREFETCH_LOAD, MemKind.SELF_LOAD),
        MemKind.RECEIVE,
    ),
    "swsm": (
        (MemKind.NONE, MemKind.STORE_ADDR, MemKind.ACCESS_STORE),
        (MemKind.PREFETCH_LOAD, MemKind.PREFETCH_STORE),
        MemKind.ACCESS_LOAD,
    ),
}


def hand_built_program(seed: int, machine: str) -> MachineProgram:
    """A random machine program built from instruction objects, with
    zero-latency operations (which no compiler emits) mixed in."""
    rng = random.Random(seed)
    units = (Unit.AU, Unit.DU) if machine == "dm" else (Unit.SINGLE,)
    plain, memory, consumer = _HAND_KINDS[machine]
    streams: dict[Unit, list[MachineInstruction]] = {u: [] for u in units}
    delivering: list[int] = []
    for gid in range(rng.randrange(1, 50)):
        srcs = sorted(rng.sample(range(gid), min(gid, rng.randrange(3))))
        choice = rng.random()
        addr = None
        if choice < 0.25:
            kind = rng.choice(memory)
            if kind is not MemKind.PREFETCH_STORE:
                addr = rng.randrange(64) * 8
        elif choice < 0.4 and delivering:
            # srcs[0] names the paired memory operation.
            kind = consumer
            pair = rng.choice(delivering[-6:])
            srcs = [pair] + [s for s in srcs if s != pair]
        else:
            kind = rng.choice(plain)
        if kind in (MemKind.LOAD_ISSUE, MemKind.PREFETCH_LOAD):
            delivering.append(gid)
        unit = rng.choice(units)
        streams[unit].append(MachineInstruction(
            gid=gid,
            unit=unit,
            mem_kind=kind,
            latency=rng.choice((0, 0, 1, 2, 5)),
            srcs=tuple(srcs),
            addr=addr,
            orig_index=gid,
        ))
    return MachineProgram(f"hand{seed}", streams)


def dm_configs(window: int) -> dict[Unit, UnitConfig]:
    return {
        Unit.AU: UnitConfig(window=window, width=4, name="AU"),
        Unit.DU: UnitConfig(window=window, width=5, name="DU"),
    }


def swsm_configs(window: int) -> dict[Unit, UnitConfig]:
    return {Unit.SINGLE: UnitConfig(window=window, width=9)}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    window=st.sampled_from([1, 2, 4, 8, 16]),
    md=st.sampled_from([0, 7, 30]),
)
def test_dm_engine_matches_naive_reference(seed, window, md):
    program = random_program(seed)
    compiled = partition_dm(program)
    configs = dm_configs(window)
    naive = simulate_naive(compiled, configs, FixedLatencyMemory(md))
    result = simulate(
        compiled, configs, FixedLatencyMemory(md), collect_issue_times=True
    )
    assert_same_schedule(result, naive)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    window=st.sampled_from([1, 3, 8, 32]),
    md=st.sampled_from([0, 11, 60]),
)
def test_swsm_engine_matches_naive_reference(seed, window, md):
    program = random_program(seed)
    compiled = lower_swsm(program)
    configs = swsm_configs(window)
    naive = simulate_naive(compiled, configs, FixedLatencyMemory(md))
    result = simulate(
        compiled, configs, FixedLatencyMemory(md), collect_issue_times=True
    )
    assert_same_schedule(result, naive)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    machine=st.sampled_from(["dm", "swsm"]),
    window=st.sampled_from([1, 2, 4, 16]),
    width=st.sampled_from([1, 2, 3]),
    md=st.sampled_from([0, 5, 30]),
    probes=st.booleans(),
)
def test_zero_latency_programs_match_naive_reference(
    seed, machine, window, width, md, probes
):
    """Zero-latency results reach only units later in the same cycle:
    every field of the result, probes included, equals the oracle's."""
    program = hand_built_program(seed, machine)
    program.validate()
    configs = {
        unit: UnitConfig(window=window, width=width + index)
        for index, unit in enumerate(program.units)
    }
    probe_esw = probes and machine == "dm"
    result = simulate(
        program, configs, FixedLatencyMemory(md),
        probe_buffers=probes, probe_esw=probe_esw,
        collect_issue_times=True,
    )
    naive = simulate_naive(
        program, configs, FixedLatencyMemory(md),
        probe_buffers=probes, probe_esw=probe_esw,
    )
    assert_same_schedule(result, naive)


def _check_schedule_invariants(compiled, configs, md: int) -> None:
    result = simulate(
        compiled, configs, FixedLatencyMemory(md), collect_issue_times=True
    )
    times = result.issue_times
    assert times is not None
    mem_base = 1

    def avail(gid: int) -> int:
        inst = compiled.by_gid[gid]
        if inst.mem_kind in MEMORY_KINDS:
            return times[gid] + mem_base + md
        if inst.mem_kind is MemKind.PREFETCH_STORE:
            return times[gid] + 1
        return times[gid] + inst.latency

    for unit in compiled.units:
        config = configs[unit]
        stream = compiled.stream(unit)
        # (1) Every instruction issued exactly once; per-cycle issue
        # count bounded by the width.
        per_cycle: dict[int, int] = {}
        for inst in stream:
            per_cycle[times[inst.gid]] = per_cycle.get(times[inst.gid], 0) + 1
        assert all(count <= config.width for count in per_cycle.values())
        # (2) Dependence ordering: no instruction issues before every
        # source value is available.
        for inst in stream:
            for dep in inst.srcs:
                assert times[inst.gid] >= avail(dep), (
                    f"gid={inst.gid} issued at {times[inst.gid]} before "
                    f"dep gid={dep} was available at {avail(dep)}"
                )
        # (3) Window capacity: when an instruction issues, every older
        # instruction still unissued at that moment shares the window
        # with it, so there can be at most window-1 of them.
        stream_times = [times[inst.gid] for inst in stream]
        for position, issued_at in enumerate(stream_times):
            older_unissued = sum(
                1 for other in stream_times[:position] if other > issued_at
            )
            assert older_unissued <= config.window - 1, (
                f"position {position} issued at {issued_at} with "
                f"{older_unissued} older instructions outstanding"
            )

    # (4) Reported cycle count equals the latest completion.
    assert result.cycles == max(
        avail(inst.gid) for stream in compiled.streams.values()
        for inst in stream
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    window=st.sampled_from([2, 5, 16, 64]),
    md=st.sampled_from([0, 17, 60]),
)
def test_dm_schedule_invariants(seed, window, md):
    compiled = partition_dm(random_program(seed, size=80))
    _check_schedule_invariants(compiled, dm_configs(window), md)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    window=st.sampled_from([2, 5, 16, 64]),
    md=st.sampled_from([0, 17, 60]),
)
def test_swsm_schedule_invariants(seed, window, md):
    compiled = lower_swsm(random_program(seed, size=80))
    _check_schedule_invariants(compiled, swsm_configs(window), md)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_programs_are_well_formed(seed):
    program = random_program(seed)
    program.validate()
    partition_dm(program).validate()
    lower_swsm(program).validate()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000), md=st.sampled_from([0, 30, 60]))
def test_execution_time_bounded_below_by_issue_throughput(seed, md):
    program = random_program(seed)
    compiled = lower_swsm(program)
    result = simulate(
        compiled, swsm_configs(32), FixedLatencyMemory(md)
    )
    # Cannot beat the issue width.
    assert result.cycles >= compiled.num_instructions / 9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_memory_differential_never_helps(seed):
    """A larger differential cannot speed either machine up."""
    program = random_program(seed)
    dm = partition_dm(program)
    swsm = lower_swsm(program)
    previous_dm = previous_swsm = 0
    for md in (0, 20, 60):
        dm_cycles = simulate(dm, dm_configs(16), FixedLatencyMemory(md)).cycles
        swsm_cycles = simulate(
            swsm, swsm_configs(16), FixedLatencyMemory(md)
        ).cycles
        assert dm_cycles >= previous_dm
        assert swsm_cycles >= previous_swsm
        previous_dm, previous_swsm = dm_cycles, swsm_cycles
