"""Cycle-exact semantics tests for the event-driven engine.

Each test hand-builds a tiny machine program and asserts the exact
issue times mandated by the docs/timing.md semantics.
"""

from __future__ import annotations

import pytest

from repro import SimulationDeadlockError, SimulationError, Unit, UnitConfig
from repro.machines import simulate
from repro.memory import FixedLatencyMemory
from repro.partition import MachineInstruction, MachineProgram, MemKind


def op(gid, unit=Unit.SINGLE, kind=MemKind.NONE, latency=1, srcs=(),
       addr=None):
    return MachineInstruction(
        gid=gid, unit=unit, mem_kind=kind, latency=latency, srcs=srcs,
        addr=addr,
    )


def single(instructions, window=64, width=9, md=0, **kwargs):
    program = MachineProgram("t", {Unit.SINGLE: instructions})
    return simulate(
        program,
        {Unit.SINGLE: UnitConfig(window=window, width=width)},
        memory=FixedLatencyMemory(md),
        collect_issue_times=True,
        **kwargs,
    )


class TestBasicTiming:
    def test_single_instruction(self):
        result = single([op(0, latency=1)])
        # Dispatched at cycle 0, issues at 1, completes at 2.
        assert result.issue_times == {0: 1}
        assert result.cycles == 2

    def test_dependent_chain_back_to_back(self):
        result = single([op(0), op(1, srcs=(0,)), op(2, srcs=(1,))])
        assert result.issue_times == {0: 1, 1: 2, 2: 3}
        assert result.cycles == 4

    def test_fp_latency_gap(self):
        result = single([op(0, latency=3), op(1, srcs=(0,))])
        assert result.issue_times == {0: 1, 1: 4}

    def test_independent_ops_issue_together(self):
        result = single([op(0), op(1), op(2)])
        assert result.issue_times == {0: 1, 1: 1, 2: 1}


class TestStructuralLimits:
    def test_issue_width_throttles(self):
        result = single([op(k) for k in range(4)], width=2)
        # Dispatch is also width-limited: two per cycle.
        assert result.issue_times == {0: 1, 1: 1, 2: 2, 3: 2}

    def test_window_of_one_serialises(self):
        result = single([op(k) for k in range(3)], window=1, width=9)
        assert result.issue_times == {0: 1, 1: 2, 2: 3}

    def test_out_of_order_issue_oldest_first(self):
        instructions = [
            op(0, kind=MemKind.PREFETCH_LOAD, addr=8),  # long wait
            op(1, srcs=(0,)),  # blocked on the prefetch's datum
            op(2),  # independent, younger
        ]
        result = single(instructions, md=50)
        times = result.issue_times
        assert times[2] < times[1]  # younger instruction overtook
        assert times[1] == times[0] + 1 + 50  # woke at datum arrival

    def test_stalled_instruction_holds_window_slot(self):
        # Window 2: the stalled consumer plus one slot; the third op
        # cannot dispatch until a slot frees.
        instructions = [
            op(0, kind=MemKind.PREFETCH_LOAD, addr=8),
            op(1, srcs=(0,)),
            op(2),
            op(3),
        ]
        result = single(instructions, window=2, md=30)
        times = result.issue_times
        # op1 occupies a slot until the datum arrives, so op3 waits.
        assert times[3] > times[2]
        assert times[1] == times[0] + 31


class TestMemoryTiming:
    def test_dm_load_receive_pair(self):
        program = MachineProgram("t", {
            Unit.AU: [op(0, Unit.AU, MemKind.LOAD_ISSUE, latency=1, addr=8)],
            Unit.DU: [op(1, Unit.DU, MemKind.RECEIVE, latency=1, srcs=(0,))],
        })
        result = simulate(
            program,
            {
                Unit.AU: UnitConfig(window=8, width=4),
                Unit.DU: UnitConfig(window=8, width=5),
            },
            memory=FixedLatencyMemory(10),
            collect_issue_times=True,
        )
        # Issue at 1; datum arrives at 1 + 1 + 10 = 12; receive issues
        # at 12 and delivers at 13.
        assert result.issue_times == {0: 1, 1: 12}
        assert result.cycles == 13

    def test_self_load_timing(self):
        program = MachineProgram("t", {
            Unit.AU: [
                op(0, Unit.AU, MemKind.SELF_LOAD, latency=1, addr=8),
                op(1, Unit.AU, srcs=(0,)),
            ],
        })
        result = simulate(
            program, {Unit.AU: UnitConfig(window=8, width=4)},
            memory=FixedLatencyMemory(20), collect_issue_times=True,
        )
        assert result.issue_times[1] == result.issue_times[0] + 21

    def test_prefetch_access_pair(self):
        result = single([
            op(0, kind=MemKind.PREFETCH_LOAD, addr=8),
            op(1, kind=MemKind.ACCESS_LOAD, srcs=(0,)),
            op(2, srcs=(1,)),
        ], md=10)
        times = result.issue_times
        assert times[1] == times[0] + 11  # access waits for the buffer
        assert times[2] == times[1] + 1

    def test_store_prefetch_does_not_wait_for_memory(self):
        result = single([
            op(0, kind=MemKind.PREFETCH_STORE, addr=8),
            op(1, kind=MemKind.ACCESS_STORE, srcs=(0,)),
        ], md=60)
        times = result.issue_times
        assert times[1] == times[0] + 1  # entry established in one cycle

    def test_zero_differential_still_pays_base_cost(self):
        result = single([
            op(0, kind=MemKind.PREFETCH_LOAD, addr=8),
            op(1, kind=MemKind.ACCESS_LOAD, srcs=(0,)),
        ], md=0)
        assert result.issue_times[1] == result.issue_times[0] + 1


class TestCrossUnit:
    def test_copy_transfers_between_units(self):
        program = MachineProgram("t", {
            Unit.DU: [
                op(0, Unit.DU, latency=3),
                op(1, Unit.DU, MemKind.COPY, latency=1, srcs=(0,)),
            ],
            Unit.AU: [op(2, Unit.AU, srcs=(1,))],
        })
        result = simulate(
            program,
            {
                Unit.AU: UnitConfig(window=8, width=4),
                Unit.DU: UnitConfig(window=8, width=5),
            },
            collect_issue_times=True,
        )
        times = result.issue_times
        assert times[1] == times[0] + 3
        assert times[2] == times[1] + 1


class TestFailureModes:
    def test_dependence_cycle_deadlocks(self):
        # Malformed by construction (validate() would reject it).
        program = MachineProgram("t", {
            Unit.AU: [op(0, Unit.AU, srcs=(1,))],
            Unit.DU: [op(1, Unit.DU, srcs=(0,))],
        })
        with pytest.raises(SimulationDeadlockError):
            simulate(program, {
                Unit.AU: UnitConfig(window=4, width=4),
                Unit.DU: UnitConfig(window=4, width=5),
            })

    def test_missing_unit_config(self):
        program = MachineProgram("t", {Unit.AU: [op(0, Unit.AU)]})
        with pytest.raises(SimulationError, match="configuration"):
            simulate(program, {})


class TestStats:
    def test_unit_stats(self):
        result = single([op(0), op(1), op(2, srcs=(1,))])
        stats = result.unit_stats[Unit.SINGLE]
        assert stats.instructions == 3
        assert stats.issue_cycles == 2  # cycle 1 (two ops) and cycle 2
        assert stats.mean_issue_rate == pytest.approx(1.5)

    def test_ipc(self):
        result = single([op(k) for k in range(9)], width=9)
        assert result.ipc == pytest.approx(9 / result.cycles)

    def test_empty_program(self):
        result = single([])
        assert result.cycles == 0
        assert result.instructions == 0
