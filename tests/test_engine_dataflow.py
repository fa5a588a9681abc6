"""The dataflow pass against the cycle loop and the naive oracle.

:func:`repro.machines.engine._dataflow_pass` schedules a table-driven
run in one gid-order pass when no unit's window binds, and declines
(returns None) otherwise; :func:`~repro.machines.engine._simulate_fast`
then runs :func:`~repro.machines.engine._cycle_loop`. These tests hold
the pass to the loop field by field whenever it returns a result, hold
shipped routing to :func:`~repro.machines.reference.simulate_naive`,
and check the pass's no-skip certificate: a result is returned only
when the loop, on the same inputs, would take no steady skip.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DecoupledMachine, SuperscalarMachine, Unit, UnitConfig
from repro.config import DEFAULT_LATENCIES
from repro.machines import simulate, simulate_naive
from repro.machines.engine import _cycle_loop, _dataflow_pass
from repro.memory import FixedLatencyMemory
from repro.obs.telemetry import TelemetryCollector
from repro.partition import MachineInstruction, MachineProgram, MemKind

from test_engine_soa import assert_same_schedule, loop_nest_program


def run_pair(program, configs, md, *, steady_ok=False):
    """The pass and the loop on one uniform table: ``(pass, loop,
    loop collector)``; the pass entry is None when it declined."""
    low = program.lowered()
    addlat = low.addlat_for(DEFAULT_LATENCIES.mem_base + md)
    done = _dataflow_pass(
        low, program, configs, FixedLatencyMemory(md), addlat, True,
        steady_ok,
    )
    collector = TelemetryCollector()
    loop = _cycle_loop(
        low, program, configs, FixedLatencyMemory(md), addlat,
        DEFAULT_LATENCIES, True, steady_ok, False, collector,
    )
    return done, loop, collector


def assert_pass_matches_loop(done, loop) -> None:
    result, issue = done
    loop_result, loop_issue = loop
    assert_same_schedule(result, loop_result)
    assert issue == loop_issue


@st.composite
def programs(draw):
    """A random valid program on one or two units with latencies >= 1,
    its unit configurations and a memory differential."""
    two_units = draw(st.booleans())
    units = (Unit.AU, Unit.DU) if two_units else (Unit.SINGLE,)
    size = draw(st.integers(1, 60))
    streams: dict[Unit, list[MachineInstruction]] = {u: [] for u in units}
    for gid in range(size):
        unit = draw(st.sampled_from(units))
        kind = draw(st.sampled_from(
            (MemKind.NONE, MemKind.NONE, MemKind.LOAD_ISSUE)
        ))
        srcs = draw(st.lists(
            st.integers(0, gid - 1), max_size=3, unique=True
        )) if gid else []
        streams[unit].append(MachineInstruction(
            gid=gid, unit=unit, mem_kind=kind,
            latency=draw(st.integers(1, 12)), srcs=tuple(sorted(srcs)),
            addr=8 * gid if kind is MemKind.LOAD_ISSUE else None,
        ))
    configs = {
        unit: UnitConfig(
            window=draw(st.integers(1, size + 3)),
            width=draw(st.integers(1, 9)),
        )
        for unit in units
    }
    md = draw(st.sampled_from((0, 1, 7, 60)))
    return MachineProgram("random", streams), configs, md


@settings(max_examples=150, deadline=None)
@given(case=programs())
def test_shipped_routing_matches_naive(case):
    program, configs, md = case
    result = simulate(
        program, configs, FixedLatencyMemory(md), collect_issue_times=True
    )
    naive = simulate_naive(program, configs, FixedLatencyMemory(md))
    assert_same_schedule(result, naive)


@settings(max_examples=150, deadline=None)
@given(case=programs())
def test_pass_matches_loop_whenever_it_returns(case):
    program, configs, md = case
    done, loop, _ = run_pair(program, configs, md)
    if done is not None:
        assert_pass_matches_loop(done, loop)
    low = program.lowered()
    if all(
        configs[u].window >= len(stream)
        for u, stream in zip(low.units, low.stream_gids)
    ):
        # A window that holds its whole stream can never bind.
        assert done is not None


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    body=st.integers(4, 24),
    window=st.sampled_from((8, 32, 128, 1 << 20)),
    md=st.sampled_from((0, 60)),
)
def test_pass_returns_only_runs_the_loop_would_not_skip(
    seed, body, window, md
):
    """Loop nests long enough to arm the skip: whenever the pass
    returns a result, the skip-armed loop takes no skip and agrees."""
    program = loop_nest_program(seed, body, max(2600 // body, 110))
    for compiled, configs in (
        (DecoupledMachine.compile(program), {
            Unit.AU: UnitConfig(window=window, width=4, name="AU"),
            Unit.DU: UnitConfig(window=window, width=5, name="DU"),
        }),
        (SuperscalarMachine.compile(program),
         {Unit.SINGLE: UnitConfig(window=window, width=9)}),
    ):
        done, loop, collector = run_pair(
            compiled, configs, md, steady_ok=True
        )
        if done is not None:
            assert collector.counters["steady_skips"] == 0
            assert_pass_matches_loop(done, loop)


def test_certificate_hands_a_skipping_run_to_the_loop():
    # No window binds here, yet the loop finds a periodic state and
    # skips: the pass must decline so the skip counters stay the loop's.
    compiled = DecoupledMachine.compile(loop_nest_program(3, 12, 300))
    configs = {
        Unit.AU: UnitConfig(window=256, width=4, name="AU"),
        Unit.DU: UnitConfig(window=256, width=5, name="DU"),
    }
    unarmed, loop, _ = run_pair(compiled, configs, 0)
    assert unarmed is not None
    assert_pass_matches_loop(unarmed, loop)
    armed, _, collector = run_pair(compiled, configs, 0, steady_ok=True)
    assert collector.counters["steady_skips"] == 1
    assert armed is None
    shipped = simulate(compiled, configs, FixedLatencyMemory(0))
    assert shipped.telemetry.counters["steady_skips"] == 1


def op(gid, unit, latency=1, srcs=()):
    return MachineInstruction(
        gid=gid, unit=unit, mem_kind=MemKind.NONE, latency=latency,
        srcs=srcs,
    )


def window_edge_program(du_length: int) -> MachineProgram:
    """A DU window of 2 filled at cycle 0 by two consumers of a slow AU
    producer, so nothing issues on the DU at cycle 1."""
    du = [op(1, Unit.DU, srcs=(0,)), op(2, Unit.DU, srcs=(0,))]
    du += [op(gid, Unit.DU) for gid in range(3, du_length + 1)]
    return MachineProgram("edge", {
        Unit.AU: [op(0, Unit.AU, latency=8)], Unit.DU: du,
    })


EDGE_CONFIGS = {
    Unit.AU: UnitConfig(window=4, width=2, name="AU"),
    Unit.DU: UnitConfig(window=2, width=2, name="DU"),
}


def test_full_window_with_nothing_issuing_next_cycle_declines():
    # Occupancy reaches exactly the window at cycle 0 and the DU issues
    # nothing at cycle 1, so its dispatch stalls there: the window
    # binds, the pass declines, and the loop reproduces the oracle.
    program = window_edge_program(du_length=4)
    done, loop, _ = run_pair(program, EDGE_CONFIGS, 0)
    assert done is None
    naive = simulate_naive(program, EDGE_CONFIGS, FixedLatencyMemory(0))
    assert_same_schedule(loop[0], naive)
    assert naive.issue_times[3] == 10  # dispatched once a slot freed


def test_full_window_at_the_end_of_the_stream_is_not_binding():
    # The same full window with nothing left to dispatch holds nothing
    # back: the pass keeps the run and matches the loop and the oracle.
    program = window_edge_program(du_length=2)
    done, loop, _ = run_pair(program, EDGE_CONFIGS, 0)
    assert done is not None
    assert_pass_matches_loop(done, loop)
    naive = simulate_naive(program, EDGE_CONFIGS, FixedLatencyMemory(0))
    assert_same_schedule(done[0], naive)


def test_declines_descending_streams_and_wide_units():
    # A stream out of gid order breaks oldest-first == stream order,
    # and per-cycle slot counts are bytes: both go to the loop.
    unordered = MachineProgram("unordered", {
        Unit.SINGLE: [op(1, Unit.SINGLE), op(0, Unit.SINGLE)],
    })
    wide = {Unit.SINGLE: UnitConfig(window=4, width=256)}
    ordered = MachineProgram("ordered", {
        Unit.SINGLE: [op(0, Unit.SINGLE), op(1, Unit.SINGLE)],
    })
    narrow = {Unit.SINGLE: UnitConfig(window=4, width=2)}
    assert run_pair(unordered, narrow, 0)[0] is None
    assert run_pair(ordered, wide, 0)[0] is None
    assert run_pair(ordered, narrow, 0)[0] is not None
