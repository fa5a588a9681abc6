"""Bit-exactness suite for the event-heap scheduler.

The event engine (``_simulate_events`` in :mod:`repro.machines.engine`)
must produce the exact schedule of the SoA cycle loops and of the
naive cycle-by-cycle oracle — across both machines (DM, SWSM), every
memory model kind the hierarchy scenario space ships
(fixed/bypass/cache/hierarchy/banked/prefetch), probes on and off, and
the steady-state skip armed (shipped routing) or disarmed (the fast
loop driven directly). Shipped routing sends time-sensitive
models to the heap; the suite checks that routing, drives the heap
directly where routing would not pick it, and pins the FIFO
seq-counter determinism of the event heap (docs/timing.md, "Event
scheduling").

Reuses the PR-2/PR-3 parity fixtures from ``test_engine_soa``.
"""

from __future__ import annotations

import os

import pytest

from test_engine_soa import (
    SMALL,
    TINY,
    assert_same_schedule,
    compiled_variants,
    dm_configs,
    loop_nest_program,
    run_unskipped,
    stateful_model_zoo,
    swsm_configs,
)

from repro import DecoupledMachine, SuperscalarMachine
from repro.api import MemorySpec, Point, Session
from repro.api.presets import HIERARCHY_MEMORY_VARIANTS
from repro.config import DEFAULT_LATENCIES
from repro.kernels import build_kernel
from repro.machines import simulate, simulate_naive
from repro.machines.engine import _simulate_events
from repro.memory import BankedMemory, FixedLatencyMemory
from repro.obs.telemetry import TelemetryCollector

MD = 60

MEMORY_KINDS = tuple(label for label, _ in HIERARCHY_MEMORY_VARIANTS)


def build_memory(label):
    spec = dict(HIERARCHY_MEMORY_VARIANTS)[label]
    return spec.build(MD)


def run_events(compiled, configs, memory, trace=None):
    """The event heap, driven directly (routing picks it only for
    time-sensitive models)."""
    return _simulate_events(
        compiled.lowered(), compiled, configs, memory, DEFAULT_LATENCIES,
        collect_issue_times=True, collector=TelemetryCollector(),
        trace=trace,
    )


class TestEventEngineParity:
    """Event heap vs shipped routing vs the naive oracle."""

    @pytest.mark.parametrize("label", MEMORY_KINDS)
    def test_every_memory_kind_both_machines(self, label):
        for compiled, make_configs in compiled_variants("flo52q", SMALL):
            configs = make_configs(32)
            shipped = simulate(compiled, configs, build_memory(label),
                               collect_issue_times=True)
            events = run_events(compiled, configs, build_memory(label))
            naive = simulate_naive(compiled, configs, build_memory(label))
            assert_same_schedule(shipped, naive)
            assert_same_schedule(events, naive)

    @pytest.mark.parametrize("label", [l for l, _ in stateful_model_zoo()])
    def test_stateful_zoo_configurations(self, label):
        # The zoo's configurations (small bypass, 4-bank queue, ...)
        # differ from the hierarchy scenario space; cover them too.
        make_memory = dict(stateful_model_zoo())[label]
        for compiled, make_configs in compiled_variants("trfd", SMALL):
            events = run_events(compiled, make_configs(32), make_memory())
            naive = simulate_naive(compiled, make_configs(32),
                                   make_memory())
            assert_same_schedule(events, naive)

    def test_stateful_stats_identical(self):
        # The event engine feeds a stateful model the same chunk
        # sequence as the chunked cycle loop, so hit/conflict counters
        # agree.
        compiled = DecoupledMachine.compile(build_kernel("flo52q", SMALL))
        for label in ("banked", "prefetch", "cache"):
            ev_memory = build_memory(label)
            run_events(compiled, dm_configs(32), ev_memory)
            loop_memory = build_memory(label)
            run_unskipped(compiled, dm_configs(32), loop_memory,
                          chunked=True)
            assert ev_memory.stats() == loop_memory.stats()

    def test_random_loop_nests(self):
        for seed in (3, 11, 29):
            program = loop_nest_program(seed, body=24, iterations=130)
            for compile_fn, make_configs in (
                (DecoupledMachine.compile, dm_configs),
                (SuperscalarMachine.compile, swsm_configs),
            ):
                compiled = compile_fn(program)
                events = run_events(compiled, make_configs(16),
                                    FixedLatencyMemory(MD))
                naive = simulate_naive(compiled, make_configs(16),
                                       FixedLatencyMemory(MD))
                assert_same_schedule(events, naive)

    def test_period_skip_toggle_is_invisible(self):
        # The event engine has no skip layer: its schedule must match
        # the skip-accelerated shipped run and the same fast loop
        # driven with the skip disarmed.
        compiled = DecoupledMachine.compile(build_kernel("flo52q", SMALL))
        events = run_events(compiled, dm_configs(32), FixedLatencyMemory(MD))
        shipped = simulate(compiled, dm_configs(32), FixedLatencyMemory(MD),
                           collect_issue_times=True)
        assert shipped.telemetry.counters["steady_skips"] >= 1
        unskipped, _ = run_unskipped(compiled, dm_configs(32),
                                     FixedLatencyMemory(MD))
        assert_same_schedule(events, shipped)
        assert_same_schedule(events, unskipped)

    def test_probes_route_past_the_event_engine(self):
        # Probing runs keep their dedicated loop, even on time-sensitive
        # models routing would otherwise send to the heap; results must
        # match the naive oracle bit for bit.
        compiled = DecoupledMachine.compile(build_kernel("mdg", TINY))
        for label in ("fixed", "banked", "prefetch"):
            probed = simulate(compiled, dm_configs(32), build_memory(label),
                              probe_buffers=True, probe_esw=True,
                              collect_issue_times=True)
            assert probed.telemetry.strategy == "probing"
            naive = simulate_naive(compiled, dm_configs(32),
                                   build_memory(label),
                                   probe_buffers=True, probe_esw=True)
            assert_same_schedule(probed, naive)
            assert probed.buffer_occupancy is not None


class TestStrategySelection:
    """Routing depends on the inputs alone.

    The retired ``REPRO_EVENT_ENGINE`` toggle is inert: no spelling of
    it (force, off or unknown) moves a run off its shipped route.
    """

    def test_auto_routes_time_sensitive_models_to_the_heap(self):
        compiled = DecoupledMachine.compile(build_kernel("flo52q", SMALL))

        def strategy(label):
            result = simulate(compiled, dm_configs(32), build_memory(label))
            return result.telemetry.strategy

        assert strategy("banked") == "events-chunked"
        assert strategy("fixed") == "uniform-table"
        assert strategy("cache") in ("speculative", "chunked")

    @pytest.mark.parametrize("spelling", ["1", "on", "force", "events"])
    def test_force_spellings(self, spelling, monkeypatch):
        monkeypatch.setenv("REPRO_EVENT_ENGINE", spelling)
        compiled = DecoupledMachine.compile(build_kernel("trfd", TINY))
        result = simulate(compiled, dm_configs(16), FixedLatencyMemory(MD))
        assert result.telemetry.strategy == "uniform-table"

    @pytest.mark.parametrize("spelling", ["0", "off", "soa"])
    def test_off_spellings(self, spelling, monkeypatch):
        monkeypatch.setenv("REPRO_EVENT_ENGINE", spelling)
        compiled = DecoupledMachine.compile(build_kernel("trfd", TINY))
        result = simulate(compiled, dm_configs(16), build_memory("banked"))
        assert result.telemetry.strategy == "events-chunked"

    def test_unknown_spelling_is_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENT_ENGINE", "bogus")
        compiled = DecoupledMachine.compile(build_kernel("trfd", TINY))
        result = simulate(compiled, dm_configs(16), FixedLatencyMemory(MD))
        assert result.telemetry.strategy == "uniform-table"

    def test_event_runs_counter_increments(self):
        compiled = DecoupledMachine.compile(build_kernel("trfd", TINY))
        result = simulate(compiled, dm_configs(16), build_memory("banked"))
        assert result.telemetry.counters["event_runs"] == 1


class TestHeapDeterminism:
    """Regression pin for FIFO seq-counter tie-breaking (docs/timing.md).

    Like the lazy-cancel scheduler heap in :mod:`repro.service.jobs`,
    the engine heap carries a monotone insertion counter so entries at
    equal timestamps pop in insertion order — without it, Python's
    heapq would compare event codes and reorder same-cycle events
    between runs and worker processes.
    """

    def _trace(self, compiled, memory):
        trace = []
        result = run_events(compiled, dm_configs(32), memory, trace)
        return result, trace

    def test_identical_runs_produce_identical_traces(self):
        compiled = DecoupledMachine.compile(build_kernel("trfd", TINY))
        first_result, first = self._trace(
            compiled, BankedMemory(extra=MD, banks=4, busy=3))
        second_result, second = self._trace(
            compiled, BankedMemory(extra=MD, banks=4, busy=3))
        assert first == second
        assert_same_schedule(first_result, second_result)

    def test_popped_times_non_decreasing_and_seq_fifo(self):
        compiled = DecoupledMachine.compile(build_kernel("flo52q", TINY))
        _, trace = self._trace(compiled, FixedLatencyMemory(MD))
        assert trace, "event engine must pop at least one event"
        for (t0, s0, _), (t1, s1, _) in zip(trace, trace[1:]):
            assert t1 >= t0
            if t1 == t0:
                # FIFO at equal timestamps: insertion order, by seq.
                assert s1 > s0

    def test_seq_counter_is_injective(self):
        compiled = DecoupledMachine.compile(build_kernel("trfd", TINY))
        _, trace = self._trace(compiled, FixedLatencyMemory(MD))
        seqs = [seq for _, seq, _ in trace]
        assert len(seqs) == len(set(seqs))


class TestSessionEngineKnob:
    """Session has no engine knob: every point routes from its inputs."""

    def test_engine_choice_is_bit_invariant(self):
        # The only dispatch choice left, batched vs per-point, never
        # changes a result.
        points = [
            Point(program="flo52q", machine="dm", window=window,
                  memory=MemorySpec(kind=kind), memory_differential=MD)
            for window in (16, 32)
            for kind in ("fixed", "banked")
        ]
        batched = Session(scale=2_000).run(points)
        scalar = Session(scale=2_000, batch=False).run(points)
        single = tuple(Session(scale=2_000).evaluate(p) for p in points)
        assert batched.results == scalar.results == single

    def test_parallel_sweep_matches_serial(self):
        points = [
            Point(program=name, machine=machine, window=16,
                  memory=MemorySpec(kind="banked"), memory_differential=MD)
            for name in ("trfd", "mdg")
            for machine in ("dm", "swsm")
        ]
        serial = Session(scale=2_000).run(points)
        parallel = Session(scale=2_000).run(points, jobs=2)
        assert serial.cycles() == parallel.cycles()
        assert serial.results == parallel.results

    def test_invalid_engine_rejected(self):
        with pytest.raises(TypeError):
            Session(engine="events")

    def test_environment_restored_after_evaluate(self):
        before = dict(os.environ)
        point = Point(program="trfd", machine="dm", window=16,
                      memory=MemorySpec(kind="banked"),
                      memory_differential=MD)
        Session(scale=2_000).evaluate(point)
        assert dict(os.environ) == before
