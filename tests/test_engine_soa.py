"""Parity suite for the struct-of-arrays engine.

Two independent implementations of the docs/timing.md semantics must
agree on the whole result, instruction for instruction:

* ``simulate`` — the SoA engine (fast loop with its probe route,
  steady-state accelerator, speculative fixed point and event heap);
* ``simulate_naive`` — the cycle-by-cycle oracle, which shares no
  lowering, batching or event skipping with the engine.

The suite compares whole kernels at ``tiny`` and ``small`` scale on
both machine models, random loop-nest programs (which exercise the
steady-state skip on arbitrary structures), and the probe /
stateful-memory paths. Test names ending in ``object_engine`` keep
the ids they had when the reference was the retired pre-SoA object
engine; they compare against the naive oracle.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DecoupledMachine,
    KernelBuilder,
    SuperscalarMachine,
    Unit,
    UnitConfig,
)
from repro.config import DEFAULT_LATENCIES
from repro.experiments.scales import PRESETS
from repro.kernels import PAPER_ORDER, build_kernel
from repro.machines import simulate, simulate_naive
from repro.machines import engine
from repro.machines.engine import _MAX_CHECKPOINTS, _cycle_loop
from repro.memory import (
    BankedMemory,
    BypassBuffer,
    CacheMemory,
    FixedLatencyMemory,
    MemorySystem,
    StreamPrefetcher,
)
from repro.obs.telemetry import TelemetryCollector

TINY = PRESETS["tiny"].scale
SMALL = PRESETS["small"].scale


def dm_configs(window: int) -> dict[Unit, UnitConfig]:
    return {
        Unit.AU: UnitConfig(window=window, width=4, name="AU"),
        Unit.DU: UnitConfig(window=window, width=5, name="DU"),
    }


def swsm_configs(window: int) -> dict[Unit, UnitConfig]:
    return {Unit.SINGLE: UnitConfig(window=window, width=9)}


def compiled_variants(name: str, scale: int):
    program = build_kernel(name, scale)
    yield DecoupledMachine.compile(program), dm_configs
    yield SuperscalarMachine.compile(program), swsm_configs


def run_unskipped(compiled, configs, memory, *, chunked=False):
    """The cycle loop driven directly, steady-state skip disarmed.

    Uniform memory folds into one latency table; ``chunked`` answers
    every issue batch with one live query instead (stateful models).
    Returns the result and the run's telemetry collector.
    """
    low = compiled.lowered()
    memory.reset()
    if chunked:
        addlat = low.base_addlat
    else:
        addlat = low.addlat_for(
            DEFAULT_LATENCIES.mem_base + memory.uniform_extra_latency()
        )
    collector = TelemetryCollector()
    result, _ = _cycle_loop(
        low, compiled, configs, memory, addlat, DEFAULT_LATENCIES,
        True, steady_ok=False, chunked=chunked, collector=collector,
    )
    return result, collector


def trace_checkpoints(monkeypatch) -> list[tuple[str, object]]:
    """Log every steady-state snapshot and canonicalisation, in order."""
    log: list[tuple[str, object]] = []
    snapshot, canonical = engine._snapshot, engine._canonical

    def logged_snapshot(*args):
        snap = snapshot(*args)
        log.append(("snapshot", snap))
        return snap

    def logged_canonical(snap, total):
        log.append(("canonical", snap))
        return canonical(snap, total)

    monkeypatch.setattr(engine, "_snapshot", logged_snapshot)
    monkeypatch.setattr(engine, "_canonical", logged_canonical)
    return log


def assert_same_schedule(new, old) -> None:
    """Full-result equality between two runs (engine or oracle)."""
    assert new.cycles == old.cycles
    assert new.instructions == old.instructions
    assert new.unit_stats == old.unit_stats
    assert new.issue_times == old.issue_times
    assert new.esw_peak == old.esw_peak
    assert new.esw_mean == old.esw_mean
    assert new.buffer_occupancy == old.buffer_occupancy


class TestKernelParity:
    """Bit-identical schedules on the full kernel suite."""

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_tiny_vs_naive_reference(self, name):
        for compiled, make_configs in compiled_variants(name, TINY):
            configs = make_configs(16)
            for md in (0, 60):
                result = simulate(
                    compiled,
                    configs,
                    FixedLatencyMemory(md),
                    collect_issue_times=True,
                )
                naive = simulate_naive(
                    compiled, configs, FixedLatencyMemory(md)
                )
                assert_same_schedule(result, naive)

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_small_vs_object_engine(self, name):
        for compiled, make_configs in compiled_variants(name, SMALL):
            for window in (16, 64):
                configs = make_configs(window)
                for md in (0, 60):
                    new = simulate(
                        compiled,
                        configs,
                        FixedLatencyMemory(md),
                        collect_issue_times=True,
                    )
                    naive = simulate_naive(
                        compiled, configs, FixedLatencyMemory(md)
                    )
                    assert_same_schedule(new, naive)


def loop_nest_program(seed: int, body: int, iterations: int):
    """A random but structurally periodic trace: one random loop body
    repeated verbatim, with constant-offset cross-iteration deps."""
    rng = random.Random(seed)
    builder = KernelBuilder(f"loop{seed}", seed=seed)
    array = builder.array("a", 4096)
    plan = []
    for position in range(body):
        choice = rng.random()
        deps = []
        if position and rng.random() < 0.8:
            deps.append(rng.randrange(position))  # same-iteration dep
        if rng.random() < 0.3:
            deps.append(-1 - rng.randrange(body))  # previous iteration
        plan.append((choice, tuple(deps), rng.randrange(64)))
    previous: list = []
    induction = None
    for iteration in range(iterations):
        induction = builder.induction(induction)
        current: list = []
        for choice, deps, index in plan:
            srcs = [induction]
            for dep in deps:
                if dep >= 0:
                    srcs.append(current[dep])
                elif previous:
                    srcs.append(previous[len(previous) + dep])
            if choice < 0.3:
                value = builder.load(array, (iteration * 64 + index) % 4096,
                                     *srcs)
            elif choice < 0.4:
                builder.store(array, index, srcs[-1], *srcs[:-1])
                value = builder.iadd(*srcs)
            elif choice < 0.7:
                value = builder.fadd(*srcs)
            else:
                value = builder.fmul(*srcs)
            current.append(value)
        previous = current
    return builder.build()


class TestSteadyStateAccelerator:
    def test_kernel_steady_state_detected(self):
        compiled = DecoupledMachine.compile(build_kernel("flo52q", SMALL))
        steady = compiled.lowered().steady()
        assert steady is not None
        assert steady.period >= 1
        assert sum(steady.unit_counts) == steady.period

    def test_skip_fires_on_small_kernels(self):
        compiled = DecoupledMachine.compile(build_kernel("flo52q", SMALL))
        new = simulate(compiled, dm_configs(32), FixedLatencyMemory(60),
                       collect_issue_times=True)
        assert new.telemetry.counters["steady_skips"] == 1
        naive = simulate_naive(compiled, dm_configs(32),
                               FixedLatencyMemory(60))
        assert_same_schedule(new, naive)

    def test_env_toggle_disables_skip(self):
        # The skip has no switch: shipped routing always arms it, and
        # the same loop driven directly with it disarmed must produce
        # the identical schedule.
        compiled = DecoupledMachine.compile(build_kernel("trfd", SMALL))
        enabled = simulate(compiled, dm_configs(32), FixedLatencyMemory(60),
                           collect_issue_times=True)
        assert enabled.telemetry.counters["steady_skips"] >= 1
        disabled, collector = run_unskipped(
            compiled, dm_configs(32), FixedLatencyMemory(60)
        )
        assert collector.counters["steady_skips"] == 0
        assert_same_schedule(enabled, disabled)

    def test_unmatched_search_builds_no_canonical_form(self, monkeypatch):
        # track on the SWSM never repeats its scheduler state within the
        # checkpoint budget, and every checkpoint fails a cheap
        # per-period check: the search snapshots and never canonicalises.
        compiled = SuperscalarMachine.compile(build_kernel("track", SMALL))
        log = trace_checkpoints(monkeypatch)
        result = simulate(compiled, swsm_configs(64), FixedLatencyMemory(0))
        assert result.telemetry.counters["steady_skips"] == 0
        assert [kind for kind, _ in log] == ["snapshot"] * _MAX_CHECKPOINTS
        naive = simulate_naive(compiled, swsm_configs(64),
                               FixedLatencyMemory(0))
        assert result.cycles == naive.cycles

    def test_skip_canonicalises_only_checkpoints_that_pass(self, monkeypatch):
        compiled = DecoupledMachine.compile(build_kernel("trfd", TINY))
        log = trace_checkpoints(monkeypatch)
        result = simulate(compiled, dm_configs(16), FixedLatencyMemory(0))
        assert result.telemetry.counters["steady_skips"] == 1
        # Group each checkpoint's snapshot with the canonical forms built
        # while it was compared: its own and, unless cached, its
        # predecessor's.
        checkpoints: list[tuple[object, list]] = []
        for kind, snap in log:
            if kind == "snapshot":
                checkpoints.append((snap, []))
            else:
                checkpoints[-1][1].append(snap)
        assert any(built for _, built in checkpoints)
        for index, (snap, built) in enumerate(checkpoints):
            assert len(built) <= 2
            if built:
                assert built[-1] is snap
            if len(built) == 2:
                assert built[0] is checkpoints[index - 1][0]
        canonicalised = [id(snap) for _, built in checkpoints for snap in built]
        assert len(canonicalised) == len(set(canonicalised))
        naive = simulate_naive(compiled, dm_configs(16),
                               FixedLatencyMemory(0))
        assert result.cycles == naive.cycles

    def test_irregular_program_has_no_steady_state(self):
        rng = random.Random(7)
        builder = KernelBuilder("irregular", seed=7)
        array = builder.array("a", 512)
        values = []
        for position in range(3000):
            if values and rng.random() < 0.6:
                values.append(builder.fadd(rng.choice(values[-30:])))
            elif rng.random() < 0.5:
                values.append(builder.load(array, rng.randrange(512)))
            else:
                values.append(builder.iadd())
        compiled = DecoupledMachine.compile(builder.build())
        assert compiled.lowered().steady() is None

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        body=st.integers(8, 40),
        window=st.sampled_from([4, 16, 64]),
        md=st.sampled_from([0, 13, 60]),
    )
    def test_random_loop_nests_match_object_engine(self, seed, body, window,
                                                   md):
        iterations = max(3, 3200 // body)
        program = loop_nest_program(seed, body, iterations)
        for compile_fn, make_configs in (
            (DecoupledMachine.compile, dm_configs),
            (SuperscalarMachine.compile, swsm_configs),
        ):
            compiled = compile_fn(program)
            configs = make_configs(window)
            new = simulate(compiled, configs, FixedLatencyMemory(md),
                           collect_issue_times=True)
            naive = simulate_naive(compiled, configs, FixedLatencyMemory(md))
            assert_same_schedule(new, naive)


def stateful_model_zoo():
    """Fresh instances of every stateful model, one factory per kind."""
    yield "bypass", lambda: BypassBuffer(
        FixedLatencyMemory(60), entries=32, line_bytes=1
    )
    yield "cache", lambda: CacheMemory(miss_extra=60)
    yield "banked", lambda: BankedMemory(
        extra=60, banks=4, interleave_bytes=32, busy=3
    )
    yield "prefetch", lambda: StreamPrefetcher(FixedLatencyMemory(60))


class TestStatefulMemoryParity:
    """Every stateful model, every machine: bit-identical to the naive
    oracle. At ``small`` scale the kernels are large enough that the
    speculative fixed point (bypass/cache/prefetch) and the chunked
    live path (banked) are both exercised."""

    @pytest.mark.parametrize("name", ["flo52q", "trfd", "mdg"])
    @pytest.mark.parametrize(
        "label", [label for label, _ in stateful_model_zoo()]
    )
    def test_small_kernels_match_object_engine(self, name, label):
        make_memory = dict(stateful_model_zoo())[label]
        for compiled, make_configs in compiled_variants(name, SMALL):
            new = simulate(compiled, make_configs(32), make_memory(),
                           collect_issue_times=True)
            naive = simulate_naive(compiled, make_configs(32), make_memory())
            assert_same_schedule(new, naive)

    def test_stateful_runs_are_deterministic(self):
        compiled = DecoupledMachine.compile(build_kernel("flo52q", SMALL))
        for label, make_memory in stateful_model_zoo():
            first = simulate(compiled, dm_configs(32), make_memory(),
                             collect_issue_times=True)
            second = simulate(compiled, dm_configs(32), make_memory(),
                              collect_issue_times=True)
            assert_same_schedule(first, second)

    def test_model_reset_between_reused_runs(self):
        # The engine resets the model at entry, so reusing one instance
        # across runs is identical to using fresh instances.
        compiled = DecoupledMachine.compile(build_kernel("flo52q", SMALL))
        for label, make_memory in stateful_model_zoo():
            shared = make_memory()
            first = simulate(compiled, dm_configs(32), shared,
                             collect_issue_times=True)
            again = simulate(compiled, dm_configs(32), shared,
                             collect_issue_times=True)
            fresh = simulate(compiled, dm_configs(32), make_memory(),
                             collect_issue_times=True)
            assert_same_schedule(first, again)
            assert_same_schedule(again, fresh)

    def test_speculation_toggle_matches(self):
        # The speculative fixed point must reproduce the live chunked
        # loop (no skip, no speculation) exactly: only the route
        # differs.
        compiled = DecoupledMachine.compile(build_kernel("flo52q", SMALL))
        make_memory = dict(stateful_model_zoo())["bypass"]
        fast = simulate(compiled, dm_configs(32), make_memory(),
                        collect_issue_times=True)
        assert fast.telemetry.strategy == "speculative"
        slow, _ = run_unskipped(compiled, dm_configs(32), make_memory(),
                                chunked=True)
        assert_same_schedule(fast, slow)

    def test_stateful_stats_identical_across_paths(self):
        # Hit counters come from the replayed model on the speculative
        # path and from live chunks otherwise; they must agree.
        compiled = DecoupledMachine.compile(build_kernel("flo52q", SMALL))
        make_memory = dict(stateful_model_zoo())["bypass"]
        spec_memory = make_memory()
        spec = simulate(compiled, dm_configs(32), spec_memory)
        assert spec.telemetry.strategy == "speculative"
        live_memory = make_memory()
        run_unskipped(compiled, dm_configs(32), live_memory, chunked=True)
        assert spec_memory.stats() == live_memory.stats()


class ParityCheckedMemory(MemorySystem):
    """Address-hash latencies, pure: no history and no clock."""

    def extra_latency(self, addr: int, now: int) -> int:
        return (addr >> 3) % 7

    def latencies(self, addrs, now):
        return [(addr >> 3) % 7 for addr in addrs]

    def reset(self) -> None:
        pass


class TestStatelessCapability:
    def test_stateless_matches_object_engine(self):
        # A pure function of the address is not uniform, so it takes
        # the stateful routes (speculative fixed point, event heap),
        # which must match the oracle exactly.
        routes = set()
        for name in ("flo52q", "mdg"):
            for compiled, make_configs in compiled_variants(name, SMALL):
                new = simulate(compiled, make_configs(32),
                               ParityCheckedMemory(),
                               collect_issue_times=True)
                naive = simulate_naive(compiled, make_configs(32),
                                       ParityCheckedMemory())
                assert_same_schedule(new, naive)
                routes.add(new.telemetry.strategy)
        assert routes <= {"speculative", "events-chunked", "chunked"}


class TestGeneralLoopParity:
    """The probing path must match the naive oracle too."""

    def test_probe_buffers_and_esw(self):
        compiled = DecoupledMachine.compile(build_kernel("mdg", TINY))
        for md in (0, 60):
            new = simulate(compiled, dm_configs(32), FixedLatencyMemory(md),
                           probe_buffers=True, probe_esw=True,
                           collect_issue_times=True)
            naive = simulate_naive(compiled, dm_configs(32),
                                   FixedLatencyMemory(md),
                                   probe_buffers=True, probe_esw=True)
            assert_same_schedule(new, naive)
            assert new.buffer_occupancy is not None

    def test_stateful_memory_models(self):
        compiled = SuperscalarMachine.compile(build_kernel("track", TINY))
        for make_memory in (
            lambda: CacheMemory(miss_extra=60),
            lambda: BypassBuffer(FixedLatencyMemory(60), entries=32),
        ):
            new = simulate(compiled, swsm_configs(32), make_memory(),
                           collect_issue_times=True)
            naive = simulate_naive(compiled, swsm_configs(32), make_memory())
            assert_same_schedule(new, naive)

    def test_probes_with_stateful_memory(self):
        # Probes force the fast loop's probe route even for stateful
        # models; the chunked queries must not disturb the intervals.
        compiled = DecoupledMachine.compile(build_kernel("mdg", TINY))
        for label, make_memory in stateful_model_zoo():
            new = simulate(compiled, dm_configs(32), make_memory(),
                           probe_buffers=True, probe_esw=True,
                           collect_issue_times=True)
            naive = simulate_naive(compiled, dm_configs(32), make_memory(),
                                   probe_buffers=True, probe_esw=True)
            assert_same_schedule(new, naive)
            assert new.buffer_occupancy is not None

    def test_uniform_memory_contract(self):
        assert FixedLatencyMemory(17).uniform_extra_latency() == 17
        assert CacheMemory().uniform_extra_latency() is None
        assert BypassBuffer(FixedLatencyMemory(5)).uniform_extra_latency() \
            is None


class TestLoweredForm:
    def test_lowering_is_cached_on_the_program(self):
        compiled = DecoupledMachine.compile(build_kernel("trfd", TINY))
        assert compiled.lowered() is compiled.lowered()

    def test_pickle_ships_the_columns_not_the_views(self):
        compiled = DecoupledMachine.compile(build_kernel("trfd", TINY))
        compiled.streams  # materialise the per-instruction view
        clone = pickle.loads(pickle.dumps(compiled))
        assert "streams" not in vars(clone)
        assert clone.lowered().cons == compiled.lowered().cons
        assert clone.streams == compiled.streams

    def test_consumer_table_matches_program(self):
        compiled = DecoupledMachine.compile(build_kernel("qcd", TINY))
        low = compiled.lowered()
        assert low.total == compiled.num_instructions
        for gid, consumers in compiled.consumers.items():
            assert sorted(low.cons[gid]) == sorted(consumers)


def test_huge_scale_preset_registered():
    assert "huge" in PRESETS
    assert PRESETS["huge"].scale > PRESETS["paper"].scale
