"""The per-program memo of the engine's uniform-table pass.

A table-driven pass never queries the memory model, so the uniform
route and the speculative fixed point's first guess (a uniform table
at the model's typical extra latency) run the same pass whenever the
latencies agree. :func:`repro.machines.engine._table_pass` keeps the
last such pass on its :class:`~repro.machines.lowered.LoweredProgram`
and rebuilds a repeat from it. These tests hold the memo to its
contract:

* a run that hits the memo equals a run on a freshly compiled program
  in every field, its telemetry strategy and counters included, for
  every hierarchy memory variant on both machines;
* passes that collect issue times or probe neither read nor write
  it, and a hierarchy sweep makes fewer fast-loop passes by exactly
  the passes its telemetry reports as reused;
* the memo is never pickled and costs no retained memory budget;
* threads sharing one program's memo still get exact results.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import tracemalloc

import pytest

from repro.api import HIERARCHY_MEMORY_VARIANTS, Session
from repro.api.presets import hierarchy_sweep
from repro.api.spec import Point
from repro.config import DEFAULT_LATENCIES, UnitConfig
from repro.experiments.scales import PRESETS
from repro.kernels import build_kernel
from repro.machines import engine, simulate
from repro.machines.registry import get_machine
from repro.memory import FixedLatencyMemory
from repro.partition.machine_program import (
    MachineInstruction,
    MachineProgram,
    MemKind,
    Unit,
)

TINY = PRESETS["tiny"].scale
MD = 60

#: SimulationResult fields compared besides telemetry.
RESULT_FIELDS = (
    "name", "cycles", "instructions", "unit_stats", "buffer_occupancy",
    "esw_peak", "esw_mean", "issue_times", "meta",
)
#: RunTelemetry fields that describe what was computed.
TELEMETRY_FIELDS = (
    "strategy", "counters", "memory_stats", "sim_cycles", "cache_tier",
)


def configs_for(machine: str, window: int = 32) -> dict[Unit, UnitConfig]:
    if machine == "dm":
        return {
            Unit.AU: UnitConfig(window=window, width=4, name="AU"),
            Unit.DU: UnitConfig(window=window, width=5, name="DU"),
        }
    return {Unit.SINGLE: UnitConfig(window=window, width=9)}


def compile_tiny(machine: str) -> MachineProgram:
    program = build_kernel("flo52q", TINY)
    point = Point(program="flo52q", machine=machine)
    return get_machine(machine).compile(program, point, DEFAULT_LATENCIES)


def looped_program(machine: str, iterations: int = 700) -> MachineProgram:
    """A hand-built loop: an induction chain feeding one memory access
    whose datum a running sum consumes. Long and periodic enough for
    the steady-state skip and the speculative fixed point; addresses
    sweep 512 words, so locality models hit and miss."""
    if machine == "dm":
        units = (Unit.AU, Unit.AU, Unit.DU, Unit.DU)
        kinds = (MemKind.NONE, MemKind.LOAD_ISSUE, MemKind.RECEIVE,
                 MemKind.NONE)
    else:
        units = (Unit.SINGLE,) * 4
        kinds = (MemKind.NONE, MemKind.PREFETCH_LOAD, MemKind.ACCESS_LOAD,
                 MemKind.NONE)
    streams: dict[Unit, list[MachineInstruction]] = {u: [] for u in units}
    for i in range(iterations):
        base = 4 * i
        srcs = (
            (base - 4,) if i else (),   # induction
            (base,),                    # access at the induction value
            (base + 1,),                # consume the datum
            (base + 2, base - 1) if i else (base + 2,),  # running sum
        )
        for offset, (unit, kind, src) in enumerate(zip(units, kinds, srcs)):
            gid = base + offset
            streams[unit].append(MachineInstruction(
                gid=gid,
                unit=unit,
                mem_kind=kind,
                latency=3 if offset == 3 else 1,
                srcs=src,
                addr=(i % 512) * 8 if offset == 1 else None,
                orig_index=gid,
            ))
    return MachineProgram(f"loop-{machine}", streams)


PROGRAMS = {"flo52q": compile_tiny, "loop": looped_program}


def assert_same_run(got, want) -> None:
    for name in RESULT_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    for name in TELEMETRY_FIELDS:
        assert getattr(got.telemetry, name) == getattr(want.telemetry, name), \
            name


@pytest.mark.parametrize("machine", ["dm", "swsm"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_memo_hits_equal_fresh_runs(program, machine):
    """Every variant run after the fixed point on one program equals
    the same variant on a freshly compiled one; the table-driven routes
    actually reuse a pass, and a speculation that falls back to a live
    route still returns the live route's exact result."""
    make = PROGRAMS[program]
    warm = make(machine)
    configs = configs_for(machine)
    strategies = set()
    for label, spec in HIERARCHY_MEMORY_VARIANTS:
        got = simulate(warm, configs, spec.build(MD))
        want = simulate(make(machine), configs, spec.build(MD))
        assert want.telemetry.reused_passes == 0
        assert_same_run(got, want)
        strategy = got.telemetry.strategy
        strategies.add(strategy)
        reused = got.telemetry.reused_passes
        if label == "fixed":
            assert strategy == "uniform-table" and reused == 0, label
        elif strategy in ("uniform-table", "speculative"):
            assert reused == 1, label
        elif label == "banked":  # declines speculation up front
            assert reused == 0, label
        else:  # speculated from the shared pass, then fell back
            assert reused <= 1, label
        # A rerun on the same program hits its own entry.
        again = simulate(warm, configs, spec.build(MD))
        assert_same_run(again, want)
    assert "speculative" in strategies


@pytest.mark.parametrize("machine", ["dm", "swsm"])
def test_memo_keys_on_unit_configs_and_latency(machine):
    """A pass at another window, width or differential is a miss, and
    still equals a fresh run."""
    warm = compile_tiny(machine)
    simulate(warm, configs_for(machine), FixedLatencyMemory(MD))
    wider = {
        unit: UnitConfig(window=config.window, width=config.width + 1)
        for unit, config in configs_for(machine).items()
    }
    for configs, md in (
        (configs_for(machine, window=16), MD),
        (wider, MD),
        (configs_for(machine), MD + 1),
        (configs_for(machine), MD),
    ):
        got = simulate(warm, configs, FixedLatencyMemory(md))
        want = simulate(compile_tiny(machine), configs, FixedLatencyMemory(md))
        assert got.telemetry.reused_passes == 0
        assert_same_run(got, want)
    # The latest entry is the one kept.
    hit = simulate(warm, configs_for(machine), FixedLatencyMemory(MD))
    assert hit.telemetry.reused_passes == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"collect_issue_times": True},
        {"probe_buffers": True},
    ],
    ids=["issue-times", "probes"],
)
@pytest.mark.parametrize("label", ["fixed", "cache"])
def test_other_passes_bypass_the_memo(label, kwargs):
    """Issue-time and probe runs neither read nor write it."""
    spec = dict(HIERARCHY_MEMORY_VARIANTS)[label]
    warm = looped_program("dm")
    configs = configs_for("dm")
    low = warm.lowered()
    assert low._pass_memo is None
    simulate(warm, configs, spec.build(MD), **kwargs)
    assert low._pass_memo is None
    simulate(warm, configs, FixedLatencyMemory(MD))
    memo = low._pass_memo
    assert memo is not None
    result = simulate(warm, configs, spec.build(MD), **kwargs)
    assert result.telemetry.reused_passes == 0
    assert low._pass_memo is memo
    fresh = simulate(looped_program("dm"), configs, spec.build(MD), **kwargs)
    assert_same_run(result, fresh)


def test_hierarchy_sweep_makes_fewer_fast_passes(monkeypatch):
    """One kernel's hierarchy sweep saves exactly the passes its
    telemetry reports reused, against the same points each run on a
    freshly compiled program."""
    calls = []
    fast = engine._simulate_fast

    def counting(*args, **kwargs):
        calls.append(1)
        return fast(*args, **kwargs)

    monkeypatch.setattr(engine, "_simulate_fast", counting)
    sweep = hierarchy_sweep("flo52q", window=32)

    session = Session(scale=TINY, batch=False)
    swept = session.run(sweep)
    sweep_passes = len(calls)
    reused = session.telemetry()["reused_passes"]

    calls.clear()
    cold = []
    for point in sweep.points():
        fresh = Session(scale=TINY, batch=False)
        cold.append(fresh.evaluate(point))
        assert fresh.telemetry()["reused_passes"] == 0
    cold_passes = len(calls)

    assert reused > 0
    assert sweep_passes == cold_passes - reused
    assert list(swept.results) == cold


def test_memo_is_never_pickled():
    """A program with a filled memo pickles to a fresh one's bytes."""
    warm = compile_tiny("dm")
    fresh = compile_tiny("dm")
    configs = configs_for("dm")
    for _, spec in HIERARCHY_MEMORY_VARIANTS:
        simulate(warm, configs, spec.build(MD))
    assert warm.lowered()._pass_memo is not None
    fresh.lowered().steady()  # the warm program computed its period
    assert pickle.dumps(warm) == pickle.dumps(fresh)
    assert pickle.dumps(warm.lowered()) == pickle.dumps(fresh.lowered())
    copy = pickle.loads(pickle.dumps(warm))
    assert copy.lowered()._pass_memo is None


def test_retained_bytes_per_gid_after_a_hierarchy_sweep():
    """The memo keeps a compiled program within the lowering budget
    (test_lowered_columns.py's 200 bytes per gid)."""
    program = build_kernel("flo52q", TINY)
    point = Point(program="flo52q", machine="dm")
    configs = configs_for("dm")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        compiled = get_machine("dm").compile(
            program, point, DEFAULT_LATENCIES
        )
        low = compiled.lowered()
        for _, spec in HIERARCHY_MEMORY_VARIANTS:
            simulate(compiled, configs, spec.build(MD))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert low._pass_memo is not None
    assert retained / low.total <= 200


def test_threads_sharing_one_program_get_exact_results():
    """Threads racing on one program's memo (as service jobs sharing a
    session's compiled programs do) each get the exact result: an entry
    is replaced whole, never read half-written."""
    warm = looped_program("dm", iterations=600)
    cases = [
        (window, label)
        for window in (8, 16, 32)
        for label in ("fixed", "bypass", "cache")
    ]
    specs = dict(HIERARCHY_MEMORY_VARIANTS)
    want = {
        (window, label): simulate(
            looped_program("dm", iterations=600), configs_for("dm", window),
            specs[label].build(MD),
        )
        for window, label in cases
    }
    mismatches: list[tuple] = []
    reused: list[int] = []

    def worker(offset: int) -> None:
        for step in range(12):
            window, label = cases[(offset + step) % len(cases)]
            got = simulate(
                warm, configs_for("dm", window), specs[label].build(MD)
            )
            reused.append(got.telemetry.reused_passes)
            reference = want[(window, label)]
            if got != reference or got.meta != reference.meta or \
                    got.telemetry.counters != reference.telemetry.counters:
                mismatches.append((window, label))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(reused) == 6 * 12
    assert not mismatches
