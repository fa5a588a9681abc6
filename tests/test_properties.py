"""Cross-cutting property tests on metrics, timing bounds, and the
event-heap scheduler's determinism invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DecoupledMachine, SuperscalarMachine, Unit, UnitConfig
from repro.config import DEFAULT_LATENCIES
from repro.kernels import PAPER_ORDER, build_kernel
from repro.machines import simulate, simulate_naive
from repro.machines.engine import _simulate_events
from repro.memory import BankedMemory, FixedLatencyMemory, StreamPrefetcher
from repro.metrics import find_equivalent_window
from repro.obs.telemetry import TelemetryCollector
from repro.workloads import FAMILIES


@settings(max_examples=50, deadline=None)
@given(
    levels=st.lists(st.integers(1, 10_000), min_size=2, max_size=8),
    target_index=st.integers(0, 7),
)
def test_equivalent_window_finds_first_satisfying_step(levels, target_index):
    """On any monotone step function the search returns the true
    crossing (up to the documented interpolation within one window)."""
    steps = sorted(set(levels), reverse=True)
    boundaries = [2 ** (k + 1) for k in range(len(steps))]

    def evaluate(window: int) -> int:
        for boundary, value in zip(boundaries, steps):
            if window < boundary:
                return value
        return steps[-1]

    target = steps[min(target_index, len(steps) - 1)]
    result = find_equivalent_window(evaluate, target, max_window=1 << 12)
    # The integer window just above the result must satisfy the target,
    # and the one below the crossing must not (unless window 1 works).
    import math

    ceiling = max(1, math.ceil(result - 1e-9))
    assert evaluate(ceiling) <= target
    if ceiling > 1:
        below = ceiling - 1
        if evaluate(below) <= target:
            # Interpolation may land inside a satisfied plateau only if
            # the plateau extends to window 1.
            assert all(evaluate(w) <= target for w in range(1, ceiling))


@settings(max_examples=30, deadline=None)
@given(
    serial=st.integers(1, 10 ** 6),
    divisor=st.integers(1, 1_000),
)
def test_equivalent_window_on_smooth_curves(serial, divisor):
    def evaluate(window: int) -> int:
        return max(1, serial // window)

    target = max(1, serial // divisor)
    result = find_equivalent_window(evaluate, target, max_window=1 << 22)
    import math

    assert evaluate(max(1, math.ceil(result))) <= target


class TestTimingBoundsAcrossKernels:
    """Every kernel satisfies the analytic sandwich at every md."""

    def test_critical_path_below_serial(self):
        for name in PAPER_ORDER:
            program = build_kernel(name, 3_000)
            for md in (0, 30, 60):
                assert program.critical_path(md) <= program.serial_time(md)

    def test_serial_time_linear_in_differential(self):
        for name in PAPER_ORDER:
            program = build_kernel(name, 3_000)
            t0 = program.serial_time(0)
            t30 = program.serial_time(30)
            t60 = program.serial_time(60)
            assert t60 - t30 == t30 - t0 == 30 * program.stats.loads

    def test_machines_sit_between_bounds(self, claims_lab):
        for name in PAPER_ORDER:
            program = claims_lab.program(name)
            lower = program.critical_path(60)
            upper = claims_lab.serial_cycles(name, 60)
            dm = claims_lab.dm_cycles(name, None, 60)
            swsm = claims_lab.swsm_cycles(name, None, 60)
            # The DM inserts copy/receive hops, so its floor is the
            # architectural critical path; both machines must beat the
            # non-overlapped serial reference on these workloads.
            assert lower <= dm < upper, name
            assert swsm < upper, name


# -- event-heap scheduler invariants ------------------------------------------

_GEN_SCALE = 1_200

_MEMORY_FACTORIES = {
    "fixed": lambda: FixedLatencyMemory(60),
    "banked": lambda: BankedMemory(extra=60, banks=4, busy=3),
    "prefetch": lambda: StreamPrefetcher(FixedLatencyMemory(60)),
}

_MACHINES = {
    "dm": (
        DecoupledMachine.compile,
        {
            Unit.AU: UnitConfig(window=16, width=4, name="AU"),
            Unit.DU: UnitConfig(window=16, width=5, name="DU"),
        },
    ),
    "swsm": (
        SuperscalarMachine.compile,
        {Unit.SINGLE: UnitConfig(window=16, width=9)},
    ),
}


def _event_trace(compiled, memory):
    """One direct event-heap run; returns (result, popped events)."""
    low = compiled.lowered()
    _, configs = _MACHINES["dm" if len(low.units) == 2 else "swsm"]
    trace: list[tuple[int, int, int]] = []
    result = _simulate_events(
        low, compiled, configs, memory, DEFAULT_LATENCIES,
        collect_issue_times=True, collector=TelemetryCollector(),
        trace=trace,
    )
    return result, trace


class TestEventHeapProperties:
    """Hypothesis invariants of the event-heap scheduler over random
    generated kernels (``gen:<family>:<seed>`` names)."""

    @settings(max_examples=15, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(sorted(_MEMORY_FACTORIES)),
    )
    def test_popped_event_times_are_non_decreasing(self, family, seed, kind):
        compiled = DecoupledMachine.compile(
            build_kernel(f"gen:{family}:{seed}", _GEN_SCALE)
        )
        _, trace = _event_trace(compiled, _MEMORY_FACTORIES[kind]())
        times = [t for t, _, _ in trace]
        assert times == sorted(times)

    @settings(max_examples=10, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 10_000),
        machine=st.sampled_from(sorted(_MACHINES)),
    )
    def test_heap_tie_breaks_are_fifo_deterministic(self, family, seed,
                                                    machine):
        # Two identical runs must pop the identical (time, seq, code)
        # sequence — the seq counter pins insertion order at equal
        # timestamps, so there is nothing left to vary.
        compile_fn, _ = _MACHINES[machine]
        compiled = compile_fn(build_kernel(f"gen:{family}:{seed}",
                                           _GEN_SCALE))
        first_result, first = _event_trace(
            compiled, BankedMemory(extra=60, banks=4, busy=3))
        second_result, second = _event_trace(
            compiled, BankedMemory(extra=60, banks=4, busy=3))
        assert first == second
        assert first_result == second_result
        for (t0, s0, _), (t1, s1, _) in zip(first, first[1:]):
            if t1 == t0:
                assert s1 > s0

    @settings(max_examples=12, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 10_000),
    )
    def test_heap_matches_reference(self, family, seed):
        # The heap driven directly and whichever loop the shipped
        # routing picks must both equal the naive oracle, for every
        # memory kind on both machines.
        program = build_kernel(f"gen:{family}:{seed}", _GEN_SCALE)
        for compile_fn, configs in _MACHINES.values():
            compiled = compile_fn(program)
            for make_memory in _MEMORY_FACTORIES.values():
                naive = simulate_naive(compiled, configs, make_memory())
                events = _simulate_events(
                    compiled.lowered(), compiled, configs, make_memory(),
                    DEFAULT_LATENCIES, collect_issue_times=True,
                    collector=TelemetryCollector(),
                )
                shipped = simulate(compiled, configs, make_memory(),
                                   collect_issue_times=True)
                assert events == naive
                assert shipped == naive
