"""Struct-of-arrays engine throughput across the scale tiers.

Times the shipped engine (``repro.machines.engine.simulate``) on
FLO52Q at the ``small``, ``paper`` and ``huge`` tiers — under the
paper's fixed-differential memory *and* under every stateful memory
model (bypass buffer, cache hierarchy, banked memory, stream
prefetcher) — and records every row in ``BENCH_engine.json``. Each
tier first asserts cycle parity of the shipped route against the
probe route's loop run with probes off (``_simulate_fast`` with its
stateful branch, chunked queries, no steady-state skip and no
speculation), so those accelerators are cross-checked at every tier,
``paper`` and ``huge`` included. The stateful tiers track how
the accelerated routes perform: bypass-style models ride the
speculative schedule fixed point (docs/timing.md), the rest the
chunked issue-order path. Every timed round is a cold pass on a fresh
unpickled copy of the compiled program (see ``_best_of``).

The event-heap tiers (``measure_events``) time the event scheduler
against that probes-off probe-route loop on
dm+{banked,prefetch,hierarchy,banked-long} — the time-sensitive /
long-latency models it was built for — and assert it wins on the
long-latency ``banked-long`` tier at ``paper`` and ``huge`` scale.

The unlimited-window tier (``measure_unlimited``) times the shipped
uniform-table route at the paper's unlimited window (as large as the
compiled program), which the dataflow pass schedules without a cycle
loop, against the cycle loop it replaced (``_cycle_loop``, skip armed)
on DM and SWSM, asserts the two schedules equal, and records the
ratio as ``speedup_vs_loop``.

The search-overhead tier (``measure_search``) times the fast loop on a
kernel whose periodic steady-state search never matches (track on the
SWSM at window 64), with the skip armed and disarmed, and records the
ratio: the price a run pays for a search that does not pay off.

Run the full comparison as a script::

    PYTHONPATH=src python benchmarks/bench_engine_soa.py

Under pytest only the active ``REPRO_SCALE`` tier is measured, so the
benchmark suite stays fast.
"""

from __future__ import annotations

import pickle
import time

from trajectory import record_engine_rows

from repro import DMConfig, DecoupledMachine, SWSMConfig, SuperscalarMachine
from repro.api.presets import HIERARCHY_MEMORY_VARIANTS
from repro.config import DEFAULT_LATENCIES, UnitConfig
from repro.experiments.scales import PRESETS
from repro.kernels import build_kernel
from repro.machines import simulate
from repro.machines.engine import (
    _cycle_loop,
    _simulate_events,
    _simulate_fast,
)
from repro.memory import BankedMemory, FixedLatencyMemory
from repro.obs.telemetry import TelemetryCollector
from repro.partition import Unit

WINDOW = 32
MEMORY_DIFFERENTIAL = 60
SCALES = ("small", "paper", "huge")

#: Scales at which the event-heap tiers are measured by ``main`` and
#: at which the events-beat-probing assertion is enforced (tiny-scale
#: CI runs record rows but stay out of the noise).
EVENT_SCALES = ("paper", "huge")

#: The time-sensitive tiers the event engine targets, as memory
#: factories. ``banked-long`` stretches the banked model to
#: pointer-chase latencies (1200-cycle differential, two banks, long
#: bank occupancy) — the long-latency tier the events-beat-probing
#: assertion targets.
EVENT_MODELS = tuple(
    [
        (label, (lambda s: lambda: s.build(MEMORY_DIFFERENTIAL))(spec))
        for label, spec in HIERARCHY_MEMORY_VARIANTS
        if label in ("banked", "prefetch", "hierarchy")
    ]
    + [("banked-long", lambda: BankedMemory(extra=1200, banks=2, busy=64))]
)

#: The stateful models of the memory-hierarchy scenario space — the
#: exact configurations the hierarchy ablation preset ships, built at
#: ``MEMORY_DIFFERENTIAL`` (``fixed`` is the uniform tier above and
#: ``hierarchy`` duplicates ``cache`` structurally).
STATEFUL_MODELS = tuple(
    (label, (lambda s: lambda: s.build(MEMORY_DIFFERENTIAL))(spec))
    for label, spec in HIERARCHY_MEMORY_VARIANTS
    if label not in ("fixed", "hierarchy")
)


#: A tier whose steady-state search never matches, yet nearly every
#: checkpoint passes the cheap per-period checks and is canonicalised:
#: the worst case for the search.
SEARCH_KERNEL = "track"
SEARCH_WINDOW = 64


def _best_of(rounds: int, run, compiled) -> float:
    """Best time of ``run(copy)`` over ``rounds`` cold passes.

    Each round runs on a fresh unpickled copy of ``compiled``, made
    before the clock starts: a rerun on one compiled program would be
    served from its pass memo (``repro.machines.engine._table_pass``)
    and time no simulation at all.
    """
    best = float("inf")
    for _ in range(rounds):
        copy = pickle.loads(pickle.dumps(compiled))
        start = time.perf_counter()
        run(copy)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _probing(compiled, configs, memory):
    """The probe route's loop, probes off: chunked queries, no skip
    layer, no speculation."""
    low = compiled.lowered()
    return _simulate_fast(
        low, compiled, configs, memory, low.base_addlat, DEFAULT_LATENCIES,
        False, steady_ok=False, chunked=True,
        collector=TelemetryCollector(),
    )[0]


def measure_scale(scale_name: str, rounds: int = 3) -> list[dict]:
    """Shipped-engine rows for DM and SWSM at one scale tier."""
    program = build_kernel("flo52q", PRESETS[scale_name].scale)
    dm = DecoupledMachine(DMConfig.symmetric(WINDOW))
    swsm = SuperscalarMachine(SWSMConfig(window=WINDOW))
    memory = FixedLatencyMemory(MEMORY_DIFFERENTIAL)
    variants = (
        (
            "dm",
            dm.compile(program),
            {Unit.AU: dm.config.au, Unit.DU: dm.config.du},
            lambda compiled: dm.run(
                compiled, memory_differential=MEMORY_DIFFERENTIAL
            ),
        ),
        (
            "swsm",
            swsm.compile(program),
            {Unit.SINGLE: UnitConfig(window=WINDOW, width=swsm.config.width,
                                     name="SWSM")},
            lambda compiled: swsm.run(
                compiled, memory_differential=MEMORY_DIFFERENTIAL
            ),
        ),
    )
    rows = []
    for machine_name, compiled, configs, run_new in variants:
        new_result = run_new(compiled)  # warm the lowering cache
        reference = _probing(compiled, configs, memory)
        assert new_result.cycles == reference.cycles, (
            f"shipped route disagrees with the probe-route loop on "
            f"{machine_name}@{scale_name}: "
            f"{new_result.cycles} vs {reference.cycles}"
        )
        instructions = compiled.num_instructions
        new_seconds = _best_of(rounds, run_new, compiled)
        rows.append({
            "scale": scale_name,
            "machine": machine_name,
            "instructions": instructions,
            "cycles": new_result.cycles,
            "engine": "soa",
            "seconds": round(new_seconds, 6),
            "ips": round(instructions / new_seconds),
        })
    return rows


def measure_stateful(scale_name: str, rounds: int = 3) -> list[dict]:
    """Shipped-engine rows for the DM under every stateful memory model."""
    program = build_kernel("flo52q", PRESETS[scale_name].scale)
    dm = DecoupledMachine(DMConfig.symmetric(WINDOW))
    compiled = dm.compile(program)
    compiled.lowered()
    configs = {Unit.AU: dm.config.au, Unit.DU: dm.config.du}
    instructions = compiled.num_instructions
    rows = []
    for label, make_memory in STATEFUL_MODELS:
        new_result = simulate(compiled, configs, make_memory())
        reference = _probing(compiled, configs, make_memory())
        assert new_result.cycles == reference.cycles, (
            f"shipped route disagrees with the probe-route loop on "
            f"dm+{label}@{scale_name}: "
            f"{new_result.cycles} vs {reference.cycles}"
        )
        new_seconds = _best_of(
            rounds,
            lambda copy: simulate(copy, configs, make_memory()),
            compiled,
        )
        rows.append({
            "scale": scale_name,
            "machine": f"dm+{label}",
            "memory": make_memory().describe(),
            "instructions": instructions,
            "cycles": new_result.cycles,
            "engine": "soa",
            "seconds": round(new_seconds, 6),
            "ips": round(instructions / new_seconds),
        })
    return rows


def measure_events(scale_name: str, rounds: int = 3) -> list[dict]:
    """Event-heap scheduler vs the probes-off probe-route loop.

    Covers the dm+{banked,prefetch,hierarchy,banked-long} tiers: the
    models with long or irregular stateful latencies the event engine
    was built for. The probe-route loop runs with probes off, so the
    comparison is pure scheduling strategy; rounds are interleaved
    (one event run, one probing run, repeat) so clock drift hits both
    engines equally. On the long-latency ``banked-long`` tier at
    ``EVENT_SCALES`` the event engine must measurably win; every tier
    additionally asserts cycle parity.
    """
    program = build_kernel("flo52q", PRESETS[scale_name].scale)
    dm = DecoupledMachine(DMConfig.symmetric(WINDOW))
    compiled = dm.compile(program)
    low = compiled.lowered()
    configs = {Unit.AU: dm.config.au, Unit.DU: dm.config.du}
    instructions = compiled.num_instructions
    rows = []
    for label, make_memory in EVENT_MODELS:
        def run_events(memory):
            return _simulate_events(
                low, compiled, configs, memory, DEFAULT_LATENCIES,
                False, TelemetryCollector(),
            )

        event_result = run_events(make_memory())
        probing_result = _probing(compiled, configs, make_memory())
        assert event_result.cycles == probing_result.cycles, (
            f"engines disagree on dm+{label}@{scale_name}: "
            f"{event_result.cycles} vs {probing_result.cycles}"
        )
        event_seconds = probing_seconds = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            run_events(make_memory())
            event_seconds = min(event_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            _probing(compiled, configs, make_memory())
            probing_seconds = min(
                probing_seconds, time.perf_counter() - start
            )
        if label == "banked-long" and scale_name in EVENT_SCALES:
            assert event_seconds < probing_seconds, (
                f"event engine lost to the probe-route loop on the "
                f"long-latency banked tier @ {scale_name}: "
                f"{event_seconds:.4f}s vs {probing_seconds:.4f}s"
            )
        base = {
            "scale": scale_name,
            "machine": f"dm+{label}",
            "memory": make_memory().describe(),
            "instructions": instructions,
            "cycles": event_result.cycles,
        }
        rows.append({
            **base,
            "engine": "probing",
            "seconds": round(probing_seconds, 6),
            "ips": round(instructions / probing_seconds),
        })
        rows.append({
            **base,
            "engine": "events",
            "seconds": round(event_seconds, 6),
            "ips": round(instructions / event_seconds),
            "speedup_vs_probing": round(probing_seconds / event_seconds, 2),
        })
    return rows


def measure_unlimited(scale_name: str, rounds: int = 3) -> list[dict]:
    """Shipped table route vs the cycle loop at the unlimited window.

    The shipped run is timed cold on fresh copies (``_best_of``), so the
    pass memo serves nothing; the loop is driven directly with the
    skip armed, as the shipped route ran it before the dataflow pass.
    Rounds are interleaved; schedules and skip counts must be equal.
    """
    program = build_kernel("flo52q", PRESETS[scale_name].scale)
    memory = FixedLatencyMemory(MEMORY_DIFFERENTIAL)
    rows = []
    for machine_name, compiled in (
        ("dm", DecoupledMachine.compile(program)),
        ("swsm", SuperscalarMachine.compile(program)),
    ):
        window = compiled.num_instructions
        if machine_name == "dm":
            configs = {
                Unit.AU: UnitConfig(window=window, width=4, name="AU"),
                Unit.DU: UnitConfig(window=window, width=5, name="DU"),
            }
        else:
            configs = {Unit.SINGLE: UnitConfig(window=window, width=9,
                                               name="SWSM")}
        low = compiled.lowered()
        addlat = low.addlat_for(
            DEFAULT_LATENCIES.mem_base + MEMORY_DIFFERENTIAL
        )

        def shipped(copy):
            return simulate(copy, configs, memory, collect_issue_times=True)

        def loop():
            collector = TelemetryCollector()
            result = _cycle_loop(
                low, compiled, configs, memory, addlat, DEFAULT_LATENCIES,
                True, steady_ok=True, chunked=False, collector=collector,
            )[0]
            return result, collector

        reference, collector = loop()
        result = shipped(pickle.loads(pickle.dumps(compiled)))
        assert result.issue_times == reference.issue_times, (
            f"shipped route disagrees with the cycle loop on "
            f"{machine_name}@unlimited/{scale_name}"
        )
        assert (
            result.telemetry.counters["steady_skips"]
            == collector.counters["steady_skips"]
        )
        shipped_seconds = loop_seconds = float("inf")
        for _ in range(rounds):
            shipped_seconds = min(
                shipped_seconds, _best_of(1, shipped, compiled)
            )
            start = time.perf_counter()
            loop()
            loop_seconds = min(loop_seconds, time.perf_counter() - start)
        base = {
            "scale": scale_name,
            "machine": f"{machine_name}@unlimited",
            "window": window,
            "instructions": low.total,
            "cycles": result.cycles,
        }
        rows.append({
            **base,
            "engine": "loop",
            "seconds": round(loop_seconds, 6),
            "ips": round(low.total / loop_seconds),
        })
        rows.append({
            **base,
            "engine": "soa",
            "seconds": round(shipped_seconds, 6),
            "ips": round(low.total / shipped_seconds),
            "speedup_vs_loop": round(loop_seconds / shipped_seconds, 2),
        })
    return rows


def measure_search(scale_name: str, rounds: int = 3) -> list[dict]:
    """Steady-state search overhead on a run the skip never helps.

    Times the uniform-table cycle loop (``_cycle_loop``, so no dataflow
    pass attempt) with the skip armed and disarmed
    (``steady_ok=False``), rounds interleaved, and asserts cycle
    parity and that the armed run never skipped. The armed row records
    its time over the disarmed one as ``overhead_vs_disarmed``; the
    ratio is history, not a gate.
    """
    program = build_kernel(SEARCH_KERNEL, PRESETS[scale_name].scale)
    compiled = SuperscalarMachine.compile(program)
    low = compiled.lowered()
    configs = {Unit.SINGLE: UnitConfig(window=SEARCH_WINDOW, width=9,
                                       name="SWSM")}
    memory = FixedLatencyMemory(MEMORY_DIFFERENTIAL)
    addlat = low.addlat_for(DEFAULT_LATENCIES.mem_base + MEMORY_DIFFERENTIAL)

    def run(armed: bool):
        collector = TelemetryCollector()
        result = _cycle_loop(
            low, compiled, configs, memory, addlat, DEFAULT_LATENCIES,
            False, steady_ok=armed, chunked=False,
            collector=collector,
        )[0]
        return result, collector

    armed, collector = run(True)
    disarmed, _ = run(False)
    assert armed.cycles == disarmed.cycles, (
        f"armed and disarmed runs disagree on {SEARCH_KERNEL}@{scale_name}:"
        f" {armed.cycles} vs {disarmed.cycles}"
    )
    assert collector.counters["steady_skips"] == 0, (
        f"{SEARCH_KERNEL}@{scale_name} skipped; the tier needs a run "
        f"whose search never matches"
    )
    seconds = {True: float("inf"), False: float("inf")}
    for _ in range(rounds):
        for flag in (True, False):
            start = time.perf_counter()
            run(flag)
            seconds[flag] = min(seconds[flag], time.perf_counter() - start)
    base = {
        "scale": scale_name,
        "machine": f"swsm/{SEARCH_KERNEL}",
        "window": SEARCH_WINDOW,
        "instructions": low.total,
        "cycles": armed.cycles,
    }
    return [
        {
            **base,
            "engine": "search-armed",
            "seconds": round(seconds[True], 6),
            "ips": round(low.total / seconds[True]),
            "overhead_vs_disarmed": round(seconds[True] / seconds[False], 3),
        },
        {
            **base,
            "engine": "search-disarmed",
            "seconds": round(seconds[False], 6),
            "ips": round(low.total / seconds[False]),
        },
    ]


def test_soa_engine_matches_and_records(preset):
    """Parity plus one recorded tier (the active ``REPRO_SCALE``)."""
    scale_name = preset.name if preset.name in PRESETS else "small"
    rows = measure_scale(scale_name, rounds=2)
    rows.extend(measure_stateful(scale_name, rounds=2))
    record_engine_rows(rows)
    for row in rows:
        print(
            f"\n{row['machine']}@{row['scale']}: "
            f"{row['ips'] / 1e6:.2f}M inst/s"
        )


def test_event_engine_tiers_recorded(preset):
    """Event-heap tiers for the active scale, recorded in the
    trajectory; the events-beat-probing assertion arms at paper+."""
    scale_name = preset.name if preset.name in PRESETS else "small"
    rows = measure_events(scale_name, rounds=2)
    record_engine_rows(rows)
    for row in rows:
        if row["engine"] == "events":
            print(
                f"\n{row['machine']}@{row['scale']}: "
                f"{row['ips'] / 1e6:.2f}M inst/s, "
                f"{row['speedup_vs_probing']:.1f}x over the probe-route loop"
            )


def test_unlimited_window_recorded(preset):
    """Shipped table route vs the cycle loop at the unlimited window,
    for the active scale; parity asserted, the ratio only recorded."""
    scale_name = preset.name if preset.name in PRESETS else "small"
    rows = measure_unlimited(scale_name, rounds=3)
    record_engine_rows(rows)
    for row in rows:
        if row["engine"] == "soa":
            print(
                f"\n{row['machine']}@{row['scale']}: "
                f"{row['speedup_vs_loop']:.2f}x over the cycle loop"
            )


def test_search_overhead_recorded(preset):
    """Never-matching steady-state search, armed vs disarmed, for the
    active scale; parity asserted, the ratio only recorded."""
    scale_name = preset.name if preset.name in PRESETS else "small"
    rows = measure_search(scale_name, rounds=3)
    record_engine_rows(rows)
    print(
        f"\nswsm/{SEARCH_KERNEL}@{scale_name}: armed search costs "
        f"{rows[0]['overhead_vs_disarmed']:.2f}x the disarmed loop"
    )


def main() -> None:
    all_rows = []
    for scale_name in SCALES:
        all_rows.extend(measure_scale(scale_name))
        all_rows.extend(measure_stateful(scale_name))
        all_rows.extend(measure_search(scale_name))
        all_rows.extend(measure_unlimited(scale_name))
    for scale_name in EVENT_SCALES:
        all_rows.extend(measure_events(scale_name))
    record_engine_rows(all_rows)
    print(f"{'scale':8} {'machine':12} {'soa ips':>12}")
    by_key = {(r["scale"], r["machine"], r["engine"]): r for r in all_rows}
    machines = ["dm", "swsm"] + [f"dm+{label}" for label, _ in STATEFUL_MODELS]
    for scale_name in SCALES:
        for machine_name in machines:
            row = by_key[(scale_name, machine_name, "soa")]
            print(f"{scale_name:8} {machine_name:12} {row['ips']:>12,}")
    print(f"\n{'scale':8} {'machine':14} {'probing ips':>12} "
          f"{'events ips':>12} {'speedup':>8}")
    for scale_name in EVENT_SCALES:
        for label, _ in EVENT_MODELS:
            machine_name = f"dm+{label}"
            probing = by_key[(scale_name, machine_name, "probing")]
            events = by_key[(scale_name, machine_name, "events")]
            print(f"{scale_name:8} {machine_name:14} {probing['ips']:>12,} "
                  f"{events['ips']:>12,} "
                  f"{events['speedup_vs_probing']:>7.1f}x")
    print(f"\n{'scale':8} {'machine':16} {'loop ips':>12} "
          f"{'shipped ips':>12} {'speedup':>8}")
    for scale_name in SCALES:
        for machine_name in ("dm@unlimited", "swsm@unlimited"):
            loop = by_key[(scale_name, machine_name, "loop")]
            row = by_key[(scale_name, machine_name, "soa")]
            print(f"{scale_name:8} {machine_name:16} {loop['ips']:>12,} "
                  f"{row['ips']:>12,} {row['speedup_vs_loop']:>7.2f}x")
    print(f"\n{'scale':8} {'machine':14} {'search overhead':>16}")
    for scale_name in SCALES:
        row = by_key[(scale_name, f"swsm/{SEARCH_KERNEL}", "search-armed")]
        print(f"{scale_name:8} {row['machine']:14} "
              f"{row['overhead_vs_disarmed']:>15.2f}x")


if __name__ == "__main__":
    main()
