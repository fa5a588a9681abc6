"""The benchmark's metric catalogue: names, units, direction, predictions.

``BENCHMARK.json`` repeats the names, units and directions (the smoke
test keeps the two in step); the ``moves`` column exists only here. It
records, before any optimisation is measured, which end-to-end metric
on which workload a change to each layer should move — and, after the
semicolon, where it should barely move. ``python3 perfbench/run.py
--list`` prints it.
"""

from __future__ import annotations

WORKLOADS = ("table1", "corpus", "hierarchy", "report-warm")

#: Each workload's scale: the smallest at which its profile (the layer
#: shares of wall time, the strategy mix) matches the larger presets,
#: so one benchmark run holds several timed runs. hierarchy needs
#: ``small``: at ``tiny`` its runs skip half the share of instructions
#: through steady state that they skip at ``paper`` (0.22 against 0.40;
#: 0.37 at ``small``). report-warm is held at ``tiny`` by its cold
#: build, which every benchmark run repeats.
SCALES = {
    "table1": "tiny",
    "corpus": "tiny",
    "hierarchy": "small",
    "report-warm": "tiny",
}

#: An extra untimed run per traced benchmark run, at a scale where the
#: paper's Table 1 bands hold (they do not at ``tiny``), checking 7/7.
CHECK_SCALES = {"table1": "small"}

#: Seeds select one of this many generated corpora (corpus, and the
#: report's generalization pages), each with a recorded reference.
SEED_POOL = 16


def input_id(workload: str, seed: int) -> str:
    """The reference entry a (workload, seed) pair is checked against."""
    if workload in ("corpus", "report-warm"):
        return str(seed % SEED_POOL)
    return "fixed"


#: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_FRONT = "corpus wall_s, peak_rss_mb, report-warm wall_s; barely table1"
_PARTITION = "corpus wall_s; less table1, hierarchy, report-warm"
_LOWERED = "corpus, hierarchy wall_s; barely report-warm"
_SESSION = "hierarchy wall_s (cache writes), report-warm wall_s; not table1"
_ENGINE = "hierarchy, corpus, table1 wall_s; 0 on report-warm"
_BATCH = "table1 wall_s; 0 on corpus, hierarchy, report-warm"
_MEMORY = "hierarchy wall_s; 0 on table1, corpus, report-warm"
_STORE_LOAD = "report-warm wall_s; 0 on table1, corpus, hierarchy"
_STORE_RECORD = "report-warm setup_s (cold build); 0 elsewhere"
_REPORT = "report-warm wall_s; 0 elsewhere"
_HEALTH = "none (benchmark health)"

#: name -> (unit, better, moves)
PER_LAYER = {
    "kernels.build_s": ("s", "lower", _FRONT),
    "kernels.builds": ("count", "lower", _FRONT),
    "workloads.characterize_s": ("s", "lower", _FRONT),
    "workloads.characterize_calls": ("count", "lower", _FRONT),
    "workloads.generate_s": ("s", "lower", _FRONT),
    "partition.dm_s": ("s", "lower", _PARTITION),
    "partition.swsm_s": ("s", "lower", _PARTITION),
    "partition.calls": ("count", "lower", _PARTITION),
    "lowered.lower_s": ("s", "lower", _LOWERED),
    "lowered.steady_s": ("s", "lower", _LOWERED),
    "session.self_s": ("s", "lower", _SESSION),
    "session.points": ("count", "higher", _SESSION),
    "session.fresh": ("count", "lower", _SESSION),
    "session.memory_hits": ("count", "higher", _SESSION),
    "session.disk_hits": ("count", "higher", _SESSION),
    "session.disk_misses": ("count", "lower", _SESSION),
    "session.store_hits": ("count", "higher", _SESSION),
    "session.reuse_frac": ("frac", "higher", _SESSION),
    "engine.simulate_s": ("s", "lower", _ENGINE),
    "engine.runs": ("count", "lower", _ENGINE),
    "engine.runs.uniform-table": ("count", "lower", _ENGINE),
    "engine.runs.stateless-table": ("count", "lower", _ENGINE),
    "engine.runs.speculative": ("count", "lower", _ENGINE),
    "engine.runs.chunked": ("count", "lower", _ENGINE),
    "engine.runs.events-table": ("count", "lower", _ENGINE),
    "engine.runs.events-chunked": ("count", "lower", _ENGINE),
    "engine.runs.probing": ("count", "lower", _ENGINE),
    "engine.runs.batch": ("count", "lower", _BATCH),
    "engine.runs.serial": ("count", "lower", _ENGINE),
    "engine.steady_skips": ("count", "higher", _ENGINE),
    "engine.skipped_frac": ("frac", "higher", _ENGINE),
    "engine.sim_ips": ("1/s", "higher", _ENGINE),
    "engine.s_per_run": ("s", "lower", _ENGINE),
    "batch.simulate_s": ("s", "lower", _BATCH),
    "batch.groups": ("count", "lower", _BATCH),
    "batch.lanes": ("count", "lower", _BATCH),
    "batch.fallback_lanes": ("count", "lower", _BATCH),
    "batch.fallback_frac": ("frac", "lower", _BATCH),
    "batch.steps": ("count", "lower", _BATCH),
    "batch.s_per_lane": ("s", "lower", _BATCH),
    "batch.steady_skips": ("count", "higher", _BATCH),
    "batch.skipped_frac": ("frac", "higher", _BATCH),
    "memory.latencies_s": ("s", "lower", _MEMORY),
    "memory.queries": ("count", "lower", _MEMORY),
    "store.record_s": ("s", "lower", _STORE_RECORD),
    "store.records": ("count", "lower", _STORE_RECORD),
    "store.load_s": ("s", "lower", _STORE_LOAD),
    "store.loads": ("count", "lower", _STORE_LOAD),
    "report.emit_s": ("s", "lower", _REPORT),
    "report.site_s": ("s", "lower", _REPORT),
    "report.pages": ("count", "higher", _REPORT),
    "trace.coverage_frac": ("frac", "higher", _HEALTH),
    "trace.overhead_frac": ("frac", "lower", _HEALTH),
    "failed_frac": ("frac", "lower", _HEALTH),
}

#: Strategy labels broken out as ``engine.runs.<strategy>``.
STRATEGIES = tuple(
    name.split(".", 2)[2] for name in PER_LAYER
    if name.startswith("engine.runs.")
)


def layer_metrics(
    summary: dict, sessions: list[dict], pages: int
) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    ``summary`` comes from :func:`tracer.summarize`; ``sessions`` are
    the ``Session.telemetry()`` dicts of the run's sessions, the only
    source of counts the tracer does not see at a span boundary. Skip
    counts and shares come from the spans, so each layer's numerator and
    denominator cover the same runs: ``engine.*`` every scalar run
    (batch fallback lanes included), ``batch.*`` the vectorized lanes.
    """
    layers = summary["layers"]

    def span(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    stats: dict[str, float] = {}
    counters: dict[str, int] = {}
    strategies: dict[str, int] = {}
    runs = 0
    for telemetry in sessions:
        runs += telemetry["runs"]
        for key, value in telemetry["stats"].items():
            stats[key] = stats.get(key, 0) + value
        for key, value in telemetry["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in telemetry["strategies"].items():
            strategies[key] = strategies.get(key, 0) + value
    fresh = stats.get("evaluated", 0)
    served = sum(stats.get(k, 0) for k in ("disk_hits", "store_hits"))
    lookups = fresh + served + stats.get("memory_hits", 0)
    scalar_runs = span("engine.simulate", "calls")
    scalar_s = span("engine.simulate", "total_s")
    instructions = span("engine.simulate", "instructions")
    lane_instructions = span("batch.simulate", "instructions")
    lanes = counters.get("batch_lanes", 0)  # vectorized lanes only
    fallbacks = counters.get("batch_fallback_lanes", 0)
    return {
        "kernels.build_s": span("kernels.build", "self_s"),
        "kernels.builds": span("kernels.build", "entries"),
        "workloads.characterize_s": span("workloads.characterize", "self_s"),
        "workloads.characterize_calls":
            span("workloads.characterize", "entries"),
        "workloads.generate_s": span("workloads.generate", "self_s"),
        "partition.dm_s": span("partition.dm", "self_s"),
        "partition.swsm_s": span("partition.swsm", "self_s"),
        "partition.calls":
            span("partition.dm", "entries") + span("partition.swsm", "entries"),
        "lowered.lower_s": span("lowered.lower", "self_s"),
        "lowered.steady_s": span("lowered.steady", "self_s"),
        "session.self_s": span("session", "self_s"),
        "session.points": fresh + served,
        "session.fresh": fresh,
        "session.memory_hits": stats.get("memory_hits", 0),
        "session.disk_hits": stats.get("disk_hits", 0),
        "session.disk_misses": stats.get("disk_misses", 0),
        "session.store_hits": stats.get("store_hits", 0),
        "session.reuse_frac": (lookups - fresh) / lookups if lookups else 0.0,
        "engine.simulate_s": span("engine.simulate", "self_s"),
        "engine.runs": runs,
        **{
            f"engine.runs.{name}": strategies.get(name, 0)
            for name in STRATEGIES
        },
        "engine.steady_skips": span("engine.simulate", "skips"),
        "engine.skipped_frac": (
            span("engine.simulate", "skipped") / instructions
            if instructions else 0.0
        ),
        "engine.sim_ips": instructions / scalar_s if scalar_s else 0.0,
        "engine.s_per_run": scalar_s / scalar_runs if scalar_runs else 0.0,
        "batch.simulate_s": span("batch.simulate", "self_s"),
        "batch.groups": stats.get("batch_groups", 0),
        "batch.lanes": lanes,
        "batch.fallback_lanes": fallbacks,
        "batch.fallback_frac": (
            fallbacks / (lanes + fallbacks) if lanes + fallbacks else 0.0
        ),
        "batch.steps": counters.get("batch_steps", 0),
        # Fallback lanes run as nested scalar simulations, so the batch
        # engine's self time is the vectorized lanes' cost alone.
        "batch.s_per_lane": (
            span("batch.simulate", "self_s") / lanes if lanes else 0.0
        ),
        "batch.steady_skips": span("batch.simulate", "skips"),
        "batch.skipped_frac": (
            span("batch.simulate", "skipped") / lane_instructions
            if lane_instructions else 0.0
        ),
        "memory.latencies_s": span("memory.latencies", "self_s"),
        "memory.queries": span("memory.latencies", "calls"),
        "store.record_s": span("store.record", "self_s"),
        "store.records": span("store.record", "calls"),
        "store.load_s": span("store.load", "self_s"),
        "store.loads": span("store.load", "calls"),
        "report.emit_s": span("report.emit", "self_s"),
        "report.site_s": span("report.site", "self_s"),
        "report.pages": pages,
        "trace.coverage_frac": summary["coverage"],
    }
