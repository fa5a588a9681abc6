"""Per-run telemetry: what one simulation did, as a record.

The engines thread an explicit :class:`TelemetryCollector` through
each run and attach the resulting :class:`RunTelemetry` to the
:class:`~repro.machines.engine.SimulationResult`. The per-result record
is the only one: there is no process-global aggregate, so threads and
process-pool workers never race on or lose counts. Rollups (a
session's :meth:`~repro.api.Session.telemetry`, the service's
``/v1/metrics``) are sums of these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Counter keys every collector tracks.
COUNTER_KEYS = (
    "steady_skips",
    "skipped_instructions",
    "event_runs",
    "batch_runs",
    "batch_lanes",
    "batch_fallback_lanes",
    "batch_steps",
)


def zero_counters() -> dict[str, int]:
    """A fresh all-zero counter dict covering :data:`COUNTER_KEYS`."""
    return dict.fromkeys(COUNTER_KEYS, 0)


def add_counters(into: dict[str, int], delta: dict[str, int]) -> dict[str, int]:
    """Accumulate ``delta`` into ``into`` (in place; returns ``into``)."""
    for key, value in delta.items():
        if value:
            into[key] = into.get(key, 0) + value
    return into


@dataclass(frozen=True)
class RunTelemetry:
    """Outcome metadata of one simulation run.

    ``counters`` holds exactly this run's accelerator counters (all
    :data:`COUNTER_KEYS`, zeros included), so counters summed over a
    sweep's fresh results equal the session rollup's delta, regardless
    of which process ran each point.
    ``cache_tier`` records where *this* copy of the result came from:
    ``fresh`` (simulated now), ``memory``, ``disk`` or ``store``.
    ``reused_passes`` counts the table-driven passes this run took from
    its compiled program's pass memo instead of re-running them (the
    engine's ``_table_pass``); like ``wall_seconds`` it says how the
    run was computed, not what it computed, so the deterministic views
    leave it out.
    Excluded from result equality and cache keys: two results are the
    same schedule even when one was a cache hit.
    """

    strategy: str
    counters: dict[str, int] = field(default_factory=zero_counters)
    memory_stats: dict[str, object] = field(default_factory=dict)
    wall_seconds: float = 0.0
    sim_cycles: int = 0
    cache_tier: str = "fresh"
    reused_passes: int = 0

    def row_view(self) -> dict[str, object]:
        """Deterministic subset for service rows: strategy + nonzero
        counters. Excludes wall-clock, reused passes and cache tier so
        identical simulations serialize identically wherever they ran
        and whatever ran before them."""
        return {
            "strategy": self.strategy,
            "counters": {k: v for k, v in self.counters.items() if v},
        }

    def store_view(self) -> dict[str, object]:
        """Deterministic subset persisted in the result store."""
        return {**self.row_view(), "cache_tier": self.cache_tier}


class TelemetryCollector:
    """Mutable per-run counter sink threaded through the engine loops.

    The hot loops bump ``collector.counters[key]`` directly: one dict
    increment, private to the run.
    """

    __slots__ = ("strategy", "counters", "reused_passes")

    def __init__(self) -> None:
        self.strategy = "none"
        self.counters = zero_counters()
        self.reused_passes = 0

    def choose(self, strategy: str) -> None:
        self.strategy = strategy

    def snapshot(self) -> dict[str, int]:
        return dict(self.counters)
