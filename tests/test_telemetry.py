"""The run-telemetry subsystem: records, rollups, traces and metrics.

Covers the observability PR's guarantees end to end:

* every result carries a :class:`~repro.obs.telemetry.RunTelemetry`
  with a known strategy label and exact counter attribution;
* per-run counters sum to the session rollup for the scalar,
  event-heap and batched engines alike (there is no process-global
  aggregate: the per-result record is the only one);
* a ``jobs=4`` pool sweep reports the same aggregated telemetry as the
  ``jobs=1`` run (pool workers ship counters home on their results);
* persisted bytes stay telemetry-free while the store's telemetry
  column round-trips the deterministic slice;
* the span tracer emits schema-valid JSONL with paired spans;
* the service exposes parseable Prometheus metrics and per-job
  telemetry.
"""

from __future__ import annotations

import json

import pytest

from repro.api import MemorySpec, Point, Session, Sweep
from repro.machines import engine
from repro.obs import (
    COUNTER_KEYS,
    RunTelemetry,
    add_counters,
    validate_trace,
    zero_counters,
)
from repro.obs.metrics import MetricsRegistry, parse_prometheus

SCALE = 1_500

#: Every strategy label an engine run may report.
KNOWN_STRATEGIES = {
    "uniform-table", "speculative", "chunked", "events-chunked",
    "probing", "batch", "serial", "cached",
}


def _sweep(name: str = "telemetry", **axes) -> Sweep:
    return Sweep.grid(
        name=name,
        program="flo52q",
        machine=("dm", "swsm"),
        window=(8, 16),
        memory_differential=60,
        **axes,
    )


def _fresh_counter_sum(outcome) -> dict:
    """Counters summed over a sweep's results, all freshly simulated."""
    total = zero_counters()
    for result in outcome.results:
        assert result.telemetry.cache_tier == "fresh"
        add_counters(total, result.telemetry.counters)
    return total


class TestRunTelemetry:
    def test_every_result_carries_telemetry(self):
        session = Session(scale=SCALE)
        result = session.evaluate(
            Point(program="flo52q", machine="dm", window=16,
                  memory_differential=60)
        )
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.strategy in KNOWN_STRATEGIES
        assert set(telemetry.counters) == set(COUNTER_KEYS)
        assert telemetry.cache_tier == "fresh"
        assert telemetry.sim_cycles == result.cycles
        assert telemetry.wall_seconds >= 0.0

    def test_serial_machine_reports_serial_strategy(self):
        session = Session(scale=SCALE)
        result = session.evaluate(
            Point(program="flo52q", machine="serial",
                  memory_differential=60)
        )
        assert result.telemetry.strategy == "serial"

    def test_telemetry_excluded_from_equality(self):
        base = engine.SimulationResult(
            name="x", cycles=10, instructions=5, unit_stats={}
        )
        tagged = engine.SimulationResult(
            name="x", cycles=10, instructions=5, unit_stats={},
            telemetry=RunTelemetry(strategy="uniform-table"),
        )
        assert base == tagged

    def test_row_view_is_strategy_plus_nonzero_counters(self):
        telemetry = RunTelemetry(
            strategy="batch",
            counters={**zero_counters(), "batch_lanes": 3},
        )
        assert telemetry.row_view() == {
            "strategy": "batch", "counters": {"batch_lanes": 3},
        }


class TestEngineParity:
    """Scalar, event-heap and batched engines agree on everything."""

    def _run(self, sweep=None, **session_kwargs):
        session = Session(scale=SCALE, **session_kwargs)
        outcome = session.run(sweep or _sweep())
        return session, outcome, _fresh_counter_sum(outcome)

    def test_results_and_counter_attribution_per_engine(self):
        scalar, scalar_out, scalar_sum = self._run(batch=False)
        batched, batched_out, batched_sum = self._run(batch=True)
        # Banked memory is time-sensitive: routing sends it to the heap.
        events, _, events_sum = self._run(
            _sweep(memory=(MemorySpec(kind="banked"),))
        )

        # Bit-identical simulation outputs across scalar and batched.
        assert [r.cycles for r in scalar_out.results] == \
            [r.cycles for r in batched_out.results]

        # Strategy labels match the engine that ran.
        assert all(
            s in KNOWN_STRATEGIES and not s.startswith("events")
            for s in scalar.telemetry()["strategies"]
        )
        assert all(
            s.startswith("events") or s == "probing"
            for s in events.telemetry()["strategies"]
        )
        assert "batch" in batched.telemetry()["strategies"]
        assert batched_sum["batch_lanes"] >= 2
        assert events_sum["event_runs"] >= 1

        # The session rollup is the sum over its fresh results, per
        # engine.
        for session, summed in (
            (scalar, scalar_sum),
            (events, events_sum),
            (batched, batched_sum),
        ):
            assert session.telemetry()["counters"] == summed


class TestPoolParity:
    """jobs=4 reports the same aggregate telemetry as jobs=1."""

    def _run(self, jobs: int):
        session = Session(scale=SCALE, jobs=jobs)
        outcome = session.run(_sweep("pool"))
        return session, outcome, _fresh_counter_sum(outcome)

    def test_pool_sweep_matches_serial_aggregates(self):
        serial, serial_out, serial_sum = self._run(jobs=1)
        pooled, pooled_out, pooled_sum = self._run(jobs=4)

        assert serial_out.results == pooled_out.results
        assert serial_sum == pooled_sum, (
            "pool workers lost counter increments"
        )
        assert serial.telemetry()["counters"] == serial_sum
        assert pooled.telemetry()["counters"] == pooled_sum
        serial_agg = serial.telemetry()
        pooled_agg = pooled.telemetry()
        for key in ("runs", "counters", "strategies"):
            assert serial_agg[key] == pooled_agg[key]
        assert serial_out.telemetry["counters"] == \
            pooled_out.telemetry["counters"]
        assert serial_out.telemetry["strategies"] == \
            pooled_out.telemetry["strategies"]


class TestPersistence:
    def test_disk_cache_bytes_are_telemetry_free(self, tmp_path):
        point = Point(program="flo52q", machine="dm", window=16,
                      memory_differential=60)
        session = Session(scale=SCALE, cache_dir=tmp_path / "cache")
        fresh = session.evaluate(point)
        assert fresh.telemetry.cache_tier == "fresh"

        rehydrated = Session(
            scale=SCALE, cache_dir=tmp_path / "cache"
        ).evaluate(point)
        assert rehydrated.telemetry is not None
        assert rehydrated.telemetry.cache_tier == "disk"
        assert rehydrated.cycles == fresh.cycles

    def test_store_column_roundtrips_telemetry(self, tmp_path):
        point = Point(program="flo52q", machine="dm", window=16,
                      memory_differential=60)
        session = Session(scale=SCALE)
        session.store(str(tmp_path / "results.sqlite"))
        fresh = session.evaluate(point)
        store = session.store()

        row = store.rows()[0]
        assert row.telemetry is not None
        assert row.telemetry["strategy"] == fresh.telemetry.strategy
        assert row.telemetry["counters"] == {
            k: v for k, v in fresh.telemetry.counters.items() if v
        }

        loaded = store.load(row.key)
        assert loaded.telemetry.cache_tier == "store"
        assert loaded.telemetry.strategy == fresh.telemetry.strategy
        assert loaded == fresh  # telemetry stays out of equality

    def test_store_hit_reports_store_tier(self, tmp_path):
        point = Point(program="flo52q", machine="dm", window=16,
                      memory_differential=60)
        warm = Session(scale=SCALE)
        warm.store(str(tmp_path / "results.sqlite"))
        warm.evaluate(point)

        cold = Session(scale=SCALE)
        cold.store(str(tmp_path / "results.sqlite"))
        result = cold.evaluate(point)
        assert cold.stats["store_hits"] == 1
        assert result.telemetry.cache_tier == "store"


class TestTracing:
    def test_sweep_trace_is_schema_valid(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        session = Session(scale=SCALE, trace=trace)
        session.run(_sweep("traced"))
        assert validate_trace(trace) == []
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        names = {record["name"] for record in records}
        assert {"sweep", "simulate", "compile", "cache.probe"} <= names
        # Monotone timestamps within the file (single process).
        stamps = [record["ts"] for record in records]
        assert stamps == sorted(stamps)

    def test_env_toggle_enables_tracing(self, tmp_path, monkeypatch):
        trace = tmp_path / "env-trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        session = Session(scale=SCALE)
        session.evaluate(
            Point(program="flo52q", machine="dm", window=8,
                  memory_differential=60)
        )
        assert validate_trace(trace) == []

    def test_validator_flags_unbalanced_spans(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"ts": 1.0, "pid": 1, "tid": 1, "ph": "B",
                        "name": "simulate", "span": 1}) + "\n"
        )
        assert validate_trace(bad)


class TestMetricsRegistry:
    def test_render_parses_and_counts(self):
        registry = MetricsRegistry()
        registry.observe_request("GET /health", 200, 0.002)
        registry.observe_request("GET /health", 200, 0.004)
        registry.observe_request("POST /v1/jobs", 400, 0.2)
        text = registry.render(
            gauges={"repro_queue_depth": 3},
            job_states={"queued": 1, "done": 2},
            engine_counters={"steady_skips": 7},
        )
        samples = parse_prometheus(text)
        assert samples[
            'repro_http_requests_total{endpoint="GET /health",status="200"}'
        ] == 2.0
        assert samples["repro_queue_depth"] == 3.0
        assert samples['repro_jobs{state="done"}'] == 2.0
        assert samples[
            'repro_engine_counter_total{counter="steady_skips"}'
        ] == 7.0
        assert samples[
            'repro_http_request_seconds_count{endpoint="GET /health"}'
        ] == 2.0

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("not a metric line at all {")
        with pytest.raises(ValueError):
            parse_prometheus("")


class TestServiceMetrics:
    @pytest.fixture
    def service(self, tmp_path):
        from repro.service import (
            ServiceClient,
            ServiceConfig,
            start_server,
            stop_server,
        )

        config = ServiceConfig(
            scale=SCALE,
            workers=1,
            port=0,
            store_path=str(tmp_path / "results.sqlite"),
        )
        server, scheduler, _ = start_server(config)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
        try:
            yield client
        finally:
            stop_server(server)

    def test_metrics_endpoint_and_job_telemetry(self, service):
        job_id = service.submit_point(
            Point(program="flo52q", machine="dm", window=8,
                  memory_differential=60)
        )
        payload = service.fetch(job_id, timeout=120)

        # Per-job telemetry: the session delta this job caused.
        assert payload["telemetry"]["runs"] >= 1
        assert payload["telemetry"]["strategies"]
        # Per-row telemetry: the deterministic slice only.
        row = payload["rows"][0]
        assert set(row["telemetry"]) == {"strategy", "counters"}
        assert row["telemetry"]["strategy"] in KNOWN_STRATEGIES

        samples = parse_prometheus(service.metrics())
        assert samples['repro_jobs{state="done"}'] >= 1.0
        assert "repro_queue_depth" in samples
        assert "repro_workers" in samples
        assert any(
            key.startswith("repro_engine_counter_total")
            for key in samples
        )
        assert any(
            key.startswith("repro_http_requests_total") for key in samples
        )

    def test_engine_counter_totals_sum_job_telemetry(self, service):
        def totals() -> dict[str, float]:
            samples = parse_prometheus(service.metrics())
            return {
                key: samples[
                    f'repro_engine_counter_total{{counter="{key}"}}'
                ]
                for key in COUNTER_KEYS
            }

        # Every counter is listed, at zero, before the first job.
        assert totals() == dict.fromkeys(COUNTER_KEYS, 0.0)
        # A banked point routes to the event heap; a two-window sweep
        # over fixed memory runs as one batch group.
        banked = service.fetch(service.submit_point(
            Point(program="flo52q", machine="dm", window=8,
                  memory=MemorySpec(kind="banked"),
                  memory_differential=60)
        ), timeout=120)
        batched = service.fetch(service.submit_sweep(
            Sweep.grid(program="flo52q", machine="dm", window=(8, 16),
                       memory_differential=60)
        ), timeout=120)
        expected = {
            key: float(sum(
                job["telemetry"]["counters"].get(key, 0)
                for job in (banked, batched)
            ))
            for key in COUNTER_KEYS
        }
        assert expected["event_runs"] >= 1
        assert expected["batch_lanes"] >= 2
        assert totals() == expected
