"""Session tests: disk cache behaviour, parallel parity, machine registry,
and the no-shared-state regressions (latency models, process environment)."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sqlite3
from collections.abc import MutableMapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from test_engine_soa import ParityCheckedMemory, dm_configs, swsm_configs

from repro import DecoupledMachine, ResultStore, SuperscalarMachine
from repro.api import MemorySpec, Point, Session, Sweep, speedup_sweep
from repro.config import LatencyModel
from repro.errors import ConfigError
from repro.ir import Program
from repro.kernels import build_kernel, build_synthetic_stream
from repro.machines import (
    SimulationResult,
    get_machine,
    list_machines,
    register_machine,
    simulate,
)
from repro.memory import FixedLatencyMemory
from repro.obs.telemetry import zero_counters
from repro.workloads import generate_corpus

SCALE = 2_000


def store_payloads(cache_dir) -> dict[str, bytes]:
    """Store key -> payload bytes of ``cache_dir``'s result store."""
    with ResultStore(cache_dir / "results.sqlite") as store:
        return dict(store._con.execute("SELECT key, payload FROM results"))


def corrupt_payloads(path) -> None:
    """Overwrite every payload of the store at ``path`` with garbage."""
    with ResultStore(path) as store:
        store._con.execute(
            "UPDATE results SET payload = ?", (b"not a pickle",)
        )
        store._con.commit()


@pytest.fixture()
def point() -> Point:
    return Point(program="trfd", machine="dm", window=16,
                 memory_differential=60)


class TestDiskCache:
    def test_miss_then_hit_with_parity(self, tmp_path, point):
        first = Session(scale=SCALE, cache_dir=tmp_path)
        fresh = first.evaluate(point)
        assert first.stats["evaluated"] == 1
        assert first.stats["disk_misses"] == 1

        second = Session(scale=SCALE, cache_dir=tmp_path)
        cached = second.evaluate(point)
        assert second.stats["evaluated"] == 0
        assert second.stats["disk_hits"] == 1
        # Full result parity, not just cycles.
        assert cached == fresh

    def test_scale_change_invalidates(self, tmp_path, point):
        Session(scale=SCALE, cache_dir=tmp_path).evaluate(point)
        other = Session(scale=2 * SCALE, cache_dir=tmp_path)
        other.evaluate(point)
        assert other.stats["disk_hits"] == 0
        assert other.stats["evaluated"] == 1

    def test_latency_change_invalidates(self, tmp_path, point):
        Session(scale=SCALE, cache_dir=tmp_path).evaluate(point)
        other = Session(
            scale=SCALE, cache_dir=tmp_path, latencies=LatencyModel(fp_op=5)
        )
        other.evaluate(point)
        assert other.stats["disk_hits"] == 0
        assert other.stats["evaluated"] == 1

    def test_spec_change_invalidates(self, tmp_path, point):
        session = Session(scale=SCALE, cache_dir=tmp_path)
        session.evaluate(point)
        session.evaluate(replace(point, memory_differential=0))
        session.evaluate(replace(point, window=32))
        session.evaluate(replace(point, partition="memory-only"))
        assert session.stats["disk_hits"] == 0
        assert session.stats["evaluated"] == 4

    def test_corrupt_entry_is_a_miss(self, tmp_path, point):
        session = Session(scale=SCALE, cache_dir=tmp_path)
        session.evaluate(point)
        corrupt_payloads(tmp_path / "results.sqlite")
        recovering = Session(scale=SCALE, cache_dir=tmp_path)
        result = recovering.evaluate(point)
        assert recovering.stats["evaluated"] == 1
        assert recovering.stats["disk_misses"] == 1
        assert result.cycles == session.evaluate(point).cycles
        # The re-simulation rewrote the row: the next session hits.
        healed = Session(scale=SCALE, cache_dir=tmp_path)
        assert healed.evaluate(point) == result
        assert healed.stats["evaluated"] == 0
        assert healed.stats["disk_hits"] == 1

    def test_failed_store_write_raises_and_leaves_no_row(
        self, tmp_path, point
    ):
        session = Session(scale=SCALE, cache_dir=tmp_path)
        store = session.store()
        store._con.execute(
            "CREATE TEMP TRIGGER refuse BEFORE INSERT ON results "
            "BEGIN SELECT RAISE(ABORT, 'disk full'); END"
        )
        with pytest.raises(sqlite3.Error, match="disk full"):
            session.evaluate(point)
        assert len(store) == 0
        # Nothing remembers the failed write: a retry records the row.
        store._con.execute("DROP TRIGGER refuse")
        session.evaluate(point)
        assert len(store) == 1

    def test_custom_programs_bypass_disk_cache(self, tmp_path, point):
        """A custom trace shadowing a kernel name must never read (or
        poison) the stock kernel's disk entry — content isn't keyed."""
        stock = Session(scale=SCALE, cache_dir=tmp_path)
        stock_cycles = stock.evaluate(point).cycles

        shadowing = Session(scale=SCALE, cache_dir=tmp_path)
        shadowing.register_program(build_synthetic_stream(500, name="trfd"))
        custom_result = shadowing.evaluate(point)
        assert shadowing.stats["evaluated"] == 1, "served from disk!"
        assert custom_result.cycles != stock_cycles

        # And the custom run must not have overwritten the stock entry.
        again = Session(scale=SCALE, cache_dir=tmp_path)
        assert again.evaluate(point).cycles == stock_cycles
        assert again.stats["disk_hits"] == 1

    def test_irrelevant_fields_fold_into_one_entry(self, tmp_path):
        session = Session(scale=SCALE, cache_dir=tmp_path)
        session.evaluate(Point(program="trfd", machine="serial", window=8))
        session.evaluate(Point(program="trfd", machine="serial", window=99))
        assert session.stats["evaluated"] == 1
        assert session.stats["memory_hits"] == 1

    def test_unlimited_window_shared_between_sweep_and_accessor(self):
        session = Session(scale=SCALE)
        sweep = Sweep.grid(program="trfd", machine="dm", window=(None,),
                           memory_differential=60)
        run_cycles = session.run(sweep).cycles()[0]
        assert session.dm_cycles("trfd", None, 60) == run_cycles
        assert session.stats["evaluated"] == 1


class TestParallelExecutor:
    def test_process_pool_matches_serial(self):
        sweep = speedup_sweep("trfd", windows=(8, 16), differentials=(0, 60))
        serial = Session(scale=SCALE).run(sweep, jobs=1)
        parallel = Session(scale=SCALE).run(sweep, jobs=2)
        assert serial.cycles() == parallel.cycles()

    def test_generated_corpus_sweep_is_deterministic_across_jobs(
        self, tmp_path
    ):
        """jobs=1 and jobs=4 over a generated-corpus sweep produce
        identical results *and* identical store keys and payloads."""
        corpus = generate_corpus(4, seed=0, scale=SCALE)
        sweep = Sweep.grid(
            name="corpus-determinism",
            program=corpus.names,
            machine=("dm", "swsm"),
            window=16,
            memory_differential=(0, 60),
        )
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = Session(scale=SCALE, cache_dir=serial_dir).run(
            sweep, jobs=1
        )
        parallel = Session(scale=SCALE, cache_dir=parallel_dir).run(
            sweep, jobs=4
        )
        assert serial.points == parallel.points
        assert serial.results == parallel.results
        serial_rows = store_payloads(serial_dir)
        assert serial_rows == store_payloads(parallel_dir)
        assert len(serial_rows) == len(sweep)

    def test_pool_workers_write_nothing(self, tmp_path, monkeypatch):
        """Workers hand results home; the parent does every store write."""
        from repro.api import session as session_module

        log = tmp_path / "writers.log"
        record, worker_init = ResultStore.record, session_module._worker_init

        def logged(kind, call):
            def wrapper(*args, **kwargs):
                with log.open("a") as handle:
                    handle.write(f"{kind} {os.getpid()}\n")
                return call(*args, **kwargs)
            return wrapper

        # Patched before the pool forks, so the workers inherit both.
        monkeypatch.setattr(ResultStore, "record", logged("record", record))
        monkeypatch.setattr(
            session_module, "_worker_init", logged("worker", worker_init)
        )
        # Fixed-latency points go to workers as batch groups, the
        # stateful cache points as one-point tasks.
        sweep = Sweep.grid(
            program="trfd", machine=("dm", "swsm"), window=(8, 16),
            memory_differential=60,
            memory=(MemorySpec(kind="fixed"), MemorySpec(kind="cache")),
        )
        cache = tmp_path / "cache"
        Session(scale=SCALE, cache_dir=cache).run(sweep, jobs=2)
        entries = [line.split() for line in log.read_text().splitlines()]
        workers = {pid for kind, pid in entries if kind == "worker"}
        writers = {pid for kind, pid in entries if kind == "record"}
        assert workers - {str(os.getpid())}, "no pool worker started"
        assert writers == {str(os.getpid())}
        assert len(store_payloads(cache)) == len(sweep)
        assert sorted(
            path.name for path in cache.iterdir()
            if not path.name.startswith("results.sqlite")
        ) == ["lowered"]

    def test_generated_kernels_resolve_inside_workers(self):
        """gen: names must resolve in pool workers, not just locally."""
        session = Session(scale=SCALE)
        outcome = session.run(
            Sweep.grid(program="gen:gather:5", machine="dm",
                       window=(8, 16), memory_differential=60),
            jobs=2,
        )
        assert all(result.cycles > 0 for _, result in outcome)

    def test_custom_programs_evaluate_locally(self):
        session = Session(scale=SCALE)
        session.register_program(build_synthetic_stream(500, name="custom"))
        outcome = session.run(
            Sweep.grid(program="custom", machine="dm", window=(8, 16),
                       memory_differential=60),
            jobs=2,
        )
        assert all(result.cycles > 0 for _, result in outcome)


class TestSweepExecutor:
    """One mixed sweep through every batch x jobs combination.

    The sweep holds a batchable uniform window axis, a stateful cache
    point, a probe point, a duplicate, a store-resident serial point and
    a custom program (a local batch group and a local point under the
    pool). The cache stats, the telemetry rollup and the store rows are
    pinned to their recorded values, so any change to how the executor
    plans, runs or folds a sweep shows here.
    """

    #: Cache stats per (batch, jobs), without the ``*_seconds`` keys.
    STATS = {
        (True, 1): dict(evaluated=8, memory_hits=10, kernels_built=1,
                        batch_groups=2, batch_points=5),
        (True, 2): dict(evaluated=8, memory_hits=10, kernels_built=0,
                        batch_groups=2, batch_points=5),
        (False, 1): dict(evaluated=8, memory_hits=1, kernels_built=1,
                         batch_groups=0, batch_points=0),
        (False, 2): dict(evaluated=8, memory_hits=10, kernels_built=0,
                         batch_groups=0, batch_points=0),
    }
    #: Strategy histogram and nonzero engine counters per batch setting.
    STRATEGIES = {
        True: {"batch": 3, "uniform-table": 2, "speculative": 2,
               "probing": 1},
        False: {"uniform-table": 5, "speculative": 2, "probing": 1},
    }
    COUNTERS = {
        True: {"steady_skips": 3, "skipped_instructions": 855,
               "batch_runs": 1, "batch_lanes": 3,
               "batch_fallback_lanes": 2, "batch_steps": 529},
        False: {"steady_skips": 3, "skipped_instructions": 855},
    }
    #: Store key -> SHA-256 of its payload (12-digit prefixes of both):
    #: the same rows whatever the batch setting or pool width.
    ROWS = {
        "24a3882f9dd9": "d2c8586530ca",
        "3657fb0b0d48": "3bf69fa08d7e",
        "3ad54a1d5c66": "03129ed3b5f0",
        "a7acbd930165": "ef783052afdc",
        "bb0de08d32a9": "ce19a8c8bb32",
        "e2dd9208f1c4": "78e513ebc6ed",
    }

    @staticmethod
    def _points() -> list[Point]:
        def dm(program, window, **over):
            return Point(program=program, machine="dm", window=window,
                         memory_differential=60, **over)

        return [
            dm("trfd", 8), dm("trfd", 16), dm("trfd", 32),
            dm("trfd", 16, memory=MemorySpec(kind="cache")),
            dm("trfd", 16, probe_esw=True),
            dm("trfd", 16),
            Point(program="trfd", machine="serial", window=None,
                  memory_differential=60),
            dm("custom", 8), dm("custom", 16),
            dm("custom", 16, memory=MemorySpec(kind="cache")),
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("batch", [True, False])
    def test_mixed_sweep_is_pinned(self, tmp_path, batch, jobs):
        Session(scale=SCALE, cache_dir=tmp_path).evaluate(
            Point(program="trfd", machine="serial", window=None,
                  memory_differential=60)
        )
        session = Session(scale=SCALE, cache_dir=tmp_path, batch=batch)
        session.register_program(
            build_synthetic_stream(SCALE, name="custom")
        )
        session.run(self._points(), jobs=jobs)

        stats = {
            key: value for key, value in session.stats.items()
            if not key.endswith("_seconds")
        }
        assert stats == {
            "disk_hits": 1, "disk_misses": 5, "store_hits": 0,
            **self.STATS[batch, jobs],
        }
        telemetry = session.telemetry()
        assert telemetry["runs"] == 8
        assert telemetry["strategies"] == self.STRATEGIES[batch]
        assert telemetry["counters"] == {
            **zero_counters(), **self.COUNTERS[batch]
        }
        rows = {
            key[:12]: hashlib.sha256(payload).hexdigest()[:12]
            for key, payload in store_payloads(tmp_path).items()
        }
        assert rows == self.ROWS

    def test_one_point_tasks_keep_sweep_order(self):
        """Members of groups too small to batch stay where the sweep
        put them; only batch groups run first."""
        cache = MemorySpec(kind="cache")
        points = [
            Point(program=program, machine="dm", window=window,
                  memory_differential=60, memory=memory)
            for program, window, memory in (
                ("trfd", 8, MemorySpec()), ("trfd", 16, cache),
                ("mdg", 8, MemorySpec()), ("mdg", 16, MemorySpec()),
            )
        ]
        session = Session(scale=SCALE)
        trfd_8, trfd_cache, mdg_8, mdg_16 = pending = (
            session._pending_points(tuple(points))
        )
        assert session._plan(pending) == [
            (mdg_8, mdg_16), trfd_8, trfd_cache
        ]


class TestSweepResult:
    def test_order_matches_sweep(self):
        session = Session(scale=SCALE)
        sweep = Sweep.grid(program="trfd", machine="dm", window=(8, 16),
                           memory_differential=(0, 60))
        outcome = session.run(sweep)
        assert [p.window for p, _ in outcome] == [8, 8, 16, 16]
        assert len(outcome) == 4
        assert outcome.cycles() == tuple(r.cycles for _, r in outcome)


def test_preset_name_as_scale_is_rejected_up_front():
    with pytest.raises(ConfigError, match=r"PRESETS\['small'\]\.scale"):
        Session(scale="small")
    with pytest.raises(ConfigError, match=r"PRESETS\[name\]\.scale"):
        Session(scale=2.5)


class TestMachineRegistry:
    def test_builtins_registered(self):
        assert {"dm", "swsm", "serial"} <= set(list_machines())

    def test_unknown_machine_rejected(self):
        with pytest.raises(ConfigError):
            get_machine("warp-drive")
        with pytest.raises(ConfigError):
            Session(scale=SCALE).evaluate(
                Point(program="trfd", machine="warp-drive")
            )

    def test_custom_machine_pluggable(self):
        class PerfectMachine:
            name = "test-perfect"

            def canonical(self, point):
                return replace(point, window=None, probe_esw=False)

            def compile(self, program, point, latencies):
                return program

            def simulate(self, compiled, point, window, memory, latencies):
                return SimulationResult(
                    name=compiled.name,
                    cycles=len(compiled),
                    instructions=len(compiled),
                    unit_stats={},
                )

        register_machine(PerfectMachine())
        session = Session(scale=SCALE)
        cycles = session.cycles(
            Point(program="trfd", machine="test-perfect")
        )
        assert cycles == len(session.program("trfd"))
        # Window is canonicalised away: any window hits the same entry.
        session.cycles(Point(program="trfd", machine="test-perfect",
                             window=123))
        assert session.stats["evaluated"] == 1


class TestNoSharedState:
    """Regression: sessions share no mutable state across instances."""

    def test_latency_model_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LatencyModel().fp_op = 99  # type: ignore[misc]

    def test_sessions_get_independent_latency_instances(self):
        assert Session().latencies is not Session().latencies

    def test_no_run_path_writes_the_environment(self, monkeypatch,
                                                 tmp_path):
        # Engine routing comes from each point alone: evaluating or
        # sweeping from several threads — batched, per-point or through
        # a process pool — never writes the shared process environment,
        # and the only REPRO_* variables read are the documented ones.
        # Forked pool workers inherit the recording stand-in (each logs
        # a ``fork`` line on start), and every process appends to one
        # shared log, so worker accesses count.
        log = tmp_path / "environ.log"
        monkeypatch.setattr(os, "environ", _RecordingEnviron(os.environ, log))
        points = [
            Point(program="trfd", machine=machine, window=window,
                  memory=MemorySpec(kind=kind), memory_differential=60)
            for machine in ("dm", "swsm")
            for window in (8, 16)
            for kind in ("fixed", "banked")
        ]

        def work(batch: bool) -> int:
            session = Session(scale=SCALE, batch=batch)
            session.evaluate(points[-1])
            return len(session.run(points))

        with ThreadPoolExecutor(max_workers=4) as pool:
            done = list(pool.map(work, (True, False, True, False),
                                 timeout=300))
        assert done == [len(points)] * 4
        assert len(Session(scale=SCALE).run(points, jobs=2)) == len(points)
        entries = [line.split("\t") for line in log.read_text().splitlines()]
        assert {int(pid) for pid, _, _ in entries} - {os.getpid()}, \
            "no pool worker reached the recording environment"
        accesses = [entry for entry in entries if entry[1] != "fork"]
        assert [entry for entry in accesses if entry[1] != "read"] == []
        assert {key for _, _, key in accesses} \
            <= {"REPRO_TRACE", "REPRO_SCALE"}

    def test_simulate_touches_no_environment(self, monkeypatch, tmp_path):
        # A direct engine call is a function of its inputs alone: on
        # every route (the uniform table, the speculative fixed point,
        # the chunked loop, the event heap, the probe route) and on
        # both machines it reads, lists and writes no environment
        # variable at all.
        log = tmp_path / "environ.log"
        program = build_kernel("flo52q", 3_000)
        machines = (
            (DecoupledMachine.compile(program), dm_configs(32)),
            (SuperscalarMachine.compile(program), swsm_configs(32)),
            # Under 2048 instructions no stateful run is speculated.
            (DecoupledMachine.compile(build_kernel("flo52q", 1_000)),
             dm_configs(32)),
        )
        memories = (
            lambda: FixedLatencyMemory(60),
            ParityCheckedMemory,
            lambda: MemorySpec(kind="bypass").build(60),
            lambda: MemorySpec(kind="banked").build(60),
        )
        monkeypatch.setattr(
            os, "environ", _RecordingEnviron(os.environ, log, prefix="")
        )
        routes = set()
        for compiled, configs in machines:
            for make_memory in memories:
                for probes in (False, True):
                    result = simulate(
                        compiled, configs, make_memory(),
                        probe_buffers=probes,
                        probe_esw=probes and len(configs) == 2,
                    )
                    routes.add(result.telemetry.strategy)
        assert routes == {
            "uniform-table", "speculative", "chunked", "events-chunked",
            "probing",
        }
        assert not log.exists(), log.read_text()

    def test_registered_programs_do_not_leak_across_sessions(self):
        a = Session(scale=SCALE)
        b = Session(scale=SCALE)
        custom = build_synthetic_stream(500, name="trfd")  # shadows a kernel
        a.register_program(custom)
        assert a.program("trfd") is custom
        assert b.program("trfd") is not custom
        assert len(b.program("trfd")) != len(custom)

    def test_reregistered_program_serves_its_own_results(self):
        """A name registered again drops what the old program left:
        traces (expanded ones too), compiled programs and results."""
        session = Session(scale=SCALE)
        points = [
            Point(program="mine", machine="dm", window=32,
                  memory_differential=60, expansion=expansion)
            for expansion in (0.0, 0.25)
        ]
        session.register_program(
            Program("mine", build_kernel("trfd", SCALE).columns)
        )
        before = [session.cycles(point) for point in points]
        mdg = Program("mine", build_kernel("mdg", SCALE).columns)
        session.register_program(mdg)
        fresh = Session(scale=SCALE)
        fresh.register_program(mdg)
        want = [fresh.cycles(point) for point in points]
        assert [session.cycles(point) for point in points] == want
        assert want != before


class _RecordingEnviron(MutableMapping):
    """A process-environment stand-in that logs every write and every
    read of a key starting with ``prefix``, one
    ``pid<TAB>action<TAB>key`` line each, to an append-only file shared
    with forked children. With an empty ``prefix`` it also logs every
    listing or copy of the keys (key ``*``). A child forked while it is
    installed logs one ``fork`` line on start (see :func:`_log_fork`),
    which proves the stand-in reached it."""

    def __init__(self, initial, log, prefix: str = "REPRO_") -> None:
        self._data = dict(initial)
        self._log = log
        self._prefix = prefix

    def _record(self, action: str, key: str) -> None:
        with open(self._log, "a") as handle:
            handle.write(f"{os.getpid()}\t{action}\t{key}\n")

    def __getitem__(self, key):
        if key.startswith(self._prefix):
            self._record("read", key)
        return self._data[key]

    def __setitem__(self, key, value) -> None:
        self._record("set", key)
        self._data[key] = value

    def __delitem__(self, key) -> None:
        self._record("del", key)
        del self._data[key]

    def __iter__(self):
        if not self._prefix:
            self._record("read", "*")
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def copy(self) -> dict:
        if not self._prefix:
            self._record("read", "*")
        return dict(self._data)


def _log_fork() -> None:
    if isinstance(os.environ, _RecordingEnviron):
        os.environ._record("fork", "-")


os.register_at_fork(after_in_child=_log_fork)


class TestBypassMeta:
    def test_hit_rate_travels_with_result(self, tmp_path):
        point = Point(
            program="mdg", machine="dm", window=16, memory_differential=60,
            memory=MemorySpec(kind="bypass", entries=256, line_bytes=1),
        )
        fresh = Session(scale=SCALE, cache_dir=tmp_path).evaluate(point)
        assert fresh.meta["bypass_hit_rate"] > 0
        cached = Session(scale=SCALE, cache_dir=tmp_path).evaluate(point)
        assert cached.meta == fresh.meta


class TestStatefulMemoryMeta:
    """Each model's counters land in result.meta, and cached re-runs —
    which build (and reset) a fresh model instance per simulation —
    reproduce them exactly."""

    @pytest.mark.parametrize(
        ("spec", "key"),
        [
            (MemorySpec(kind="cache"), "cache_hit_rate"),
            (MemorySpec(kind="banked"), "bank_conflict_rate"),
            (MemorySpec(kind="prefetch"), "prefetch_hit_rate"),
        ],
    )
    def test_stats_travel_and_survive_cache_round_trips(
        self, tmp_path, spec, key
    ):
        point = Point(
            program="flo52q", machine="dm", window=16,
            memory_differential=60, memory=spec,
        )
        session = Session(scale=SCALE, cache_dir=tmp_path)
        fresh = session.evaluate(point)
        assert key in fresh.meta
        memory_hit = session.evaluate(point)
        assert memory_hit.meta == fresh.meta
        disk_hit = Session(scale=SCALE, cache_dir=tmp_path).evaluate(point)
        assert disk_hit.meta == fresh.meta
        resimulated = Session(scale=SCALE).evaluate(point)
        assert resimulated.meta == fresh.meta


class TestStoreResidentSkip:
    """Sweeps resume from an attached store: only missing points run."""

    def _sweep(self) -> Sweep:
        return Sweep.grid(
            name="resume",
            program="trfd",
            machine="dm",
            window=(4, 8, 16, 32),
            memory_differential=60,
        )

    def test_rerun_simulates_only_the_missing_points(self, tmp_path):
        sweep = self._sweep()
        points = list(sweep.points())
        store_path = tmp_path / "resume.sqlite"

        # "Killed" partway: the first session only got through half.
        first = Session(scale=SCALE)
        first.store(store_path)
        for point in points[:2]:
            first.evaluate(point)
        first.store().close()

        second = Session(scale=SCALE)
        second.store(store_path)
        outcome = second.run(sweep)
        assert second.stats["evaluated"] == len(points) - 2
        assert second.stats["store_hits"] == 2

        # Parity: rehydrated results equal a from-scratch run.
        reference = Session(scale=SCALE).run(sweep)
        assert outcome.cycles() == reference.cycles()
        assert outcome.results == reference.results

    def test_parallel_prefetch_skips_store_resident_points(self, tmp_path):
        sweep = self._sweep()
        points = list(sweep.points())
        store_path = tmp_path / "resume-par.sqlite"

        first = Session(scale=SCALE)
        first.store(store_path)
        for point in points[:3]:
            first.evaluate(point)
        first.store().close()

        second = Session(scale=SCALE)
        second.store(store_path)
        outcome = second.run(sweep, jobs=2)
        assert second.stats["evaluated"] == len(points) - 3
        assert outcome.cycles() == Session(scale=SCALE).run(sweep).cycles()

    def test_attached_store_replaces_cache_dir_store(self, tmp_path):
        # An attached store takes over lookups and writes: the
        # cache-dir store is neither read nor written while it is on.
        point = Point(program="trfd", machine="dm", window=16,
                      memory_differential=60)
        warm = Session(scale=SCALE, cache_dir=tmp_path / "cache")
        warm.evaluate(point)

        second = Session(scale=SCALE, cache_dir=tmp_path / "cache")
        attached = second.store(tmp_path / "s.sqlite")
        second.evaluate(point)
        second.evaluate(replace(point, window=32))
        assert second.stats["evaluated"] == 2
        assert second.stats["disk_hits"] == 0
        assert second.stats["disk_misses"] == 0
        assert len(attached) == 2
        assert len(warm.store()) == 1

        third = Session(scale=SCALE, cache_dir=tmp_path / "cache")
        third.store(tmp_path / "s.sqlite")
        third.evaluate(replace(point, window=32))
        assert third.stats["store_hits"] == 1
        assert third.stats["disk_hits"] == 0

    def test_corrupt_row_heals(self, tmp_path):
        point = Point(program="trfd", machine="dm", window=16,
                      memory_differential=60)
        path = tmp_path / "heal.sqlite"
        first = Session(scale=SCALE)
        first.store(path)
        fresh = first.evaluate(point)
        first.store().close()
        corrupt_payloads(path)

        recovering = Session(scale=SCALE)
        recovering.store(path)
        assert recovering.evaluate(point) == fresh
        assert recovering.stats["evaluated"] == 1
        assert recovering.stats["store_hits"] == 0
        recovering.store().close()

        healed = Session(scale=SCALE)
        healed.store(path)
        assert healed.evaluate(point) == fresh
        assert healed.stats["evaluated"] == 0
        assert healed.stats["store_hits"] == 1

    def test_store_hit_still_tracked_for_manifests(self, tmp_path):
        point = Point(program="trfd", machine="dm", window=16,
                      memory_differential=60)
        first = Session(scale=SCALE)
        first.store(tmp_path / "t.sqlite")
        first.evaluate(point)
        first.store().close()

        second = Session(scale=SCALE)
        store = second.store(tmp_path / "t.sqlite")
        with store.track() as group:
            second.evaluate(point)
        assert len(group) == 1  # rehydrated points stay manifest-visible


class TestInterrupt:
    def test_interrupt_mid_parallel_sweep_cancels_and_raises(
        self, monkeypatch
    ):
        """Ctrl-C during the pool fold must propagate promptly, not hang
        on queued futures (the executor is shut down with
        cancel_futures)."""
        session = Session(scale=SCALE)
        sweep = speedup_sweep("trfd", windows=(4, 8), differentials=(0, 60))

        def boom(self, canonical, result):
            raise KeyboardInterrupt

        monkeypatch.setattr(Session, "_store", boom)
        with pytest.raises(KeyboardInterrupt):
            session.run(sweep, jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_sweep_resumes_from_the_store(
        self, tmp_path, monkeypatch, jobs
    ):
        """Each prefetched result is recorded as it arrives, so a rerun
        after Ctrl-C simulates only the points not yet finished."""
        sweep = Sweep.grid(
            program="trfd", machine=("dm", "swsm"), window=(8, 16),
            memory_differential=(0, 60),
        )
        finished = 3
        store = Session._store

        def interrupt_after(self, canonical, result):
            store(self, canonical, result)
            if self.stats["evaluated"] + 1 == finished:
                raise KeyboardInterrupt

        monkeypatch.setattr(Session, "_store", interrupt_after)
        with pytest.raises(KeyboardInterrupt):
            Session(scale=SCALE, cache_dir=tmp_path).run(sweep, jobs=jobs)
        monkeypatch.undo()
        assert len(store_payloads(tmp_path)) == finished
        rerun = Session(scale=SCALE, cache_dir=tmp_path)
        rerun.run(sweep, jobs=jobs)
        assert rerun.stats["evaluated"] == len(sweep) - finished
        assert rerun.stats["disk_hits"] == finished
