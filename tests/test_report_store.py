"""Tests for the persistent results store (repro.report.store)."""

from __future__ import annotations

import sqlite3

import pytest

from repro import Point, ResultStore, Session, Sweep
from repro.api.spec import CACHE_FORMAT, MemorySpec, point_digest
from repro.errors import StoreError
from repro.report.store import SCHEMA_VERSION
from repro.workloads.grammar import GRAMMAR_VERSION

SCALE = 2_000


@pytest.fixture()
def session() -> Session:
    session = Session(scale=SCALE)
    session.store(ResultStore(":memory:"))
    return session


class TestRoundTrip:
    def test_typed_row_round_trips(self, session):
        point = Point(
            program="trfd", machine="dm", window=16,
            memory_differential=60,
            memory=MemorySpec(kind="bypass", entries=64),
        )
        result = session.evaluate(point)
        store = session.store()
        assert len(store) == 1
        (row,) = store.rows()
        canonical = point  # dm reads every field used here
        assert row.key == point_digest(
            session._canonical(canonical), SCALE, session.latencies
        )
        assert row.program == "trfd"
        assert row.machine == "dm"
        assert row.window == 16
        assert row.memory_differential == 60
        assert row.memory["kind"] == "bypass"
        assert row.memory["entries"] == 64
        assert row.scale == SCALE
        assert row.cycles == result.cycles
        assert row.instructions == result.instructions
        assert row.ipc == pytest.approx(result.ipc)
        assert row.meta["bypass_hit_rate"] == result.meta["bypass_hit_rate"]
        assert row.cache_format == CACHE_FORMAT
        assert row.grammar_version is None
        assert store.get(row.key) == row

    def test_unlimited_window_round_trips_as_none(self, session):
        session.evaluate(Point(program="trfd", machine="dm", window=None))
        (row,) = session.store().rows()
        assert row.window is None

    def test_generated_program_records_grammar_version(self, session):
        session.evaluate(Point(program="gen:streaming:1", window=8))
        (row,) = session.store().rows()
        assert row.grammar_version == GRAMMAR_VERSION


class TestIncrementalUpsert:
    def test_reevaluation_is_idempotent(self, session):
        point = Point(program="trfd", machine="dm", window=16)
        session.evaluate(point)
        session.evaluate(point)  # memory-cache hit records again
        assert len(session.store()) == 1

    def test_repeated_sweep_appends_only_whats_new(self, session):
        small = Sweep.grid(program="trfd", machine="dm", window=(8, 16))
        session.run(small)
        store = session.store()
        first = len(store)
        session.run(small)  # all cached: nothing new
        assert len(store) == first
        bigger = Sweep.grid(program="trfd", machine="dm",
                            window=(8, 16, 32))
        session.run(bigger)
        assert len(store) == first + 1

    def test_two_sessions_share_one_store_by_content(self, tmp_path):
        path = tmp_path / "results.sqlite"
        point = Point(program="trfd", machine="dm", window=16)
        for _ in range(2):
            session = Session(scale=SCALE)
            session.store(path)
            session.evaluate(point)
        assert len(ResultStore(path)) == 1

    def test_canonicalised_points_share_one_row(self, session):
        # Serial ignores the window: every window is one canonical run.
        for window in (8, 16, None):
            session.evaluate(
                Point(program="trfd", machine="serial", window=window)
            )
        assert len(session.store()) == 1

    def test_custom_programs_stay_out(self, session, daxpy):
        session.register_program(daxpy)
        session.evaluate(Point(program="daxpy", machine="dm", window=8))
        assert len(session.store()) == 0


class TestSchemaVersioning:
    def test_mismatch_raises_loudly(self, tmp_path):
        path = tmp_path / "results.sqlite"
        ResultStore(path).close()
        con = sqlite3.connect(path)
        con.execute("PRAGMA user_version = 99")
        con.commit()
        con.close()
        with pytest.raises(StoreError, match="schema v99"):
            ResultStore(path)

    @pytest.mark.parametrize("table", ["results", "users"])
    def test_unversioned_foreign_database_rejected(self, tmp_path, table):
        # A foreign SQLite file (user_version 0 is the SQLite default)
        # must never be adopted and mutated, whatever its tables.
        path = tmp_path / "results.sqlite"
        con = sqlite3.connect(path)
        con.execute(f"CREATE TABLE {table} (key TEXT)")
        con.commit()
        con.close()
        with pytest.raises(StoreError, match="foreign database"):
            ResultStore(path)
        con = sqlite3.connect(path)
        names = {row[0] for row in con.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
        con.close()
        assert names == {table}, "foreign database was mutated"

    def test_fresh_store_gets_current_version(self, tmp_path):
        path = tmp_path / "results.sqlite"
        ResultStore(path).close()
        con = sqlite3.connect(path)
        assert con.execute("PRAGMA user_version").fetchone()[0] == \
            SCHEMA_VERSION
        con.close()


class TestQueries:
    def test_filters_and_limit(self, session):
        session.run(Sweep.grid(
            program=("trfd", "adm"), machine=("dm", "swsm"), window=8
        ))
        store = session.store()
        assert len(store) == 4
        assert {r.program for r in store.rows(program="trfd")} == {"trfd"}
        assert {r.machine for r in store.rows(machine="dm")} == {"dm"}
        assert len(store.rows(limit=3)) == 3

    def test_summary_counts(self, session):
        session.run(Sweep.grid(
            program=("trfd", "adm"), machine=("dm", "swsm"), window=8
        ))
        summary = session.store().summary()
        assert summary == {
            "results": 4, "programs": 2, "machines": 2, "scales": 1,
        }

    def test_rows_order_is_deterministic(self, session):
        session.run(Sweep.grid(
            program=("trfd", "adm"), machine=("dm", "swsm"),
            window=(8, None),
        ))
        listed = [
            (r.program, r.machine, r.window)
            for r in session.store().rows()
        ]
        assert listed == sorted(
            listed,
            key=lambda item: (
                item[0], item[1],
                item[2] if item[2] is not None else 1 << 62,
            ),
        )

    def test_keys_sorted(self, session):
        session.run(Sweep.grid(
            program="trfd", machine=("dm", "swsm"), window=8
        ))
        keys = session.store().keys()
        assert keys == sorted(keys) and len(keys) == 2


class TestSessionHook:
    def test_store_accessor_and_detach(self):
        session = Session(scale=SCALE)
        assert session.store() is None
        store = session.store(ResultStore(":memory:"))
        assert session.store() is store
        assert session.store(None) is None
        assert session.store() is None

    def test_store_accepts_a_path(self, tmp_path):
        session = Session(scale=SCALE)
        store = session.store(tmp_path / "results.sqlite")
        assert isinstance(store, ResultStore)
        session.evaluate(Point(program="trfd", window=8))
        assert len(store) == 1

    def test_disk_cache_hits_still_recorded(self, tmp_path):
        # A point served by the cache-dir store is recorded in a store
        # attached afterwards (the attached store replaces it).
        point = Point(program="trfd", machine="dm", window=16)
        warm = Session(scale=SCALE, cache_dir=tmp_path / "cache")
        warm.evaluate(point)
        session = Session(scale=SCALE, cache_dir=tmp_path / "cache")
        session.evaluate(point)
        store = session.store(ResultStore(":memory:"))
        session.evaluate(point)
        assert session.stats["disk_hits"] == 1
        assert session.stats["evaluated"] == 0
        assert len(store) == 1

    def test_track_groups_collect_keys(self, session):
        store = session.store()
        with store.track() as group:
            session.evaluate(Point(program="trfd", window=8))
            session.evaluate(Point(program="trfd", window=8))
            session.evaluate(Point(program="trfd", window=16))
        assert len(group) == 2
        assert group.sorted() == sorted(store.keys())

    def test_repeat_evaluations_stay_visible_to_later_groups(self, session):
        # A second artefact re-evaluating a point the first already
        # recorded must still see its key in the second group.
        store = session.store()
        point = Point(program="trfd", window=8)
        with store.track() as first:
            session.evaluate(point)
        with store.track() as second:
            session.evaluate(point)
        assert first.sorted() == second.sorted()

    def test_nested_track_groups_detach_correctly(self, session):
        store = session.store()
        with store.track() as outer:
            session.evaluate(Point(program="trfd", window=8))
            with store.track() as inner:
                session.evaluate(Point(program="trfd", window=8))
            # Inner exit must not detach the (equal-keyed) outer group.
            session.evaluate(Point(program="trfd", window=16))
        assert len(inner) == 1
        assert len(outer) == 2

    def test_reattaching_a_store_records_again(self, session, tmp_path):
        point = Point(program="trfd", window=8)
        session.evaluate(point)
        fresh = session.store(tmp_path / "fresh.sqlite")
        assert len(fresh) == 0
        session.evaluate(point)  # memory hit, but a brand-new store
        assert len(fresh) == 1


class TestConcurrencyPragmas:
    def test_file_store_opens_in_wal_mode_with_busy_timeout(self, tmp_path):
        store = ResultStore(tmp_path / "wal.sqlite")
        mode = store._con.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        timeout = store._con.execute("PRAGMA busy_timeout").fetchone()[0]
        assert timeout >= 1_000  # milliseconds
        store.close()

    def test_reader_coexists_with_writer(self, tmp_path):
        """A second connection reads while the first keeps upserting."""
        path = tmp_path / "shared.sqlite"
        writer_session = Session(scale=SCALE)
        writer_session.store(path)
        writer_session.evaluate(Point(program="trfd", window=8))

        reader = ResultStore(path)
        assert len(reader.rows()) == 1
        writer_session.evaluate(Point(program="trfd", window=16))
        assert len(reader.rows()) == 2  # sees the new row, no lock error
        reader.close()

    def test_memory_store_skips_wal(self):
        store = ResultStore(":memory:")
        mode = store._con.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "memory"
        store.close()


class TestPayloads:
    def test_load_rehydrates_the_full_result(self, session):
        point = Point(program="trfd", machine="dm", window=16,
                      memory_differential=60)
        result = session.evaluate(point)
        store = session.store()
        key = point_digest(
            session._canonical(point), SCALE, session.latencies
        )
        loaded = store.load(key)
        assert loaded == result  # the whole dataclass, not just cycles

    def test_load_unknown_key_is_none(self, session):
        assert session.store().load("f" * 64) is None

    def test_corrupt_payload_is_a_miss(self, session):
        point = Point(program="trfd", window=8)
        session.evaluate(point)
        store = session.store()
        key = store.keys()[0]
        store._con.execute(
            "UPDATE results SET payload = ? WHERE key = ?",
            (b"not a pickle", key),
        )
        store._con.commit()
        assert store.load(key) is None
        assert store.get(key) is not None  # typed row still readable


class TestProfilesTable:
    """The additive ``profiles`` table of static page records."""

    @pytest.fixture()
    def v3_path(self, tmp_path):
        """A v3 store as written before the profiles table existed."""
        from repro.report import store as store_module

        path = tmp_path / "results.sqlite"
        con = sqlite3.connect(path)
        con.execute(store_module._CREATE)
        con.execute("PRAGMA user_version = 3")
        con.commit()
        con.close()
        return path

    @staticmethod
    def _tables(path) -> set[str]:
        con = sqlite3.connect(path)
        names = {row[0] for row in con.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
        version = con.execute("PRAGMA user_version").fetchone()[0]
        con.close()
        return names, version

    def test_v3_store_opens_and_gains_profiles(self, v3_path):
        assert self._tables(v3_path) == ({"results"}, 3)
        ResultStore(v3_path).close()
        assert self._tables(v3_path) == ({"results", "profiles"}, 3)
        assert SCHEMA_VERSION == 3

    def test_results_views_ignore_profile_rows(self, v3_path):
        session = Session(scale=SCALE)
        store = session.store(v3_path)
        with store.track() as group:
            session.evaluate(Point(program="trfd", window=8))
            store.record_profile("p" * 64, ["trfd", 1, "0.50"])
        assert store.load_profile("p" * 64) == ["trfd", 1, "0.50"]
        (key,) = store.keys()
        assert len(store) == 1
        assert [row.key for row in store.rows()] == [key]
        assert group.sorted() == [key]
        assert store.summary()["results"] == 1
        store.close()

    @pytest.mark.parametrize(
        "corrupt",
        ["'{not json'", "CAST(x'fffe' AS TEXT)", "x'fffe'"],
        ids=["bad-json", "bad-utf8-text", "bad-utf8-blob"],
    )
    def test_undecodable_record_is_a_miss_the_next_write_replaces(
        self, v3_path, corrupt
    ):
        from repro.api.spec import profile_digest

        session = Session(scale=SCALE)
        store = session.store(v3_path)
        computed = []

        def compute():
            computed.append(1)
            return ("trfd", 7, "0.25")

        assert session.static_record("kernels", "trfd", compute) == [
            "trfd", 7, "0.25",
        ]
        key = profile_digest("kernels", "trfd", SCALE)
        assert store.load_profile(key) == ["trfd", 7, "0.25"]
        store._con.execute(
            f"UPDATE profiles SET record = {corrupt} WHERE key = ?", (key,)
        )
        store._con.commit()
        assert store.load_profile(key) is None
        healed = Session(scale=SCALE)
        healed.store(store)
        assert healed.static_record("kernels", "trfd", compute) == [
            "trfd", 7, "0.25",
        ]
        assert len(computed) == 2
        assert store.load_profile(key) == ["trfd", 7, "0.25"]
        assert store._con.execute(
            "SELECT COUNT(*) FROM profiles"
        ).fetchone()[0] == 1
        store.close()

    @staticmethod
    def _profile_columns(path) -> list[str]:
        con = sqlite3.connect(path)
        names = [row[1] for row in con.execute("PRAGMA table_info(profiles)")]
        con.close()
        return names

    def test_table_without_source_gains_it_on_first_write(self, v3_path):
        con = sqlite3.connect(v3_path)
        con.execute(
            "CREATE TABLE profiles (key TEXT PRIMARY KEY, record TEXT NOT NULL)"
        )
        con.execute("INSERT INTO profiles VALUES ('old', '[1]')")
        con.commit()
        con.close()
        store = ResultStore(v3_path)
        assert self._profile_columns(v3_path) == ["key", "record"]
        assert store.load_profile("old") == [1]
        store.record_profile("new", [2])
        assert self._profile_columns(v3_path) == ["key", "record", "source"]
        # The row from before the column is another build's: pruned.
        assert store.load_profile("old") is None
        assert store.load_profile("new") == [2]
        store.close()

    @pytest.mark.parametrize("columns", ["key, record", "key, record, source"])
    def test_open_does_not_wait_for_a_held_write_lock(
        self, v3_path, monkeypatch, columns
    ):
        from repro.report import store as store_module

        con = sqlite3.connect(v3_path)
        con.execute(f"CREATE TABLE profiles ({columns})")
        con.commit()
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("BEGIN IMMEDIATE")
        try:
            # A blocked open would fail after this timeout.
            monkeypatch.setattr(store_module, "BUSY_TIMEOUT_S", 0.05)
            store = ResultStore(v3_path)
            assert store.load_profile("absent") is None
            store.close()
        finally:
            con.rollback()
            con.close()


class TestRowSpelling:
    def test_key_and_spec_columns_match_asdict(self):
        """Row JSON and keys are spelled as ``dataclasses.asdict`` would."""
        import hashlib
        import json
        from dataclasses import asdict

        from repro.config import LatencyModel

        def to_json(data):
            return json.dumps(data, sort_keys=True, separators=(",", ":"))

        latencies = LatencyModel(fp_op=5, mem_base=2)
        session = Session(scale=SCALE, latencies=latencies)
        store = ResultStore(":memory:")
        memories = (
            MemorySpec(kind="fixed"),
            MemorySpec(kind="bypass", entries=16),
            MemorySpec(kind="cache"),
            MemorySpec(kind="hierarchy",
                       levels=((1024, 32, 2, 1), (8192, 32, 4, 6))),
            MemorySpec(kind="banked", banks=4),
            MemorySpec(kind="prefetch", streams=2),
        )
        points = [
            Point(program="trfd", window=None, memory_differential=20,
                  memory=memory)
            for memory in memories
        ] + [Point(program="gen:streaming:1", window=8)]
        for point in points:
            key = store.record(
                point, SCALE, latencies, session.evaluate(point)
            )
            doc = {
                "format": CACHE_FORMAT,
                "point": asdict(point),
                "scale": SCALE,
                "latencies": asdict(latencies),
            }
            if point.program.startswith("gen:"):
                doc["grammar"] = GRAMMAR_VERSION
            digest = hashlib.sha256(to_json(doc).encode("utf-8"))
            assert key == digest.hexdigest()
            memory, lat = store._con.execute(
                "SELECT memory, latencies FROM results WHERE key = ?",
                (key,),
            ).fetchone()
            assert memory == to_json(asdict(point.memory))
            assert lat == to_json(asdict(latencies))
        store.close()
