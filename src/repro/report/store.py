"""The persistent results store: an SQLite warehouse of evaluated points.

It is a :class:`~repro.api.Session`'s only persistent result tier
(``cache_dir/results.sqlite``, or a store attached with
``session.store(...)``): every :class:`~repro.api.spec.Point` the
session evaluates is recorded here, keyed by its content address
(:func:`repro.api.spec.point_digest` over point, scale, latency model
and cache format). The store is therefore incremental by construction:
recording an already-present key is a no-op, so repeated sweeps only
append what's new, and two sessions writing the same operating points
agree byte-for-byte on the keys. A store is one SQLite connection, used
only from the thread that opened it.

Each row carries the full operating point (program, machine, window,
memory differential, issue widths, partition, expansion, memory-system
spec), the session context (scale, latency model), the measured result
(cycles, instructions, metadata including every memory model's
``stats()`` counters) and the relevant format versions (cache format,
and the grammar version for generated ``gen:<family>:<seed>``
programs). A schema-version mismatch on open raises
:class:`~repro.errors.StoreError` loudly rather than guessing.

A second table, ``profiles``, holds static records, one JSON value per
kernel and record kind: a ``kernels`` or ``generated`` row is the exact
fields that report page prints, a ``band`` row is a generated kernel's
predicted band for the generalization study. Its key is
:func:`repro.api.spec.profile_digest` over the record kind, the kernel
name, the scale, the interpreter's major.minor version and a digest of
the ``repro`` package's sources, so any code edit misses and the next
report recomputes each record once. A warm ``repro report`` thus builds
no kernel. The ``source`` column names the build (Python version and
source digest) that wrote a row; a build's first write deletes every
other build's rows. The table is additive: opening a v3 store that
lacks it creates it, a first write adds ``source`` to an older one, and
:data:`SCHEMA_VERSION` stays 3, because a reader that ignores the table
still reads every result correctly. Profile rows are not results:
``len``, :meth:`ResultStore.keys`, :meth:`ResultStore.rows` and
:meth:`ResultStore.track` groups never see them. An undecodable record
is a miss that the next write replaces.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..errors import StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import LatencyModel
    from ..machines import SimulationResult

__all__ = ["ResultStore", "StoredResult", "SCHEMA_VERSION"]

#: Bump on any change to the row schema below; stores written by a
#: different version refuse to open instead of silently misreading.
#: v2 added the ``payload`` column (the pickled full result, without
#: its telemetry) so sweeps and the service layer can rehydrate
#: store-resident points without re-simulating them.
#: v3 added the ``telemetry`` column: the deterministic slice of the
#: run's :class:`~repro.obs.telemetry.RunTelemetry` (strategy, nonzero
#: counters, cache tier) as JSON — the payload itself stays
#: telemetry-free so its bytes depend only on the schedule.
SCHEMA_VERSION = 3

#: Writer lock patience, in seconds: how long a connection waits for a
#: competing writer before giving up. With WAL journaling readers never
#: block, so this only paces concurrent upserting sessions.
BUSY_TIMEOUT_S = 10.0

_CREATE = """
CREATE TABLE IF NOT EXISTS results (
    key                 TEXT PRIMARY KEY,
    program             TEXT NOT NULL,
    machine             TEXT NOT NULL,
    window              INTEGER,
    memory_differential INTEGER NOT NULL,
    au_width            INTEGER NOT NULL,
    du_width            INTEGER NOT NULL,
    swsm_width          INTEGER NOT NULL,
    partition           TEXT NOT NULL,
    expansion           REAL NOT NULL,
    memory              TEXT NOT NULL,
    scale               INTEGER NOT NULL,
    latencies           TEXT NOT NULL,
    cycles              INTEGER NOT NULL,
    instructions        INTEGER NOT NULL,
    meta                TEXT NOT NULL,
    cache_format        INTEGER NOT NULL,
    grammar_version     INTEGER,
    telemetry           TEXT,
    payload             BLOB
)
"""

#: Static page records, keyed by :func:`repro.api.spec.profile_digest`.
#: Additive to schema v3: created on open when absent.
_CREATE_PROFILES = """
CREATE TABLE IF NOT EXISTS profiles (
    key     TEXT PRIMARY KEY,
    record  TEXT NOT NULL,
    source  TEXT
)
"""

_COLUMNS = (
    "key", "program", "machine", "window", "memory_differential",
    "au_width", "du_width", "swsm_width", "partition", "expansion",
    "memory", "scale", "latencies", "cycles", "instructions", "meta",
    "cache_format", "grammar_version", "telemetry",
)

_INSERT_COLUMNS = (*_COLUMNS, "payload")

_INSERT = (
    f"INSERT OR {{}} INTO results ({', '.join(_INSERT_COLUMNS)}) "
    f"VALUES ({', '.join('?' * len(_INSERT_COLUMNS))})"
)


@dataclass(frozen=True)
class StoredResult:
    """One warehouse row, fully typed (JSON columns decoded to dicts)."""

    key: str
    program: str
    machine: str
    window: int | None  # None = the paper's unlimited window
    memory_differential: int
    au_width: int
    du_width: int
    swsm_width: int
    partition: str
    expansion: float
    memory: dict
    scale: int
    latencies: dict
    cycles: int
    instructions: int
    meta: dict
    cache_format: int
    grammar_version: int | None
    #: Deterministic run telemetry (strategy, nonzero counters, cache
    #: tier), or None for rows written by pre-v3 stores.
    telemetry: dict | None = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class ResultStore:
    """SQLite-backed warehouse of evaluated operating points.

    Open with a path (created on demand) or ``":memory:"`` for an
    ephemeral store. Attach to a session with ``session.store(store)``
    (or give the session a ``cache_dir``) so every evaluated point is
    recorded automatically; or call :meth:`record` directly.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = Path(path) if str(path) != ":memory:" else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._con = sqlite3.connect(str(path), timeout=BUSY_TIMEOUT_S)
        except sqlite3.Error as error:
            raise StoreError(f"cannot open result store {path}: {error}")
        self._init_schema(str(path))
        self._tune_concurrency()
        self._seen: set[str] = set()
        # Keys whose row load() could not read: record() replaces them.
        self._unreadable: set[str] = set()
        self._groups: list[set[str]] = []

    def _tune_concurrency(self) -> None:
        """WAL journaling + a busy timeout: many readers, one writer.

        Write-ahead logging lets a long ``repro report`` read coexist
        with an upserting session (readers never block the writer, or
        vice versa); the busy timeout makes competing *writers* queue
        politely instead of failing fast with ``database is locked``.
        In-memory stores have no journal file and keep the default
        mode. Runs after the schema guard so a foreign database is
        rejected before anything touches its journal mode.
        """
        try:
            if self.path is not None:
                self._con.execute("PRAGMA journal_mode=WAL")
            self._con.execute(
                f"PRAGMA busy_timeout = {int(BUSY_TIMEOUT_S * 1000)}"
            )
        except sqlite3.Error as error:  # pragma: no cover - exotic FS only
            raise StoreError(
                f"cannot configure result store concurrency: {error}"
            )

    def _init_schema(self, label: str) -> None:
        try:
            version = self._con.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                existing = self._con.execute(
                    "SELECT name FROM sqlite_master "
                    "WHERE type IN ('table', 'view')"
                ).fetchone()
                if existing is not None:
                    # Any pre-existing content without our schema
                    # version is either a foreign application's
                    # database or a pre-versioning store; adopting and
                    # mutating it would corrupt it either way.
                    raise StoreError(
                        f"{label} is not an empty or versioned result "
                        f"store (it already contains table "
                        f"{existing[0]!r} with no schema version); "
                        f"refusing to adopt a foreign database"
                    )
                self._con.execute(_CREATE)
                self._con.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            elif version != SCHEMA_VERSION:
                raise StoreError(
                    f"result store {label} has schema v{version}; this "
                    f"build reads v{SCHEMA_VERSION} — regenerate the store "
                    f"or use a matching repro version"
                )
            self._con.execute(_CREATE_PROFILES)
            self._con.commit()
        except sqlite3.Error as error:
            raise StoreError(f"cannot read result store {label}: {error}")
        # The build this connection last pruned the profiles table to.
        self._profile_source: str | None = None

    # -- writing -----------------------------------------------------------------

    def record(
        self,
        point,
        scale: int,
        latencies: "LatencyModel",
        result: "SimulationResult",
    ) -> str:
        """Upsert one evaluated point; returns its store key.

        The key is the session's content address for the point, so
        recording the same (point, scale, latencies) twice — or across
        runs — leaves exactly one row. Group tracking (for report
        manifests) sees every key regardless of whether the row was new.
        """
        from ..api.spec import latencies_doc, memory_doc, point_digest

        key = point_digest(point, scale, latencies)
        for group in self._groups:
            group.add(key)
        if key in self._seen:
            return key
        grammar_version = None
        if point.program.lower().startswith("gen:"):
            from ..workloads.grammar import GRAMMAR_VERSION

            grammar_version = GRAMMAR_VERSION
        from ..api.spec import CACHE_FORMAT

        telemetry = result.telemetry
        if telemetry is not None:
            from dataclasses import replace as _replace

            # The payload must serialize identically however the run
            # was produced; the deterministic telemetry slice lives in
            # its own column instead.
            payload = pickle.dumps(
                _replace(result, telemetry=None),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            telemetry_json = _to_json(telemetry.store_view())
        else:
            payload = pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL
            )
            telemetry_json = None
        row = (
            key,
            point.program,
            point.machine,
            point.window,
            point.memory_differential,
            point.au_width,
            point.du_width,
            point.swsm_width,
            point.partition,
            point.expansion,
            _to_json(memory_doc(point.memory)),
            scale,
            _to_json(latencies_doc(latencies)),
            result.cycles,
            result.instructions,
            _to_json(dict(result.meta)),
            CACHE_FORMAT,
            grammar_version,
            telemetry_json,
            payload,
        )
        conflict = "REPLACE" if key in self._unreadable else "IGNORE"
        self._con.execute(_INSERT.format(conflict), row)
        self._con.commit()
        self._seen.add(key)
        self._unreadable.discard(key)
        return key

    def touch(self, key: str) -> str:
        """Re-announce an already-recorded key to active tracking groups.

        The session calls this instead of :meth:`record` once it knows
        a canonical point's key, so repeat evaluations stay visible to
        per-artefact manifests without re-serialising the point or
        re-hashing its digest.
        """
        for group in self._groups:
            group.add(key)
        return key

    def record_profile(self, key: str, record) -> None:
        """Write one static page record (any JSON value) under ``key``.

        Replaces whatever the key held, so an undecodable record heals
        on its next write. The first write of a build on this
        connection deletes the rows of every other build, whose keys no
        current build asks for.
        """
        from ..api import spec

        source = f"{spec.PYTHON_VERSION}:{spec.source_digest()}"
        if source != self._profile_source:
            # A table made before the source column gains it here, not
            # on open: opening never writes to an existing store.
            columns = self._con.execute("PRAGMA table_info(profiles)")
            if "source" not in {row[1] for row in columns}:
                self._con.execute(
                    "ALTER TABLE profiles ADD COLUMN source TEXT"
                )
            self._con.execute(
                "DELETE FROM profiles WHERE source IS NOT ?", (source,)
            )
            self._profile_source = source
        self._con.execute(
            "INSERT OR REPLACE INTO profiles (key, record, source) "
            "VALUES (?, ?, ?)",
            (key, json.dumps(record, separators=(",", ":")), source),
        )
        self._con.commit()

    # -- group tracking (report manifests) ---------------------------------------

    def track(self) -> "_KeyGroup":
        """Context manager collecting the keys recorded inside it."""
        return _KeyGroup(self)

    # -- reading -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._con.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def keys(self) -> list[str]:
        """All store keys, sorted (the manifest order)."""
        return [
            row[0]
            for row in self._con.execute(
                "SELECT key FROM results ORDER BY key"
            )
        ]

    def rows(
        self,
        program: str | None = None,
        machine: str | None = None,
        scale: int | None = None,
        limit: int | None = None,
    ) -> list[StoredResult]:
        """Typed rows, deterministically ordered, optionally filtered."""
        clauses, params = [], []
        for column, value in (
            ("program", program), ("machine", machine), ("scale", scale)
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        tail = " LIMIT ?" if limit is not None else ""
        if limit is not None:
            params.append(limit)
        query = (
            f"SELECT {', '.join(_COLUMNS)} FROM results{where} "
            f"ORDER BY program, machine, memory_differential, "
            f"COALESCE(window, 1 << 62), key{tail}"
        )
        return [self._row_to_result(row) for row in
                self._con.execute(query, params)]

    def load(self, key: str) -> "SimulationResult | None":
        """Rehydrate the full simulation result stored under ``key``.

        Returns ``None`` when the key is absent or its payload is
        unreadable. An unreadable row is a miss that the next
        :meth:`record` of the key rewrites, so a corrupt blob costs one
        re-simulation, not one per session. This is what lets a
        session — and the service layer — skip re-simulating
        store-resident points entirely.
        """
        row = self._con.execute(
            "SELECT payload, telemetry FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            result = pickle.loads(row[0])
        except Exception:
            # Corrupt or missing payload: a miss that record() heals.
            self._seen.discard(key)
            self._unreadable.add(key)
            return None
        if row[1] is not None and result.telemetry is None:
            from dataclasses import replace as _replace

            from ..obs.telemetry import RunTelemetry, zero_counters

            try:
                recorded = json.loads(row[1])
                result = _replace(result, telemetry=RunTelemetry(
                    strategy=recorded.get("strategy", "cached"),
                    counters={
                        **zero_counters(),
                        **recorded.get("counters", {}),
                    },
                    sim_cycles=result.cycles,
                    cache_tier="store",
                ))
            except Exception:
                pass  # telemetry is advisory; the result stands alone
        return result

    def load_profile(self, key: str):
        """The static page record stored under ``key``, or ``None``.

        An absent key and an undecodable record are both misses.
        """
        try:
            row = self._con.execute(
                "SELECT record FROM profiles WHERE key = ?", (key,)
            ).fetchone()
            return None if row is None else json.loads(row[0])
        except (sqlite3.OperationalError, TypeError, ValueError):
            # Text that is not UTF-8 fails in the fetch, bad JSON in
            # the decode: either way a miss that record_profile heals.
            return None

    def get(self, key: str) -> StoredResult | None:
        row = self._con.execute(
            f"SELECT {', '.join(_COLUMNS)} FROM results WHERE key = ?",
            (key,),
        ).fetchone()
        return None if row is None else self._row_to_result(row)

    def summary(self) -> dict[str, object]:
        """Aggregate counts for the ``repro results`` footer."""
        total = len(self)
        distinct = {
            field: self._con.execute(
                f"SELECT COUNT(DISTINCT {field}) FROM results"
            ).fetchone()[0]
            for field in ("program", "machine", "scale")
        }
        return {
            "results": total,
            "programs": distinct["program"],
            "machines": distinct["machine"],
            "scales": distinct["scale"],
        }

    @staticmethod
    def _row_to_result(row: tuple) -> StoredResult:
        values = dict(zip(_COLUMNS, row))
        values["memory"] = json.loads(values["memory"])
        values["latencies"] = json.loads(values["latencies"])
        values["meta"] = json.loads(values["meta"])
        if values["telemetry"] is not None:
            values["telemetry"] = json.loads(values["telemetry"])
        return StoredResult(**values)

    def close(self) -> None:
        self._con.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _KeyGroup:
    """Collects the store keys recorded while the context is active."""

    def __init__(self, store: ResultStore) -> None:
        self._store = store
        self.keys: set[str] = set()

    def __enter__(self) -> "_KeyGroup":
        self._store._groups.append(self.keys)
        return self

    def __exit__(self, *exc) -> None:
        groups = self._store._groups
        for index, group in enumerate(groups):
            # By identity, not equality: nested groups can hold equal
            # key sets, and removing the wrong one would detach a
            # still-open outer group.
            if group is self.keys:
                del groups[index]
                break

    def sorted(self) -> list[str]:
        return sorted(self.keys)

    def __iter__(self) -> Iterator[str]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.keys)


def _to_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
