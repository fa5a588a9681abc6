"""The service scheduling core: jobs, the priority queue, the workers.

A :class:`Job` is one submitted unit of work — a single operating
point or a whole sweep — identified by a **content address** derived
from the same keys the :class:`~repro.report.ResultStore` (a
:class:`~repro.api.Session`'s only persistent result tier) uses.
Identity does the heavy lifting:

* two submissions of the same work (however spelled — a sweep and the
  equivalent point list hash identically) **coalesce** onto one job:
  the second submitter gets the first job's id and, once it finishes,
  the same result rows;
* a finished job's rows are exactly what the result store warehouses,
  so a restarted server serves previously-computed answers from the
  store without re-simulating (the worker sessions' store-resident
  lookup short-circuits the engine).

The :class:`JobScheduler` owns a bounded priority queue (lower
``priority`` value runs first, FIFO within a priority) drained by a
small pool of worker threads, each with its own :class:`Session`
sharing one cache directory and one WAL-mode result store
(``store_path``, else the cache directory's ``results.sqlite``). The
queue bound is the backpressure contract: a full queue raises
:class:`~repro.errors.QueueFullError`, which the HTTP layer maps to
503 + ``Retry-After`` instead of queueing without limit.

Job state machine::

    queued -> running -> done
           |          -> failed
           -> cancelled          (cancel, or drain while still queued)

:meth:`JobScheduler.drain` is the graceful-shutdown path (SIGTERM):
stop accepting, cancel everything still queued, wait for running jobs
up to a deadline.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

from ..api.session import Session, telemetry_delta
from ..api.spec import (
    Point,
    Sweep,
    point_digest,
    point_from_dict,
    point_to_dict,
)
from ..config import LatencyModel
from ..errors import ConfigError, QueueFullError, ReproError
from ..kernels import get_kernel
from ..machines.registry import get_machine
from ..obs.telemetry import add_counters, zero_counters
from ..obs.trace import tracer_from_env

__all__ = [
    "JOB_STATES",
    "Job",
    "JobScheduler",
    "ServiceConfig",
    "result_rows",
]

#: The job state machine's vocabulary, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

QUEUED, RUNNING, DONE, FAILED, CANCELLED = JOB_STATES

#: States a duplicate submission can coalesce onto (a failed or
#: cancelled job is re-enqueued instead: the earlier outcome is not an
#: answer).
_COALESCABLE = (QUEUED, RUNNING, DONE)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service needs to run, in one frozen bundle."""

    scale: int = 12_000
    workers: int = 2
    queue_limit: int = 64
    cache_dir: str | None = None
    store_path: str | None = None
    site_dir: str | None = None
    host: str = "127.0.0.1"
    port: int = 8077
    drain_timeout: float = 10.0
    request_timeout: float = 30.0
    retry_after: int = 1
    latencies: LatencyModel = field(default_factory=LatencyModel)


@dataclass
class Job:
    """One submitted unit of work and its lifecycle so far."""

    id: str
    kind: str  # "point" | "sweep"
    spec: dict  # normalised plain-dict spec, as admitted
    priority: int = 0
    state: str = QUEUED
    hits: int = 0  # coalesced duplicate submissions
    submitted: float = 0.0
    started: float | None = None
    finished: float | None = None
    points: int = 0
    rows: list[dict] | None = None
    error: str | None = None
    #: Session-telemetry deltas attributable to this job's execution
    #: (runs, engine counters, strategy histogram, cache hits).
    telemetry: dict | None = None

    def describe(self) -> dict:
        """The poll-endpoint view: everything but the result rows."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "hits": self.hits,
            "points": self.points,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "url": f"/v1/jobs/{self.id}",
        }


def result_rows(points, results, scale: int, latencies) -> list[dict]:
    """The JSON rows of a finished job, in evaluation order.

    Shared by the server and by anything that wants to compare a
    service answer against a direct :class:`Session` run byte-for-byte
    (the CI smoke check does exactly that).
    """
    rows = []
    for point, result in zip(points, results):
        canonical = get_machine(point.machine).canonical(point)
        telemetry = result.telemetry
        rows.append({
            "point": point_to_dict(point),
            # The row's store key: the canonical point's content
            # address, i.e. exactly what the ResultStore is keyed by.
            "key": point_digest(canonical, scale, latencies),
            "cycles": result.cycles,
            "instructions": result.instructions,
            "ipc": result.ipc,
            "meta": dict(result.meta),
            # Only the deterministic slice (strategy + nonzero
            # counters): the row must serialize identically whether the
            # result came from the engine, the disk cache or the store.
            "telemetry": (
                telemetry.row_view() if telemetry is not None else None
            ),
        })
    return rows


def _parse_spec(kind: str, spec: object) -> tuple[object, tuple[Point, ...]]:
    """Validate a submitted spec; returns (parsed spec, its points).

    Raises :class:`~repro.errors.ConfigError` for anything malformed —
    the HTTP layer maps that (and the rest of the library's error
    hierarchy) to a 400.
    """
    if kind == "point":
        point = point_from_dict(spec)
        points: tuple[Point, ...] = (point,)
        parsed: object = point
    elif kind == "sweep":
        if not isinstance(spec, dict):
            raise ConfigError(
                f"sweep spec must be a table/object, got {spec!r}"
            )
        sweep = Sweep.from_dict(spec)
        parsed, points = sweep, tuple(sweep.points())
    else:
        raise ConfigError(
            f"unknown job kind {kind!r}; known kinds: point, sweep"
        )
    # Resolve every program up front so an unknown kernel is a 400 at
    # submit time, not a failed job discovered only on poll.
    for program in {point.program for point in points}:
        get_kernel(program)
    return parsed, points


class JobScheduler:
    """Bounded priority job queue drained by session-owning workers."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)  # queue activity
        self._idle = threading.Condition(self._lock)  # drain waiting
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []  # submission order, for listings
        self._heap: list[tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._queued = 0
        self._running = 0
        self._accepting = True
        self._stop = False
        # Engine counters summed over every finished job's telemetry.
        self._counters = zero_counters()
        self._local = threading.local()
        # Job-lifecycle spans land in the same REPRO_TRACE file the
        # worker sessions write to, so one trace shows the whole story.
        self._tracer = tracer_from_env()
        self._threads = [
            threading.Thread(
                target=self._work, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(max(1, config.workers))
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ---------------------------------------------------------------

    def submit(
        self, kind: str, spec: object, priority: int = 0
    ) -> tuple[Job, bool]:
        """Admit (or coalesce) one job; returns ``(job, coalesced)``.

        Raises :class:`~repro.errors.ConfigError` for a malformed spec
        and :class:`~repro.errors.QueueFullError` when the queue is
        saturated or the scheduler is draining.
        """
        parsed, points = _parse_spec(kind, spec)
        job_id, canonical_spec = self._identify(kind, parsed, points)
        with self._lock:
            if not self._accepting:
                raise QueueFullError(
                    "service is draining; not accepting new jobs",
                    retry_after=self.config.retry_after,
                )
            job = self._jobs.get(job_id)
            if job is not None and job.state in _COALESCABLE:
                job.hits += 1
                return job, True
            if self._queued >= self.config.queue_limit:
                raise QueueFullError(
                    f"job queue is full "
                    f"({self._queued}/{self.config.queue_limit} queued); "
                    f"retry later",
                    retry_after=self.config.retry_after,
                )
            if job is None:
                job = Job(
                    id=job_id,
                    kind=kind,
                    spec=canonical_spec,
                    priority=priority,
                    submitted=time.time(),
                    points=len(points),
                )
                self._jobs[job_id] = job
                self._order.append(job_id)
            else:
                # Failed or cancelled earlier: re-enqueue the same id.
                job.state = QUEUED
                job.priority = priority
                job.submitted = time.time()
                job.started = job.finished = None
                job.rows = None
                job.error = None
                job.telemetry = None
            self._queued += 1
            heapq.heappush(
                self._heap, (priority, next(self._seq), job_id)
            )
            self._wake.notify()
        if self._tracer is not None:
            self._tracer.event(
                "job.queued", job=job_id, kind=kind, points=len(points)
            )
        return job, False

    def _identify(
        self, kind: str, parsed: object, points: tuple[Point, ...]
    ) -> tuple[str, dict]:
        """Content-address a submission via its points' cache keys.

        The job id hashes the *canonical* per-point digests, so any two
        spellings of the same work — including a sweep whose grid
        enumerates the same points — coalesce onto the same job.
        """
        keys = [
            point_digest(
                get_machine(point.machine).canonical(point),
                self.config.scale,
                self.config.latencies,
            )
            for point in points
        ]
        doc = json.dumps(
            {"kind": kind, "keys": keys},
            sort_keys=True,
            separators=(",", ":"),
        )
        job_id = hashlib.sha256(doc.encode("utf-8")).hexdigest()
        if kind == "point":
            canonical_spec = point_to_dict(parsed)
        else:
            canonical_spec = parsed.to_dict()
        return job_id, canonical_spec

    # -- inspection ---------------------------------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All jobs, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def engine_counters(self) -> dict[str, int]:
        """Engine counters summed over every job that finished so far."""
        with self._lock:
            return dict(self._counters)

    def counts(self) -> dict[str, int]:
        """Jobs per state plus queue occupancy, for ``/health``."""
        with self._lock:
            by_state = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_state[job.state] += 1
            return {
                **by_state,
                "queue_depth": self._queued,
                "queue_limit": self.config.queue_limit,
                "workers": len(self._threads),
                "accepting": self._accepting,
            }

    # -- cancellation and shutdown ------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; running/finished jobs stay put."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != QUEUED:
                return False
            job.state = CANCELLED
            job.finished = time.time()
            self._queued -= 1
            return True

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: refuse new work, finish what's running.

        Queued-but-unstarted jobs are cancelled; running jobs get up to
        ``timeout`` seconds (default: the config's drain timeout) to
        finish. Returns True when everything settled in time.
        """
        deadline = time.monotonic() + (
            self.config.drain_timeout if timeout is None else timeout
        )
        with self._lock:
            self._accepting = False
            for job in self._jobs.values():
                if job.state == QUEUED:
                    job.state = CANCELLED
                    job.finished = time.time()
            self._queued = 0
            self._heap.clear()
            while self._running:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._idle.wait(remaining):
                    break
            settled = self._running == 0
            self._stop = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout=0.5)
        return settled

    # -- workers ------------------------------------------------------------------

    def _session(self) -> Session:
        """This worker thread's session (created lazily, kept forever).

        Workers share the cache directory and the WAL-mode result
        store, so one worker's simulation is every worker's cache hit;
        each session opens its store connection in this thread, as
        sqlite3 requires.
        """
        session = getattr(self._local, "session", None)
        if session is None:
            session = Session(
                scale=self.config.scale,
                latencies=self.config.latencies,
                cache_dir=self.config.cache_dir,
                jobs=1,
            )
            if self.config.store_path:
                session.store(self.config.store_path)
            self._local.session = session
        return session

    def _work(self) -> None:
        while True:
            with self._wake:
                while not self._stop and not self._heap:
                    self._wake.wait()
                if self._stop:
                    return
                _, _, job_id = heapq.heappop(self._heap)
                job = self._jobs[job_id]
                if job.state != QUEUED:
                    continue  # cancelled while waiting in the heap
                job.state = RUNNING
                job.started = time.time()
                self._queued -= 1
                self._running += 1
            rows, error = None, None
            try:
                if self._tracer is not None:
                    with self._tracer.span(
                        "job.run", job=job.id, kind=job.kind
                    ):
                        rows = self._execute(job)
                else:
                    rows = self._execute(job)
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # noqa: BLE001 - jobs must not kill workers
                error = f"{type(exc).__name__}: {exc!r}"
            with self._lock:
                job.finished = time.time()
                if error is None:
                    job.state = DONE
                    job.rows = rows
                    add_counters(self._counters, job.telemetry["counters"])
                else:
                    job.state = FAILED
                    job.error = error
                self._running -= 1
                self._idle.notify_all()
            if self._tracer is not None:
                self._tracer.event(
                    "job.finished", job=job.id, state=job.state
                )

    def _execute(self, job: Job) -> list[dict]:
        session = self._session()
        parsed, points = _parse_spec(job.kind, job.spec)
        before = session.telemetry()
        if job.kind == "point":
            results = (session.evaluate(parsed),)
        else:
            outcome = session.run(parsed)
            points, results = outcome.points, outcome.results
        after = session.telemetry()
        delta = telemetry_delta(before, after)
        # A job reports only the counters it moved.
        delta["counters"] = {
            key: value for key, value in delta["counters"].items() if value
        }
        job.telemetry = {"runs": after["runs"] - before["runs"], **delta}
        return result_rows(
            points, results, self.config.scale, self.config.latencies
        )
