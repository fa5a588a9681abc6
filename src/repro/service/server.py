"""The HTTP face of the service: submit → poll → fetch over plain JSON.

Built entirely on the stdlib (:class:`http.server.ThreadingHTTPServer`)
— no new runtime dependencies. The endpoints:

==========================================  =====================================
``GET  /``                                  endpoint index
``GET  /health``                            liveness + queue occupancy
``POST /v1/jobs``                           submit ``{"kind", "spec", "priority"}``
``GET  /v1/jobs``                           list jobs (submission order)
``GET  /v1/jobs/<id>``                      poll one job's state
``GET  /v1/jobs/<id>/result``               fetch a finished job's rows
``DELETE /v1/jobs/<id>``                    cancel a still-queued job
``GET  /v1/results``                        rows straight from the result store
``GET  /v1/artifacts/<path>``               pages of a built ``repro report`` site
``GET  /v1/metrics``                        Prometheus text: jobs, queue, requests
==========================================  =====================================

Status mapping: a malformed spec (anything raising from the library's
error hierarchy at submit time) is a 400; an unknown job id is a 404;
fetching a result that is still queued/running is a 202 with
``Retry-After``; a saturated queue — or a draining server — is a 503
with ``Retry-After`` (explicit backpressure, never unbounded
queueing); a failed job's result is a 500 carrying the job error; a
cancelled job's result is a 410.

Shutdown: SIGTERM and SIGINT both trigger a graceful drain (stop
accepting, cancel queued jobs, wait for running jobs up to the drain
timeout) before the listener closes. See docs/service.md for the
protocol walkthrough and a curl quickstart.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from urllib.parse import parse_qs, urlsplit

from ..errors import QueueFullError, ReproError, StoreError
from ..obs.metrics import MetricsRegistry
from ..report.store import ResultStore
from .jobs import DONE, FAILED, JOB_STATES, JobScheduler, ServiceConfig

__all__ = ["ReproServer", "serve", "start_server", "stop_server"]

_MAX_BODY_BYTES = 4 << 20  # a spec, not a dataset

_CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".md": "text/markdown; charset=utf-8",
    ".svg": "image/svg+xml",
    ".json": "application/json",
    ".css": "text/css; charset=utf-8",
    ".txt": "text/plain; charset=utf-8",
}

_INDEX = {
    "service": "repro simulation-as-a-service",
    "endpoints": [
        "GET /health",
        "POST /v1/jobs",
        "GET /v1/jobs",
        "GET /v1/jobs/<id>",
        "GET /v1/jobs/<id>/result",
        "DELETE /v1/jobs/<id>",
        "GET /v1/results",
        "GET /v1/artifacts/<path>",
        "GET /v1/metrics",
    ],
    "states": list(JOB_STATES),
}


def _endpoint_label(method: str, parts: tuple[str, ...]) -> str:
    """Collapse a request path to its route pattern for metric labels.

    Ids and artefact paths are unbounded, so labelling by the raw path
    would make the request-counter cardinality unbounded too.
    """
    if parts == ():
        route = "/"
    elif parts in (("health",), ("v1", "health")):
        route = "/health"
    elif parts == ("v1", "jobs"):
        route = "/v1/jobs"
    elif len(parts) == 3 and parts[:2] == ("v1", "jobs"):
        route = "/v1/jobs/<id>"
    elif (
        len(parts) == 4
        and parts[:2] == ("v1", "jobs")
        and parts[3] == "result"
    ):
        route = "/v1/jobs/<id>/result"
    elif parts == ("v1", "results"):
        route = "/v1/results"
    elif len(parts) >= 2 and parts[:2] == ("v1", "artifacts"):
        route = "/v1/artifacts/<path>"
    elif parts == ("v1", "metrics"):
        route = "/v1/metrics"
    else:
        route = "<other>"
    return f"{method} {route}"


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a scheduler and its config."""

    daemon_threads = True

    def __init__(self, config: ServiceConfig, scheduler: JobScheduler):
        self.config = config
        self.scheduler = scheduler
        handler = _make_handler(config, scheduler)
        super().__init__((config.host, config.port), handler)


def _make_handler(config: ServiceConfig, scheduler: JobScheduler):
    site_dir = (
        Path(config.site_dir).resolve() if config.site_dir else None
    )
    metrics = MetricsRegistry()

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve"
        protocol_version = "HTTP/1.1"
        timeout = config.request_timeout  # per-connection socket timeout

        # -- plumbing -------------------------------------------------------------

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # requests are not worth a stderr line each

        def send_response(self, code, message=None):
            self._observed_status = code
            super().send_response(code, message)

        def _timed(self, handler) -> None:
            """Run one verb handler, recording latency + final status."""
            started = perf_counter()
            self._observed_status = 0
            try:
                handler()
            finally:
                parts, _ = self._route()
                metrics.observe_request(
                    _endpoint_label(self.command, parts),
                    self._observed_status,
                    perf_counter() - started,
                )

        def _send_json(
            self, status: int, payload: dict, headers: dict | None = None
        ) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, str(value))
            self.end_headers()
            self.wfile.write(body)

        def _error(
            self,
            status: int,
            message: str,
            kind: str = "ServiceError",
            headers: dict | None = None,
        ) -> None:
            self._send_json(
                status, {"error": message, "type": kind}, headers
            )

        def _route(self) -> tuple[tuple[str, ...], dict]:
            split = urlsplit(self.path)
            parts = tuple(p for p in split.path.split("/") if p)
            query = {
                key: values[-1]
                for key, values in parse_qs(split.query).items()
            }
            return parts, query

        # -- verbs ----------------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            self._timed(self._get)

        def do_POST(self) -> None:  # noqa: N802 - stdlib casing
            self._timed(self._post)

        def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
            self._timed(self._delete)

        def _get(self) -> None:
            parts, query = self._route()
            if parts == ():
                self._send_json(200, _INDEX)
            elif parts in (("health",), ("v1", "health")):
                self._send_json(200, self._health())
            elif parts == ("v1", "jobs"):
                self._send_json(
                    200,
                    {"jobs": [j.describe() for j in scheduler.jobs()]},
                )
            elif len(parts) == 3 and parts[:2] == ("v1", "jobs"):
                self._job_status(parts[2])
            elif (
                len(parts) == 4
                and parts[:2] == ("v1", "jobs")
                and parts[3] == "result"
            ):
                self._job_result(parts[2])
            elif parts == ("v1", "results"):
                self._results(query)
            elif len(parts) >= 2 and parts[:2] == ("v1", "artifacts"):
                self._artifact(parts[2:])
            elif parts == ("v1", "metrics"):
                self._metrics()
            else:
                self._error(404, f"no such endpoint: {self.path}")

        def _post(self) -> None:
            parts, _ = self._route()
            if parts != ("v1", "jobs"):
                self._error(404, f"no such endpoint: {self.path}")
                return
            try:
                doc = self._read_json()
                kind = doc.get("kind", "point")
                spec = doc.get("spec")
                priority = int(doc.get("priority", 0))
                job, coalesced = scheduler.submit(kind, spec, priority)
            except QueueFullError as exc:
                self._error(
                    503,
                    str(exc),
                    type(exc).__name__,
                    {"Retry-After": exc.retry_after or config.retry_after},
                )
                return
            except ReproError as exc:
                self._error(400, str(exc), type(exc).__name__)
                return
            except (ValueError, TypeError, AttributeError) as exc:
                self._error(400, f"malformed request body: {exc}")
                return
            self._send_json(
                202 if not coalesced else 200,
                {**job.describe(), "coalesced": coalesced},
            )

        def _delete(self) -> None:
            parts, _ = self._route()
            if len(parts) == 3 and parts[:2] == ("v1", "jobs"):
                job = scheduler.job(parts[2])
                if job is None:
                    self._error(404, f"unknown job {parts[2]}")
                elif scheduler.cancel(parts[2]):
                    self._send_json(200, job.describe())
                else:
                    self._error(
                        409,
                        f"job {parts[2]} is {job.state}; only queued "
                        f"jobs can be cancelled",
                    )
            else:
                self._error(404, f"no such endpoint: {self.path}")

        # -- endpoint bodies ------------------------------------------------------

        def _read_json(self) -> dict:
            length = int(self.headers.get("Content-Length", 0))
            if length > _MAX_BODY_BYTES:
                raise ValueError(
                    f"request body of {length} bytes exceeds the "
                    f"{_MAX_BODY_BYTES}-byte limit"
                )
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ValueError("empty request body; expected JSON")
            doc = json.loads(raw)
            if not isinstance(doc, dict):
                raise ValueError("request body must be a JSON object")
            return doc

        def _health(self) -> dict:
            counts = scheduler.counts()
            return {
                "status": "ok" if counts.pop("accepting") else "draining",
                "scale": config.scale,
                **counts,
            }

        def _job_status(self, job_id: str) -> None:
            job = scheduler.job(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id}")
            else:
                self._send_json(200, job.describe())

        def _job_result(self, job_id: str) -> None:
            job = scheduler.job(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id}")
            elif job.state == DONE:
                self._send_json(
                    200,
                    {
                        **job.describe(),
                        "rows": job.rows,
                        "telemetry": job.telemetry,
                    },
                )
            elif job.state == FAILED:
                self._error(500, job.error or "job failed", "JobFailed")
            elif job.state in ("queued", "running"):
                self._send_json(
                    202,
                    job.describe(),
                    {"Retry-After": config.retry_after},
                )
            else:  # cancelled
                self._error(410, f"job {job_id} was cancelled")

        def _results(self, query: dict) -> None:
            if not config.store_path:
                self._error(
                    404, "server is running without a results store"
                )
                return
            try:
                limit = query.get("limit")
                # One short-lived read connection per request: sqlite3
                # connections are thread-bound, and WAL mode makes
                # concurrent readers free.
                with ResultStore(config.store_path) as store:
                    rows = store.rows(
                        program=query.get("program"),
                        machine=query.get("machine"),
                        limit=int(limit) if limit else None,
                    )
                    summary = store.summary()
            except (StoreError, ValueError) as exc:
                self._error(400, str(exc), type(exc).__name__)
                return
            self._send_json(200, {
                "store": config.store_path,
                "summary": summary,
                "rows": [
                    {
                        "key": row.key,
                        "program": row.program,
                        "machine": row.machine,
                        "window": row.window,
                        "memory_differential": row.memory_differential,
                        "memory": row.memory,
                        "scale": row.scale,
                        "cycles": row.cycles,
                        "instructions": row.instructions,
                        "ipc": row.ipc,
                        "meta": row.meta,
                        "telemetry": row.telemetry,
                    }
                    for row in rows
                ],
            })

        def _metrics(self) -> None:
            counts = scheduler.counts()
            body = metrics.render(
                gauges={
                    "repro_queue_depth": counts["queue_depth"],
                    "repro_queue_limit": counts["queue_limit"],
                    "repro_workers": counts["workers"],
                    "repro_accepting": int(counts["accepting"]),
                },
                job_states={
                    state: counts[state] for state in JOB_STATES
                },
                engine_counters=scheduler.engine_counters(),
            ).encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type",
                "text/plain; version=0.0.4; charset=utf-8",
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _artifact(self, rest: tuple[str, ...]) -> None:
            if site_dir is None:
                self._error(
                    404,
                    "server is running without a report site "
                    "(start with --site <dir>)",
                )
                return
            target = (site_dir / Path(*rest)).resolve() if rest else (
                site_dir / "index.html"
            )
            if not target.is_relative_to(site_dir):
                self._error(403, "path escapes the site directory")
                return
            if not target.is_file():
                self._error(404, f"no such artefact page: {'/'.join(rest)}")
                return
            body = target.read_bytes()
            self.send_response(200)
            self.send_header(
                "Content-Type",
                _CONTENT_TYPES.get(
                    target.suffix.lower(), "application/octet-stream"
                ),
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    return Handler


def start_server(
    config: ServiceConfig,
) -> tuple[ReproServer, JobScheduler, threading.Thread]:
    """Boot the service in-process; returns (server, scheduler, thread).

    The listener runs on a daemon thread — this is the entry point
    tests, benchmarks and the CI smoke check use. Pass ``port=0`` for
    an ephemeral port and read the bound one back from
    ``server.server_address``.
    """
    scheduler = JobScheduler(config)
    server = ReproServer(config, scheduler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, scheduler, thread


def stop_server(
    server: ReproServer, timeout: float | None = None
) -> bool:
    """Drain the scheduler, then stop the listener. True if drained."""
    settled = server.scheduler.drain(timeout)
    server.shutdown()
    server.server_close()
    return settled


def serve(config: ServiceConfig) -> int:
    """Run the server in the foreground until SIGTERM/SIGINT.

    Both signals trigger the same graceful drain; the second Ctrl-C
    falls through to the default handler (hard exit).
    """
    scheduler = JobScheduler(config)
    server = ReproServer(config, scheduler)
    host, port = server.server_address[:2]
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(workers={config.workers}, queue={config.queue_limit}, "
        f"scale={config.scale})",
        flush=True,
    )

    def _shutdown(signum, frame):
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        print(
            f"repro serve: draining "
            f"(waiting up to {config.drain_timeout:.0f}s for running "
            f"jobs)",
            flush=True,
        )
        # shutdown() blocks until serve_forever returns, so it must
        # run off the signal-interrupted (main) thread.
        def _stop():
            scheduler.drain()
            server.shutdown()

        threading.Thread(target=_stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    print("repro serve: stopped", flush=True)
    return 0
