"""Prometheus text-format metrics for the simulation service.

:class:`MetricsRegistry` accumulates per-endpoint request counts and
latency histograms under a lock; :meth:`MetricsRegistry.render`
composes them with caller-supplied gauges (job states, queue depth)
and counters (engine rollups) into Prometheus exposition text
(version 0.0.4). :func:`parse_prometheus` is the matching minimal
parser used by tests and the CI smoke tool to prove the output is
well-formed.
"""

from __future__ import annotations

import re
import threading

#: Request-latency histogram bucket bounds, in seconds (plus +Inf).
LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _labels(pairs: dict[str, str]) -> str:
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in pairs.items()
    )
    return "{" + inner + "}" if inner else ""


def _number(value: float) -> str:
    if isinstance(value, float) and value != int(value):
        return repr(value)
    return str(int(value))


class MetricsRegistry:
    """Thread-safe request metrics + one-shot exposition renderer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: dict[tuple[str, str], int] = {}
        # endpoint -> (per-bucket counts incl. +Inf, sum seconds, count)
        self._latency: dict[str, list] = {}

    def observe_request(
        self, endpoint: str, status: int, seconds: float
    ) -> None:
        with self._lock:
            key = (endpoint, str(status))
            self._requests[key] = self._requests.get(key, 0) + 1
            entry = self._latency.setdefault(
                endpoint, [[0] * (len(LATENCY_BUCKETS) + 1), 0.0, 0]
            )
            buckets, _, _ = entry
            for i, bound in enumerate(LATENCY_BUCKETS):
                if seconds <= bound:
                    buckets[i] += 1
            buckets[-1] += 1
            entry[1] += seconds
            entry[2] += 1

    def render(
        self,
        gauges: dict[str, float] | None = None,
        job_states: dict[str, int] | None = None,
        engine_counters: dict[str, int] | None = None,
    ) -> str:
        """Exposition text: request metrics plus caller-supplied views."""
        lines: list[str] = []
        with self._lock:
            requests = dict(self._requests)
            latency = {
                endpoint: (list(entry[0]), entry[1], entry[2])
                for endpoint, entry in self._latency.items()
            }
        lines.append(
            "# HELP repro_http_requests_total "
            "HTTP requests served, by endpoint and status."
        )
        lines.append("# TYPE repro_http_requests_total counter")
        for (endpoint, status), count in sorted(requests.items()):
            labels = _labels({"endpoint": endpoint, "status": status})
            lines.append(f"repro_http_requests_total{labels} {count}")
        lines.append(
            "# HELP repro_http_request_seconds "
            "HTTP request latency, by endpoint."
        )
        lines.append("# TYPE repro_http_request_seconds histogram")
        for endpoint in sorted(latency):
            buckets, total, count = latency[endpoint]
            bounds = [repr(b) for b in LATENCY_BUCKETS] + ["+Inf"]
            for bound, bucket_count in zip(bounds, buckets):
                labels = _labels({"endpoint": endpoint, "le": bound})
                lines.append(
                    f"repro_http_request_seconds_bucket{labels} "
                    f"{bucket_count}"
                )
            labels = _labels({"endpoint": endpoint})
            lines.append(
                f"repro_http_request_seconds_sum{labels} {repr(total)}"
            )
            lines.append(
                f"repro_http_request_seconds_count{labels} {count}"
            )
        if job_states is not None:
            lines.append(
                "# HELP repro_jobs Jobs known to the scheduler, by state."
            )
            lines.append("# TYPE repro_jobs gauge")
            for state, count in sorted(job_states.items()):
                labels = _labels({"state": state})
                lines.append(f"repro_jobs{labels} {_number(count)}")
        for name, value in sorted((gauges or {}).items()):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_number(value)}")
        if engine_counters is not None:
            lines.append(
                "# HELP repro_engine_counter_total "
                "Engine accelerator counters, summed over this server's jobs."
            )
            lines.append("# TYPE repro_engine_counter_total counter")
            for counter, value in sorted(engine_counters.items()):
                labels = _labels({"counter": counter})
                lines.append(
                    f"repro_engine_counter_total{labels} {_number(value)}"
                )
        return "\n".join(lines) + "\n"


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text into ``{name{labels}: value}``.

    Raises ``ValueError`` on the first malformed line — the point is
    validation (smoke tests), not a faithful client implementation.
    """
    samples: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        labels = match.group("labels") or ""
        if labels:
            inner = labels[1:-1]
            for part in filter(None, inner.split(",")):
                if not _LABEL.match(part):
                    raise ValueError(
                        f"line {lineno}: malformed label {part!r}"
                    )
        raw = match.group("value")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: malformed value {raw!r}"
            ) from exc
        samples[match.group("name") + labels] = value
    if not samples:
        raise ValueError("no samples found")
    return samples
