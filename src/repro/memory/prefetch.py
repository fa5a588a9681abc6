"""A stride/stream prefetcher feeding the processor-side buffer.

The paper's decoupled machine prefetches by *slipping* — the address
unit runs ahead and issues loads early. A hardware stride prefetcher
is the SWSM-era alternative: watch the miss stream, detect constant
line strides, and fetch ahead so later demand accesses find their data
already (or almost) arrived. This model fronts any backing memory
system with a small LRU buffer of prefetched lines plus a table of
tracked streams.

Timing is explicit: a prefetched line is tagged with the cycle its
data arrives (issue cycle plus the backing cost). A demand access to a
line that has fully arrived costs zero extra cycles; one that is still
in flight pays only the remaining wait — partial hiding, exactly what
a late prefetch buys on real hardware.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ConfigError
from .base import MemorySystem

__all__ = ["StreamPrefetcher"]


class StreamPrefetcher(MemorySystem):
    """Stride-detecting stream prefetcher over a backing model.

    ``streams`` bounds how many concurrent access streams are tracked
    (LRU replaced); ``degree`` is how many lines ahead a confirmed
    stream fetches per miss. A stream is confirmed when two successive
    misses repeat the same line stride. Demand misses are *not*
    allocated into the buffer (the datum goes straight to the
    processor); only prefetched lines live there.
    """

    #: Maximum line distance at which a miss can train an existing
    #: stream entry; farther misses allocate a fresh stream.
    MAX_TRAIN_STRIDE = 16

    def __init__(
        self,
        backing: MemorySystem,
        entries: int = 64,
        line_bytes: int = 32,
        streams: int = 4,
        degree: int = 2,
    ) -> None:
        if entries < 1:
            raise ConfigError(f"prefetch buffer needs >= 1 entry, got {entries}")
        if line_bytes < 1:
            raise ConfigError(f"line_bytes must be >= 1, got {line_bytes}")
        if streams < 1:
            raise ConfigError(f"need >= 1 stream, got {streams}")
        if degree < 1:
            raise ConfigError(f"prefetch degree must be >= 1, got {degree}")
        self.backing = backing
        self.entries = entries
        self.line_bytes = line_bytes
        self.streams = streams
        self.degree = degree
        #: line -> cycle at which the prefetched data arrives.
        self._buffer: OrderedDict[int, int] = OrderedDict()
        #: tracked streams, LRU order: [last_line, stride, confirmed].
        self._table: list[list[int]] = []
        self.hits = 0
        self.late_hits = 0
        self.misses = 0
        self.prefetches = 0

    # -- scalar and batched access ------------------------------------------------

    def extra_latency(self, addr: int, now: int) -> int:
        return self._access(addr, now)

    def latencies(self, addrs, now: int) -> list[int]:
        access = self._access
        return [access(addr, now) for addr in addrs]

    def _access(self, addr: int, now: int) -> int:
        line = addr // self.line_bytes
        buffer = self._buffer
        arrival = buffer.get(line)
        if arrival is not None:
            buffer.move_to_end(line)
            self.hits += 1
            if arrival > now:
                self.late_hits += 1
                return arrival - now
            return 0
        self.misses += 1
        extra = self.backing.extra_latency(addr, now)
        self._train(line, now)
        return extra

    # -- stride detection and prefetch issue --------------------------------------

    def _train(self, line: int, now: int) -> None:
        table = self._table
        for index, entry in enumerate(table):
            last, stride, confirmed = entry
            delta = line - last
            if delta == 0:
                return
            if stride != 0 and delta == stride:
                entry[0] = line
                entry[2] = 1
                table.append(table.pop(index))  # LRU refresh
                self._prefetch(line, stride, now)
                return
            if -self.MAX_TRAIN_STRIDE <= delta <= self.MAX_TRAIN_STRIDE:
                entry[0] = line
                entry[1] = delta
                entry[2] = 0
                table.append(table.pop(index))
                return
        if len(table) >= self.streams:
            table.pop(0)
        table.append([line, 0, 0])

    def _prefetch(self, line: int, stride: int, now: int) -> None:
        buffer = self._buffer
        uniform = self.backing.uniform_extra_latency()
        for k in range(1, self.degree + 1):
            target = line + k * stride
            if target in buffer:
                continue
            if uniform is not None:
                cost = uniform
            else:
                # Non-uniform backing: probe it for the predicted line
                # (the probe advances the backing state, as a real
                # prefetch request would).
                cost = self.backing.extra_latency(
                    target * self.line_bytes, now
                )
            if len(buffer) >= self.entries:
                buffer.popitem(last=False)
            buffer[target] = now + cost
            self.prefetches += 1

    # -- protocol ----------------------------------------------------------------

    def typical_extra_latency(self) -> int:
        return self.backing.typical_extra_latency()

    def reset(self) -> None:
        self._buffer.clear()
        self._table.clear()
        self.hits = 0
        self.late_hits = 0
        self.misses = 0
        self.prefetches = 0
        self.backing.reset()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, object]:
        return {
            "prefetch_hit_rate": self.hit_rate,
            "prefetch_late_hits": self.late_hits,
            "prefetches_issued": self.prefetches,
        }

    def describe(self) -> str:
        return (
            f"prefetch(streams={self.streams}, degree={self.degree}, "
            f"{self.entries}x{self.line_bytes}B -> {self.backing.describe()})"
        )
