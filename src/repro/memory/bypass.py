"""The bypass buffer sketched in the paper's future work.

The paper's closing discussion proposes "a bypass mechanism which
captures the temporal locality exposed by decoupling": values recently
delivered to the decoupled memory can satisfy later accesses to the
same address without paying the memory differential again. We model it
as a small fully-associative LRU buffer of recently fetched lines that
fronts any backing memory model.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ConfigError
from .base import MemorySystem

__all__ = ["BypassBuffer"]


class BypassBuffer(MemorySystem):
    """LRU buffer of recently fetched lines in front of a backing model.

    A hit costs zero extra cycles (the datum is already buffered beside
    the processor); a miss pays the backing model's cost and allocates.
    """

    def __init__(
        self,
        backing: MemorySystem,
        entries: int = 64,
        line_bytes: int = 32,
    ) -> None:
        if entries < 1:
            raise ConfigError(f"bypass buffer needs >= 1 entry, got {entries}")
        if line_bytes < 1:
            raise ConfigError(f"line_bytes must be >= 1, got {line_bytes}")
        self.backing = backing
        self.entries = entries
        self.line_bytes = line_bytes
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def extra_latency(self, addr: int, now: int) -> int:
        line = addr // self.line_bytes
        if line in self._lines:
            self._lines.move_to_end(line)
            self.hits += 1
            return 0
        self.misses += 1
        if len(self._lines) >= self.entries:
            self._lines.popitem(last=False)
        self._lines[line] = None
        return self.backing.extra_latency(addr, now)

    def latencies(self, addrs, now: int) -> list[int]:
        # Buffer state advances access by access (a miss allocates its
        # line immediately, so a later access in the same chunk hits),
        # while the backing model sees exactly the miss subsequence in
        # one nested batched call — the same query order the scalar
        # path produces.
        lines = self._lines
        line_bytes = self.line_bytes
        entries = self.entries
        move_to_end = lines.move_to_end
        popitem = lines.popitem
        out = []
        append = out.append
        miss_slots: list[int] = []
        miss_addrs: list[int] = []
        hits = misses = 0
        for addr in addrs:
            line = addr // line_bytes
            if line in lines:
                move_to_end(line)
                hits += 1
                append(0)
                continue
            misses += 1
            if len(lines) >= entries:
                popitem(last=False)
            lines[line] = None
            miss_slots.append(len(out))
            miss_addrs.append(addr)
            append(0)
        self.hits += hits
        self.misses += misses
        if miss_addrs:
            extras = self.backing.latencies(miss_addrs, now)
            for slot, extra in zip(miss_slots, extras):
                out[slot] = extra
        return out

    def typical_extra_latency(self) -> int:
        # Cold misses dominate until the buffer warms up.
        return self.backing.typical_extra_latency()

    def time_sensitive(self) -> bool:
        # The buffer itself never reads the clock; only the backing
        # might (e.g. a banked backing).
        return self.backing.time_sensitive()

    def reset(self) -> None:
        self._lines.clear()
        self.hits = 0
        self.misses = 0
        self.backing.reset()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, object]:
        return {
            "bypass_hits": self.hits,
            "bypass_misses": self.misses,
            "bypass_hit_rate": self.hit_rate,
        }

    def describe(self) -> str:
        return f"bypass({self.entries}x{self.line_bytes}B -> {self.backing.describe()})"
