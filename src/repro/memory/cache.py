"""A set-associative cache hierarchy memory model.

The paper's footnote observes that a real high-performance memory
system would capture locality with first- and second-level caches; this
model lets the benchmarks quantify how much of the DM/SWSM gap survives
when the average access cost drops. It is an *ablation* substrate, not
part of the paper's main experiments.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..errors import ConfigError
from .base import MemorySystem

__all__ = [
    "CacheLevelConfig",
    "CacheLevel",
    "CacheMemory",
    "hierarchy_levels",
]


@dataclass(frozen=True)
class CacheLevelConfig:
    """Geometry and hit cost of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int
    hit_extra: int  # extra cycles beyond mem_base on a hit at this level

    def __post_init__(self) -> None:
        if self.line_bytes < 1 or self.size_bytes < self.line_bytes:
            raise ConfigError(f"invalid cache geometry for {self.name!r}")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigError(
                f"{self.name!r}: size must be a multiple of line * ways"
            )
        if self.hit_extra < 0:
            raise ConfigError(f"{self.name!r}: hit_extra must be >= 0")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


class CacheLevel:
    """One LRU set-associative level."""

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def lookup(self, line: int) -> bool:
        """Probe (and on hit, refresh) ``line``; returns hit/miss."""
        cache_set = self._sets[line % self.config.num_sets]
        if line in cache_set:
            cache_set.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line: int) -> None:
        cache_set = self._sets[line % self.config.num_sets]
        if line in cache_set:
            cache_set.move_to_end(line)
            return
        if len(cache_set) >= self.config.associativity:
            cache_set.popitem(last=False)
        cache_set[line] = None

    def reset(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def hierarchy_levels(
    geometries: tuple[tuple[int, int, int, int], ...],
) -> tuple[CacheLevelConfig, ...]:
    """Level configs from plain ``(size, line, assoc, hit_extra)`` rows.

    The declarative :class:`~repro.api.spec.MemorySpec` stores cache
    geometry as nested tuples (TOML/JSON friendly); this turns them
    into validated :class:`CacheLevelConfig` objects named L1, L2, ...
    """
    return tuple(
        CacheLevelConfig(
            name=f"L{depth + 1}",
            size_bytes=size,
            line_bytes=line,
            associativity=assoc,
            hit_extra=extra,
        )
        for depth, (size, line, assoc, extra) in enumerate(geometries)
    )


#: A small L1 + L2 hierarchy loosely shaped like a mid-1990s machine
#: (the paper's Pentium Pro reference point: ~60-cycle L2 miss).
DEFAULT_HIERARCHY = (
    CacheLevelConfig(name="L1", size_bytes=8 * 1024, line_bytes=32,
                     associativity=2, hit_extra=0),
    CacheLevelConfig(name="L2", size_bytes=256 * 1024, line_bytes=32,
                     associativity=4, hit_extra=6),
)


class CacheMemory(MemorySystem):
    """A hierarchy of inclusive LRU levels over a fixed miss penalty.

    An access probes L1, then L2, ...; the first hit determines the
    extra latency. A full miss costs ``miss_extra`` (the memory
    differential of the backing store) and fills every level.
    """

    def __init__(
        self,
        levels: tuple[CacheLevelConfig, ...] = DEFAULT_HIERARCHY,
        miss_extra: int = 60,
    ) -> None:
        if miss_extra < 0:
            raise ConfigError(f"miss_extra must be >= 0, got {miss_extra}")
        if not levels:
            raise ConfigError("at least one cache level is required")
        # Every level is indexed by the same line id, so the hierarchy
        # must share one line size — reject configs that would
        # otherwise be silently mis-modeled (L2 sets computed from its
        # own line size but probed with L1 line ids).
        if len({config.line_bytes for config in levels}) > 1:
            raise ConfigError(
                "all cache levels must share one line_bytes, got "
                + ", ".join(
                    f"{c.name}={c.line_bytes}" for c in levels
                )
            )
        self.levels = [CacheLevel(config) for config in levels]
        self.miss_extra = miss_extra
        self._line_bytes = levels[0].line_bytes

    def extra_latency(self, addr: int, now: int) -> int:
        line = addr // self._line_bytes
        for depth, level in enumerate(self.levels):
            if level.lookup(line):
                for missed in self.levels[:depth]:
                    missed.fill(line)
                return level.config.hit_extra
        for level in self.levels:
            level.fill(line)
        return self.miss_extra

    def latencies(self, addrs, now: int) -> list[int]:
        # The L1-hit case — the hot one on locality-friendly kernels —
        # is inlined with bound locals; deeper probes and full misses
        # reuse the per-level lookup/fill helpers, keeping the counter
        # bookkeeping identical to the scalar path.
        line_bytes = self._line_bytes
        levels = self.levels
        l1 = levels[0]
        l1_sets = l1._sets
        l1_num_sets = l1.config.num_sets
        l1_extra = l1.config.hit_extra
        miss_extra = self.miss_extra
        deeper = levels[1:]
        out = []
        append = out.append
        l1_hits = 0
        for addr in addrs:
            line = addr // line_bytes
            l1_set = l1_sets[line % l1_num_sets]
            if line in l1_set:
                l1_set.move_to_end(line)
                l1_hits += 1
                append(l1_extra)
                continue
            l1.misses += 1
            for depth, level in enumerate(deeper, 1):
                if level.lookup(line):
                    for missed in levels[:depth]:
                        missed.fill(line)
                    append(level.config.hit_extra)
                    break
            else:
                for level in levels:
                    level.fill(line)
                append(miss_extra)
        l1.hits += l1_hits
        return out

    def typical_extra_latency(self) -> int:
        return self.miss_extra

    def time_sensitive(self) -> bool:
        return False

    def reset(self) -> None:
        for level in self.levels:
            level.reset()

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served by *some* cache level.

        Zero when the run made no accesses at all (division-safe).
        """
        first = self.levels[0]
        accesses = first.hits + first.misses
        if not accesses:
            return 0.0
        full_misses = self.levels[-1].misses
        return (accesses - full_misses) / accesses

    def stats(self) -> dict[str, object]:
        return {
            "cache_hit_rate": self.hit_rate,
            "cache_level_hit_rates": tuple(
                level.hit_rate for level in self.levels
            ),
        }

    def describe(self) -> str:
        names = "+".join(level.config.name for level in self.levels)
        return f"cache({names}, miss={self.miss_extra})"
