"""Memory-system models, all speaking the batched engine protocol.

Every model answers :meth:`~repro.memory.base.MemorySystem.latencies`
— the struct-of-arrays engine's batched, issue-ordered query; a model
whose answer is one constant says so through
:meth:`~repro.memory.base.MemorySystem.uniform_extra_latency`, which
lets the engine fold it into a latency table. Models: the paper's fixed
differential, LRU cache hierarchies, the future-work bypass buffer,
interleaved banks with conflict queuing, and a stride/stream
prefetcher.
"""

from .banked import BankedMemory
from .base import MemorySystem
from .buffers import OccupancyStats, occupancy_from_intervals
from .bypass import BypassBuffer
from .cache import (
    DEFAULT_HIERARCHY,
    CacheLevel,
    CacheLevelConfig,
    CacheMemory,
    hierarchy_levels,
)
from .fixed import FixedLatencyMemory
from .prefetch import StreamPrefetcher

__all__ = [
    "MemorySystem",
    "FixedLatencyMemory",
    "CacheMemory",
    "CacheLevel",
    "CacheLevelConfig",
    "DEFAULT_HIERARCHY",
    "hierarchy_levels",
    "BankedMemory",
    "BypassBuffer",
    "StreamPrefetcher",
    "OccupancyStats",
    "occupancy_from_intervals",
]
