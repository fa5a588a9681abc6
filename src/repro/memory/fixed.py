"""The paper's memory model: a fixed memory differential."""

from __future__ import annotations

from ..errors import ConfigError
from .base import MemorySystem

__all__ = ["FixedLatencyMemory"]


class FixedLatencyMemory(MemorySystem):
    """Every access costs ``mem_base + md`` cycles; no state.

    This is the model used for all of the paper's experiments: "we model
    its execution by considering every access to have a fixed cost",
    i.e. a weak memory system capturing no locality.
    """

    def __init__(self, memory_differential: int) -> None:
        if memory_differential < 0:
            raise ConfigError(
                f"memory differential must be >= 0, got {memory_differential}"
            )
        self.memory_differential = memory_differential

    def extra_latency(self, addr: int, now: int) -> int:
        return self.memory_differential

    def latencies(self, addrs, now: int) -> list[int]:
        return [self.memory_differential] * len(addrs)

    def typical_extra_latency(self) -> int:
        return self.memory_differential

    def time_sensitive(self) -> bool:
        return False

    def uniform_extra_latency(self) -> int:
        # Address-independent by definition: the engine batches the
        # lookup into its precomputed latency table.
        return self.memory_differential

    def reset(self) -> None:  # stateless
        return None

    def describe(self) -> str:
        return f"fixed(md={self.memory_differential})"
