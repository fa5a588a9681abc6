"""Interleaved memory banks with bank-conflict queuing.

The paper's fixed differential models a memory system with unlimited
concurrency: every access costs the same no matter how many are in
flight. Real decoupled machines stream requests at banked DRAM, where
two accesses mapping to the same bank serialise. This model charges the
fixed differential plus the time an access spends queued behind earlier
accesses to its bank — so heavily strided kernels whose addresses
collide in a few banks lose part of the latency-hiding the decoupled
queue would otherwise provide.

Bank state is a single "free at cycle" clock per bank, advanced in
issue order, which keeps the model deterministic and cheap to batch.
"""

from __future__ import annotations

from ..errors import ConfigError
from .base import MemorySystem

__all__ = ["BankedMemory"]


class BankedMemory(MemorySystem):
    """Fixed extra cost plus queuing behind a finite set of banks.

    Addresses interleave across ``banks`` at ``interleave_bytes``
    granularity. Each access occupies its bank for ``busy`` cycles; an
    access arriving while its bank is busy waits for the bank to free
    and pays that wait on top of ``extra`` (the memory differential of
    the backing store). ``busy=0`` collapses to the paper's fixed
    model.
    """

    def __init__(
        self,
        extra: int = 60,
        banks: int = 8,
        interleave_bytes: int = 32,
        busy: int = 4,
    ) -> None:
        if extra < 0:
            raise ConfigError(f"extra must be >= 0, got {extra}")
        if banks < 1:
            raise ConfigError(f"need >= 1 bank, got {banks}")
        if interleave_bytes < 1:
            raise ConfigError(
                f"interleave_bytes must be >= 1, got {interleave_bytes}"
            )
        if busy < 0:
            raise ConfigError(f"busy must be >= 0, got {busy}")
        self.extra = extra
        self.banks = banks
        self.interleave_bytes = interleave_bytes
        self.busy = busy
        self._free_at = [0] * banks
        self.accesses = 0
        self.conflicts = 0
        self.total_wait = 0

    def extra_latency(self, addr: int, now: int) -> int:
        bank = (addr // self.interleave_bytes) % self.banks
        start = self._free_at[bank]
        if start < now:
            start = now
        self._free_at[bank] = start + self.busy
        wait = start - now
        self.accesses += 1
        if wait:
            self.conflicts += 1
            self.total_wait += wait
        return self.extra + wait

    def latencies(self, addrs, now: int) -> list[int]:
        free_at = self._free_at
        banks = self.banks
        interleave = self.interleave_bytes
        busy = self.busy
        extra = self.extra
        out = []
        append = out.append
        conflicts = 0
        total_wait = 0
        for addr in addrs:
            bank = (addr // interleave) % banks
            start = free_at[bank]
            if start < now:
                start = now
            free_at[bank] = start + busy
            wait = start - now
            if wait:
                conflicts += 1
                total_wait += wait
            append(extra + wait)
        self.accesses += len(addrs)
        self.conflicts += conflicts
        self.total_wait += total_wait
        return out

    def typical_extra_latency(self) -> int:
        return self.extra

    def speculation_friendly(self) -> bool:
        # Queuing couples extras to issue timing tightly enough that
        # the speculative fixed point oscillates instead of settling;
        # go straight to the chunked live path.
        return False

    def reset(self) -> None:
        self._free_at = [0] * self.banks
        self.accesses = 0
        self.conflicts = 0
        self.total_wait = 0

    @property
    def conflict_rate(self) -> float:
        return self.conflicts / self.accesses if self.accesses else 0.0

    @property
    def mean_wait(self) -> float:
        return self.total_wait / self.accesses if self.accesses else 0.0

    def stats(self) -> dict[str, object]:
        return {
            "bank_conflict_rate": self.conflict_rate,
            "bank_mean_wait": self.mean_wait,
        }

    def describe(self) -> str:
        return (
            f"banked({self.banks}x{self.interleave_bytes}B, "
            f"busy={self.busy}, extra={self.extra})"
        )
