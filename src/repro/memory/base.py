"""Memory-system interface used by the machine models.

The paper abstracts the memory system to a per-access cost: the
*memory differential* (MD), the difference between a register access
and a memory-system access. The machine models ask one question — "how
many extra cycles beyond the one-cycle base does each access take?" —
and since the struct-of-arrays engine issues accesses in batches, the
question is batched too: :meth:`MemorySystem.latencies` answers for a
whole issue-order chunk in one call.

The engine takes one of two stances towards a model:

* **uniform** — :meth:`~MemorySystem.uniform_extra_latency` returns the
  one constant answer (the paper's fixed-differential model). The
  engine folds the cost into one precomputed per-gid latency table and
  may skip whole loop iterations (docs/timing.md, "Periodic steady
  state").
* otherwise **stateful** — the answer may depend on the address, the
  access history (caches, bypass buffers, bank queues) or the clock.
  The engine queries once per unit per cycle with the chunk of
  accesses issued that cycle, in issue order, which is deterministic
  (or replays the same chunks through the speculative fixed point).
  A pure function of the address is simply a stateful model without
  history; it takes the same exact routes.

Chunks arrive in issue order, but the ``now`` timestamps they carry
are **not contiguous**: every engine loop skips idle cycles, and the
event-heap scheduler (docs/timing.md, "Event scheduling") jumps the
clock straight from one arrival to the next, so consecutive calls may
be hundreds of cycles apart. Models must therefore derive elapsed time
from ``now`` itself (as the bank-queue drain in
:mod:`repro.memory.banked` and the in-flight arrival check in
:mod:`repro.memory.prefetch` do), never from the number of calls —
``now`` is guaranteed non-decreasing across calls within one run, and
every engine strategy produces the identical call sequence for the
cycles in which accesses are actually issued.
"""

from __future__ import annotations

import abc
from typing import Sequence

__all__ = ["MemorySystem"]


class MemorySystem(abc.ABC):
    """Answers access-latency queries, batched, in issue order.

    Subclasses must implement :meth:`extra_latency` (the scalar rule)
    and should override :meth:`latencies` with a native batched loop —
    the engine only ever calls the batched form, and the default
    implementation is a thin scalar shim that pays one Python call per
    access. Stateful models update themselves inside the call; the
    engine guarantees chunks arrive in issue order.
    """

    @abc.abstractmethod
    def extra_latency(self, addr: int, now: int) -> int:
        """Extra cycles (beyond the base cost) for a read of ``addr``.

        Args:
            addr: effective address of the access.
            now: current cycle (lets models reason about timing, e.g.
                an in-flight line that will arrive before it is needed).
        """

    def latencies(self, addrs: Sequence[int], now: int) -> list[int]:
        """Extra cycles for a chunk of accesses issued in cycle ``now``.

        ``addrs`` lists the effective addresses in issue order; the
        result is positionally aligned with it. ``now`` is
        non-decreasing across calls but jumps across idle cycles
        (module docstring) — time-sensitive models must reason from
        the timestamp, not the call count. This default is a scalar
        shim so legacy models that only implement
        :meth:`extra_latency` keep working; every in-repo model
        overrides it with a single tight loop.
        """
        extra = self.extra_latency
        return [extra(addr, now) for addr in addrs]

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all state so the model can be reused across runs."""

    def typical_extra_latency(self) -> int:
        """A representative extra latency, for speculative first guesses.

        The speculative fixed point seeds its first run with a uniform
        table of this value; a guess near the model's dominant answer
        (usually the miss cost) makes the first access schedule close
        to the real one and the fixed point converge in one
        refinement. Purely a performance hint.
        """
        return 0

    def time_sensitive(self) -> bool:
        """Whether :meth:`latencies` reads its ``now`` argument.

        Time-insensitive models (pure locality: caches, bypass
        buffers over uniform backings) let the engine replay a whole
        access stream in one batched call instead of one call per
        cycle. Defaults to True — the safe assumption.
        """
        return True

    def speculation_friendly(self) -> bool:
        """Whether the engine should try the speculative fixed point.

        The engine can simulate a stateful model by guessing a per-gid
        extras table, running at full table speed, replaying the model
        over the resulting access stream, and verifying the guess (see
        ``_simulate_speculative`` in :mod:`repro.machines.engine`).
        That converges when extras stabilise with the access pattern —
        true for locality models — but oscillates for models whose
        extras are dominated by fine-grained timing feedback (bank
        queuing), which should return False to skip straight to the
        chunked live path. Purely a performance hint: results are
        identical either way.
        """
        return True

    def uniform_extra_latency(self) -> int | None:
        """The extra latency if it is address- and time-independent.

        Models whose answer never depends on the access (the paper's
        fixed-differential model) return it here, which lets the engine
        batch the per-access lookup into one precomputed latency table
        and take its fast path (docs/timing.md, "Memory accesses").
        All other models return None — the default.
        """
        return None

    def stats(self) -> dict[str, object]:
        """Model-specific counters folded into ``SimulationResult.meta``.

        Stateful models report their hit/conflict counters here (e.g.
        ``bypass_hit_rate``); the session merges the dict into the
        result metadata after a simulation. Default: nothing.
        """
        return {}

    def describe(self) -> str:
        """One-line human-readable description for experiment records."""
        return type(self).__name__
