"""Ablation studies for the reproduction's documented design choices.

Five studies, each tied to a discussion point in the paper, each a
declarative :class:`~repro.api.Sweep` evaluated through the session:

* **issue split** — the DM's combined issue width of 9 can be divided
  between the AU and DU in eight ways; the paper adopts 4+5, citing a
  companion study that found it optimal. This sweep re-derives that.
* **partition strategy** — the paper's future work asks how the
  division of code between the units affects performance: the slice
  partition vs. a memory-only partition vs. a balance-driven one.
* **bypass buffer** — the paper's future work proposes a bypass that
  captures the temporal locality exposed by decoupling.
* **code expansion** — the paper's future work asks how the instruction
  overhead of unrolling affects the DM and SWSM differently.
* **memory hierarchy** — the paper's footnote anticipates that a
  locality-capturing memory system shrinks the differential the DM
  must hide; this study runs DM and SWSM under every memory model
  (caches, configurable hierarchies, banked memory, a stream
  prefetcher) and reports how much of the DM advantage survives.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.presets import (
    HIERARCHY_MEMORY_VARIANTS,
    bypass_sweep,
    expansion_sweep,
    hierarchy_sweep,
    issue_split_sweep,
    partition_sweep,
)
from ..api.session import Session
from ..partition import Unit

__all__ = [
    "IssueSplitPoint",
    "run_issue_split_ablation",
    "PartitionPoint",
    "run_partition_ablation",
    "BypassPoint",
    "run_bypass_ablation",
    "ExpansionPoint",
    "run_code_expansion_ablation",
    "HierarchyPoint",
    "run_memory_hierarchy_ablation",
]


@dataclass(frozen=True)
class IssueSplitPoint:
    program: str
    au_width: int
    du_width: int
    cycles: int


def run_issue_split_ablation(
    session: Session,
    program: str,
    window: int = 32,
    memory_differential: int = 60,
    combined_width: int = 9,
) -> list[IssueSplitPoint]:
    """DM cycles for every AU/DU division of the combined issue width."""
    sweep = issue_split_sweep(
        program, window, memory_differential, combined_width
    )
    return [
        IssueSplitPoint(
            program=program,
            au_width=point.au_width,
            du_width=point.du_width,
            cycles=result.cycles,
        )
        for point, result in session.run(sweep)
    ]


@dataclass(frozen=True)
class PartitionPoint:
    program: str
    strategy: str
    cycles: int
    au_instructions: int
    du_instructions: int


def run_partition_ablation(
    session: Session,
    program: str,
    window: int = 32,
    memory_differential: int = 60,
) -> list[PartitionPoint]:
    """DM cycles under each partitioning strategy.

    AU/DU counts come from each result's per-unit statistics, so a
    store-served sweep compiles nothing.
    """
    sweep = partition_sweep(
        program,
        window,
        memory_differential,
        au_width=session.au_width,
        du_width=session.du_width,
    )
    points = []
    for point, result in session.run(sweep):
        points.append(
            PartitionPoint(
                program=program,
                strategy=point.partition,
                cycles=result.cycles,
                au_instructions=result.unit_stats[Unit.AU].instructions,
                du_instructions=result.unit_stats[Unit.DU].instructions,
            )
        )
    return points


@dataclass(frozen=True)
class BypassPoint:
    program: str
    entries: int  # 0 means no bypass
    cycles: int
    hit_rate: float


def run_bypass_ablation(
    session: Session,
    program: str,
    window: int = 32,
    memory_differential: int = 60,
    entry_counts: tuple[int, ...] = (0, 16, 64, 256),
) -> list[BypassPoint]:
    """DM cycles with bypass buffers of increasing size."""
    sweep = bypass_sweep(
        program,
        window,
        memory_differential,
        entry_counts,
        au_width=session.au_width,
        du_width=session.du_width,
    )
    points = []
    for (point, result), entries in zip(session.run(sweep), entry_counts):
        points.append(
            BypassPoint(
                program=program,
                entries=entries,
                cycles=result.cycles,
                hit_rate=float(result.meta.get("bypass_hit_rate", 0.0)),
            )
        )
    return points


@dataclass(frozen=True)
class ExpansionPoint:
    program: str
    fraction: float
    dm_cycles: int
    swsm_cycles: int

    @property
    def dm_over_swsm(self) -> float:
        return self.swsm_cycles / self.dm_cycles


def run_code_expansion_ablation(
    session: Session,
    program: str,
    window: int = 32,
    memory_differential: int = 60,
    fractions: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5),
) -> list[ExpansionPoint]:
    """DM vs SWSM cycles as bookkeeping overhead is added."""
    sweep = expansion_sweep(
        program,
        window,
        memory_differential,
        fractions,
        au_width=session.au_width,
        du_width=session.du_width,
        swsm_width=session.swsm_width,
    )
    outcome = session.run(sweep)
    cycles = {
        (point.machine, point.expansion): result.cycles
        for point, result in outcome
    }
    return [
        ExpansionPoint(
            program=program,
            fraction=fraction,
            dm_cycles=cycles[("dm", fraction)],
            swsm_cycles=cycles[("swsm", fraction)],
        )
        for fraction in fractions
    ]


#: Metadata counters (reported by ``MemorySystem.stats``) surfaced as
#: the hierarchy table's locality column, first match wins. Banked
#: memory is deliberately absent: it captures no locality (its
#: ``bank_conflict_rate`` measures stalls, the opposite), so it
#: reports 0.0 here and keeps the conflict rate in ``result.meta``.
_LOCALITY_METRICS = (
    "bypass_hit_rate",
    "cache_hit_rate",
    "prefetch_hit_rate",
)


@dataclass(frozen=True)
class HierarchyPoint:
    program: str
    memory: str  # variant label from HIERARCHY_MEMORY_VARIANTS
    dm_cycles: int
    swsm_cycles: int
    dm_hit_rate: float  # locality captured under the DM (0 for fixed)

    @property
    def dm_advantage(self) -> float:
        return self.swsm_cycles / self.dm_cycles


def _locality(meta: dict) -> float:
    for key in _LOCALITY_METRICS:
        if key in meta:
            return float(meta[key])
    return 0.0


def run_memory_hierarchy_ablation(
    session: Session,
    program: str,
    window: int = 32,
    memory_differential: int = 60,
    variants: tuple = HIERARCHY_MEMORY_VARIANTS,
) -> list[HierarchyPoint]:
    """DM vs SWSM cycles under every memory-system model."""
    sweep = hierarchy_sweep(
        program,
        window,
        memory_differential,
        variants=variants,
        au_width=session.au_width,
        du_width=session.du_width,
        swsm_width=session.swsm_width,
    )
    by_key = {
        (point.machine, point.memory): result
        for point, result in session.run(sweep)
    }
    points = []
    for label, spec in variants:
        dm = by_key[("dm", spec)]
        swsm = by_key[("swsm", spec)]
        points.append(
            HierarchyPoint(
                program=program,
                memory=label,
                dm_cycles=dm.cycles,
                swsm_cycles=swsm.cycles,
                dm_hit_rate=_locality(dm.meta),
            )
        )
    return points
