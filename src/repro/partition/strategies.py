"""Alternative partitioning strategies for the DM.

The paper's partition is the classic access/execute *slice* partition
(the default in :func:`~repro.partition.static_partition.partition_dm`).
Its future-work section asks how a different division of the code
between the units would perform; these strategies make that question
runnable:

* ``slice`` — the paper's partition (backward address slices on the AU);
* ``memory-only`` — only memory operations on the AU; every address is
  computed on the DU and copied across (the degenerate partition that
  shows why slicing matters);
* ``balanced`` — the slice partition, then data-side integer chains are
  moved to the AU while the AU holds less than its issue-width share of
  the work (a trace-level stand-in for a dynamic, balance-driven
  partitioning mechanism).
"""

from __future__ import annotations

from ..config import DEFAULT_LATENCIES, LatencyModel
from ..errors import PartitionError
from ..ir import Program
from ..ir.types import OP_FP, OP_INT
from .machine_program import MachineProgram
from .static_partition import (
    AddressSlice,
    compute_address_slice,
    partition_dm,
)

__all__ = ["PARTITION_STRATEGIES", "partition_with_strategy"]

PARTITION_STRATEGIES = ("slice", "memory-only", "balanced")


def partition_with_strategy(
    program: Program,
    strategy: str = "slice",
    latencies: LatencyModel = DEFAULT_LATENCIES,
    target_au_fraction: float = 4.0 / 9.0,
) -> MachineProgram:
    """Partition ``program`` for the DM under the named strategy."""
    if strategy == "slice":
        return partition_dm(program, latencies)
    if strategy == "memory-only":
        empty = AddressSlice()
        return partition_dm(program, latencies, address_slice=empty)
    if strategy == "balanced":
        balanced = _balanced_slice(program, target_au_fraction)
        return partition_dm(program, latencies, address_slice=balanced)
    raise PartitionError(
        f"unknown partition strategy {strategy!r}; "
        f"known: {', '.join(PARTITION_STRATEGIES)}"
    )


def _balanced_slice(program: Program, target_au_fraction: float) -> AddressSlice:
    """Grow the address slice toward the AU's issue-width share.

    Only integer instructions whose sources are all integer values are
    movable — moving an FP consumer would manufacture loss-of-decoupling
    events, and moving a load consumer would change its memory role.
    Movement is in program order, so moved chains stay contiguous.
    """
    if not 0.0 < target_au_fraction < 1.0:
        raise PartitionError(
            f"target AU fraction must be in (0, 1), got {target_au_fraction}"
        )
    base = compute_address_slice(program)
    cols = program.columns
    op, all_srcs = cols.op, cols.srcs
    total = len(op)
    au_mask, self_mask = base.masks(total)

    # Loads and store-address halves always execute on the AU.
    memory_ops = total - op.count(OP_INT) - op.count(OP_FP)
    current = memory_ops + au_mask.count(1)
    target = int(total * target_au_fraction)
    if current >= target:
        return base

    au_mask = bytearray(au_mask)
    for index in range(total):
        if current >= target:
            break
        if op[index] != OP_INT or au_mask[index]:
            continue
        if all(op[src] == OP_INT for src in all_srcs[index]):
            au_mask[index] = 1
            current += 1
    return AddressSlice.from_masks(au_mask, self_mask)
