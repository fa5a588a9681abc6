"""Lowering to the single-window superscalar machine (SWSM).

The SWSM uses the paper's hybrid prefetching scheme: every memory
operation becomes a *prefetch* instruction (computes the address and
starts the memory access into the prefetch buffer as soon as run-time
resources allow) plus an *access* instruction (consumes the buffered
datum in one cycle). Arithmetic passes through unchanged. Everything
shares one instruction stream, one window and one issue width — which
is precisely why stalled data operations can crowd out later address
computation when the memory differential is large.
"""

from __future__ import annotations

from ..config import DEFAULT_LATENCIES, LatencyModel
from ..errors import PartitionError
from ..ir import Program
from ..ir.types import OP_FP, OP_LOAD, class_latencies
from .machine_program import KIND_CODE, MachineProgram, MemKind, Unit

__all__ = ["lower_swsm"]

_NONE = KIND_CODE[MemKind.NONE]
_PREFETCH_LOAD = KIND_CODE[MemKind.PREFETCH_LOAD]
_ACCESS_LOAD = KIND_CODE[MemKind.ACCESS_LOAD]
_PREFETCH_STORE = KIND_CODE[MemKind.PREFETCH_STORE]
_ACCESS_STORE = KIND_CODE[MemKind.ACCESS_STORE]


def lower_swsm(
    program: Program,
    latencies: LatencyModel = DEFAULT_LATENCIES,
) -> MachineProgram:
    """Lower an architectural program to a one-stream SWSM machine program.

    Writes the engine's columns directly, one
    :class:`~repro.machines.lowered.ColumnBuilder` row per machine
    instruction.
    """
    from ..machines.lowered import ColumnBuilder

    cols = program.columns
    op, lat_class, all_srcs = cols.op, cols.lat_class, cols.srcs
    addr_srcs, addrs, mem_deps = cols.addr_src, cols.addr, cols.mem_dep
    size = len(op)
    builder = ColumnBuilder((Unit.SINGLE,))
    rows = builder.rows
    emit = rows.append
    # arch value index -> gid carrying it (-1: never produced).
    val_at = [-1] * size
    store_gids: dict[int, tuple[int, ...]] = {}
    op_latency = class_latencies(latencies)
    mem_base, access, store = (
        latencies.mem_base, latencies.access, latencies.store
    )

    def values(srcs: tuple[int, ...]) -> tuple[int, ...]:
        deps = tuple(map(val_at.__getitem__, srcs))
        if -1 in deps:
            raise PartitionError(
                f"value %{srcs[deps.index(-1)]} was never produced"
            )
        return deps

    for index in range(size):
        op_code = op[index]
        if op_code <= OP_FP:
            deps = values(all_srcs[index])
            val_at[index] = len(rows)
            emit((0, _NONE, op_latency[lat_class[index]], deps, 0, index))
            continue
        address = addrs[index]
        if address == -1:
            address = 0
        addr_src = addr_srcs[index]
        if op_code == OP_LOAD:
            deps = () if addr_src < 0 else values((addr_src,))
            if mem_deps[index] >= 0:
                deps = deps + store_gids[mem_deps[index]]
            prefetch = len(rows)
            emit((0, _PREFETCH_LOAD, mem_base, deps, address, index))
            val_at[index] = prefetch + 1
            emit((0, _ACCESS_LOAD, access, (prefetch,), address, index))
        else:  # STORE
            srcs = all_srcs[index]
            if len(srcs) > 1:
                raise PartitionError(
                    f"store {index} has {len(srcs)} data operands; "
                    "at most one is supported"
                )
            deps = () if addr_src < 0 else values((addr_src,))
            prefetch = len(rows)
            emit((0, _PREFETCH_STORE, mem_base, deps, address, index))
            data = (prefetch,) + values(srcs)
            emit((0, _ACCESS_STORE, store, data, address, index))
            store_gids[index] = (prefetch + 1,)

    meta = {"machine": "SWSM", "source": program.name}
    machine_program = builder.program(program.name, cols.tags, meta)
    machine_program.validate()
    return machine_program
