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
from ..ir.types import OP_FP, OP_LOAD, OP_STORE, class_latencies
from .machine_program import KIND_CODE, MachineProgram, MemKind, Unit

__all__ = ["lower_swsm"]

_NONE = KIND_CODE[MemKind.NONE]
_PREFETCH_LOAD = KIND_CODE[MemKind.PREFETCH_LOAD]
_ACCESS_LOAD = KIND_CODE[MemKind.ACCESS_LOAD]
_PREFETCH_STORE = KIND_CODE[MemKind.PREFETCH_STORE]
_ACCESS_STORE = KIND_CODE[MemKind.ACCESS_STORE]

#: A memory operation's two gids, prefetch then access, as kind codes.
_LOAD_PAIR = bytes((_PREFETCH_LOAD, _ACCESS_LOAD))
_STORE_PAIR = bytes((_PREFETCH_STORE, _ACCESS_STORE))


def lower_swsm(
    program: Program,
    latencies: LatencyModel = DEFAULT_LATENCIES,
) -> MachineProgram:
    """Lower an architectural program to a one-stream SWSM machine program.

    Writes the engine's columns directly: each machine instruction is
    appended to the per-column lists of a
    :class:`~repro.machines.lowered.ColumnBuilder`, and a memory
    operation's prefetch and access are one ``+=`` per column.
    """
    from ..machines.lowered import ColumnBuilder

    cols = program.columns
    op, lat_class, all_srcs = cols.op, cols.lat_class, cols.srcs
    addr_srcs, addrs, mem_deps = cols.addr_src, cols.addr, cols.mem_dep
    size = len(op)
    builder = ColumnBuilder((Unit.SINGLE,))
    kind_col, lat_col, srcs_col = builder.kind, builder.lat, builder.srcs
    addr_col, orig_col = builder.addr, builder.orig
    # arch value index -> gid carrying it (-1: never produced).
    val_at = [-1] * size
    store_gids: dict[int, tuple[int, ...]] = {}
    op_latency = class_latencies(latencies)
    mem_base, access, store = (
        latencies.mem_base, latencies.access, latencies.store
    )

    def never_produced(src: int) -> PartitionError:
        return PartitionError(f"value %{src} was never produced")

    for index in range(size):
        op_code = op[index]
        srcs = all_srcs[index]
        if op_code <= OP_FP:
            deps = tuple(map(val_at.__getitem__, srcs))
            if -1 in deps:
                raise never_produced(srcs[deps.index(-1)])
            val_at[index] = len(lat_col)
            kind_col.append(_NONE)
            lat_col.append(op_latency[lat_class[index]])
            srcs_col.append(deps)
            addr_col.append(0)
            orig_col.append(index)
            continue
        if op_code == OP_STORE and len(srcs) > 1:
            raise PartitionError(
                f"store {index} has {len(srcs)} data operands; "
                "at most one is supported"
            )
        address = addrs[index]
        if address == -1:
            address = 0
        addr_src = addr_srcs[index]
        if addr_src < 0:
            deps = ()
        else:
            deps = (val_at[addr_src],)
            if deps[0] < 0:
                raise never_produced(addr_src)
        prefetch = len(lat_col)
        if op_code == OP_LOAD:
            if mem_deps[index] >= 0:
                deps += store_gids[mem_deps[index]]
            val_at[index] = prefetch + 1
            kind_col += _LOAD_PAIR
            lat_col += (mem_base, access)
            srcs_col += (deps, (prefetch,))
        else:  # STORE
            data = (prefetch,)
            if srcs:
                data += (val_at[srcs[0]],)
                if data[1] < 0:
                    raise never_produced(srcs[0])
            kind_col += _STORE_PAIR
            lat_col += (mem_base, store)
            srcs_col += (deps, data)
            store_gids[index] = (prefetch + 1,)
        addr_col += (address, address)
        orig_col += (index, index)

    # One unit: every gid is on unit 0.
    builder.unit += bytes(len(lat_col))
    meta = {"machine": "SWSM", "source": program.name}
    machine_program = builder.program(program.name, cols.tags, meta)
    machine_program.validate()
    return machine_program
