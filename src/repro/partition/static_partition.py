"""Static access/execute partitioning for the decoupled machine.

The partitioner assigns every architectural instruction to the address
unit (AU) or the data unit (DU):

* all memory operations run on the AU (the AU sends addresses to the
  decoupled memory; stores also have a data half);
* every integer instruction whose value flows — through integer
  instructions only — into an effective-address computation belongs to
  the AU (the *address slice*);
* everything else (floating point and data-side integer work) belongs
  to the DU.

Values crossing between the units become explicit one-cycle ``COPY``
instructions on the producing unit. A load whose value re-enters
address computation becomes an AU *self-load*; a floating-point value
that feeds an address (via a float-to-int conversion) forces a DU→AU
copy — a *loss-of-decoupling* event, because the AU must wait for the
DU to catch up.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property
from itertools import compress, count

from ..config import DEFAULT_LATENCIES, LatencyModel
from ..errors import PartitionError
from ..ir import Program
from ..ir.types import OP_FP, OP_INT, OP_LOAD, OP_STORE, class_latencies
from .machine_program import KIND_CODE, MachineProgram, MemKind, Unit

__all__ = ["AddressSlice", "compute_address_slice", "partition_dm"]

#: Unit indices of the DM program (its stream order) and the ``needs``
#: bit each sets; ``_NO_VALUE`` is a store's home (it produces nothing).
_AU, _DU, _NO_VALUE = 0, 1, 2
_UNITS = (Unit.AU, Unit.DU)

_NONE = KIND_CODE[MemKind.NONE]
_COPY = KIND_CODE[MemKind.COPY]
_SELF_LOAD = KIND_CODE[MemKind.SELF_LOAD]
_LOAD_ISSUE = KIND_CODE[MemKind.LOAD_ISSUE]
_RECEIVE = KIND_CODE[MemKind.RECEIVE]
_STORE_ADDR = KIND_CODE[MemKind.STORE_ADDR]
_STORE_DATA = KIND_CODE[MemKind.STORE_DATA]

#: Unit and kind entries of the two-gid runs one instruction lowers to,
#: each appended with one ``+=``. Units, indexed by unit: two gids on
#: it (``_TWICE``), or one on the AU and one on it (``_AU_THEN``).
_TWICE = (bytes((_AU, _AU)), bytes((_DU, _DU)))
_AU_THEN = (_TWICE[_AU], bytes((_AU, _DU)))
_VALUE_COPY = bytes((_NONE, _COPY))
_SELF_LOAD_COPY = bytes((_SELF_LOAD, _COPY))
_ISSUE_RECEIVE = bytes((_LOAD_ISSUE, _RECEIVE))
_STORE_HALVES = bytes((_STORE_ADDR, _STORE_DATA))


class AddressSlice:
    """The AU-resident part of a program.

    Attributes:
        au_int: indices of integer instructions in the address slice.
        self_loads: indices of loads whose values feed address
            computation (executed as AU self-loads).

    :func:`compute_address_slice` builds slices from per-instruction
    byte masks (:meth:`from_masks`), which is the form the partitioner
    reads through :meth:`masks`; the frozenset attributes are then
    views computed on first access.
    """

    def __init__(
        self, au_int: Iterable[int] = (), self_loads: Iterable[int] = ()
    ) -> None:
        self.au_int = frozenset(au_int)
        self.self_loads = frozenset(self_loads)
        self._masks: tuple[bytearray, bytearray] | None = None

    @classmethod
    def from_masks(
        cls, au_mask: bytearray, self_mask: bytearray
    ) -> AddressSlice:
        """A slice from two equal-length masks (``1`` marks a member)."""
        address_slice = cls.__new__(cls)
        address_slice._masks = (au_mask, self_mask)
        return address_slice

    @cached_property
    def au_int(self) -> frozenset[int]:
        return frozenset(compress(count(), self._masks[0]))

    @cached_property
    def self_loads(self) -> frozenset[int]:
        return frozenset(compress(count(), self._masks[1]))

    def masks(self, size: int) -> tuple[bytearray, bytearray]:
        """``(au_int, self_loads)`` as masks over instructions ``0..size-1``."""
        if self._masks is not None and len(self._masks[0]) == size:
            return self._masks
        out = []
        for members in (self.au_int, self.self_loads):
            mask = bytearray(size)
            for index in members:
                if 0 <= index < size:
                    mask[index] = 1
            out.append(mask)
        return out[0], out[1]

    def owns(self, index: int) -> bool:
        return index in self.au_int or index in self.self_loads

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AddressSlice):
            return NotImplemented
        return (self.au_int, self.self_loads) == (other.au_int, other.self_loads)

    def __hash__(self) -> int:
        return hash((self.au_int, self.self_loads))

    def __repr__(self) -> str:
        return (
            f"AddressSlice(au_int={self.au_int!r}, "
            f"self_loads={self.self_loads!r})"
        )


def compute_address_slice(program: Program) -> AddressSlice:
    """Backward slice from every effective-address operand.

    The walk recurses through integer instructions only: a
    floating-point producer terminates the slice (its value will be
    copied from the DU), and a load producer becomes a self-load (its
    own address slice is walked independently, because every memory
    operation's address operand is a root). Producers precede their
    consumers, so one sweep from the end of the trace closes the slice.
    """
    cols = program.columns
    op, srcs = cols.op, cols.srcs
    size = len(op)
    wanted = bytearray(size)
    for addr_src, op_code in zip(cols.addr_src, op):
        if addr_src >= 0 and op_code >= OP_LOAD:
            wanted[addr_src] = 1
    au_mask = bytearray(size)
    self_mask = bytearray(size)
    for index in range(size - 1, -1, -1):
        if wanted[index]:
            op_code = op[index]
            if op_code == OP_INT:
                au_mask[index] = 1
                for src in srcs[index]:
                    wanted[src] = 1
            elif op_code == OP_LOAD:
                self_mask[index] = 1
            # FP producers terminate the walk: the value crosses DU -> AU.
    return AddressSlice.from_masks(au_mask, self_mask)


def _homes(op: bytes, au_mask: bytearray, self_mask: bytearray) -> bytearray:
    """Home unit of the value each instruction produces: the AU for
    slice integer ops and self-loads, none (``_NO_VALUE``) for stores,
    the DU for everything else."""
    home = bytearray([_DU]) * len(op)
    for index, op_code in enumerate(op):
        if op_code == OP_STORE:
            home[index] = _NO_VALUE
        elif (op_code == OP_INT and au_mask[index]) or (
            op_code == OP_LOAD and self_mask[index]
        ):
            home[index] = _AU
    return home


def _needs(program: Program, home: bytearray) -> bytearray:
    """For each value, a bitmask of the units that read it (``1 << unit``)."""
    cols = program.columns
    needs = bytearray(len(home))
    for op_code, srcs, addr_src, unit in zip(
        cols.op, cols.srcs, cols.addr_src, home
    ):
        if op_code <= OP_FP:
            bit = 1 << unit
            for src in srcs:
                needs[src] |= bit
            continue
        if addr_src >= 0:
            needs[addr_src] |= 1 << _AU
        if op_code == OP_STORE:
            # The data half of a store executes on the data value's home
            # unit, so storing never forces a cross-unit copy.
            for src in srcs:
                if home[src] == _NO_VALUE:
                    raise PartitionError(
                        f"instruction {src} (a store) produces no value"
                    )
                needs[src] |= 1 << home[src]
    return needs


def partition_dm(
    program: Program,
    latencies: LatencyModel = DEFAULT_LATENCIES,
    address_slice: AddressSlice | None = None,
) -> MachineProgram:
    """Lower an architectural program to a two-stream DM machine program.

    Writes the engine's columns directly: each machine instruction is
    appended to the per-column lists of a
    :class:`~repro.machines.lowered.ColumnBuilder`, and the instructions
    one architectural instruction always lowers to together (a value and
    its copy, a load issue and its receive, a store's two halves) are
    one ``+=`` per column. No per-instruction objects are made.

    Args:
        program: the architectural trace.
        latencies: operation latency model.
        address_slice: a pre-computed (possibly adjusted) address slice;
            by default :func:`compute_address_slice` is used. The
            dynamic partitioner passes a rebalanced slice here.
    """
    from ..machines.lowered import ColumnBuilder

    if address_slice is None:
        address_slice = compute_address_slice(program)
    cols = program.columns
    op, lat_class, all_srcs = cols.op, cols.lat_class, cols.srcs
    addr_srcs, addrs, mem_deps = cols.addr_src, cols.addr, cols.mem_dep
    size = len(op)
    au_mask, self_mask = address_slice.masks(size)
    home = _homes(op, au_mask, self_mask)
    needs = _needs(program, home)

    builder = ColumnBuilder(_UNITS)
    unit_col, kind_col = builder.unit, builder.kind
    lat_col, srcs_col = builder.lat, builder.srcs
    addr_col, orig_col = builder.addr, builder.orig
    # Per unit: arch value index -> gid of the machine instruction whose
    # result carries that value on that unit (-1: not there).
    val_at = ([-1] * size, [-1] * size)
    au_at, du_at = val_at
    # arch store index -> gids a dependent load must wait for.
    store_gids: dict[int, tuple[int, int]] = {}
    # Copies by producing unit: [AU -> DU, DU -> AU].
    copies = [0, 0]
    self_loads = 0
    op_latency = class_latencies(latencies)
    copy_latency = latencies.copy
    mem_base, receive, store = (
        latencies.mem_base, latencies.receive, latencies.store
    )

    def missing(src: int, unit: int) -> PartitionError:
        return PartitionError(
            f"value %{src} is not available on {_UNITS[unit].value}; the "
            "partitioner failed to insert a copy"
        )

    for index in range(size):
        op_code = op[index]
        if op_code <= OP_FP:
            unit = home[index]
            at = val_at[unit]
            srcs = all_srcs[index]
            deps = tuple(map(at.__getitem__, srcs))
            if -1 in deps:
                raise missing(srcs[deps.index(-1)], unit)
            gid = at[index] = len(lat_col)
            latency = op_latency[lat_class[index]]
            if needs[index] >> (1 - unit) & 1:
                # The other unit reads this value: copy it across.
                val_at[1 - unit][index] = gid + 1
                unit_col += _TWICE[unit]
                kind_col += _VALUE_COPY
                lat_col += (latency, copy_latency)
                srcs_col += (deps, (gid,))
                addr_col += (0, 0)
                orig_col += (index, index)
                copies[unit] += 1
            else:
                unit_col.append(unit)
                kind_col.append(_NONE)
                lat_col.append(latency)
                srcs_col.append(deps)
                addr_col.append(0)
                orig_col.append(index)
            continue
        srcs = all_srcs[index]
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
            deps = (au_at[addr_src],)
            if deps[0] < 0:
                raise missing(addr_src, _AU)
        gid = len(lat_col)
        if op_code == OP_LOAD:
            if mem_deps[index] >= 0:
                deps += store_gids[mem_deps[index]]
            if self_mask[index]:
                self_loads += 1
                au_at[index] = gid
                if needs[index] >> _DU & 1:
                    du_at[index] = gid + 1
                    unit_col += _TWICE[_AU]
                    kind_col += _SELF_LOAD_COPY
                    lat_col += (mem_base, copy_latency)
                    srcs_col += (deps, (gid,))
                    addr_col += (address, 0)
                    orig_col += (index, index)
                    copies[_AU] += 1
                else:
                    unit_col.append(_AU)
                    kind_col.append(_SELF_LOAD)
                    lat_col.append(mem_base)
                    srcs_col.append(deps)
                    addr_col.append(address)
                    orig_col.append(index)
            else:
                du_at[index] = gid + 1
                unit_col += _AU_THEN[_DU]
                kind_col += _ISSUE_RECEIVE
                lat_col += (mem_base, receive)
                srcs_col += (deps, (gid,))
                addr_col += (address, address)
                orig_col += (index, index)
                # Custom (non-slice) partitions may consume a received
                # value on the AU; the default slice never does.
                if needs[index] >> _AU & 1:
                    au_at[index] = gid + 2
                    unit_col.append(_DU)
                    kind_col.append(_COPY)
                    lat_col.append(copy_latency)
                    srcs_col.append((gid + 1,))
                    addr_col.append(0)
                    orig_col.append(index)
                    copies[_DU] += 1
        else:  # STORE
            if srcs:
                # _needs already rejected stores as data producers.
                data_unit = home[srcs[0]]
                data = (val_at[data_unit][srcs[0]],)
                if data[0] < 0:
                    raise missing(srcs[0], data_unit)
            else:
                data_unit, data = _DU, ()
            unit_col += _AU_THEN[data_unit]
            kind_col += _STORE_HALVES
            lat_col += (store, store)
            srcs_col += (deps, data)
            addr_col += (address, address)
            orig_col += (index, index)
            store_gids[index] = (gid, gid + 1)

    meta = {
        "machine": "DM",
        "source": program.name,
        "au_int": len(address_slice.au_int),
        "copies_au_to_du": copies[_AU],
        "copies_du_to_au": copies[_DU],
        "self_loads": self_loads,
    }
    machine_program = builder.program(program.name, cols.tags, meta)
    machine_program.validate()
    return machine_program
