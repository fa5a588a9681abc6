"""Machine-level programs: unit-tagged instruction streams.

The architectural IR is lowered into a :class:`MachineProgram` before
simulation. The decoupled machine (DM) gets two streams (AU and DU);
the single-window superscalar machine (SWSM) gets one. Machine
instructions reference each other by *global id* (gid), which is
assigned in program order across all streams so that it doubles as an
age for oldest-first issue and for effective-single-window analysis.

A compiled :class:`MachineProgram` is a view over the engine's
struct-of-arrays columns (:class:`~repro.machines.lowered.LoweredProgram`)
plus a per-gid :class:`MemKind` code: the compilers write those columns
directly, and the per-instruction :class:`MachineInstruction` streams
(``streams``, ``stream(unit)``, ``by_gid``, ``consumers``) are
materialised only on demand, for the naive oracle and for inspection.
Hand-built programs — ``MachineProgram(name, streams, meta)`` — keep
their streams and are flattened into columns on first
:meth:`~MachineProgram.lowered` call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from ..errors import PartitionError

__all__ = [
    "Unit",
    "MemKind",
    "MEM_KINDS",
    "KIND_CODE",
    "MachineInstruction",
    "MachineProgram",
]


class Unit(enum.Enum):
    """The execution unit a machine instruction is assigned to."""

    AU = "AU"
    DU = "DU"
    SINGLE = "SINGLE"


class MemKind(enum.Enum):
    """Machine-level memory/transfer semantics of an instruction.

    The simulator keys its timing rules on this field:

    * ``NONE`` — plain arithmetic; result available ``latency`` cycles
      after issue.
    * ``COPY`` — inter-register-file move on the producing unit.
    * ``LOAD_ISSUE`` — AU sends an address; the datum reaches the
      decoupled memory ``mem_base + md`` cycles after issue, where it
      waits for the paired ``RECEIVE``.
    * ``SELF_LOAD`` — an AU load whose value the AU itself consumes;
      same memory timing, no receive instruction.
    * ``RECEIVE`` — DU consumes a buffered datum (one-cycle request).
    * ``STORE_ADDR`` / ``STORE_DATA`` — the two halves of a DM store.
    * ``PREFETCH_LOAD`` — SWSM prefetch; fills the prefetch buffer
      ``mem_base + md`` cycles after issue.
    * ``PREFETCH_STORE`` — SWSM store prefetch; establishes the entry in
      one cycle (stores complete into an idealised write buffer and do
      not wait on the memory differential — see docs/timing.md).
    * ``ACCESS_LOAD`` — SWSM access; ready once the paired prefetch's
      datum arrived, takes one cycle.
    * ``ACCESS_STORE`` — SWSM store access; one cycle.
    """

    NONE = "none"
    COPY = "copy"
    LOAD_ISSUE = "load_issue"
    SELF_LOAD = "self_load"
    RECEIVE = "receive"
    STORE_ADDR = "store_addr"
    STORE_DATA = "store_data"
    PREFETCH_LOAD = "prefetch_load"
    PREFETCH_STORE = "prefetch_store"
    ACCESS_LOAD = "access_load"
    ACCESS_STORE = "access_store"


#: Every kind, indexed by its integer code in the per-gid kind column.
MEM_KINDS: tuple[MemKind, ...] = tuple(MemKind)
KIND_CODE: dict[MemKind, int] = {kind: code for code, kind in enumerate(MEM_KINDS)}

#: Kind codes that carry no effective address.
_NO_ADDRESS = frozenset({KIND_CODE[MemKind.NONE], KIND_CODE[MemKind.COPY]})

#: Kinds whose result-availability depends on the memory differential.
MEMORY_KINDS = frozenset(
    {MemKind.LOAD_ISSUE, MemKind.SELF_LOAD, MemKind.PREFETCH_LOAD}
)


@dataclass(frozen=True)
class MachineInstruction:
    """One instruction in a unit's stream.

    Attributes:
        gid: global id; unique and monotone in (interleaved) program
            order across all streams of the machine program.
        unit: the unit whose window/issue slots this instruction uses.
        mem_kind: timing semantics (see :class:`MemKind`).
        latency: execution latency in cycles for the non-memory part of
            the timing rules (ignored for kinds whose availability is
            computed from the memory differential).
        srcs: gids this instruction must wait for before issuing.
        addr: concrete effective address for memory operations.
        orig_index: index of the architectural instruction this was
            lowered from (used for effective-single-window analysis).
        tag: annotation carried over from the architectural trace.
    """

    gid: int
    unit: Unit
    mem_kind: MemKind
    latency: int
    srcs: tuple[int, ...] = ()
    addr: int | None = None
    orig_index: int = -1
    tag: str = ""

    @property
    def is_memory_access(self) -> bool:
        return self.mem_kind in MEMORY_KINDS


class MachineProgram:
    """Unit-tagged instruction streams plus cross-stream dependencies.

    ``MachineProgram(name, streams, meta)`` wraps hand-built streams;
    the compilers build programs with :meth:`from_columns` instead.
    Either way ``lowered()`` returns the struct-of-arrays columns and
    ``streams`` the per-instruction view.
    """

    def __init__(
        self,
        name: str,
        streams: dict[Unit, list[MachineInstruction]],
        meta: dict[str, object] | None = None,
    ) -> None:
        self.name = name
        self.meta: dict[str, object] = dict(meta or {})
        self.streams = streams
        self.units: tuple[Unit, ...] = tuple(streams)
        self.num_instructions = sum(len(s) for s in streams.values())
        self._low = None
        self._kinds: bytes | None = None
        self._tags: list[str] | None = None

    @classmethod
    def from_columns(
        cls,
        name: str,
        low,
        kinds: bytes,
        tags: list[str],
        meta: dict[str, object] | None = None,
    ) -> "MachineProgram":
        """A program whose columns are ``low``.

        ``kinds`` holds each gid's :data:`KIND_CODE`; ``tags`` is the
        source trace's per-instruction tag list, indexed by each gid's
        ``orig_index``.
        """
        program = cls.__new__(cls)
        program.name = name
        program.meta = dict(meta or {})
        program.units = low.units
        program.num_instructions = low.total
        program._low = low
        program._kinds = kinds
        program._tags = tags
        return program

    @cached_property
    def streams(self) -> dict[Unit, list[MachineInstruction]]:
        """Per-unit instruction lists, materialised from the columns."""
        low, kinds, tags = self._low, self._kinds, self._tags
        # The column views are rebuilt on each access: bind them once.
        lat, src_off, orig = low.lat, low.src_off, low.orig_index
        out: dict[Unit, list[MachineInstruction]] = {}
        for unit, gids in zip(self.units, low.stream_gids):
            out[unit] = [
                MachineInstruction(
                    gid=gid,
                    unit=unit,
                    mem_kind=MEM_KINDS[kinds[gid]],
                    latency=lat[gid],
                    srcs=tuple(gid - off for off in src_off[gid]),
                    addr=None if kinds[gid] in _NO_ADDRESS else low.addr[gid],
                    orig_index=orig[gid],
                    tag=tags[orig[gid]],
                )
                for gid in gids
            ]
        return out

    def stream(self, unit: Unit) -> list[MachineInstruction]:
        return self.streams[unit]

    def lowered(self):
        """The struct-of-arrays columns the engine schedules over.

        Compiled programs are their columns; a hand-built program is
        flattened by :func:`~repro.machines.lowered.lower_program` on
        first use. Either way the result serves every window size and
        memory differential. Hand-built streams must not be mutated
        after the first call.
        """
        low = self._low
        if low is None:
            from ..machines.lowered import lower_program

            low = self._low = lower_program(self)
        return low

    def __getstate__(self) -> dict[str, object]:
        # The per-instruction views are derived data; a compiled
        # program ships its columns only.
        state = self.__dict__.copy()
        state.pop("by_gid", None)
        state.pop("consumers", None)
        if self._kinds is not None:
            state.pop("streams", None)
        return state

    @cached_property
    def by_gid(self) -> dict[int, MachineInstruction]:
        table: dict[int, MachineInstruction] = {}
        for stream in self.streams.values():
            for inst in stream:
                if inst.gid in table:
                    raise PartitionError(f"duplicate gid {inst.gid}")
                table[inst.gid] = inst
        return table

    @cached_property
    def consumers(self) -> dict[int, list[int]]:
        """gid -> gids of instructions that depend on it."""
        out: dict[int, list[int]] = {gid: [] for gid in self.by_gid}
        for inst in self.by_gid.values():
            for dep in inst.srcs:
                out[dep].append(inst.gid)
        return out

    def validate(self) -> None:
        """Check stream ordering and dependence sanity.

        Within a stream, gids must be strictly increasing (dispatch
        order is program order). Dependencies must reference existing,
        older instructions.
        """
        if self._kinds is not None:
            self._validate_columns()
            return
        table = self.by_gid
        for unit, stream in self.streams.items():
            previous = -1
            for inst in stream:
                if inst.unit is not unit:
                    raise PartitionError(
                        f"instruction gid={inst.gid} tagged {inst.unit} found "
                        f"in {unit} stream"
                    )
                if inst.gid <= previous:
                    raise PartitionError(
                        f"stream {unit} is not in increasing gid order at "
                        f"gid={inst.gid}"
                    )
                previous = inst.gid
                for dep in inst.srcs:
                    if dep not in table:
                        raise PartitionError(
                            f"gid={inst.gid} depends on unknown gid={dep}"
                        )
                    if dep >= inst.gid:
                        raise PartitionError(
                            f"gid={inst.gid} depends on younger gid={dep}"
                        )

    def _validate_columns(self) -> None:
        """:meth:`validate` for compiled programs, over the columns.

        Column gids are contiguous, unique, unit-tagged and listed in
        increasing order per stream by construction, which leaves the
        dependence direction to check.
        """
        low = self._low
        if low.min_dep_offset >= 1:
            return
        for gid, offsets in enumerate(low.src_off):
            for off in offsets:
                if off < 1:
                    raise PartitionError(
                        f"gid={gid} depends on younger gid={gid - off}"
                    )

    def unit_counts(self) -> dict[Unit, int]:
        return {
            unit: len(gids)
            for unit, gids in zip(self.units, self.lowered().stream_gids)
        }
