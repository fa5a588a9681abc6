"""Struct-of-arrays form of machine programs: what the engine schedules.

A :class:`LoweredProgram` is a machine program as parallel integer
arrays: timing mode, latency, memory address, dependency counts, a
consumer adjacency table and per-unit gid streams. The engine
(:mod:`repro.machines.engine`) schedules directly over these arrays,
and one lowered program serves every window size and memory
differential of a sweep.

Everything is built by one :class:`ColumnBuilder`. The compilers
(:func:`~repro.partition.partition_dm`,
:func:`~repro.partition.lower_swsm`) append each machine instruction to
its per-column lists straight from the trace's integer columns, so a
compiled :class:`~repro.partition.machine_program.MachineProgram` *is*
its lowered form (:meth:`MachineProgram.lowered`) and no
per-instruction objects exist on the compile path.
:func:`lower_program` feeds the same builder from hand-built
:class:`~repro.partition.machine_program.MachineInstruction` streams.

Lowering also computes two engine accelerator inputs:

* a per-``(mem_base + extra)`` **effective latency table**
  (:meth:`LoweredProgram.addlat_for`), which batches the memory
  system's per-access lookup into one precomputed array when the
  model declares a uniform differential (see
  :meth:`repro.memory.MemorySystem.uniform_extra_latency`); for
  non-uniform models the engine instead combines ``base_addlat``,
  ``memory_gids``/``is_mem`` and the batched
  :meth:`repro.memory.MemorySystem.latencies` protocol;
* the **steady-state signature** (:meth:`LoweredProgram.steady`): if
  the instruction stream is structurally periodic — as every loop-nest
  trace is — the engine can detect a repeating scheduler state and
  skip whole iterations while staying cycle-exact (docs/timing.md,
  "Periodic steady state").

Lowering also records ``mem_units``, the units that own memory
accesses. Only :meth:`LoweredProgram.single_memory_unit` reads it, to
gate the speculative fixed point; the memory model's
:meth:`~repro.memory.MemorySystem.time_sensitive` alone picks the
event-heap scheduler (docs/timing.md, "Event scheduling"). The per-gid
``unit_index``/``cons`` tables double as the wakeup-routing tables the
event loop uses to deliver completion and memory-arrival events to the
right unit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, compress, pairwise

from ..errors import SimulationError
from ..partition.machine_program import (
    KIND_CODE,
    MEM_KINDS,
    MachineProgram,
    MemKind,
)

__all__ = [
    "MODE_LATENCY",
    "MODE_MEMORY",
    "MODE_ESTABLISH",
    "KIND_MODE",
    "SteadyState",
    "LoweredProgram",
    "ColumnBuilder",
    "lower_program",
]

# Availability rules, precomputed per instruction for the hot loop.
MODE_LATENCY = 0  # avail = issue + latency
MODE_MEMORY = 1  # avail = issue + mem_base + memory.extra_latency(addr)
MODE_ESTABLISH = 2  # avail = issue + 1 (store prefetch: entry established)

KIND_MODE = {
    MemKind.NONE: MODE_LATENCY,
    MemKind.COPY: MODE_LATENCY,
    MemKind.RECEIVE: MODE_LATENCY,
    MemKind.STORE_ADDR: MODE_LATENCY,
    MemKind.STORE_DATA: MODE_LATENCY,
    MemKind.ACCESS_LOAD: MODE_LATENCY,
    MemKind.ACCESS_STORE: MODE_LATENCY,
    MemKind.LOAD_ISSUE: MODE_MEMORY,
    MemKind.SELF_LOAD: MODE_MEMORY,
    MemKind.PREFETCH_LOAD: MODE_MEMORY,
    MemKind.PREFETCH_STORE: MODE_ESTABLISH,
}

#: Kinds whose issue consumes a buffered datum delivered by srcs[0].
CONSUMER_KINDS = frozenset({MemKind.RECEIVE, MemKind.ACCESS_LOAD})

#: Kinds that deliver a datum into the decoupled/prefetch buffer.
DELIVERING_KINDS = frozenset({MemKind.LOAD_ISSUE, MemKind.PREFETCH_LOAD})


def _kind_table(value) -> bytes:
    """A ``bytes.translate`` table mapping each kind code to ``value(kind)``."""
    return bytes(value(kind) for kind in MEM_KINDS) + bytes(
        256 - len(MEM_KINDS)
    )


_KIND_MODE_TABLE = _kind_table(KIND_MODE.__getitem__)
_MEMORY_TABLE = _kind_table(lambda k: KIND_MODE[k] == MODE_MEMORY)
_LATENCY_TABLE = _kind_table(lambda k: KIND_MODE[k] == MODE_LATENCY)
_ESTABLISH_TABLE = _kind_table(lambda k: KIND_MODE[k] == MODE_ESTABLISH)
_CONSUMES_TABLE = _kind_table(lambda k: k in CONSUMER_KINDS)
_DELIVERS_TABLE = _kind_table(lambda k: k in DELIVERING_KINDS)


def _selector(value: int) -> bytes:
    """A ``bytes.translate`` table mapping ``value`` to 1, all else to 0."""
    return bytes(b == value for b in range(256))

#: Boundary stride floor for steady-state checkpoints, in gids. Very
#: short loop bodies are checked at a multiple of their period so the
#: dispatch frontier cannot cross two checkpoints in one cycle.
_MIN_STRIDE = 48

_UNSET = object()


@dataclass(frozen=True)
class SteadyState:
    """A verified structural period of the instruction stream.

    Attributes:
        start: first gid of the verified periodic region; the stream's
            structure repeats with shift ``period`` from here to the
            end of the program.
        period: gid shift per period (a multiple of the minimal
            structural period, raised to at least ``_MIN_STRIDE``).
        unit_counts: per-unit stream advance per period, indexed like
            ``LoweredProgram.units``.
        dep_span: maximum ``consumer - producer`` gid distance in the
            whole program (bounds how far scheduler state can reach
            past the dispatch frontier).
    """

    start: int
    period: int
    unit_counts: tuple[int, ...]
    dep_span: int


class LoweredProgram:
    """Flat parallel arrays describing one machine program.

    All columns are indexed by gid except ``stream_gids`` (per-unit
    dispatch order). Instances are immutable by convention: the engine
    treats every array, including the tables returned by
    :meth:`addlat_for`, as read-only.

    The columns the engine's hot loops index per gid (``cons``,
    ``stream_gids``, ``base_addlat``, ``addr``, ``memory_gids``) are
    tuples, which the garbage collector stops tracking after one pass.
    The cold columns are stored compactly and never as per-gid Python
    objects: ``_mode`` and ``_unit`` as ``bytes``; ``_lat``, ``_orig``,
    ``_pair`` and ``_n_srcs`` as ``array('i')``; the source offsets as
    CSR, ``_src_flat[_src_start[gid]:_src_start[gid + 1]]``. Their
    public names (``mode``, ``unit_index``, ``lat``, ``orig_index``,
    ``pair``, ``n_srcs``, ``src_off``) are tuple views rebuilt on each
    access; bind one to a local before indexing it in a loop.
    """

    __slots__ = (
        "total",
        "units",
        "stream_gids",
        "cons",
        "addr",
        "base_addlat",
        "memory_gids",
        "mem_units",
        "is_mem",
        "min_latency",
        "min_dep_offset",
        "dep_span",
        "delivers",
        "pair_missing",
        "_n_srcs",
        "_src_start",
        "_src_flat",
        "_mode",
        "_unit",
        "_lat",
        "_orig",
        "_pair",
        "_addlat_cache",
        "_steady",
        "_np_cache",
        "_pass_memo",
    )

    def __init__(self) -> None:
        self._addlat_cache: dict[int, list[int]] = {}
        self._steady = _UNSET
        self._np_cache = None  # NumPy views for the batch engine
        # The engine's last uniform-table pass over this program
        # (``repro.machines.engine._table_pass``); never pickled.
        self._pass_memo = None

    def __getstate__(self):
        """Pickle the flat arrays; drop caches, keep a computed steady.

        ``_steady`` uses a module-level sentinel for "not computed yet"
        that cannot survive a pickle round-trip by identity, so it is
        mapped out of the state (the digest-keyed lowering cache pickles
        programs with ``steady()`` already materialised, which this
        preserves — including a computed ``None``).
        """
        state = {slot: getattr(self, slot) for slot in _STATE_SLOTS}
        if self._steady is not _UNSET:
            state["_steady"] = self._steady
        return state

    def __setstate__(self, state) -> None:
        # A state pickled in another column layout must fail to load
        # rather than leave a half-populated program behind.
        if state.keys() - {"_steady"} != set(_STATE_SLOTS):
            raise SimulationError(
                "lowered program pickled in another column layout"
            )
        self.__init__()
        for slot, value in state.items():
            setattr(self, slot, value)

    @property
    def n_srcs(self) -> tuple[int, ...]:
        """Per-gid source count (a view of ``_n_srcs``)."""
        return tuple(self._n_srcs)

    @property
    def src_off(self) -> tuple[tuple[int, ...], ...]:
        """Per-gid ``gid - src`` offsets (a view of the CSR arrays)."""
        flat = self._src_flat
        return tuple(
            tuple(flat[lo:hi]) for lo, hi in pairwise(self._src_start)
        )

    @property
    def mode(self) -> tuple[int, ...]:
        """Per-gid availability mode (``MODE_*``; a view of ``_mode``)."""
        return tuple(self._mode)

    @property
    def lat(self) -> tuple[int, ...]:
        """Per-gid execution latency (a view of ``_lat``)."""
        return tuple(self._lat)

    @property
    def unit_index(self) -> tuple[int, ...]:
        """Per-gid index into ``units`` (a view of ``_unit``)."""
        return tuple(self._unit)

    @property
    def orig_index(self) -> tuple[int, ...]:
        """Per-gid architectural instruction index (a view of ``_orig``)."""
        return tuple(self._orig)

    @property
    def pair(self) -> tuple[int, ...]:
        """Per-gid buffer producer of a consuming kind, else -1 (a view
        of ``_pair``)."""
        return tuple(self._pair)

    def addlat_for(self, mem_latency: int) -> list[int]:
        """Effective added latency per gid for a uniform memory model.

        ``mem_latency`` is ``mem_base + uniform_extra``; the table
        folds the three availability modes into a single per-gid add,
        so the hot loop computes ``avail = issue + addlat[gid]`` with
        no branching and no per-access memory-system call. Tables are
        cached per ``mem_latency`` and must not be mutated.
        """
        table = self._addlat_cache.get(mem_latency)
        if table is None:
            table = list(self.base_addlat)
            for gid in self.memory_gids:
                table[gid] = mem_latency
            self._addlat_cache[mem_latency] = table
        return table

    def single_memory_unit(self) -> bool:
        """Whether every memory access lives on one unit.

        The speculative fixed point replays chunked model queries from
        the recorded access schedule; with a single issuing unit the
        replay's per-cycle chunks provably match the live engine's
        per-unit-per-cycle chunks (true for the DM — all accesses are
        AU work — and trivially for the SWSM). Reads ``mem_units``,
        the memory-owning-units table computed during lowering.
        """
        return len(self.mem_units) <= 1

    def steady(self) -> SteadyState | None:
        """The verified structural period, or None (cached)."""
        state = self._steady
        if state is _UNSET:
            state = self._find_steady()
            self._steady = state
        return state

    def _find_steady(self) -> SteadyState | None:
        total = self.total
        # Forward or self dependencies (malformed programs) break the
        # locality bounds the accelerator relies on.
        if total < 512 or self.min_dep_offset < 1:
            return None
        # A gid's structural signature is everything the engine reads
        # about it except its address (with a uniform memory model the
        # address never affects timing): unit, mode, latency and source
        # offsets. Runs of gids are compared column slice by column
        # slice; equal source counts make the CSR offset ranges line
        # up, so equal ranges mean equal per-gid offset tuples.
        unit, mode, lat = self._unit, self._mode, self._lat
        n_srcs, flat, offsets = self._n_srcs, self._src_flat, self._src_start

        def same(a: int, b: int, n: int) -> bool:
            """Whether gids ``a..a+n`` and ``b..b+n`` match one by one."""
            return (
                mode[a: a + n] == mode[b: b + n]
                and unit[a: a + n] == unit[b: b + n]
                and lat[a: a + n] == lat[b: b + n]
                and n_srcs[a: a + n] == n_srcs[b: b + n]
                and flat[offsets[a]: offsets[a + n]]
                == flat[offsets[b]: offsets[b + n]]
            )

        start = total // 4
        for probe_len in (64, 256, 1024):
            if start + 2 * probe_len >= total:
                break
            # The first later run matching the probe: every match has
            # the probe's modes, so candidates come from ``_mode``.
            probe = mode[start: start + probe_len]
            pos = mode.find(probe, start + 1)
            while pos != -1 and not same(start, pos, probe_len):
                pos = mode.find(probe, pos + 1)
            if pos == -1:
                continue
            period = pos - start
            if not same(start, pos, total - pos):
                continue  # local echo, not a global period; widen probe
            # Extend the verified region backward past the prologue so
            # the engine can start skipping as early as possible: step
            # back in blocks that double while they match and halve
            # when one does not, down to the first mismatching gid.
            step = 1
            while start:
                n = min(step, start)
                if same(start - n, start - n + period, n):
                    start -= n
                    step *= 2
                elif n == 1:
                    break
                else:
                    step = n // 2
            repeats = max(1, -(-_MIN_STRIDE // period))
            stride = period * repeats
            if total - start < 3 * stride + self.dep_span + 64:
                return None
            return SteadyState(
                start=start,
                period=stride,
                unit_counts=tuple(
                    unit.count(ui, start, start + stride)
                    for ui in range(len(self.units))
                ),
                dep_span=self.dep_span,
            )
        return None


#: The pickled slots: every column, without the per-process caches.
_STATE_SLOTS = tuple(
    slot for slot in LoweredProgram.__slots__
    if slot not in ("_addlat_cache", "_steady", "_np_cache", "_pass_memo")
)


class ColumnBuilder:
    """Builds a :class:`LoweredProgram` one column entry at a time.

    The compilers (:func:`repro.partition.partition_dm`,
    :func:`repro.partition.lower_swsm`) and :func:`lower_program` append
    each machine instruction, in gid order, to six per-gid columns:

    * ``unit``: index into ``units`` (``bytearray``);
    * ``kind``: the instruction's
      :data:`~repro.partition.machine_program.KIND_CODE` (``bytearray``);
    * ``lat``: latency; ``srcs``: source gid tuple; ``addr``: address,
      ``0`` for none; ``orig``: architectural instruction index (lists).

    A run of gids the compiler always emits together (a value and its
    copy, a load issue and its receive, a store's two halves) is one
    ``+=`` per column. :meth:`finish` derives every other column from
    these six: tuples for the columns the engine indexes per gid, and
    ``bytes``, ``array('i')`` and CSR for the cold ones, so the source
    tuples are the only per-gid containers and they die with the
    builder.
    """

    __slots__ = ("units", "unit", "kind", "lat", "srcs", "addr", "orig")

    def __init__(self, units) -> None:
        self.units = tuple(units)
        self.unit = bytearray()
        self.kind = bytearray()
        self.lat: list[int] = []
        self.srcs: list[tuple[int, ...]] = []
        self.addr: list[int] = []
        self.orig: list[int] = []

    def program(
        self, name: str, tags: list[str], meta: dict[str, object]
    ) -> MachineProgram:
        """The finished columns as a :class:`MachineProgram` view.

        ``tags`` is the source trace's per-instruction tag list, read
        through each gid's orig index.
        """
        low, kinds = self.finish()
        return MachineProgram.from_columns(name, low, kinds, tags, meta)

    def finish(
        self, stream_gids: list[list[int]] | None = None
    ) -> tuple[LoweredProgram, bytes]:
        """The lowered program and its per-gid kind codes.

        ``stream_gids`` (per-unit dispatch order) defaults to gid order.
        Consumer lists (``cons``) are in stream order: unit by unit,
        each unit's consumers in its dispatch order. Without
        ``stream_gids`` they are built in gid order, which is the same
        order when all consumers of each gid sit on one unit, as they do
        in compiler output: a copy feeds the other unit only, a load
        issue only its receive, and a store's halves only AU loads.
        """
        srcs, lat = self.srcs, self.lat
        total = len(lat)
        kinds = bytes(self.kind)
        units = bytes(self.unit)
        gids = range(total)
        low = LoweredProgram()
        low.total = total
        low.units = self.units
        low._unit = units
        # One walk over the edges in gid order: consumer lists, and the
        # offsets ``gid - src`` flattened without a per-gid container.
        consumers = [()] * total
        offsets = []
        offset = offsets.append
        for gid, deps in enumerate(srcs):
            for dep in deps:
                consumers[dep] += (gid,)
                offset(gid - dep)
        if stream_gids is None:
            low.stream_gids = tuple(
                tuple(compress(gids, units.translate(_selector(ui))))
                for ui in range(len(self.units))
            )
            low.cons = tuple(consumers)
        else:
            low.stream_gids = tuple(map(tuple, stream_gids))
            in_streams: list[list[int]] = [[] for _ in gids]
            for stream in low.stream_gids:
                for gid in stream:
                    for dep in srcs[gid]:
                        in_streams[dep].append(gid)
            low.cons = tuple(map(tuple, in_streams))
        n_srcs = array("i", map(len, srcs))
        low._n_srcs = n_srcs
        low._src_start = array("i", accumulate(n_srcs, initial=0))
        flat = low._src_flat = array("i", offsets)
        floor = total or 1
        low.min_dep_offset = min(floor, min(flat, default=floor))
        low.dep_span = max(0, max(flat, default=0))
        low._mode = kinds.translate(_KIND_MODE_TABLE)
        low._lat = array("i", lat)
        low.addr = tuple(self.addr)
        low._orig = array("i", self.orig)
        base_addlat = list(lat)
        for gid in compress(gids, kinds.translate(_ESTABLISH_TABLE)):
            base_addlat[gid] = 1
        low.base_addlat = tuple(base_addlat)
        low.is_mem = bytearray(kinds.translate(_MEMORY_TABLE))
        low.memory_gids = tuple(compress(gids, low.is_mem))
        low.mem_units = tuple(sorted({units[g] for g in low.memory_gids}))
        low.delivers = bytearray(kinds.translate(_DELIVERS_TABLE))
        low.min_latency = min(
            1, min(compress(lat, kinds.translate(_LATENCY_TABLE)), default=1)
        )
        pair = low._pair = array("i", [-1]) * total
        unpaired = set()
        for gid in compress(gids, kinds.translate(_CONSUMES_TABLE)):
            if srcs[gid]:
                pair[gid] = srcs[gid][0]
            else:
                unpaired.add(gid)
        # In stream order: the buffer probe reports the first one.
        low.pair_missing = tuple(
            (gid, MEM_KINDS[kinds[gid]].value)
            for stream in (low.stream_gids if unpaired else ())
            for gid in stream
            if gid in unpaired
        )
        return low, kinds


def lower_program(program: MachineProgram) -> LoweredProgram:
    """Flatten hand-built ``program`` streams into struct-of-arrays form.

    The compilers write the columns directly; this feeds a program built
    from :class:`~repro.partition.machine_program.MachineInstruction`
    streams through the same :class:`ColumnBuilder`, with its streams'
    dispatch order. Prefer :meth:`MachineProgram.lowered`, which caches
    the result on the program; this function always builds a fresh
    instance.
    """
    total = program.num_instructions
    units = program.units
    rows: list = [None] * total
    stream_gids: list[list[int]] = []
    for ui, unit in enumerate(units):
        gids: list[int] = []
        for inst in program.stream(unit):
            gid = inst.gid
            if not 0 <= gid < total:
                raise SimulationError(
                    f"gid {gid} out of range; lowering must assign "
                    "contiguous gids"
                )
            if rows[gid] is not None:
                raise SimulationError(f"duplicate gid {gid} in streams")
            rows[gid] = (ui, inst)
            gids.append(gid)
        stream_gids.append(gids)
    builder = ColumnBuilder(units)
    for ui, inst in rows:
        builder.unit.append(ui)
        builder.kind.append(KIND_CODE[inst.mem_kind])
        builder.lat.append(inst.latency)
        builder.srcs.append(inst.srcs)
        builder.addr.append(inst.addr if inst.addr is not None else 0)
        builder.orig.append(inst.orig_index)
    return builder.finish(stream_gids)[0]
