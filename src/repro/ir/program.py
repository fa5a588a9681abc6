"""The :class:`Program` container: an architectural instruction trace.

A program is an immutable (by convention) trace in program order
together with summary statistics and dependence-graph helpers used by
the partitioner, the machine models and the analytic sanity checks in
the test-suite.

A program *is* its :class:`TraceColumns`: integer struct-of-arrays
columns (opcode, op class, latency class, operands, address, memory
edge, tag), which :class:`~repro.ir.KernelBuilder` writes directly.
Every whole-trace pass (address slicing, DM partitioning, SWSM
lowering, characterization, the analytic timing bounds, validation,
the content digest, code expansion) reads and writes those columns.
:class:`~repro.ir.Instruction` objects are views, made only when
something indexes or iterates the program.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice

from ..config import DEFAULT_LATENCIES, LatencyModel
from ..errors import IRValidationError
from .instruction import Instruction
from .types import (
    LAT_OF_OPCODE,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_OF_OPCODE,
    OP_STORE,
    OPCODE_INDEX,
    OPCODES,
    class_latencies,
)

__all__ = ["Program", "ProgramStats", "TraceColumns"]

#: ``repr`` of each opcode's value, by opcode code: the digest's spelling.
_OPCODE_REPRS = tuple(repr(opcode.value) for opcode in OPCODES)
#: Rows the digest writes and hashes at a time.
_DIGEST_CHUNK = 1024


def _row_format(n_srcs: int) -> str:
    """``%`` format spelling one digest row with ``n_srcs`` operands."""
    if n_srcs == 1:
        srcs = "(%r,)"
    else:
        srcs = "(" + ", ".join(["%r"] * n_srcs) + ")"
    return "(%d, %s, " + srcs + ", %s, %s, %s, %s)"


@dataclass(frozen=True)
class ProgramStats:
    """Instruction-mix statistics for a program."""

    total: int
    int_ops: int
    fp_ops: int
    loads: int
    stores: int

    @property
    def memory_ops(self) -> int:
        return self.loads + self.stores

    @property
    def memory_fraction(self) -> float:
        return self.memory_ops / self.total if self.total else 0.0

    @property
    def fp_fraction(self) -> float:
        return self.fp_ops / self.total if self.total else 0.0


def _raise_not_earlier(index: int, dep: int) -> None:
    raise IRValidationError(
        f"instruction {index} depends on {dep}, which is not an earlier "
        "instruction"
    )


class TraceColumns:
    """Integer columns of a trace, one entry per instruction.

    Attributes:
        opcode: opcode code (the index into
            :data:`~repro.ir.types.OPCODES`), as ``bytes``.
        op: op-class code (``OP_INT``, ``OP_FP``, ``OP_LOAD``,
            ``OP_STORE`` from :mod:`repro.ir.types`), as ``bytes``.
        lat_class: latency-class code (``LAT_INT``, ``LAT_FP``,
            ``LAT_FP_LONG``, ``LAT_LOAD``, ``LAT_STORE``), as ``bytes``.
        srcs: data-dependency tuples, as in ``Instruction.srcs``.
        addr_src: address-producer index, ``-1`` for none.
        addr: effective address, ``-1`` for none (addresses are
            non-negative).
        mem_dep: memory-ordering predecessor index, ``-1`` for none.
        tags: per-instruction tag strings.

    The columns are frozen into tuples, which also keeps them out of
    the garbage collector's full collections (a tuple of plain values
    is untracked after one pass); ``op`` and ``lat_class`` are derived
    from ``opcode``.
    """

    __slots__ = ("opcode", "op", "lat_class", "srcs", "addr_src", "addr",
                 "mem_dep", "tags")

    def __init__(
        self,
        opcode: bytes | bytearray,
        srcs: Sequence[tuple[int, ...]],
        addr_src: Sequence[int],
        addr: Sequence[int],
        mem_dep: Sequence[int],
        tags: Sequence[str],
    ) -> None:
        self.opcode = bytes(opcode)
        self.op = self.opcode.translate(OP_OF_OPCODE)
        self.lat_class = self.opcode.translate(LAT_OF_OPCODE)
        self.srcs = tuple(srcs)
        self.addr_src = tuple(addr_src)
        self.addr = tuple(addr)
        self.mem_dep = tuple(mem_dep)
        self.tags = tuple(tags)

    @classmethod
    def from_instructions(
        cls, instructions: Sequence[Instruction]
    ) -> "TraceColumns":
        """The columns of an :class:`Instruction` sequence."""
        return cls(
            bytes(OPCODE_INDEX[inst.opcode.value] for inst in instructions),
            [inst.srcs for inst in instructions],
            [-1 if inst.addr_src is None else inst.addr_src
             for inst in instructions],
            [-1 if inst.addr is None else inst.addr for inst in instructions],
            [-1 if inst.mem_dep is None else inst.mem_dep
             for inst in instructions],
            [inst.tag for inst in instructions],
        )


class Program(Sequence[Instruction]):
    """An architectural trace in program order, stored as its columns.

    Args:
        name: identifies the workload (e.g. ``"flo52q"``).
        instructions: the trace in program order, as
            :class:`TraceColumns` (what :class:`~repro.ir.KernelBuilder`
            hands over) or as :class:`Instruction` objects (hand-built
            traces), which are turned into columns. Instruction ``i``
            must have ``index == i`` and only reference earlier
            instructions.
        meta: free-form metadata recorded by the generator (parameters,
            seed, scale) so a result is fully reproducible.
    """

    def __init__(
        self,
        name: str,
        instructions: TraceColumns | Sequence[Instruction],
        meta: dict[str, object] | None = None,
    ) -> None:
        self.name = name
        if isinstance(instructions, TraceColumns):
            self.columns = instructions
        else:
            # Hand-built objects double as the views; they carry their
            # own (possibly wrong) indices, which validate() checks.
            listed = list(instructions)
            self.columns = TraceColumns.from_instructions(listed)
            self.__dict__["instructions"] = listed
        self.meta: dict[str, object] = dict(meta or {})

    @cached_property
    def instructions(self) -> list[Instruction]:
        """Per-instruction views of the columns, made on first use."""
        cols = self.columns
        return [
            Instruction(
                index=index,
                opcode=OPCODES[code],
                srcs=srcs,
                addr_src=None if addr_src < 0 else addr_src,
                addr=None if addr < 0 else addr,
                mem_dep=None if mem_dep < 0 else mem_dep,
                tag=tag,
            )
            for index, (code, srcs, addr_src, addr, mem_dep, tag)
            in enumerate(zip(cols.opcode, cols.srcs, cols.addr_src,
                             cols.addr, cols.mem_dep, cols.tags))
        ]

    # -- Sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns.opcode)

    def __getitem__(self, item):  # type: ignore[override]
        return self.instructions[item]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"Program({self.name!r}, {len(self)} instructions)"

    # -- statistics ---------------------------------------------------------

    @cached_property
    def stats(self) -> ProgramStats:
        op = self.columns.op
        return ProgramStats(
            total=len(op),
            int_ops=op.count(OP_INT),
            fp_ops=op.count(OP_FP),
            loads=op.count(OP_LOAD),
            stores=op.count(OP_STORE),
        )

    def digest(self) -> str:
        """Stable SHA-256 content address of the trace.

        Covers the name and every instruction field (opcode, operands,
        addresses, memory-ordering edges, tags) but not ``meta``, so two
        builds of valid programs are equal exactly when they execute
        identically. Corpus manifests record this digest, the lowering
        cache keys on it, the golden fixtures pin it, and the registry
        purity tests use it to enforce the determinism contract of
        :mod:`repro.kernels.base`; so the hashed spelling below is a
        contract and must not change. Computed once per name and
        columns.
        """
        memo = self.__dict__.get("_digest")
        if memo and memo[0] == self.name and memo[1] is self.columns:
            return memo[2]
        hasher = hashlib.sha256(self.name.encode("utf-8"))
        cols = self.columns
        # The hashed text is, per row, the repr of the Instruction-fields
        # tuple (index, opcode value, srcs, addr_src, addr, mem_dep, tag)
        # with None where a column holds a negative sentinel. It is
        # written straight from the columns, one format per operand
        # count, and hashed a chunk of rows at a time.
        formats = [
            _row_format(n)
            for n in range(max(map(len, cols.srcs), default=0) + 1)
        ]
        tag_reprs = {tag: repr(tag) for tag in set(cols.tags)}
        rows = zip(count(), cols.opcode, cols.srcs, cols.addr_src,
                   cols.addr, cols.mem_dep, cols.tags)
        while chunk := [
            formats[len(srcs)] % (
                index, _OPCODE_REPRS[code], *srcs,
                "None" if addr_src < 0 else addr_src,
                "None" if addr < 0 else addr,
                "None" if mem_dep < 0 else mem_dep,
                tag_reprs[tag],
            )
            for index, code, srcs, addr_src, addr, mem_dep, tag
            in islice(rows, _DIGEST_CHUNK)
        ]:
            hasher.update("".join(chunk).encode("utf-8"))
        self._digest = (self.name, self.columns, hasher.hexdigest())
        return self._digest[2]

    # -- dependence helpers ---------------------------------------------------

    @cached_property
    def consumers(self) -> list[list[int]]:
        """For each instruction, the indices of instructions that use it.

        Includes memory-ordering (store -> load) edges.
        """
        cols = self.columns
        out: list[list[int]] = [[] for _ in cols.opcode]
        for index, (srcs, addr_src, mem_dep) in enumerate(
            zip(cols.srcs, cols.addr_src, cols.mem_dep)
        ):
            for dep in srcs:
                out[dep].append(index)
            if addr_src >= 0:
                out[addr_src].append(index)
            if mem_dep >= 0:
                out[mem_dep].append(index)
        return out

    def validate(self) -> None:
        """Raise :class:`IRValidationError` unless the trace is well formed."""
        # Column positions are the indices; only Instruction objects
        # handed to the constructor carry an index of their own.
        for i, inst in enumerate(self.__dict__.get("instructions", ())):
            if inst.index != i:
                raise IRValidationError(
                    f"instruction at position {i} has index {inst.index}"
                )
        cols = self.columns
        op = cols.op
        for i, (srcs, code, a_src, address, m_dep) in enumerate(zip(
            cols.srcs, op, cols.addr_src, cols.addr, cols.mem_dep
        )):
            for dep in srcs:
                if not 0 <= dep < i:
                    _raise_not_earlier(i, dep)
            if a_src != -1 and not 0 <= a_src < i:
                _raise_not_earlier(i, a_src)
            if m_dep != -1 and not 0 <= m_dep < i:
                _raise_not_earlier(i, m_dep)
            if code >= OP_LOAD:
                if address < 0:
                    raise IRValidationError(
                        f"memory instruction {i} has no address"
                        if address == -1 else
                        f"memory instruction {i} has negative address "
                        f"{address}"
                    )
            elif address != -1:
                raise IRValidationError(
                    f"non-memory instruction {i} has an address"
                )
            elif a_src != -1:
                raise IRValidationError(
                    f"non-memory instruction {i} has an address dependency"
                )
            if m_dep != -1 and op[m_dep] != OP_STORE:
                raise IRValidationError(
                    f"mem_dep of instruction {i} is not a store"
                )

    # -- analytic timing bounds ----------------------------------------------

    def critical_path(
        self,
        memory_differential: int,
        latencies: LatencyModel = DEFAULT_LATENCIES,
    ) -> int:
        """Dataflow critical-path length in cycles.

        Uses the architectural latencies with loads costing
        ``mem_base + md`` cycles. This is a lower bound on any machine's
        execution time with these latencies and infinite resources, and
        is used by tests and by the analytic models in the docs.
        """
        return self._critical_paths(
            memory_differential, memory_differential, latencies
        )[0]

    def _critical_paths(
        self,
        md_a: int,
        md_b: int,
        latencies: LatencyModel = DEFAULT_LATENCIES,
    ) -> tuple[int, int]:
        """:meth:`critical_path` at two memory differentials, from one
        walk over the columns (the characterizer needs md 0 and the
        default differential)."""
        if md_a < 0 or md_b < 0:
            raise IRValidationError("memory differential must be >= 0")
        cols = self.columns
        cost_a = class_latencies(latencies, md_a)
        cost_b = class_latencies(latencies, md_b)
        finish_a = [0] * len(cols.op)
        finish_b = [0] * len(cols.op)
        longest_a = longest_b = 0
        for i, (srcs, addr_src, mem_dep, lat_class) in enumerate(zip(
            cols.srcs, cols.addr_src, cols.mem_dep, cols.lat_class
        )):
            start_a = start_b = 0
            for dep in srcs:
                if finish_a[dep] > start_a:
                    start_a = finish_a[dep]
                if finish_b[dep] > start_b:
                    start_b = finish_b[dep]
            if addr_src >= 0:
                if finish_a[addr_src] > start_a:
                    start_a = finish_a[addr_src]
                if finish_b[addr_src] > start_b:
                    start_b = finish_b[addr_src]
            if mem_dep >= 0:
                if finish_a[mem_dep] > start_a:
                    start_a = finish_a[mem_dep]
                if finish_b[mem_dep] > start_b:
                    start_b = finish_b[mem_dep]
            done = finish_a[i] = start_a + cost_a[lat_class]
            if done > longest_a:
                longest_a = done
            done = finish_b[i] = start_b + cost_b[lat_class]
            if done > longest_b:
                longest_b = done
        return longest_a, longest_b

    def serial_time(
        self,
        memory_differential: int,
        latencies: LatencyModel = DEFAULT_LATENCIES,
    ) -> int:
        """Execution time of the non-overlapped serial reference machine.

        Each instruction costs its full latency and the next starts only
        when it completes; loads cost ``mem_base + md``. This is the
        denominator of the paper's speedup metric.
        """
        if memory_differential < 0:
            raise IRValidationError("memory differential must be >= 0")
        lat_class = self.columns.lat_class
        cost = class_latencies(latencies, memory_differential)
        return sum(
            cost[code] * lat_class.count(code) for code in range(len(cost))
        )
