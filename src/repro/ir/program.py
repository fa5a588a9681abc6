"""The :class:`Program` container: an architectural instruction trace.

A program is an immutable (by convention) list of instructions in
program order together with summary statistics and dependence-graph
helpers used by the partitioner, the machine models and the analytic
sanity checks in the test-suite.

Every whole-trace pass (address slicing, DM partitioning, SWSM
lowering, characterization, the analytic timing bounds, validation)
reads the trace through :attr:`Program.columns`, an integer
struct-of-arrays view computed once per program, rather than through
per-instruction attributes and enum lookups.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from ..config import DEFAULT_LATENCIES, LatencyModel
from ..errors import IRValidationError
from .instruction import Instruction
from .types import (
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_STORE,
    OPCODE_CODES,
    class_latencies,
)

__all__ = ["Program", "ProgramStats", "TraceColumns"]


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


class TraceColumns:
    """Integer column view of a trace, one entry per instruction.

    Attributes:
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
    """

    __slots__ = ("op", "lat_class", "srcs", "addr_src", "addr", "mem_dep",
                 "tags")

    def __init__(self, instructions: Sequence[Instruction]) -> None:
        codes = [OPCODE_CODES[inst.opcode] for inst in instructions]
        self.op = bytes(code[0] for code in codes)
        self.lat_class = bytes(code[1] for code in codes)
        self.srcs = [inst.srcs for inst in instructions]
        self.addr_src = [
            -1 if inst.addr_src is None else inst.addr_src
            for inst in instructions
        ]
        self.addr = [
            -1 if inst.addr is None else inst.addr for inst in instructions
        ]
        self.mem_dep = [
            -1 if inst.mem_dep is None else inst.mem_dep
            for inst in instructions
        ]
        self.tags = [inst.tag for inst in instructions]


class Program(Sequence[Instruction]):
    """An architectural trace in program order.

    Args:
        name: identifies the workload (e.g. ``"flo52q"``).
        instructions: trace in program order; instruction ``i`` must
            have ``index == i`` and only reference earlier instructions.
        meta: free-form metadata recorded by the generator (parameters,
            seed, scale) so a result is fully reproducible.
    """

    def __init__(
        self,
        name: str,
        instructions: Sequence[Instruction],
        meta: dict[str, object] | None = None,
    ) -> None:
        self.name = name
        self.instructions = list(instructions)
        self.meta: dict[str, object] = dict(meta or {})

    # -- Sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, item):  # type: ignore[override]
        return self.instructions[item]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"Program({self.name!r}, {len(self)} instructions)"

    # -- statistics ---------------------------------------------------------

    @cached_property
    def columns(self) -> TraceColumns:
        """The integer column view of the trace (computed once)."""
        return TraceColumns(self.instructions)

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
        builds are equal exactly when they execute identically. Corpus
        manifests record this digest, and the registry purity tests use
        it to enforce the determinism contract of
        :mod:`repro.kernels.base`.
        """
        hasher = hashlib.sha256()
        hasher.update(self.name.encode("utf-8"))
        for inst in self.instructions:
            row = (
                inst.index, inst.opcode.value, inst.srcs, inst.addr_src,
                inst.addr, inst.mem_dep, inst.tag,
            )
            hasher.update(repr(row).encode("utf-8"))
        return hasher.hexdigest()

    # -- dependence helpers ---------------------------------------------------

    @cached_property
    def consumers(self) -> list[list[int]]:
        """For each instruction, the indices of instructions that use it.

        Includes memory-ordering (store -> load) edges.
        """
        out: list[list[int]] = [[] for _ in self.instructions]
        for inst in self.instructions:
            for dep in inst.all_deps():
                out[dep].append(inst.index)
        return out

    def validate(self) -> None:
        """Raise :class:`IRValidationError` unless the trace is well formed."""
        cols = self.columns
        op, addr, addr_src, mem_dep = (
            cols.op, cols.addr, cols.addr_src, cols.mem_dep
        )
        for i, inst in enumerate(self.instructions):
            if inst.index != i:
                raise IRValidationError(
                    f"instruction at position {i} has index {inst.index}"
                )
            deps = cols.srcs[i]
            if addr_src[i] != -1:
                deps = deps + (addr_src[i],)
            if mem_dep[i] != -1:
                deps = deps + (mem_dep[i],)
            for dep in deps:
                if not 0 <= dep < i:
                    raise IRValidationError(
                        f"instruction {i} depends on {dep}, which is not an "
                        "earlier instruction"
                    )
            is_memory = op[i] >= OP_LOAD
            if is_memory and addr[i] == -1:
                raise IRValidationError(f"memory instruction {i} has no address")
            if not is_memory and addr[i] != -1:
                raise IRValidationError(
                    f"non-memory instruction {i} has an address"
                )
            if not is_memory and addr_src[i] != -1:
                raise IRValidationError(
                    f"non-memory instruction {i} has an address dependency"
                )
            if mem_dep[i] != -1 and op[mem_dep[i]] != OP_STORE:
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
        if memory_differential < 0:
            raise IRValidationError("memory differential must be >= 0")
        cols = self.columns
        cost = class_latencies(latencies, memory_differential)
        finish = [0] * len(cols.op)
        longest = 0
        for i, (srcs, addr_src, mem_dep, lat_class) in enumerate(zip(
            cols.srcs, cols.addr_src, cols.mem_dep, cols.lat_class
        )):
            start = 0
            for dep in srcs:
                if finish[dep] > start:
                    start = finish[dep]
            if addr_src >= 0 and finish[addr_src] > start:
                start = finish[addr_src]
            if mem_dep >= 0 and finish[mem_dep] > start:
                start = finish[mem_dep]
            done = finish[i] = start + cost[lat_class]
            if done > longest:
                longest = done
        return longest

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
