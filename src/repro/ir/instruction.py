"""Architectural instructions and SSA values.

A program trace is a sequence of instructions in program order. Every
instruction produces at most one value, identified by the
instruction's position in the trace, so a :class:`Value` is a thin
wrapper around that index. Renaming is therefore perfect by
construction (the paper assumes false dependencies are removed).

A :class:`~repro.ir.Program` stores its trace as integer columns; an
:class:`Instruction` is the per-instruction view of one row, made when
a program is indexed or iterated, or written by hand for small test
traces.

Memory operations carry their *address dependency* in a dedicated slot
(``addr_src``) rather than mixed into ``srcs``: the access/execute
partitioner must know which operands feed address computation (those
slices run on the address unit) and which carry data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import OPCODE_CLASS, OpClass, Opcode

__all__ = ["Value", "Instruction"]


@dataclass(frozen=True, slots=True)
class Value:
    """An SSA value: the result of the instruction at ``index``."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"value index must be >= 0, got {self.index}")


@dataclass(frozen=True)
class Instruction:
    """One architectural instruction in a trace.

    Attributes:
        index: position in the trace; also the id of the produced value.
        opcode: architectural opcode.
        srcs: indices of producing instructions for true data
            dependencies (for stores, the stored value). Immediates and
            loop-invariant constants are not represented — they are
            always ready.
        addr_src: index of the instruction producing the effective
            address, for memory operations with a computed address;
            ``None`` for non-memory operations and for references whose
            address is a compile-time constant.
        addr: concrete effective address for memory operations; ``None``
            otherwise. Addresses are known at trace-generation time,
            which models the paper's perfect dependence analysis.
        mem_dep: index of the most recent store to ``addr`` that this
            memory operation must follow, or ``None``. This is how
            perfect memory disambiguation is encoded in the trace.
        tag: free-form annotation (kernel region name) for analysis.
    """

    index: int
    opcode: Opcode
    srcs: tuple[int, ...] = ()
    addr_src: int | None = None
    addr: int | None = None
    mem_dep: int | None = None
    tag: str = ""
    _op_class: OpClass = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_op_class", OPCODE_CLASS[self.opcode])

    @property
    def op_class(self) -> OpClass:
        return self._op_class

    @property
    def is_memory(self) -> bool:
        return self._op_class.is_memory

    @property
    def value(self) -> Value:
        """The SSA value this instruction produces."""
        return Value(self.index)

    def all_deps(self) -> tuple[int, ...]:
        """Every dependency: data, address and memory-ordering edges."""
        deps = self.srcs
        if self.addr_src is not None:
            deps = deps + (self.addr_src,)
        if self.mem_dep is not None:
            deps = deps + (self.mem_dep,)
        return deps

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"%{self.index} = {self.opcode.value}"]
        if self.srcs:
            parts.append(", ".join(f"%{s}" for s in self.srcs))
        if self.addr_src is not None:
            parts.append(f"addr=%{self.addr_src}")
        if self.addr is not None:
            parts.append(f"[@{self.addr}]")
        if self.mem_dep is not None:
            parts.append(f"(after %{self.mem_dep})")
        return " ".join(parts)
