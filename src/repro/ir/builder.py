"""The kernel-builder DSL: a small emission API for instruction traces.

Kernels are written as ordinary Python functions that drive a
:class:`KernelBuilder`. Loops are unrolled at build time — the paper
assumes loop-closing branches have been removed by unrolling and
branch prediction, so the trace contains no control flow. Values flow
through Python variables, which gives perfect renaming for free.

Example::

    b = KernelBuilder("daxpy")
    x = b.array("x", n)
    y = b.array("y", n)
    i = None
    for k in range(n):
        i = b.induction(i)
        xv = b.load(x, k, i)
        yv = b.load(y, k, i)
        b.store(y, k, b.fma(xv, yv), i)
    program = b.build()

Every array reference costs one integer address instruction (the
address add) plus the memory operation itself, which is the access
workload the paper's address unit executes.

The builder appends each instruction as one row of integer columns
(:class:`~repro.ir.program.TraceColumns`) and :meth:`KernelBuilder.build`
freezes those columns into the :class:`~repro.ir.Program`; no
per-instruction :class:`~repro.ir.Instruction` object is created on the
way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import BuilderError
from .instruction import Value
from .program import Program, TraceColumns
from .types import OPCODE_INDEX, Opcode

__all__ = ["ArrayHandle", "KernelBuilder"]

#: Arrays are laid out on aligned slabs so addresses never collide.
_ARRAY_ALIGNMENT = 1 << 20

# Enum class attribute lookups are slow on Python 3.11; the hot paths
# use these module constants instead.
_IADD, _LOAD, _STORE = Opcode.IADD, Opcode.LOAD, Opcode.STORE


@dataclass(frozen=True)
class ArrayHandle:
    """A named array with a fixed base address in the flat address space."""

    name: str
    base: int
    length: int

    def element(self, index: int) -> int:
        """Concrete address of ``self[index]`` (bounds-checked)."""
        if not 0 <= index < self.length:
            raise BuilderError(
                f"index {index} out of bounds for array {self.name!r} "
                f"of length {self.length}"
            )
        return self.base + index


class KernelBuilder:
    """Builds an architectural :class:`~repro.ir.program.Program`.

    Args:
        name: workload name recorded on the resulting program.
        seed: seed for the builder's private RNG (used by kernels for
            synthetic index arrays and workload shuffles), recorded in
            the program metadata so traces are reproducible.
    """

    def __init__(self, name: str, seed: int = 0) -> None:
        self.name = name
        self.seed = seed
        self.rng = random.Random(seed)
        # One list per trace column; see TraceColumns.
        self._opcode = bytearray()
        self._srcs: list[tuple[int, ...]] = []
        self._addr_src: list[int] = []
        self._addr: list[int] = []
        self._mem_dep: list[int] = []
        self._tags: list[str] = []
        self._arrays: dict[str, ArrayHandle] = {}
        self._addr_of: dict[int, int] = {}
        self._last_store: dict[int, int] = {}
        self._next_base = _ARRAY_ALIGNMENT
        self._meta: dict[str, object] = {}

    # -- arrays --------------------------------------------------------------

    def array(self, name: str, length: int) -> ArrayHandle:
        """Declare an array; each array lives on its own address slab."""
        if length < 1:
            raise BuilderError(f"array {name!r} must have positive length")
        if name in self._arrays:
            raise BuilderError(f"array {name!r} already declared")
        slabs = (length + _ARRAY_ALIGNMENT - 1) // _ARRAY_ALIGNMENT
        handle = ArrayHandle(name=name, base=self._next_base, length=length)
        self._next_base += slabs * _ARRAY_ALIGNMENT
        self._arrays[name] = handle
        return handle

    # -- raw emission ----------------------------------------------------------

    def emit(
        self,
        opcode: Opcode,
        srcs: tuple[Value, ...] = (),
        addr_src: Value | None = None,
        addr: int | None = None,
        mem_dep: int | None = None,
        tag: str = "",
    ) -> Value:
        """Append one instruction; returns the value it produces."""
        index = len(self._tags)
        for src in srcs:
            if not isinstance(src, Value) or src.index >= index:
                self._reject(src, index)
        if addr_src is not None and (
            not isinstance(addr_src, Value) or addr_src.index >= index
        ):
            self._reject(addr_src, index)
        self._opcode.append(OPCODE_INDEX[opcode._value_])
        self._srcs.append(tuple([src.index for src in srcs]) if srcs else ())
        self._addr_src.append(-1 if addr_src is None else addr_src.index)
        self._addr.append(-1 if addr is None else addr)
        self._mem_dep.append(-1 if mem_dep is None else mem_dep)
        self._tags.append(tag)
        return Value(index)

    @staticmethod
    def _reject(value: object, emitted: int) -> None:
        """Raise the :class:`BuilderError` for an unusable operand."""
        if not isinstance(value, Value):
            raise BuilderError(f"expected a Value, got {value!r}")
        raise BuilderError(
            f"value %{value.index} does not exist yet "
            f"({emitted} instructions emitted)"
        )

    # -- arithmetic ------------------------------------------------------------

    def _arith(self, opcode: Opcode, srcs: tuple[Value, ...], tag: str) -> Value:
        if opcode is _LOAD or opcode is _STORE:
            raise BuilderError(f"{opcode.value} is not an arithmetic opcode")
        return self.emit(opcode, srcs=srcs, tag=tag)

    def iadd(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.IADD, srcs, tag)

    def isub(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.ISUB, srcs, tag)

    def imul(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.IMUL, srcs, tag)

    def iand(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.IAND, srcs, tag)

    def shift(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.SHIFT, srcs, tag)

    def cmp(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.CMP, srcs, tag)

    def select(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.SELECT, srcs, tag)

    def cvt_f2i(self, src: Value, tag: str = "") -> Value:
        """Float-to-int conversion: the bridge from data to address domain."""
        return self._arith(Opcode.CVT_F2I, (src,), tag)

    def cvt_i2f(self, src: Value, tag: str = "") -> Value:
        return self._arith(Opcode.CVT_I2F, (src,), tag)

    def fadd(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.FADD, srcs, tag)

    def fsub(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.FSUB, srcs, tag)

    def fmul(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.FMUL, srcs, tag)

    def fma(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.FMA, srcs, tag)

    def fdiv(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.FDIV, srcs, tag)

    def fsqrt(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.FSQRT, srcs, tag)

    def fneg(self, src: Value, tag: str = "") -> Value:
        return self._arith(Opcode.FNEG, (src,), tag)

    def fmax(self, *srcs: Value, tag: str = "") -> Value:
        return self._arith(Opcode.FMAX, srcs, tag)

    # -- induction and addressing ------------------------------------------------

    def induction(self, prev: Value | None, tag: str = "loop") -> Value:
        """Advance a loop induction variable (one integer add).

        Pass ``None`` on the first iteration (the initial value is an
        immediate); pass the previous returned value afterwards, which
        creates the one-cycle-per-iteration induction chain real
        unrolled code carries.
        """
        srcs = () if prev is None else (prev,)
        return self.iadd(*srcs, tag=tag)

    def address(
        self, array: ArrayHandle, index: int, *deps: Value, tag: str = ""
    ) -> Value:
        """Compute the address of ``array[index]`` (one integer add).

        ``deps`` are the values the address arithmetic consumes — the
        induction variable for affine references, a loaded index for
        indirect references, a converted data value for data-dependent
        references.
        """
        element = array.element(index)
        value = self.emit(_IADD, deps, tag=tag or f"addr:{array.name}")
        self._addr_of[value.index] = element
        return value

    def concrete_address(self, value: Value) -> int:
        """The concrete address carried by an address value."""
        try:
            return self._addr_of[value.index]
        except KeyError:
            raise BuilderError(
                f"value %{value.index} is not an address value"
            ) from None

    # -- memory ---------------------------------------------------------------

    def load_at(self, addr_value: Value, tag: str = "") -> Value:
        """Load through a previously computed address value."""
        addr = self.concrete_address(addr_value)
        return self.emit(
            _LOAD,
            addr_src=addr_value,
            addr=addr,
            mem_dep=self._last_store.get(addr),
            tag=tag,
        )

    def store_at(self, addr_value: Value, data: Value | None, tag: str = "") -> None:
        """Store ``data`` through a previously computed address value.

        ``data`` may be ``None`` for stores of immediates.
        """
        addr = self.concrete_address(addr_value)
        value = self.emit(
            _STORE,
            srcs=() if data is None else (data,),
            addr_src=addr_value,
            addr=addr,
            tag=tag,
        )
        self._last_store[addr] = value.index

    def load(
        self, array: ArrayHandle, index: int, *addr_deps: Value, tag: str = ""
    ) -> Value:
        """Address computation plus load of ``array[index]``."""
        addr_value = self.address(array, index, *addr_deps, tag=tag)
        return self.load_at(addr_value, tag=tag)

    def store(
        self,
        array: ArrayHandle,
        index: int,
        data: Value | None,
        *addr_deps: Value,
        tag: str = "",
    ) -> None:
        """Address computation plus store to ``array[index]``."""
        addr_value = self.address(array, index, *addr_deps, tag=tag)
        self.store_at(addr_value, data, tag=tag)

    # -- reductions ------------------------------------------------------------

    def fsum_chain(self, acc: Value | None, values: list[Value], tag: str = "") -> Value:
        """Serial floating-point accumulation (what 1990s compilers emit).

        The serial chain is a deliberate ILP limiter: each add waits for
        the previous one.
        """
        if acc is None and not values:
            raise BuilderError("fsum_chain needs an accumulator or values")
        for value in values:
            acc = self.fadd(acc, value, tag=tag) if acc is not None else value
        assert acc is not None
        return acc

    def fsum_tree(self, values: list[Value], tag: str = "") -> Value:
        """Balanced floating-point reduction tree (log depth)."""
        if not values:
            raise BuilderError("fsum_tree needs at least one value")
        level = list(values)
        while len(level) > 1:
            nxt = [
                self.fadd(level[k], level[k + 1], tag=tag)
                for k in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    # -- finishing --------------------------------------------------------------

    def set_meta(self, **meta: object) -> None:
        """Attach generator parameters to the resulting program."""
        self._meta.update(meta)

    def __len__(self) -> int:
        return len(self._tags)

    def build(self, validate: bool = True) -> Program:
        """Freeze the trace into a :class:`Program`.

        The program gets frozen copies of the columns, so emitting after
        ``build()`` leaves it unchanged.
        """
        meta = {"seed": self.seed, **self._meta}
        columns = TraceColumns(
            self._opcode, self._srcs, self._addr_src, self._addr,
            self._mem_dep, self._tags,
        )
        program = Program(self.name, columns, meta=meta)
        if validate:
            program.validate()
        return program
