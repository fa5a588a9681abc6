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

# Opcode codes, resolved once: an enum attribute lookup per emitted
# instruction is slow on Python 3.11.
(_IADD, _ISUB, _IMUL, _IAND, _SHIFT, _CMP, _SELECT, _CVT_F2I, _CVT_I2F,
 _FADD, _FSUB, _FMUL, _FMA, _FDIV, _FSQRT, _FNEG, _FMAX, _LOAD, _STORE) = (
    OPCODE_INDEX[name] for name in (
        "iadd", "isub", "imul", "iand", "shift", "cmp", "select", "cvt.f2i",
        "cvt.i2f", "fadd", "fsub", "fmul", "fma", "fdiv", "fsqrt", "fneg",
        "fmax", "load", "store",
    )
)

# Emitted values are made without the frozen dataclass's __init__ and
# __post_init__ round trip; an emitted index is never negative.
_new = object.__new__
_set_index = Value.__dict__["index"].__set__


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

    # -- emission --------------------------------------------------------------

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
        return self._push(
            OPCODE_INDEX[opcode._value_], srcs, addr_src,
            -1 if addr is None else addr,
            -1 if mem_dep is None else mem_dep,
            tag,
        )

    def _push(
        self,
        code: int,
        srcs: tuple[Value, ...],
        addr_src: Value | None,
        addr: int,
        mem_dep: int,
        tag: str,
    ) -> Value:
        """Append one row of columns: the path every emission takes.

        ``code`` is the opcode code; ``addr`` and ``mem_dep`` are column
        entries (``-1`` for none). Operands must be already-emitted
        :class:`Value` objects.
        """
        index = len(self._tags)
        row = ()
        for src in srcs:
            if isinstance(src, Value) and src.index < index:
                row += (src.index,)
            else:
                self._reject(src, index)
        if addr_src is None:
            a_src = -1
        elif isinstance(addr_src, Value) and addr_src.index < index:
            a_src = addr_src.index
        else:
            self._reject(addr_src, index)
        self._opcode.append(code)
        self._srcs.append(row)
        self._addr_src.append(a_src)
        self._addr.append(addr)
        self._mem_dep.append(mem_dep)
        self._tags.append(tag)
        value = _new(Value)
        _set_index(value, index)
        return value

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
        """Emit any arithmetic opcode (the typed helpers below cover all
        but ``ior``)."""
        if opcode is Opcode.LOAD or opcode is Opcode.STORE:
            raise BuilderError(f"{opcode.value} is not an arithmetic opcode")
        return self._push(OPCODE_INDEX[opcode._value_], srcs, None, -1, -1, tag)

    def iadd(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_IADD, srcs, None, -1, -1, tag)

    def isub(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_ISUB, srcs, None, -1, -1, tag)

    def imul(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_IMUL, srcs, None, -1, -1, tag)

    def iand(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_IAND, srcs, None, -1, -1, tag)

    def shift(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_SHIFT, srcs, None, -1, -1, tag)

    def cmp(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_CMP, srcs, None, -1, -1, tag)

    def select(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_SELECT, srcs, None, -1, -1, tag)

    def cvt_f2i(self, src: Value, tag: str = "") -> Value:
        """Float-to-int conversion: the bridge from data to address domain."""
        return self._push(_CVT_F2I, (src,), None, -1, -1, tag)

    def cvt_i2f(self, src: Value, tag: str = "") -> Value:
        return self._push(_CVT_I2F, (src,), None, -1, -1, tag)

    def fadd(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_FADD, srcs, None, -1, -1, tag)

    def fsub(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_FSUB, srcs, None, -1, -1, tag)

    def fmul(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_FMUL, srcs, None, -1, -1, tag)

    def fma(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_FMA, srcs, None, -1, -1, tag)

    def fdiv(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_FDIV, srcs, None, -1, -1, tag)

    def fsqrt(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_FSQRT, srcs, None, -1, -1, tag)

    def fneg(self, src: Value, tag: str = "") -> Value:
        return self._push(_FNEG, (src,), None, -1, -1, tag)

    def fmax(self, *srcs: Value, tag: str = "") -> Value:
        return self._push(_FMAX, srcs, None, -1, -1, tag)

    # -- induction and addressing ------------------------------------------------

    def induction(self, prev: Value | None, tag: str = "loop") -> Value:
        """Advance a loop induction variable (one integer add).

        Pass ``None`` on the first iteration (the initial value is an
        immediate); pass the previous returned value afterwards, which
        creates the one-cycle-per-iteration induction chain real
        unrolled code carries.
        """
        return self._push(
            _IADD, () if prev is None else (prev,), None, -1, -1, tag
        )

    def address(
        self, array: ArrayHandle, index: int, *deps: Value, tag: str = ""
    ) -> Value:
        """Compute the address of ``array[index]`` (one integer add).

        ``deps`` are the values the address arithmetic consumes — the
        induction variable for affine references, a loaded index for
        indirect references, a converted data value for data-dependent
        references.
        """
        return self._address(array, index, deps, tag)[0]

    def _address(
        self, array: ArrayHandle, index: int, deps: tuple[Value, ...], tag: str
    ) -> tuple[Value, int]:
        """Emit the address add of ``array[index]``; returns it and the
        concrete address it carries."""
        addr = array.element(index)
        value = self._push(
            _IADD, deps, None, -1, -1, tag or f"addr:{array.name}"
        )
        self._addr_of[value.index] = addr
        return value, addr

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
        return self._load(addr_value, self.concrete_address(addr_value), tag)

    def store_at(self, addr_value: Value, data: Value | None, tag: str = "") -> None:
        """Store ``data`` through a previously computed address value.

        ``data`` may be ``None`` for stores of immediates.
        """
        self._store(addr_value, self.concrete_address(addr_value), data, tag)

    def load(
        self, array: ArrayHandle, index: int, *addr_deps: Value, tag: str = ""
    ) -> Value:
        """Address computation plus load of ``array[index]``."""
        addr_value, addr = self._address(array, index, addr_deps, tag)
        return self._load(addr_value, addr, tag)

    def store(
        self,
        array: ArrayHandle,
        index: int,
        data: Value | None,
        *addr_deps: Value,
        tag: str = "",
    ) -> None:
        """Address computation plus store to ``array[index]``."""
        addr_value, addr = self._address(array, index, addr_deps, tag)
        self._store(addr_value, addr, data, tag)

    def _load(self, addr_value: Value, addr: int, tag: str) -> Value:
        """Emit a load of ``addr``, ordered after the last store to it."""
        return self._push(
            _LOAD, (), addr_value, addr, self._last_store.get(addr, -1), tag
        )

    def _store(
        self, addr_value: Value, addr: int, data: Value | None, tag: str
    ) -> None:
        """Emit a store to ``addr``; later loads of it are ordered after."""
        value = self._push(
            _STORE, () if data is None else (data,), addr_value, addr, -1, tag
        )
        self._last_store[addr] = value.index

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
