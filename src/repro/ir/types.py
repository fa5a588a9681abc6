"""Core IR enumerations: operation classes and opcodes.

The architectural IR describes a program trace *before* it is mapped to
either machine: integer/address arithmetic, floating-point arithmetic,
loads and stores. Machine-level operation kinds (load-issue, receive,
prefetch, access, copies between register files) appear only after
partitioning/lowering and live in :mod:`repro.partition.machine_program`.
"""

from __future__ import annotations

import enum

from ..config import LatencyModel
from ..errors import IRValidationError

__all__ = [
    "OpClass",
    "Opcode",
    "OPCODES",
    "OPCODE_INDEX",
    "OPCODE_CLASS",
    "OPCODE_CODES",
    "OP_OF_OPCODE",
    "LAT_OF_OPCODE",
    "class_latencies",
    "opcode_latency",
]


class OpClass(enum.Enum):
    """Architectural operation classes."""

    INT = "int"
    FP = "fp"
    LOAD = "load"
    STORE = "store"

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)


class Opcode(enum.Enum):
    """Architectural opcodes.

    Opcodes exist mainly for trace readability and latency selection;
    the simulators schedule on :class:`OpClass` plus latency.
    """

    # Integer / address arithmetic (1 cycle).
    IADD = "iadd"
    ISUB = "isub"
    IMUL = "imul"
    IAND = "iand"
    IOR = "ior"
    SHIFT = "shift"
    CMP = "cmp"
    SELECT = "select"
    CVT_F2I = "cvt.f2i"

    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FMA = "fma"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FNEG = "fneg"
    FMAX = "fmax"
    CVT_I2F = "cvt.i2f"

    # Memory.
    LOAD = "load"
    STORE = "store"


OPCODE_CLASS: dict[Opcode, OpClass] = {
    Opcode.IADD: OpClass.INT,
    Opcode.ISUB: OpClass.INT,
    Opcode.IMUL: OpClass.INT,
    Opcode.IAND: OpClass.INT,
    Opcode.IOR: OpClass.INT,
    Opcode.SHIFT: OpClass.INT,
    Opcode.CMP: OpClass.INT,
    Opcode.SELECT: OpClass.INT,
    Opcode.CVT_F2I: OpClass.INT,
    Opcode.FADD: OpClass.FP,
    Opcode.FSUB: OpClass.FP,
    Opcode.FMUL: OpClass.FP,
    Opcode.FMA: OpClass.FP,
    Opcode.FDIV: OpClass.FP,
    Opcode.FSQRT: OpClass.FP,
    Opcode.FNEG: OpClass.FP,
    Opcode.FMAX: OpClass.FP,
    Opcode.CVT_I2F: OpClass.FP,
    Opcode.LOAD: OpClass.LOAD,
    Opcode.STORE: OpClass.STORE,
}

_LONG_FP = frozenset({Opcode.FDIV, Opcode.FSQRT})

# Integer codes of the trace columns (:attr:`repro.ir.Program.columns`).
#: Op-class codes, in :class:`OpClass` order.
OP_INT, OP_FP, OP_LOAD, OP_STORE = range(4)
#: Latency-class codes: which latency-model field an opcode costs
#: (the index into :func:`class_latencies`).
LAT_INT, LAT_FP, LAT_FP_LONG, LAT_LOAD, LAT_STORE = range(5)

_OP_CODE = {OpClass.INT: OP_INT, OpClass.FP: OP_FP,
            OpClass.LOAD: OP_LOAD, OpClass.STORE: OP_STORE}
_LAT_CODE = {OpClass.INT: LAT_INT, OpClass.FP: LAT_FP,
             OpClass.LOAD: LAT_LOAD, OpClass.STORE: LAT_STORE}

#: Opcode -> (op-class code, latency-class code).
OPCODE_CODES: dict[Opcode, tuple[int, int]] = {
    opcode: (
        _OP_CODE[cls],
        LAT_FP_LONG if opcode in _LONG_FP else _LAT_CODE[cls],
    )
    for opcode, cls in OPCODE_CLASS.items()
}

#: Every opcode, in declaration order; the ``opcode`` trace column holds
#: each instruction's index into this tuple.
OPCODES: tuple[Opcode, ...] = tuple(Opcode)
#: Opcode value -> opcode code. Keyed by the value string because a
#: ``str`` hashes in C where an ``Enum`` member hashes in Python.
OPCODE_INDEX: dict[str, int] = {
    opcode.value: code for code, opcode in enumerate(OPCODES)
}
#: :meth:`bytes.translate` tables from an ``opcode`` column to its
#: op-class and latency-class columns.
OP_OF_OPCODE = bytes(OPCODE_CODES[o][0] for o in OPCODES).ljust(256, b"\0")
LAT_OF_OPCODE = bytes(OPCODE_CODES[o][1] for o in OPCODES).ljust(256, b"\0")


def class_latencies(
    latencies: LatencyModel, memory_differential: int = 0
) -> tuple[int, ...]:
    """Cycles per latency class, indexed by the ``LAT_*`` codes.

    The memory classes carry the serial reference's costs: a load takes
    ``mem_base + memory_differential``, a store ``latencies.store``.
    """
    return (
        latencies.int_op,
        latencies.fp_op,
        latencies.fp_div,
        latencies.mem_base + memory_differential,
        latencies.store,
    )


def opcode_latency(opcode: Opcode, latencies: LatencyModel) -> int:
    """Execution latency of an architectural opcode.

    Memory opcodes have no single architectural latency (it depends on
    the machine and the memory differential), so asking for one is an
    error; the machine models compute memory timing themselves.
    """
    op_code, lat_class = OPCODE_CODES[opcode]
    if op_code >= OP_LOAD:
        raise IRValidationError(
            f"opcode {opcode.value!r} is a memory operation; its latency is "
            "machine-dependent"
        )
    return class_latencies(latencies)[lat_class]
