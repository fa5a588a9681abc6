"""Decoupling analysis: how well does a program split into AU/DU streams?

This mirrors the authors' companion "limitation study into access
decoupling": the degree to which the AU can slip ahead of the DU is
bounded by *loss-of-decoupling* (LOD) events — points where address
computation depends on data computation, forcing the AU to wait.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from ..ir import Program
from ..ir.types import OP_FP, OP_INT, OP_LOAD
from .static_partition import AddressSlice, compute_address_slice

__all__ = ["DecouplingReport", "analyze_decoupling"]


@dataclass(frozen=True)
class DecouplingReport:
    """Static decoupling characteristics of a program.

    Attributes:
        name: program name.
        total: architectural instruction count.
        au_instructions: instructions the AU will execute (address-slice
            integer ops plus loads and the address half of stores).
        du_instructions: instructions the DU will execute.
        self_loads: loads whose values re-enter address computation.
        lod_events: values that cross DU -> AU (addresses depending on
            data computation) — each forces the AU to wait for the DU.
        lod_rate: LOD events per thousand architectural instructions.
    """

    name: str
    total: int
    au_instructions: int
    du_instructions: int
    self_loads: int
    lod_events: int

    @property
    def au_fraction(self) -> float:
        return self.au_instructions / self.total if self.total else 0.0

    @property
    def lod_rate(self) -> float:
        return 1000.0 * self.lod_events / self.total if self.total else 0.0

    @property
    def decouples_well(self) -> bool:
        """Heuristic: fewer than one LOD event per thousand instructions."""
        return self.lod_rate < 1.0


def analyze_decoupling(
    program: Program, address_slice: AddressSlice | None = None
) -> DecouplingReport:
    """Compute the static decoupling report for a program."""
    if address_slice is None:
        address_slice = compute_address_slice(program)

    cols = program.columns
    op, all_srcs = cols.op, cols.srcs
    au_mask, self_mask = address_slice.masks(len(op))
    # Loads and the address half of stores run on the AU; the data half
    # of a store is charged to the DU.
    au = len(op) - op.count(OP_INT) - op.count(OP_FP)
    lod_sources: set[int] = set()
    for index in compress(range(len(op)), au_mask):
        if op[index] != OP_INT:
            continue
        au += 1
        # An AU integer op reading a DU-resident value is a DU -> AU
        # crossing: FP producers and non-slice INT producers live on
        # the DU.
        for src in all_srcs[index]:
            if op[src] == OP_FP or (op[src] == OP_INT and not au_mask[src]):
                lod_sources.add(src)
    for op_code, addr_src in zip(op, cols.addr_src):
        if op_code == OP_LOAD and addr_src >= 0 and op[addr_src] == OP_FP:
            lod_sources.add(addr_src)

    return DecouplingReport(
        name=program.name,
        total=len(program),
        au_instructions=au,
        du_instructions=len(program) - au,
        self_loads=self_mask.count(1),
        lod_events=len(lod_sources),
    )
