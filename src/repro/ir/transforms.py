"""IR-to-IR transforms.

Currently one transform: *code expansion*, modelling the instruction
overhead of the software techniques the paper assumes (aggressive loop
unrolling and software pipelining add bookkeeping instructions). The
paper's future-work section proposes studying how code expansion
affects the two machines; the expansion transform plus the ablation
benchmark implement that study.
"""

from __future__ import annotations

from ..errors import IRValidationError
from .program import Program, TraceColumns
from .types import OPCODE_INDEX, Opcode

__all__ = ["expand_code"]

_IADD = OPCODE_INDEX[Opcode.IADD.value]


def expand_code(
    program: Program, fraction: float, chain: bool = True
) -> Program:
    """Insert bookkeeping integer instructions, evenly spread.

    Args:
        program: source trace.
        fraction: overhead as a fraction of the original instruction
            count (0.25 inserts one bookkeeping op per four original
            instructions).
        chain: if true, each inserted op depends on the previously
            inserted one (an unrolled induction/bookkeeping chain);
            otherwise inserted ops are fully independent.

    Returns:
        A new program named ``<name>+exp<percent>`` with all original
        dependencies re-indexed around the insertions.
    """
    if not 0.0 <= fraction <= 4.0:
        raise IRValidationError(
            f"expansion fraction must be in [0, 4], got {fraction}"
        )
    if fraction == 0.0:
        return program

    total_inserted = round(len(program) * fraction)
    if total_inserted == 0:
        return program

    # Positions (in original-index space) after which to insert.
    step = len(program) / total_inserted
    insert_after = [min(len(program) - 1, int((k + 1) * step) - 1)
                    for k in range(total_inserted)]

    cols = program.columns
    opcode = bytearray()
    srcs: list[tuple[int, ...]] = []
    addr_src: list[int] = []
    addr: list[int] = []
    mem_dep: list[int] = []
    tags: list[str] = []
    index_map: dict[int, int] = {}
    previous_inserted: int | None = None
    insertion_cursor = 0

    for index, (code, deps, a_src, address, m_dep, tag) in enumerate(zip(
        cols.opcode, cols.srcs, cols.addr_src, cols.addr, cols.mem_dep,
        cols.tags,
    )):
        index_map[index] = len(opcode)
        opcode.append(code)
        srcs.append(tuple(index_map[v] for v in deps))
        addr_src.append(-1 if a_src < 0 else index_map[a_src])
        addr.append(address)
        mem_dep.append(-1 if m_dep < 0 else index_map[m_dep])
        tags.append(tag)
        while (
            insertion_cursor < total_inserted
            and insert_after[insertion_cursor] == index
        ):
            overhead_index = len(opcode)
            opcode.append(_IADD)
            srcs.append(
                (previous_inserted,)
                if chain and previous_inserted is not None else ()
            )
            addr_src.append(-1)
            addr.append(-1)
            mem_dep.append(-1)
            tags.append("expansion")
            previous_inserted = overhead_index
            insertion_cursor += 1

    expanded = Program(
        f"{program.name}+exp{round(fraction * 100)}",
        TraceColumns(opcode, srcs, addr_src, addr, mem_dep, tags),
        meta={**program.meta, "expansion_fraction": fraction},
    )
    expanded.validate()
    return expanded
