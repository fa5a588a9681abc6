"""The content digest and the fused critical-path walk against their
one-row-at-a-time definitions.

``Program.digest()`` writes its hashed text straight from the columns in
bounded chunks; :func:`digest_by_rows` below is the original per-row
spelling, kept verbatim as the oracle. Corpus manifests, the lowering
cache and the golden fixtures all key on that spelling, so the two must
agree on every program, however odd its tags.

``Program._critical_paths`` walks the columns once for two memory
differentials; :func:`critical_path_by_walk` is the original
single-differential walk, kept verbatim as its oracle.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instruction, Opcode, Program
from repro.config import DEFAULT_LATENCIES, DEFAULT_MEMORY_DIFFERENTIAL
from repro.experiments.scales import PRESETS
from repro.ir.types import OPCODES, class_latencies
from repro.kernels import build_kernel, list_kernels

_OPCODE_VALUES = tuple(opcode.value for opcode in OPCODES)


def digest_by_rows(program: Program) -> str:
    """The digest as one ``hasher.update(repr(row))`` per instruction."""
    hasher = hashlib.sha256()
    hasher.update(program.name.encode("utf-8"))
    cols = program.columns
    # One repr row per instruction, spelled as the Instruction
    # fields (None where a column holds -1).
    for index, (code, srcs, addr_src, addr, mem_dep, tag) in enumerate(
        zip(cols.opcode, cols.srcs, cols.addr_src, cols.addr,
            cols.mem_dep, cols.tags)
    ):
        row = (
            index, _OPCODE_VALUES[code], srcs,
            None if addr_src < 0 else addr_src,
            None if addr < 0 else addr,
            None if mem_dep < 0 else mem_dep,
            tag,
        )
        hasher.update(repr(row).encode("utf-8"))
    return hasher.hexdigest()


def critical_path_by_walk(program: Program, memory_differential: int) -> int:
    """The dataflow critical path from one walk per differential."""
    cols = program.columns
    cost = class_latencies(DEFAULT_LATENCIES, memory_differential)
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


#: Tag text that stresses ``repr``: quotes of both kinds, backslashes,
#: control characters, non-ASCII letters, an astral-plane symbol, a
#: zero-width space and a lone surrogate.
_AWKWARD = "ab'\"\\\n\t\r\x00\u00e9\u20ac\u00df\u65e5\U0001f642\u200b\ud800"
tags = st.one_of(
    st.text(alphabet=st.sampled_from(_AWKWARD), max_size=12),
    st.text(max_size=12),
)


@st.composite
def hand_built_programs(draw) -> Program:
    """Well-ordered hand-built traces: every edge points backwards, memory
    operations carry a non-negative address, mem_dep names a store."""
    size = draw(st.integers(0, 60))
    instructions, stores = [], []
    for index in range(size):
        opcode = draw(st.sampled_from(OPCODES))
        earlier = st.integers(0, index - 1) if index else st.nothing()
        srcs = tuple(draw(st.lists(earlier, max_size=5))) if index else ()
        memory = opcode in (Opcode.LOAD, Opcode.STORE)
        instructions.append(Instruction(
            index=index,
            opcode=opcode,
            srcs=srcs,
            addr_src=draw(st.none() | earlier) if memory and index else None,
            addr=draw(st.integers(0, 1 << 62)) if memory else None,
            mem_dep=(draw(st.none() | st.sampled_from(stores))
                     if memory and stores else None),
            tag=draw(tags),
        ))
        if opcode is Opcode.STORE:
            stores.append(index)
    return Program(draw(st.text(max_size=10)), instructions)


@settings(max_examples=200, deadline=None)
@given(program=hand_built_programs())
def test_digest_matches_per_row_spelling(program):
    assert program.digest() == digest_by_rows(program)


@settings(max_examples=100, deadline=None)
@given(program=hand_built_programs(),
       md_a=st.integers(0, 200), md_b=st.integers(0, 200))
def test_fused_critical_paths_match_single_walks(program, md_a, md_b):
    expected = (critical_path_by_walk(program, md_a),
                critical_path_by_walk(program, md_b))
    assert program._critical_paths(md_a, md_b) == expected
    assert (program.critical_path(md_a), program.critical_path(md_b)) == (
        expected
    )


@pytest.mark.parametrize("name", list_kernels())
def test_fused_critical_paths_on_paper_kernels(name):
    program = build_kernel(name, PRESETS["tiny"].scale)
    md = DEFAULT_MEMORY_DIFFERENTIAL
    expected = (critical_path_by_walk(program, 0),
                critical_path_by_walk(program, md))
    assert program._critical_paths(0, md) == expected
    assert (program.critical_path(0), program.critical_path(md)) == expected


def test_digest_matches_per_row_spelling_on_a_paper_kernel():
    program = build_kernel("track", PRESETS["tiny"].scale)
    assert program.digest() == digest_by_rows(program)


def test_digest_memory_is_bounded():
    """The digest hashes in chunks: it never holds the whole trace's
    text (flo52q at paper scale has 40,090 rows, ~2 MB of it)."""
    built = build_kernel("flo52q", PRESETS["paper"].scale)
    assert len(built) == 40_090
    program = Program(built.name, built.columns)  # no memoised digest
    tracemalloc.start()
    try:
        program.digest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"digest peaked at {peak} bytes"
