"""Invariants the compiled columns rely on.

Two shortcuts in :mod:`repro.machines.lowered` are checked against the
slower derivations they replaced:

* :meth:`ColumnBuilder.finish` builds a compiled program's consumer
  lists (``cons``) in gid order, which must equal the stream-order walk
  (unit by unit, each unit in dispatch order) for every compile case
  pinned in ``tests/golden/lowered.json``;
* :meth:`LoweredProgram._find_steady` compares runs of gids column
  slice by column slice, which must find the same steady state as the
  per-gid interned signature search kept here as the reference, on
  synthetic periodic programs.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_lowered_golden import _program, case_id, cases

from repro.api.spec import Point
from repro.config import DEFAULT_LATENCIES
from repro.machines.lowered import (
    _MIN_STRIDE,
    ColumnBuilder,
    LoweredProgram,
    SteadyState,
)
from repro.machines.registry import get_machine
from repro.partition.machine_program import MEM_KINDS


def stream_order_consumers(low: LoweredProgram) -> tuple[tuple[int, ...], ...]:
    """Consumer lists walking ``stream_gids`` unit by unit."""
    consumers: list[list[int]] = [[] for _ in range(low.total)]
    src_off = low.src_off
    for stream in low.stream_gids:
        for gid in stream:
            for off in src_off[gid]:
                consumers[gid - off].append(gid)
    return tuple(map(tuple, consumers))


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_gid_order_consumers_are_stream_order(case):
    scale, name, target = case
    machine, _, partition = target.partition("/")
    point = Point(program=name, machine=machine,
                  partition=partition or "slice")
    low = get_machine(machine).compile(
        _program(scale, name), point, DEFAULT_LATENCIES
    ).lowered()
    assert low.cons == stream_order_consumers(low)


def reference_find_steady(low: LoweredProgram) -> SteadyState | None:
    """The steady-state search over interned per-gid signatures."""
    total = low.total
    if total < 512 or low.min_dep_offset < 1:
        return None
    intern: dict[tuple, int] = {}
    sig = [
        intern.setdefault(key, len(intern))
        for key in zip(low.unit_index, low.mode, low.lat, low.src_off)
    ]
    size = array("i").itemsize
    buf = array("i", sig).tobytes()
    start = total // 4
    for probe_len in (64, 256, 1024):
        if start + 2 * probe_len >= total:
            break
        probe = buf[size * start: size * (start + probe_len)]
        pos = buf.find(probe, size * (start + 1))
        while pos != -1 and pos % size:
            pos = buf.find(probe, pos + (size - pos % size))
        if pos == -1:
            continue
        period = pos // size - start
        if sig[start: total - period] != sig[start + period: total]:
            continue
        while start > 0 and sig[start - 1] == sig[start - 1 + period]:
            start -= 1
        repeats = max(1, -(-_MIN_STRIDE // period))
        stride = period * repeats
        if total - start < 3 * stride + low.dep_span + 64:
            return None
        counts = [0] * len(low.units)
        for gid in range(start, start + stride):
            counts[low.unit_index[gid]] += 1
        return SteadyState(
            start=start,
            period=stride,
            unit_counts=tuple(counts),
            dep_span=low.dep_span,
        )
    return None


#: One gid's structure: unit, kind code, latency, source offsets.
ROWS = st.tuples(
    st.integers(0, 1),
    st.integers(0, len(MEM_KINDS) - 1),
    st.integers(1, 3),
    st.lists(st.integers(1, 6), max_size=2).map(tuple),
)


@st.composite
def periodic_programs(draw) -> LoweredProgram:
    """A prologue, then a body repeated, then a second body repeated.

    Rows come from a small alphabet, so runs echo one another locally;
    a second body equal to the first makes the whole tail periodic, and
    a few point edits break periods anywhere. Bodies shorter than
    ``_MIN_STRIDE`` exercise the stride round-up.
    """
    alphabet = draw(st.lists(ROWS, min_size=1, max_size=4))
    pick = st.integers(0, len(alphabet) - 1)
    prologue = draw(st.lists(pick, max_size=200))
    body = draw(st.lists(pick, min_size=1, max_size=90))
    second = draw(st.one_of(st.just(body), st.lists(pick, min_size=1,
                                                    max_size=90)))
    first_len = draw(st.integers(0, 1500))
    total = draw(st.integers(512, 3000))
    stream = list(prologue)
    stream += (body * (first_len // len(body) + 1))[:first_len]
    stream += second * (-(-max(0, total - len(stream)) // len(second)))
    for gid, row in draw(st.lists(
        st.tuples(st.integers(0, len(stream) - 1), pick), max_size=3
    )):
        stream[gid] = row
    units = draw(st.sampled_from((1, 2)))
    builder = ColumnBuilder(range(units))
    for gid, row in enumerate(stream):
        unit, kind, lat, offsets = alphabet[row]
        builder.unit.append(unit % units)
        builder.kind.append(kind)
        builder.lat.append(lat)
        builder.srcs.append(
            tuple(gid - off for off in offsets if off <= gid)
        )
        builder.addr.append(0)
        builder.orig.append(gid)
    return builder.finish()[0]


@settings(max_examples=300, deadline=None)
@given(low=periodic_programs())
def test_slice_search_matches_interned_search(low):
    assert low._find_steady() == reference_find_steady(low)


def one_unit(lats: list[int]) -> LoweredProgram:
    """A one-unit chain of latency instructions, each reading the last."""
    builder = ColumnBuilder(("u",))
    for gid, lat in enumerate(lats):
        builder.unit.append(0)
        builder.kind.append(0)
        builder.lat.append(lat)
        builder.srcs.append((gid - 1,) if gid else ())
        builder.addr.append(0)
        builder.orig.append(gid)
    return builder.finish()[0]


@pytest.mark.parametrize(
    "prologue, body, start, period",
    [
        # The period extends back to the prologue's last gid that
        # matches; short bodies round the stride up to _MIN_STRIDE.
        ([9] * 40, [1, 2, 3], 40, 48),
        ([9] * 40, list(range(1, 61)), 40, 60),
        # One repeated latency is periodic from gid 1: gid 0 reads
        # nothing.
        ([], [5], 1, 48),
    ],
)
def test_known_periods(prologue, body, start, period):
    low = one_unit((prologue + body * 2000)[:2000])
    steady = low._find_steady()
    assert steady == reference_find_steady(low)
    assert (steady.start, steady.period) == (start, period)
    assert steady.unit_counts == (period,)


def test_local_echo_is_not_a_period():
    # Each probe at total // 4 recurs one body later, but the program
    # changes body, so no period covers the rest of it.
    low = one_unit(list(range(1, 101)) * 6 + [7, 8, 9] * 100)
    assert low._find_steady() is None
    assert reference_find_steady(low) is None
