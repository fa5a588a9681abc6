"""The compact lowered columns and their public tuple views.

:class:`~repro.machines.lowered.LoweredProgram` stores its cold columns
as ``bytes``, ``array('i')`` and CSR source offsets, and rebuilds the
public ``src_off``, ``mode``, ``lat``, ``orig_index``, ``pair``,
``unit_index`` and ``n_srcs`` tuples on access. Each view must equal a
per-gid derivation from the :class:`ColumnBuilder` columns it was
built from, survive a pickle round-trip, and the compact form must
keep a compiled program's retained memory down.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest

from test_engine_differential import hand_built_program

from repro.api.spec import Point
from repro.config import DEFAULT_LATENCIES
from repro.experiments.scales import PRESETS
from repro.kernels import build_kernel, list_kernels
from repro.machines.lowered import (
    CONSUMER_KINDS,
    KIND_MODE,
    ColumnBuilder,
    lower_program,
)
from repro.machines.registry import get_machine
from repro.partition.machine_program import MEM_KINDS

TINY = PRESETS["tiny"].scale

VIEWS = (
    "src_off", "mode", "lat", "orig_index", "pair", "unit_index", "n_srcs",
)


def derived_views(rows) -> dict[str, tuple]:
    """Every view, derived row by row from the builder's columns."""
    out: dict[str, list] = {name: [] for name in VIEWS}
    for gid, (ui, kind_code, lat, srcs, _addr, orig) in enumerate(rows):
        kind = MEM_KINDS[kind_code]
        out["src_off"].append(tuple(gid - src for src in srcs))
        out["mode"].append(KIND_MODE[kind])
        out["lat"].append(lat)
        out["orig_index"].append(orig)
        out["pair"].append(
            srcs[0] if kind in CONSUMER_KINDS and srcs else -1
        )
        out["unit_index"].append(ui)
        out["n_srcs"].append(len(srcs))
    return {name: tuple(values) for name, values in out.items()}


def finished_with_rows(monkeypatch, build):
    """``build()``'s lowered program and the rows its builder finished.

    A row is one gid's entries across the builder's six column lists,
    ``(unit, kind, lat, srcs, addr, orig)``.
    """
    seen: list[list[tuple]] = []
    finish = ColumnBuilder.finish

    def recording(self, *args, **kwargs):
        columns = (
            self.unit, self.kind, self.lat, self.srcs, self.addr, self.orig
        )
        assert len({len(column) for column in columns}) == 1
        seen.append(list(zip(*columns)))
        return finish(self, *args, **kwargs)

    monkeypatch.setattr(ColumnBuilder, "finish", recording)
    low = build()
    (rows,) = seen
    return low, rows


def compile_tiny(name: str, machine: str):
    program = build_kernel(name, TINY)
    point = Point(program=name, machine=machine)
    return get_machine(machine).compile(program, point, DEFAULT_LATENCIES)


def assert_views_match(low, rows) -> None:
    want = derived_views(rows)
    assert low.total == len(rows)
    for name in VIEWS:
        got = getattr(low, name)
        assert type(got) is tuple, name
        assert got == want[name], name


@pytest.mark.parametrize("machine", ["dm", "swsm"])
@pytest.mark.parametrize("name", list_kernels())
def test_paper_kernel_views_match_rows(monkeypatch, name, machine):
    low, rows = finished_with_rows(
        monkeypatch, lambda: compile_tiny(name, machine).lowered()
    )
    assert_views_match(low, rows)


@pytest.mark.parametrize("machine", ["dm", "swsm"])
@pytest.mark.parametrize("seed", range(6))
def test_hand_built_views_match_rows(monkeypatch, seed, machine):
    program = hand_built_program(seed, machine)
    low, rows = finished_with_rows(
        monkeypatch, lambda: lower_program(program)
    )
    assert_views_match(low, rows)


def test_empty_program_has_empty_views():
    low = ColumnBuilder(()).finish()[0]
    for name in VIEWS:
        assert getattr(low, name) == ()


@pytest.mark.parametrize("materialised", [False, True])
@pytest.mark.parametrize("machine", ["dm", "swsm"])
def test_pickle_round_trip_keeps_views_and_steady(machine, materialised):
    low = compile_tiny("flo52q", machine).lowered()
    if materialised:
        low.steady()
    copy = pickle.loads(pickle.dumps(low))
    for name in VIEWS:
        assert getattr(copy, name) == getattr(low, name), name
    assert copy.steady() is not None
    assert copy.steady() == low.steady()


def test_compiled_program_retains_at_most_200_bytes_per_gid():
    program = build_kernel("flo52q", TINY)
    point = Point(program="flo52q", machine="dm")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        compiled = get_machine("dm").compile(
            program, point, DEFAULT_LATENCIES
        )
        low = compiled.lowered()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / low.total <= 200
