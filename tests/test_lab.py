"""Unit tests for the session's lab accessors (caching and derived
metrics through ``dm_cycles``, ``dm_lhe``, ``serial_cycles``, ...)."""

from __future__ import annotations

import warnings

import pytest

from repro.api import Session
from repro.ir.transforms import expand_code
from repro.kernels import build_synthetic_stream


class TestDeprecation:
    def test_session_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session(scale=500)


class TestCaching:
    def test_program_is_cached(self, tiny_lab):
        assert tiny_lab.program("trfd") is tiny_lab.program("trfd")

    def test_compiled_programs_are_cached(self, tiny_lab):
        assert tiny_lab.dm_compiled("trfd") is tiny_lab.dm_compiled("trfd")
        assert tiny_lab.swsm_compiled("trfd") is tiny_lab.swsm_compiled("trfd")

    def test_runs_are_cached(self, tiny_lab):
        first = tiny_lab.dm_result("trfd", 16, 60)
        second = tiny_lab.dm_result("trfd", 16, 60)
        assert first is second

    def test_distinct_parameters_are_distinct_runs(self, tiny_lab):
        a = tiny_lab.dm_result("trfd", 16, 60)
        b = tiny_lab.dm_result("trfd", 32, 60)
        c = tiny_lab.dm_result("trfd", 16, 0)
        assert a is not b and a is not c


class TestWindows:
    def test_resolve_window_passthrough(self, tiny_lab):
        assert tiny_lab.resolve_window("trfd", 48) == 48

    def test_unlimited_window_is_program_sized(self, tiny_lab):
        resolved = tiny_lab.resolve_window("trfd", None)
        assert resolved == len(tiny_lab.program("trfd"))

    def test_unlimited_window_covers_the_expanded_program(self, tiny_lab):
        expanded = expand_code(tiny_lab.program("trfd"), 0.25)
        resolved = tiny_lab.resolve_window("trfd", None, 0.25)
        assert resolved == len(expanded) > len(tiny_lab.program("trfd"))

    def test_expanded_unlimited_point_runs_at_the_resolved_window(
        self, tiny_lab
    ):
        unlimited = tiny_lab.dm_point("trfd", None, 60, expansion=0.25)
        resolved = tiny_lab.dm_point(
            "trfd", tiny_lab.resolve_window("trfd", None, 0.25), 60,
            expansion=0.25,
        )
        assert tiny_lab.cycles(unlimited) == tiny_lab.cycles(resolved)

    def test_unlimited_run_equivalent_to_huge_window(self, tiny_lab):
        unlimited = tiny_lab.dm_cycles("trfd", None, 60)
        huge = tiny_lab.dm_cycles("trfd", 10 * len(tiny_lab.program("trfd")),
                                  60)
        assert unlimited == huge


class TestCustomPrograms:
    def test_register_program(self):
        lab = Session(scale=1_000)
        program = build_synthetic_stream(1_000, name="custom")
        lab.register_program(program)
        assert lab.program("custom") is program
        assert lab.dm_cycles("custom", 16, 0) > 0


class TestDerivedMetrics:
    def test_speedup_consistency(self, tiny_lab):
        speedup = tiny_lab.dm_speedup("trfd", 16, 60)
        expected = (tiny_lab.serial_cycles("trfd", 60)
                    / tiny_lab.dm_cycles("trfd", 16, 60))
        assert speedup == pytest.approx(expected)

    def test_lhe_uses_zero_differential_as_perfect(self, tiny_lab):
        lhe = tiny_lab.dm_lhe("trfd", 16, 60)
        expected = (tiny_lab.dm_cycles("trfd", 16, 0)
                    / tiny_lab.dm_cycles("trfd", 16, 60))
        assert lhe == pytest.approx(expected)
        assert 0 < lhe <= 1

    def test_serial_cycles_scale_with_differential(self, tiny_lab):
        assert (tiny_lab.serial_cycles("trfd", 60)
                > tiny_lab.serial_cycles("trfd", 0))
