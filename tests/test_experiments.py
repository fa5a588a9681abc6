"""Tests for the experiment drivers and output formatting."""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    render_plot,
    render_table,
    run_bypass_ablation,
    run_code_expansion_ablation,
    run_esw_study,
    run_ewr_figure,
    run_issue_split_ablation,
    run_partition_ablation,
    run_speedup_figure,
    run_table1,
)
from repro.experiments.scales import PRESETS, active_preset
from repro.partition import Unit
from repro.partition.strategies import PARTITION_STRATEGIES
from repro.errors import ConfigError


class TestTable1Driver:
    def test_structure(self, tiny_lab):
        result = run_table1(tiny_lab, programs=("trfd", "track"),
                            windows=(8, 32, None))
        assert len(result.rows) == 2
        assert result.windows == (8, 32, None)
        for row in result.rows:
            assert set(row.lhe_by_window) == {8, 32, None}
            assert 0 < row.unlimited_lhe <= 1

    def test_band_comparison(self, tiny_lab):
        result = run_table1(tiny_lab, programs=("track",), windows=(8, None))
        row = result.rows[0]
        assert row.expected_band == "poor"
        assert row.band_matches == (row.measured_band == "poor")


class TestSpeedupDriver:
    def test_four_curves(self, tiny_lab):
        figure = run_speedup_figure(tiny_lab, "trfd", windows=(8, 32))
        assert len(figure.curves) == 4
        assert figure.curve("DM", 0).speedups != figure.curve("DM", 60).speedups

    def test_crossover_none_when_dm_always_wins(self, tiny_lab):
        figure = run_speedup_figure(tiny_lab, "flo52q", windows=(8, 16))
        # At such small windows the DM wins at both differentials.
        assert figure.crossover_window(60) is None

    def test_curve_lookup_unknown(self, tiny_lab):
        figure = run_speedup_figure(tiny_lab, "trfd", windows=(8,))
        with pytest.raises(KeyError):
            figure.curve("DM", 30)


class TestEwrDriver:
    def test_ratios_are_positive_or_nan(self, tiny_lab):
        figure = run_ewr_figure(
            tiny_lab, "trfd", dm_windows=(16, 32), differentials=(0, 60),
        )
        for curve in figure.curves:
            for ratio in curve.ratios:
                assert math.isnan(ratio) or ratio > 0

    def test_ratio_grows_with_differential(self, tiny_lab):
        figure = run_ewr_figure(
            tiny_lab, "flo52q", dm_windows=(16,), differentials=(0, 60),
        )
        low = figure.curve(0).at(16)
        high = figure.curve(60).at(16)
        assert high > low


class TestEswDriver:
    def test_rows_cover_grid(self, tiny_lab):
        rows = run_esw_study(tiny_lab, ("trfd",), window=16,
                             differentials=(0, 60))
        assert len(rows) == 2
        assert {row.memory_differential for row in rows} == {0, 60}
        for row in rows:
            assert row.stats.peak >= 0


class TestAblations:
    def test_issue_split_covers_all_divisions(self, tiny_lab):
        points = run_issue_split_ablation(tiny_lab, "trfd", window=16)
        assert [(p.au_width, p.du_width) for p in points] == [
            (k, 9 - k) for k in range(1, 9)
        ]
        assert all(p.cycles > 0 for p in points)

    def test_partition_strategies_ranked(self, tiny_lab):
        points = {p.strategy: p for p in
                  run_partition_ablation(tiny_lab, "trfd", window=16)}
        # The slice partition must beat the degenerate memory-only one.
        assert points["slice"].cycles < points["memory-only"].cycles

    def test_partition_counts_match_compiled_programs(self, tmp_path):
        # AU/DU counts come from each result's unit statistics; they
        # must equal the compiled program's, whether the point was
        # simulated now or served from the store.
        from repro import Session

        path = tmp_path / "results.sqlite"
        for served in (False, True):
            session = Session(scale=2_000)
            session.store(path)
            points = run_partition_ablation(session, "trfd", window=16)
            stats = session.stats
            assert (stats["evaluated"], stats["store_hits"]) == (
                (0, 3) if served else (3, 0)
            )
            assert [p.strategy for p in points] == list(
                PARTITION_STRATEGIES
            )
            for point in points:
                counts = session.compiled(
                    "trfd", "dm", partition=point.strategy
                ).unit_counts()
                assert (point.au_instructions, point.du_instructions) == (
                    counts[Unit.AU], counts[Unit.DU]
                )

    def test_bypass_improves_reuse_heavy_program(self, tiny_lab):
        points = run_bypass_ablation(
            tiny_lab, "mdg", window=16, entry_counts=(0, 256),
        )
        no_bypass, big_bypass = points
        assert big_bypass.hit_rate > 0
        assert big_bypass.cycles <= no_bypass.cycles

    def test_code_expansion_slows_both_machines(self, tiny_lab):
        points = run_code_expansion_ablation(
            tiny_lab, "trfd", window=16, fractions=(0.0, 0.5),
        )
        base, expanded = points
        assert expanded.dm_cycles >= base.dm_cycles
        assert expanded.swsm_cycles >= base.swsm_cycles


class TestScalePresets:
    def test_presets_exist(self):
        assert {"tiny", "small", "paper"} <= set(PRESETS)

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert active_preset().name == "tiny"

    def test_unknown_preset_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ConfigError):
            active_preset()

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_preset().name == "small"


class TestRenderTable:
    def test_alignment_and_headers(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.50" in text and "0.25" in text

    def test_none_renders_as_unlimited(self):
        text = render_table(["w"], [[None]])
        assert "unl" in text

    def test_nan_renders_as_dash(self):
        text = render_table(["x"], [[float("nan")]])
        assert "-" in text

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])


class TestRenderPlot:
    def test_markers_and_legend(self):
        text = render_plot([1, 2, 3], {"DM": [1, 2, 3], "SWSM": [3, 2, 1]})
        assert "A = DM" in text
        assert "B = SWSM" in text
        assert "A" in text and "B" in text

    def test_handles_nan_points(self):
        text = render_plot([1, 2], {"s": [1.0, float("nan")]})
        assert "s" in text

    def test_all_nan_series(self):
        text = render_plot([1], {"s": [float("nan")]}, title="empty")
        assert "no finite data" in text

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            render_plot([1, 2], {"s": [1.0]})

    def test_requires_series(self):
        with pytest.raises(ValueError):
            render_plot([1], {})
