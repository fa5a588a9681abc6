"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "trfd" in out and "track" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "flo52q" in out
        assert "SWSM" in out and "DM" in out

    def test_ewr_custom_program(self, capsys):
        assert main(["ewr", "--program", "track"]) == 0
        assert "track" in capsys.readouterr().out

    def test_esw(self, capsys):
        assert main(["esw"]) == 0
        assert "Effective single window" in capsys.readouterr().out

    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for name in ("trfd", "adm", "flo52q", "dyfesm", "qcd", "mdg", "track"):
            assert name in out

    @pytest.mark.parametrize(
        "study",
        ["issue-split", "partition", "bypass", "expansion", "hierarchy"],
    )
    def test_ablations(self, capsys, study):
        assert main(["ablation", "--study", study, "--program", "trfd"]) == 0
        assert capsys.readouterr().out.strip()

    def test_hierarchy_ablation_reports_every_model(self, capsys):
        assert main(["ablation", "--study", "hierarchy",
                     "--program", "trfd"]) == 0
        out = capsys.readouterr().out
        for label in ("fixed", "bypass", "cache", "hierarchy", "banked",
                      "prefetch"):
            assert label in out

    def test_run_with_new_memory_kinds(self, capsys):
        for kind in ("banked", "prefetch", "hierarchy"):
            assert main(["run", "--program", "trfd", "--machine", "dm",
                         "--memory", kind]) == 0
            assert "cycles" in capsys.readouterr().out

    def test_explicit_scale_flag(self, capsys):
        assert main(["--scale", "tiny", "table1"]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["warp-drive"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["--scale", "galactic", "table1"])


class TestGeneratedWorkloadCommands:
    def test_generate_one_family(self, capsys):
        assert main(["generate", "--family", "chase", "--seed", "3",
                     "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "gen:chase:3" in out and "gen:chase:4" in out
        assert "poor" in out

    def test_generate_all_families(self, capsys):
        assert main(["generate"]) == 0
        out = capsys.readouterr().out
        for family in ("streaming", "strided", "gather", "chase",
                       "stencil", "reduction"):
            assert f"gen:{family}:0" in out

    def test_corpus_write_then_verify(self, capsys, tmp_path):
        manifest = tmp_path / "c.toml"
        assert main(["corpus", "--size", "5", "--seed", "1",
                     "--out", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "5 kernels" in out and str(manifest) in out
        assert main(["corpus", "--verify", str(manifest)]) == 0
        assert "bit-identically" in capsys.readouterr().out

    def test_corpus_verify_reports_tampering(self, capsys, tmp_path):
        manifest = tmp_path / "c.toml"
        assert main(["corpus", "--size", "3", "--out",
                     str(manifest)]) == 0
        capsys.readouterr()
        text = manifest.read_text()
        first_digest = next(
            line for line in text.splitlines()
            if line.startswith("digest")
        )
        manifest.write_text(
            text.replace(first_digest, 'digest = "' + "0" * 64 + '"')
        )
        assert main(["corpus", "--verify", str(manifest)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_corpus_default_path_never_silently_overwritten(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["corpus", "--size", "3"]) == 0
        capsys.readouterr()
        # Same pins: regenerating in place is allowed.
        assert main(["corpus", "--size", "3"]) == 0
        capsys.readouterr()
        # Different pins under the same default path: refused.
        assert main(["corpus", "--size", "3", "--seed", "1",
                     "--name", "default-3"]) == 1
        assert "refusing to overwrite" in capsys.readouterr().out
        # An incompatible manifest (e.g. an old grammar) is exactly
        # what regeneration replaces — never locked out.
        manifest = Path("corpus/default-3.toml")
        manifest.write_text(
            manifest.read_text().replace("grammar = 1", "grammar = 99")
        )
        assert main(["corpus", "--size", "3"]) == 0
        assert "manifest written" in capsys.readouterr().out

    def test_generalization_study_from_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "c.toml"
        assert main(["corpus", "--size", "6", "--out",
                     str(manifest)]) == 0
        capsys.readouterr()
        assert main(["ablation", "--study", "generalization",
                     "--corpus", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "Generalization study" in out
        assert "crossover structure holds" in out
        for family in ("streaming", "chase", "reduction"):
            assert family in out

    def test_generalization_study_generated_in_memory(self, capsys):
        assert main(["ablation", "--study", "generalization",
                     "--size", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 kernels" in out

    def test_run_accepts_generated_names(self, capsys):
        assert main(["run", "--program", "gen:streaming:1"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_malformed_generated_name_clean_error(self, capsys):
        assert main(["run", "--program", "gen:spice:1"]) == 2
        assert "family" in capsys.readouterr().err


class TestReportCommands:
    def test_report_builds_a_site_and_a_store(self, capsys, tmp_path):
        out = tmp_path / "site"
        store = tmp_path / "results.sqlite"
        assert main([
            "report", "--out", str(out), "--store", str(store),
            "--corpus-size", "4",
        ]) == 0
        printed = capsys.readouterr().out
        assert "artefacts" in printed and str(out) in printed
        assert "results in" in printed
        assert "points: 0 from the store, " in printed
        assert ", 0 simulated" not in printed
        assert (out / "index.md").exists()
        assert (out / "table1.md").exists()
        assert (out / "manifest.json").exists()
        assert store.exists()
        # The store now answers queries.
        assert main([
            "results", "--store", str(store), "--program", "flo52q",
            "--limit", "3",
        ]) == 0
        listed = capsys.readouterr().out
        assert "flo52q" in listed and "stored results" in listed

    def test_warm_report_simulates_nothing(self, capsys, tmp_path):
        store = tmp_path / "results.sqlite"
        argv = ["report", "--scale", "tiny", "--store", str(store),
                "--corpus-size", "2"]
        assert main([*argv, "--out", str(tmp_path / "cold")]) == 0
        cold = capsys.readouterr().out
        assert "points: 0 from the store, " in cold
        assert "kernels: 0 built" not in cold
        assert main([*argv, "--out", str(tmp_path / "warm")]) == 0
        warm = capsys.readouterr().out
        served = int(warm.split("points: ")[1].split(" from the store")[0])
        assert served > 0
        assert f"points: {served} from the store, 0 simulated" in warm
        assert "\nkernels: 0 built\n" in warm

    def test_report_scale_flag_after_subcommand(self, capsys, tmp_path):
        out = tmp_path / "site"
        assert main([
            "report", "--scale", "tiny", "--out", str(out),
            "--store", "none", "--corpus-size", "4",
        ]) == 0
        assert "tiny" in (out / "index.md").read_text()

    def test_report_without_store(self, capsys, tmp_path):
        out = tmp_path / "site"
        assert main([
            "report", "--out", str(out), "--store", "none",
            "--corpus-size", "4",
        ]) == 0
        printed = capsys.readouterr().out
        assert "store:" not in printed

    def test_store_none_detaches_the_cache_dir_store(
        self, capsys, tmp_path
    ):
        out, cache = tmp_path / "site", tmp_path / "cache"
        assert main([
            "--cache-dir", str(cache), "report", "--scale", "tiny",
            "--out", str(out), "--store", "none", "--corpus-size", "4",
        ]) == 0
        assert "store:" not in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["store"]["attached"] is False
        assert not (cache / "results.sqlite").exists()

    def test_in_memory_store_is_named_in_the_summary(
        self, capsys, tmp_path
    ):
        assert main([
            "report", "--scale", "tiny", "--out", str(tmp_path / "site"),
            "--store", ":memory:", "--corpus-size", "4",
        ]) == 0
        assert "results in :memory:" in capsys.readouterr().out

    def test_results_on_missing_store(self, capsys, tmp_path):
        assert main([
            "results", "--store", str(tmp_path / "absent.sqlite"),
        ]) == 0
        assert "no results yet" in capsys.readouterr().out

    def test_results_empty_filter_reports_no_results(
        self, capsys, tmp_path
    ):
        # An existing store with zero matching rows degrades the same
        # way as a missing one.
        from repro.report import ResultStore

        store = tmp_path / "results.sqlite"
        ResultStore(store).close()
        assert main([
            "results", "--store", str(store), "--program", "nonesuch",
        ]) == 0
        assert "no results yet" in capsys.readouterr().out


class TestSweepCommand:
    def test_preset(self, capsys):
        assert main(["sweep", "--preset", "bypass", "--program", "trfd"]) == 0
        out = capsys.readouterr().out
        assert "bypass:trfd" in out
        assert "bypass(256)" in out

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "study.toml"
        spec.write_text(
            'name = "cli-study"\n'
            "[base]\n"
            'program = "trfd"\n'
            "window = 16\n"
            "[axes]\n"
            'machine = ["dm", "swsm"]\n'
            "memory_differential = [0, 60]\n"
        )
        assert main(["sweep", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "cli-study" in out and "4 points" in out

    def test_disk_cache_reused_between_invocations(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "sweep", "--preset",
                "issue-split", "--program", "trfd"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "8 simulated, 0 disk hits" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 simulated, 8 disk hits" in second

    def test_preset_and_spec_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--preset", "esw", "--spec", "x.toml"])


class TestRunCommand:
    def test_point(self, capsys):
        assert main(["run", "--program", "trfd", "--machine", "swsm",
                     "--window", "16", "--md", "60"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "speedup over serial" in out

    def test_unlimited_window(self, capsys):
        assert main(["run", "--program", "trfd", "--window",
                     "unlimited"]) == 0
        assert "window=unlimited" in capsys.readouterr().out

    def test_zero_width_rejected_not_defaulted(self, capsys):
        assert main(["run", "--program", "trfd", "--au-width", "0"]) == 2
        assert "au_width" in capsys.readouterr().err

    def test_unknown_machine_clean_error(self, capsys):
        assert main(["run", "--program", "trfd", "--machine", "warp"]) == 2
        assert "unknown machine" in capsys.readouterr().err


class TestInterrupt:
    def test_keyboard_interrupt_exits_cleanly(self, capsys, monkeypatch):
        import repro.cli as cli

        def interrupted(session):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "emit_kernels", interrupted)
        assert main(["kernels"]) == 130
        captured = capsys.readouterr()
        assert "repro: interrupted" in captured.err
        assert "Traceback" not in captured.err
