"""Tests for the report emitters, text renderer and static site."""

from __future__ import annotations

import filecmp
import json
from pathlib import Path

import pytest

from repro import Session, write_site
from repro.experiments import PRESETS
from repro.report import (
    emit_table1,
    render_text,
)
from repro.report.rows import PlotBlock, TableBlock, TextBlock
from repro.report.svg import render_line_chart

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestTextRenderer:
    def test_blocks_render_like_the_classic_printers(self):
        from repro.report.rows import Artifact

        artifact = Artifact(
            slug="x", title="X",
            blocks=(
                TableBlock(headers=("a", "b"), rows=((1, 2.5),), title="T"),
                TextBlock(("tail line",)),
            ),
        )
        assert render_text(artifact) == (
            "T\na  b   \n-  ----\n1  2.50\ntail line"
        )

    def test_table1_matches_golden(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        preset = PRESETS["tiny"]
        session = Session(scale=preset.scale)
        text = render_text(emit_table1(session, preset))
        assert text + "\n" == (GOLDEN / "table1.txt").read_text()


class TestSvg:
    def test_chart_is_valid_and_deterministic(self):
        plot = PlotBlock(
            x_values=(1.0, 2.0, 4.0),
            series=(("a", (1.0, 2.0, 3.0)),
                    ("b", (3.0, float("nan"), 1.0))),
            title="demo", x_label="x", y_label="y",
        )
        first = render_line_chart(plot)
        assert first.startswith("<svg ") and first.endswith("</svg>\n")
        assert "demo" in first and "NaN" not in first
        assert first == render_line_chart(plot)

    def test_empty_series_renders_placeholder(self):
        plot = PlotBlock(
            x_values=(1.0,),
            series=(("a", (float("nan"),)),),
            title="hollow",
        )
        assert "(no finite data)" in render_line_chart(plot)


class TestSite:
    def test_manifest_covers_every_artifact(self, tiny_report_site):
        out, manifest, _ = tiny_report_site
        slugs = {entry["slug"] for entry in manifest["artifacts"]}
        expected = {
            "table1", "esw", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "ablation-issue-split", "ablation-partition",
            "ablation-bypass", "ablation-expansion",
            "ablation-hierarchy", "generalization", "kernels",
            "generated",
        }
        assert expected <= slugs
        for entry in manifest["artifacts"]:
            assert (out / f"{entry['slug']}.md").exists()
            assert (out / f"{entry['slug']}.html").exists()

    def test_generalization_family_pages_exist(self, tiny_report_site):
        out, manifest, _ = tiny_report_site
        families = [
            entry["slug"] for entry in manifest["artifacts"]
            if entry["slug"].startswith("generalization-")
        ]
        assert families, "expected per-family generalization pages"
        index = (out / "index.md").read_text()
        for slug in families:
            assert f"({slug}.md)" in index

    def test_figure_pages_reference_svg_charts(self, tiny_report_site):
        out, _, _ = tiny_report_site
        for slug in ("fig4", "fig7"):
            markdown = (out / f"{slug}.md").read_text()
            assert f"![" in markdown and f"{slug}-0.svg" in markdown
            assert (out / f"{slug}-0.svg").read_text().startswith("<svg ")

    def test_bench_and_models_pages(self, tiny_report_site):
        out, manifest, _ = tiny_report_site
        assert "bench.md" in manifest["pages"]
        bench = (out / "bench.md").read_text()
        assert "engine throughput" in bench
        models = (out / "models.md").read_text()
        for name in ("dm", "swsm", "serial", "fixed", "hierarchy"):
            assert name in models

    def test_manifest_store_keys_back_each_artifact(self, tiny_report_site):
        out, manifest, session = tiny_report_site
        store = session.store()
        stored = set(store.keys())
        assert manifest["store"]["results"] == len(stored)
        table1 = next(
            entry for entry in manifest["artifacts"]
            if entry["slug"] == "table1"
        )
        assert table1["store_keys"]
        for entry in manifest["artifacts"]:
            keys = entry["store_keys"]
            assert keys == sorted(keys)
            assert set(keys) <= stored
        # kernels is static analysis: no simulated points back it.
        kernels = next(
            entry for entry in manifest["artifacts"]
            if entry["slug"] == "kernels"
        )
        assert kernels["store_keys"] == []

    def test_site_is_byte_identical_on_rebuild(
        self, tiny_report_site, tmp_path
    ):
        from repro import build_report, generate_corpus

        out, _, session = tiny_report_site
        preset = PRESETS["tiny"]
        corpus = generate_corpus(4, seed=0, scale=preset.scale)
        again = tmp_path / "again"
        build_report(
            session, preset, again, corpus=corpus,
            bench_path=Path(__file__).resolve().parent.parent
            / "BENCH_engine.json",
        )
        first = sorted(p.name for p in out.iterdir())
        second = sorted(p.name for p in again.iterdir())
        assert first == second
        for name in first:
            assert (out / name).read_bytes() == (again / name).read_bytes(), (
                f"{name} differs between warm-cache report runs"
            )

    def test_warm_rebuild_builds_and_compiles_nothing(
        self, tiny_report_site, tmp_path, monkeypatch
    ):
        """A fresh session on the cold build's store reads every static
        record from it: no kernel is built, not even the freshly
        generated corpus's, no program compiled, and the two site trees
        are byte-identical."""
        from repro import build_report, generate_corpus
        from repro.api import session as session_module
        from repro.report import emitters

        from repro.workloads import corpus as corpus_module

        cold_out, _, cold = tiny_report_site
        preset = PRESETS["tiny"]
        calls = []

        def forbidden(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"warm rebuild called {name}")
            return call

        monkeypatch.setattr(Session, "compiled", forbidden("compiled"))
        monkeypatch.setattr(
            session_module, "build_kernel", forbidden("build_kernel")
        )
        for name in ("build_generated", "characterize",
                     "analyze_decoupling"):
            monkeypatch.setattr(emitters, name, forbidden(name))
        for name in ("build_generated", "characterize"):
            monkeypatch.setattr(corpus_module, name, forbidden(name))
        # Generated in the forbidden scope: the corpus builds nothing
        # either, its bands come from the store.
        corpus = generate_corpus(4, seed=0, scale=preset.scale)
        warm = Session(scale=preset.scale)
        warm.store(cold.store().path)
        warm_out = tmp_path / "warm"
        build_report(
            warm, preset, warm_out, corpus=corpus,
            bench_path=Path(__file__).resolve().parent.parent
            / "BENCH_engine.json",
        )
        assert calls == []
        assert warm.stats["kernels_built"] == 0
        assert warm.stats["evaluated"] == 0
        names = sorted(p.name for p in cold_out.iterdir())
        assert names == sorted(p.name for p in warm_out.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            cold_out, warm_out, names, shallow=False
        )
        assert (mismatch, errors) == ([], [])
        assert match == names

    def test_manifest_json_parses(self, tiny_report_site):
        out, manifest, _ = tiny_report_site
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest
        assert on_disk["scale"]["name"] == "tiny"


class TestStaticRecords:
    """The kernels and generated pages read through the profiles table."""

    SCALE = PRESETS["tiny"].scale

    @staticmethod
    def _emit(session) -> str:
        from repro.report import emit_generate, emit_kernels

        return (
            render_text(emit_kernels(session))
            + render_text(emit_generate(session))
        )

    @staticmethod
    def _names(kind: str) -> list[str]:
        from repro.kernels import list_kernels
        from repro.workloads import FAMILIES, generated_name

        if kind == "kernels":
            return list(list_kernels())
        return [generated_name(family, 0) for family in FAMILIES]

    @pytest.mark.parametrize("edit", ["sources", "python"])
    def test_key_change_misses_and_rewrites_every_row(
        self, tmp_path, monkeypatch, edit
    ):
        from repro.api import spec

        path = tmp_path / "results.sqlite"
        cold = Session(scale=self.SCALE)
        cold.store(path)
        text = self._emit(cold)
        built = cold.stats["kernels_built"]
        assert built == len(self._names("kernels")) + len(
            self._names("generated")
        )
        warm = Session(scale=self.SCALE)
        warm.store(path)
        assert self._emit(warm) == text
        assert warm.stats["kernels_built"] == 0

        if edit == "sources":
            monkeypatch.setattr(spec, "source_digest", lambda: "0" * 64)
        else:
            monkeypatch.setattr(spec, "PYTHON_VERSION", "2.7")
        edited = Session(scale=self.SCALE)
        store = edited.store(path)
        keys = {
            kind: [spec.profile_digest(kind, name, self.SCALE)
                   for name in self._names(kind)]
            for kind in ("kernels", "generated")
        }
        every = [key for group in keys.values() for key in group]
        assert all(store.load_profile(key) is None for key in every)
        assert self._emit(edited) == text
        assert edited.stats["kernels_built"] == built
        assert all(store.load_profile(key) is not None for key in every)
        again = Session(scale=self.SCALE)
        again.store(path)
        assert self._emit(again) == text
        assert again.stats["kernels_built"] == 0

    def test_a_new_source_prunes_the_old_rows(self, tmp_path, monkeypatch):
        from repro.api import spec

        path = tmp_path / "results.sqlite"
        first = Session(scale=self.SCALE)
        store = first.store(path)
        self._emit(first)
        live = len(self._names("kernels")) + len(self._names("generated"))
        count = "SELECT COUNT(*) FROM profiles"
        assert store._con.execute(count).fetchone()[0] == live
        monkeypatch.setattr(spec, "source_digest", lambda: "0" * 64)
        second = Session(scale=self.SCALE)
        store = second.store(path)
        self._emit(second)
        assert store._con.execute(count).fetchone()[0] == live
        assert {row[0] for row in store._con.execute(
            "SELECT DISTINCT source FROM profiles"
        )} == {f"{spec.PYTHON_VERSION}:{'0' * 64}"}

    def test_registered_program_never_touches_the_profiles_table(
        self, tmp_path, monkeypatch
    ):
        from tests.conftest import build_daxpy

        from repro.api.spec import profile_digest
        from repro.report import ResultStore, emit_kernels

        touched = []
        for method in ("load_profile", "record_profile"):
            original = getattr(ResultStore, method)

            def spy(self, key, *args, _original=original):
                touched.append(key)
                return _original(self, key, *args)

            monkeypatch.setattr(ResultStore, method, spy)
        session = Session(scale=self.SCALE)
        store = session.store(tmp_path / "results.sqlite")
        custom = build_daxpy(name="flo52q")
        session.register_program(custom)
        table = emit_kernels(session).blocks[0]
        row = next(row for row in table.rows if row[0] == "flo52q")
        assert row[1] == len(custom)
        key = profile_digest("kernels", "flo52q", self.SCALE)
        assert key not in touched
        assert store.load_profile(key) is None
        others = [
            profile_digest("kernels", name, self.SCALE)
            for name in self._names("kernels") if name != "flo52q"
        ]
        assert set(others) <= set(touched)


class TestEmptySite:
    @pytest.fixture()
    def empty_site(self, tmp_path):
        manifest = write_site([], tmp_path, PRESETS["tiny"])
        return tmp_path, manifest

    def test_no_results_yet_index(self, empty_site):
        out, manifest = empty_site
        index = (out / "index.md").read_text()
        assert "No results yet" in index
        assert manifest["artifacts"] == []
        assert manifest["store"]["attached"] is False

    def test_rerun_removes_stale_pages(self, tmp_path):
        from repro.report.rows import Artifact, TextBlock

        wide = [
            Artifact(slug=slug, title=slug,
                     blocks=(TextBlock((slug,)),))
            for slug in ("table1", "generalization-chase")
        ]
        write_site(wide, tmp_path, PRESETS["tiny"])
        assert (tmp_path / "generalization-chase.md").exists()
        manifest = write_site(wide[:1], tmp_path, PRESETS["tiny"])
        assert not (tmp_path / "generalization-chase.md").exists()
        assert not (tmp_path / "generalization-chase.html").exists()
        on_disk = sorted(p.name for p in tmp_path.iterdir())
        assert on_disk == manifest["pages"]

    def test_rerun_leaves_foreign_files_alone(self, tmp_path):
        write_site([], tmp_path, PRESETS["tiny"])
        foreign = tmp_path / "notes.txt"
        foreign.write_text("mine")
        write_site([], tmp_path, PRESETS["tiny"])
        assert foreign.read_text() == "mine"

    def test_empty_site_is_still_valid(self, empty_site):
        out, manifest = empty_site
        for page in ("index.md", "index.html", "models.md", "models.html",
                     "manifest.json"):
            assert (out / page).exists()
        assert json.loads((out / "manifest.json").read_text()) == manifest
