"""Tests for the generative workload subsystem.

Covers the loop-nest grammar (determinism, scale fidelity, family
structure), the static characterizer, corpus manifests (round trips,
digest verification, tamper detection), registry resolution of
``gen:<family>:<seed>`` names, the registry-wide purity regression,
and the generalization study.
"""

from __future__ import annotations

import os
import tracemalloc

import pytest

from repro import KernelError, build_kernel, get_kernel, list_kernels
from repro.api import Session
from repro.errors import ConfigError
from repro.experiments import PRESETS
from repro.experiments.generalization import run_generalization_study
from repro.kernels import PAPER_ORDER
from repro.partition import analyze_decoupling, compute_address_slice
from repro.workloads import (
    FAMILIES,
    Corpus,
    GenParams,
    build_generated,
    characterize,
    generate_corpus,
    generated_name,
    load_manifest,
    parse_generated_name,
    register_corpus,
    sample_params,
    verify_corpus,
    write_manifest,
)

SCALE = 2_000
TINY = PRESETS["tiny"].scale


class TestNames:
    def test_round_trip(self):
        for family in FAMILIES:
            name = generated_name(family, 123)
            assert parse_generated_name(name) == (family, 123)

    def test_non_generated_names_decline(self):
        assert parse_generated_name("trfd") is None
        assert parse_generated_name("general") is None

    def test_malformed_generated_names_fail_loudly(self):
        with pytest.raises(KernelError, match="family"):
            parse_generated_name("gen:spice:1")
        with pytest.raises(KernelError, match="seed"):
            parse_generated_name("gen:streaming:x")
        with pytest.raises(KernelError, match="malformed"):
            parse_generated_name("gen:streaming")
        with pytest.raises(KernelError, match="family"):
            generated_name("spice", 1)
        with pytest.raises(KernelError, match="seed"):
            generated_name("streaming", -1)

    def test_only_canonical_seed_spellings_resolve(self):
        """Aliases like gen:streaming:007 would cache and digest as a
        different kernel than the one they build."""
        for alias in ("gen:streaming:007", "gen:streaming:٧"):
            with pytest.raises(KernelError, match="canonical"):
                parse_generated_name(alias)
        assert parse_generated_name("gen:streaming:0") == ("streaming", 0)


@pytest.mark.parametrize("family", FAMILIES)
class TestEveryFamily:
    def test_validates(self, family):
        build_generated(family, 0, SCALE).validate()

    def test_deterministic(self, family):
        first = build_generated(family, 5, SCALE)
        second = build_generated(family, 5, SCALE)
        assert first.digest() == second.digest()

    def test_seeds_sample_the_family(self, family):
        digests = {
            build_generated(family, seed, SCALE).digest()
            for seed in range(6)
        }
        assert len(digests) > 1  # distinct programs within one family

    def test_scale_is_respected(self, family):
        for scale in (2_000, 8_000):
            program = build_generated(family, 1, scale)
            assert 0.4 * scale <= len(program) <= 1.7 * scale

    def test_meta_records_generator_parameters(self, family):
        meta = build_generated(family, 2, SCALE).meta
        assert meta["family"] == family
        assert meta["seed"] == 2
        assert "params" in meta and "grammar" in meta

    def test_params_are_pure(self, family):
        assert sample_params(family, 9) == sample_params(family, 9)

    def test_resolved_spec_rejects_contradicting_seed(self, family):
        """The name pins the seed; an explicit mismatch must not
        silently build a different kernel."""
        name = generated_name(family, 5)
        assert build_kernel(name, SCALE, seed=5).name == name
        with pytest.raises(KernelError, match="pins seed"):
            build_kernel(name, SCALE, seed=11)

    def test_resolves_through_registry(self, family):
        # A seed no other test resolves, so the lazy-band assertions
        # observe a fresh spec regardless of test order.
        name = generated_name(family, 314159)
        spec = get_kernel(name)
        assert spec is get_kernel(name)  # memoised
        assert callable(spec.band)  # prediction is lazy ...
        assert spec.resolved_band in ("high", "moderate", "poor")
        assert spec.band == spec.resolved_band  # ... then memoised
        program = spec(SCALE)
        assert program.name == name


class TestFamilyStructure:
    def test_gather_routes_addresses_through_self_loads(self):
        program = build_generated("gather", 0, SCALE)
        assert compute_address_slice(program).self_loads

    def test_chase_is_one_long_load_chain(self):
        profile = characterize(build_generated("chase", 0, SCALE))
        assert profile.load_chain_fraction > 0.9
        assert profile.predicted_band == "poor"

    def test_stencil_carries_memory_dependences(self):
        program = build_generated("stencil", 0, SCALE)
        assert any(inst.mem_dep is not None for inst in program)

    def test_reduction_feedback_creates_crossings(self):
        # Seeds are sampled; find one with feedback enabled.
        for seed in range(20):
            if sample_params("reduction", seed).feedback_period:
                program = build_generated("reduction", seed, SCALE)
                assert analyze_decoupling(program).lod_events > 0
                return
        raise AssertionError("no reduction seed in 0..19 with feedback")

    def test_streaming_decouples_cleanly(self):
        for seed in range(20):
            params = sample_params("streaming", seed)
            if not params.feedback_period:
                program = build_generated("streaming", seed, SCALE)
                assert analyze_decoupling(program).lod_events == 0
                return
        raise AssertionError("no streaming seed in 0..19 without feedback")

    def test_bad_family_rejected(self):
        with pytest.raises(KernelError, match="family"):
            build_generated("spice", 0, SCALE)
        with pytest.raises(KernelError, match="family"):
            GenParams(family="spice", seed=0)


class TestCharacterizer:
    def test_fractions_sum_to_one(self):
        profile = characterize(build_generated("streaming", 0, SCALE))
        total = (profile.int_fraction + profile.fp_fraction
                 + profile.load_fraction + profile.store_fraction)
        assert total == pytest.approx(1.0)

    def test_histogram_counts_every_edge(self):
        program = build_generated("stencil", 0, SCALE)
        profile = characterize(program)
        edges = sum(len(inst.all_deps()) for inst in program)
        assert sum(count for _, count in profile.dep_distance_hist) == edges
        assert profile.mean_dep_distance > 0

    def test_paper_extremes_classify_sanely(self):
        # TRFD decouples perfectly; TRACK loses decoupling every step.
        assert characterize(
            build_kernel("trfd", SCALE)
        ).predicted_band == "high"
        assert characterize(
            build_kernel("track", SCALE)
        ).predicted_band == "poor"

    def test_to_dict_is_serialisable(self):
        import json

        profile = characterize(build_generated("gather", 1, SCALE))
        doc = json.loads(json.dumps(profile.to_dict()))
        assert doc["predicted_band"] == profile.predicted_band
        assert doc["total"] == profile.total

    def test_session_profile_accessor_is_cached(self):
        session = Session(scale=SCALE)
        first = session.profile("gen:streaming:1")
        assert first is session.profile("gen:streaming:1")
        assert first.name == "gen:streaming:1"

    def test_session_profile_follows_registered_programs(self):
        from repro.kernels import build_synthetic_stream

        session = Session(scale=SCALE)
        stock_total = session.profile("trfd").total
        session.register_program(
            build_synthetic_stream(500, name="trfd")
        )
        assert session.profile("trfd").total != stock_total

    def test_table1_accepts_generated_programs(self):
        from repro.experiments import run_table1

        session = Session(scale=SCALE)
        result = run_table1(
            session, programs=("gen:streaming:1",), windows=(None,)
        )
        assert result.rows[0].expected_band in (
            "high", "moderate", "poor",
        )


class TestCorpus:
    def test_generation_is_pure(self):
        assert generate_corpus(9, seed=4, scale=SCALE) == generate_corpus(
            9, seed=4, scale=SCALE
        )

    def test_families_round_robin(self):
        corpus = generate_corpus(13, seed=0, scale=SCALE)
        by_family = corpus.by_family()
        assert set(by_family) == set(FAMILIES)
        sizes = sorted(len(rows) for rows in by_family.values())
        assert sizes[-1] - sizes[0] <= 1  # even coverage

    def test_preset_name_as_scale_is_rejected_up_front(self):
        with pytest.raises(ConfigError, match=r"PRESETS\['tiny'\]\.scale"):
            generate_corpus(12, 0, "tiny")

    def test_default_name_matches_acceptance_convention(self):
        assert generate_corpus(5, seed=0, scale=SCALE).name == "default-5"
        assert generate_corpus(5, seed=3, scale=SCALE).name == "corpus-5-s3"

    def test_family_subsets_never_reuse_the_default_name(self):
        subset = generate_corpus(5, seed=0, scale=SCALE,
                                 families=("chase",))
        assert subset.name != "default-5"
        assert "chase" in subset.name

    def test_grammar_version_travels_and_gates_loading(self, tmp_path):
        corpus = generate_corpus(2, seed=0, scale=SCALE)
        assert corpus.grammar == 1
        path = write_manifest(corpus, tmp_path / "c.toml")
        assert "grammar = 1" in path.read_text()
        with pytest.raises(KernelError, match="grammar"):
            Corpus.from_dict({**corpus.to_dict(), "grammar": 99})

    def test_grammar_version_keys_the_disk_cache_for_gen_programs(
        self, monkeypatch
    ):
        """A grammar bump changes what gen: names build, so it must
        change their cache keys — and only theirs."""
        from repro.api import Point, point_digest
        from repro.config import LatencyModel
        from repro.workloads import grammar

        gen_point = Point(program="gen:streaming:1")
        named_point = Point(program="trfd")
        latencies = LatencyModel()
        gen_before = point_digest(gen_point, SCALE, latencies)
        named_before = point_digest(named_point, SCALE, latencies)
        monkeypatch.setattr(grammar, "GRAMMAR_VERSION", 2)
        assert point_digest(gen_point, SCALE, latencies) != gen_before
        assert point_digest(named_point, SCALE, latencies) == named_before

    def test_verify_passes_and_catches_tampering(self):
        corpus = generate_corpus(4, seed=1, scale=SCALE)
        assert verify_corpus(corpus) == []
        import dataclasses

        tampered = dataclasses.replace(
            corpus,
            entries=(
                dataclasses.replace(corpus.entries[0], digest="0" * 64),
            ) + corpus.entries[1:],
        )
        problems = verify_corpus(tampered)
        assert len(problems) == 1
        assert corpus.entries[0].name in problems[0]

    def test_toml_and_json_round_trips(self, tmp_path):
        corpus = generate_corpus(6, seed=2, scale=SCALE)
        for suffix in (".toml", ".json"):
            path = write_manifest(corpus, tmp_path / f"c{suffix}")
            assert load_manifest(path) == corpus

    def test_toml_escapes_awkward_names(self, tmp_path):
        """Whatever name the corpus carries, the written manifest must
        parse back — including control characters and quotes."""
        corpus = generate_corpus(
            2, seed=0, scale=SCALE, name='a\nb\t"c"\\d'
        )
        path = write_manifest(corpus, tmp_path / "awkward.toml")
        assert load_manifest(path) == corpus

    def test_register_corpus_resolves_every_name(self):
        corpus = generate_corpus(6, seed=0, scale=SCALE)
        specs = register_corpus(corpus)
        assert tuple(spec.name for spec in specs) == corpus.names

    def test_malformed_manifest_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('name = "x"\n')  # missing every other field
        with pytest.raises(KernelError, match="malformed"):
            load_manifest(path)
        with pytest.raises(KernelError, match="version"):
            Corpus.from_dict({
                "name": "x", "version": 99, "seed": 0, "scale": SCALE,
                "families": [], "kernels": [],
            })

    def test_validation(self):
        with pytest.raises(KernelError, match="size"):
            generate_corpus(0, scale=SCALE)
        with pytest.raises(KernelError, match="family"):
            generate_corpus(2, families=("spice",), scale=SCALE)


class TestRegistryPurity:
    """The determinism contract of kernels/base.py, registry-wide."""

    def test_every_registered_kernel_is_pure(self):
        for name in list_kernels():
            first = build_kernel(name, SCALE)
            second = build_kernel(name, SCALE)
            assert first.digest() == second.digest(), name

    def test_every_registered_kernel_is_pure_across_seeds(self):
        for name in list_kernels():
            assert build_kernel(name, SCALE, seed=11).digest() == \
                build_kernel(name, SCALE, seed=11).digest(), name

    def test_generated_corpus_kernels_are_pure(self):
        corpus = generate_corpus(len(FAMILIES), seed=0, scale=SCALE)
        for entry in corpus.entries:
            rebuilt = build_kernel(entry.name, SCALE)
            assert rebuilt.digest() == build_kernel(entry.name,
                                                    SCALE).digest()
            # And the manifest digest pins the manifest-scale build.
            assert build_kernel(
                entry.name, corpus.scale
            ).digest() == entry.digest

    def test_digest_sees_structural_changes(self):
        base = build_kernel("mdg", SCALE, seed=7)
        assert base.digest() != build_kernel("mdg", SCALE, seed=8).digest()
        assert base.digest() != build_kernel("mdg", 2 * SCALE,
                                             seed=7).digest()


class TestGeneralizationStudy:
    def test_study_over_a_corpus(self):
        session = Session(scale=SCALE)
        corpus = generate_corpus(6, seed=0, scale=SCALE)
        result = run_generalization_study(session, corpus)
        assert result.kernels == 6
        assert result.corpus_name == corpus.name
        assert {f.family for f in result.families} == set(FAMILIES)
        for row in result.rows:
            assert 0.0 < row.dm_lhe <= 1.0
            assert 0.0 < row.swsm_lhe <= 1.0
            assert row.dm_band in ("high", "moderate", "poor")
        assert sum(f.kernels for f in result.families) == result.kernels
        assert 0.0 <= result.holds_fraction <= 1.0
        assert 0.0 <= result.prediction_agreement <= 1.0

    def test_chase_breaks_the_paper_structure(self):
        session = Session(scale=SCALE)
        result = run_generalization_study(
            session, ["gen:chase:0", "gen:streaming:0"]
        )
        by_family = {f.family: f for f in result.families}
        assert by_family["chase"].band_counts["poor"] == 1

    def test_mixed_case_names_classify_like_the_registry(self):
        """get_kernel is case-insensitive, so family grouping must be
        too — 'Gen:chase:1' is the chase family, not 'named'."""
        session = Session(scale=SCALE)
        result = run_generalization_study(session, ["Gen:chase:1"])
        assert result.families[0].family == "chase"
        assert result.rows[0].name == "gen:chase:1"

    def test_paper_kernels_flow_through_as_named_family(self):
        session = Session(scale=SCALE)
        result = run_generalization_study(session, list(PAPER_ORDER[:2]))
        assert result.families[0].family == "named"
        assert result.families[0].kernels == 2
        # Predicted band comes from the registry spec (= Table 1).
        for row in result.rows:
            assert row.predicted_band == get_kernel(row.name).resolved_band


class TestStudyMemory:
    """The study holds at most one corpus kernel's trace and compiled
    programs at a time, on every executor path."""

    @staticmethod
    def held(session: Session) -> set[str]:
        """Programs with a trace or a compiled program in the session."""
        return {key[0] for key in [*session._programs, *session._compiled]}

    @pytest.fixture(scope="class")
    def reference(self):
        corpus = generate_corpus(6, seed=0, scale=TINY)
        return run_generalization_study(Session(scale=TINY), corpus)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("batch", [True, False])
    def test_cold_study_releases_every_kernel(self, reference, batch, jobs):
        corpus = generate_corpus(6, seed=0, scale=TINY)
        session = Session(scale=TINY, batch=batch, jobs=jobs)
        result = run_generalization_study(session, corpus)
        assert result == reference
        assert not self.held(session) & set(corpus.names)
        assert session.stats["kernels_built"] == 6

    def test_peak_memory_does_not_grow_with_the_corpus(self):
        def peak(size: int) -> int:
            corpus = generate_corpus(size, seed=0, scale=TINY)
            session = Session(scale=TINY)
            tracemalloc.start()
            try:
                run_generalization_study(session, corpus)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.3 * peak(2)

    def test_no_pool_worker_holds_two_kernels(self, tmp_path, monkeypatch):
        log = tmp_path / "held.log"
        evaluate = Session._evaluate_task

        def checked(session, task):
            pairs = evaluate(session, task)
            with log.open("a") as handle:
                handle.write(f"{os.getpid()} {len(self.held(session))}\n")
            return pairs

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(Session, "_evaluate_task", checked)
        corpus = generate_corpus(6, seed=0, scale=TINY)
        run_generalization_study(Session(scale=TINY, jobs=2), corpus)
        entries = [line.split() for line in log.read_text().splitlines()]
        assert len(entries) == 6 * len(corpus.names)
        assert str(os.getpid()) not in {pid for pid, _ in entries}
        assert max(int(held) for _, held in entries) == 1
