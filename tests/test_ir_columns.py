"""A program is its columns: builder-made traces versus object-made ones.

:class:`~repro.ir.KernelBuilder` writes integer trace columns directly,
and :class:`~repro.ir.Instruction` objects are views made on first
index or iteration. These tests pin that the two construction paths
agree on every column and every derived face, that a built program
never aliases its builder, that the shipped compile path never makes
the views, and that a generated corpus builds nothing until its entries
are read, so a study over it builds each kernel once, in the session.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import KernelBuilder, Program
from repro.api import Session
from repro.api.presets import generalization_sweep
from repro.config import DEFAULT_MEMORY_DIFFERENTIAL
from repro.experiments.generalization import run_generalization_study
from repro.experiments.scales import PRESETS
from repro.ir.program import TraceColumns
from repro.kernels import build_kernel, list_kernels
from repro.workloads import (
    FAMILIES,
    Corpus,
    CorpusEntry,
    build_generated,
    characterize,
    generate_corpus,
    load_manifest,
    write_manifest,
)

TINY = PRESETS["tiny"].scale


def _programs():
    for name in list_kernels():
        yield name, lambda name=name: build_kernel(name, TINY)
    for family in FAMILIES:
        yield f"gen:{family}", lambda family=family: build_generated(
            family, 11, TINY
        )


@pytest.mark.parametrize("build", [b for _, b in _programs()],
                         ids=[n for n, _ in _programs()])
def test_columns_match_the_instruction_path(build):
    built = build()
    rebuilt = Program(built.name, list(built), built.meta)
    for field in TraceColumns.__slots__:
        assert getattr(rebuilt.columns, field) == getattr(
            built.columns, field
        ), field
    assert rebuilt.digest() == built.digest()
    assert rebuilt.consumers == built.consumers
    assert len(rebuilt) == len(built)
    assert list(rebuilt) == list(built)
    assert rebuilt.meta == built.meta


def test_views_carry_every_field():
    builder = KernelBuilder("views")
    a = builder.array("a", 4)
    iv = builder.induction(None)
    builder.store(a, 1, builder.fadd(tag="x"), iv)
    loaded = builder.load(a, 1, iv)
    program = builder.build()
    load = program[loaded.index]
    assert load.index == loaded.index
    assert load.addr == a.base + 1
    assert load.addr_src == loaded.index - 1
    assert load.mem_dep == 3
    assert program[0].addr is None and program[0].mem_dep is None
    assert program[1].tag == "x"
    assert program[1:3] == program.instructions[1:3]


def test_emitting_after_build_leaves_the_program_unchanged():
    builder = KernelBuilder("alias")
    a = builder.array("a", 8)
    value = builder.load(a, 0)
    first = builder.build()
    before = (len(first), first.digest(), list(first.columns.srcs))
    builder.store(a, 1, builder.fadd(value, tag="later"))
    assert (len(first), first.digest(), list(first.columns.srcs)) == before
    second = builder.build()
    assert len(second) == len(first) + 3
    assert second.columns.tags[-3] == "later"
    # The second program is just as independent of further emission.
    builder.fadd(tag="third")
    assert len(second) == len(first) + 3


@pytest.mark.parametrize("name", ["trfd", "gen:gather:11"])
def test_shipped_path_makes_no_instruction_objects(name, tmp_path):
    session = Session(scale=TINY, cache_dir=tmp_path)
    program = session.program(name)
    program.validate()
    program.digest()
    characterize(program)
    session.profile(name)
    assert program.stats.total == len(program)
    program.critical_path(60)
    program.serial_time(60)
    session.compiled(name, "dm", "slice")
    session.compiled(name, "swsm")
    assert "instructions" not in program.__dict__


def test_compiling_for_both_machines_hashes_the_program_once(
    tmp_path, monkeypatch
):
    import hashlib
    from types import SimpleNamespace

    import repro.ir.program as program_module

    hashes: list[str] = []

    def counting(*args):
        hashes.append("sha256")
        return hashlib.sha256(*args)

    monkeypatch.setattr(program_module, "hashlib",
                        SimpleNamespace(sha256=counting))
    # The lowering cache looks the digest up on load and again on store.
    session = Session(scale=TINY, cache_dir=tmp_path)
    session.compiled("mdg", "dm")
    session.compiled("mdg", "swsm")
    assert len(hashes) == 1
    # A fresh session loads both from disk, hashing its own program once.
    again = Session(scale=TINY, cache_dir=tmp_path)
    again.compiled("mdg", "dm")
    again.compiled("mdg", "swsm")
    assert len(hashes) == 2


def test_digest_follows_a_renamed_program():
    program = build_kernel("trfd", TINY)
    before = program.digest()
    program.name = "renamed"
    renamed = Program("renamed", program.columns)
    assert program.digest() == renamed.digest() != before
    program.name = "trfd"
    assert program.digest() == before


class TestCorpusHandOff:
    """A study over a fresh corpus builds through the session only."""

    SIZE = 6

    def test_study_builds_each_generated_kernel_once(self, monkeypatch):
        builds: list[str] = []

        def counting(family, seed, scale):
            program = build_generated(family, seed, scale)
            builds.append(program.name)
            return program

        monkeypatch.setattr("repro.workloads.grammar.build_generated",
                            counting)
        monkeypatch.setattr("repro.workloads.corpus.build_generated",
                            counting)
        corpus = generate_corpus(self.SIZE, seed=3, scale=TINY)
        session = Session(scale=TINY)
        result = run_generalization_study(session, corpus)
        assert result.kernels == self.SIZE
        assert sorted(builds) == sorted(corpus.names)
        assert session.stats["kernels_built"] == self.SIZE

    def test_adopted_programs_match_a_fresh_build(self):
        corpus = generate_corpus(self.SIZE, seed=3, scale=TINY)
        session = Session(scale=TINY)
        run_generalization_study(session, corpus)
        assert all(entry.pending for entry in corpus.entries)
        for entry in corpus.entries:
            digest = session.program(entry.name).digest()
            assert digest == build_kernel(entry.name, TINY).digest()
            assert digest == entry.digest

    def test_programs_the_session_holds_win(self):
        corpus = generate_corpus(2, seed=3, scale=TINY)
        session = Session(scale=TINY)
        session.run(generalization_sweep(
            corpus.names, 32, DEFAULT_MEMORY_DIFFERENTIAL,
        ))
        held = {name: session.program(name) for name in corpus.names}
        built = session.stats["kernels_built"]
        # Everything the study needs is already simulated: its bands
        # come from the programs the session holds, and nothing more
        # is built.
        run_generalization_study(session, corpus)
        assert session.stats["kernels_built"] == built
        for name in corpus.names:
            assert session.program(name) is held[name]

    def test_other_scale_builds_its_own(self):
        corpus = generate_corpus(2, seed=3, scale=TINY)
        session = Session(scale=2 * TINY)
        run_generalization_study(session, corpus)
        # The bands come from the corpus-scale entries, resolved.
        assert not any(entry.pending for entry in corpus.entries)
        for entry in corpus.entries:
            program = session.program(entry.name)
            assert program.digest() == build_kernel(
                entry.name, 2 * TINY
            ).digest()
            assert len(program) > entry.instructions

    def test_programs_stay_out_of_the_manifest(self, tmp_path):
        corpus = generate_corpus(2, seed=3, scale=TINY)
        loaded = load_manifest(write_manifest(corpus, tmp_path / "c.toml"))
        assert loaded == corpus
        assert not hasattr(corpus, "programs")
        assert "_scale" not in repr(corpus.entries[0])


def _eager(corpus) -> Corpus:
    """``corpus`` with every entry built now, the way generation did
    before entries resolved on demand."""
    entries = []
    for entry in corpus.entries:
        program = build_generated(entry.family, entry.seed, corpus.scale)
        profile = characterize(program)
        entries.append(CorpusEntry(
            name=entry.name,
            family=entry.family,
            seed=entry.seed,
            digest=program.digest(),
            instructions=len(program),
            predicted_band=profile.predicted_band,
            lod_rate=round(profile.lod_rate, 4),
            memory_fraction=round(profile.memory_fraction, 4),
        ))
    return dataclasses.replace(corpus, entries=tuple(entries))


class TestLazyCorpus:
    """generate_corpus draws names only; entries build on first read."""

    def test_generated_equals_its_loaded_manifest(self, tmp_path):
        for suffix in (".toml", ".json"):
            corpus = generate_corpus(6, seed=5, scale=TINY)
            path = write_manifest(corpus, tmp_path / f"c{suffix}")
            assert generate_corpus(6, seed=5, scale=TINY) == load_manifest(
                path
            )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_manifest_is_byte_identical_to_an_eager_build(
        self, family, tmp_path
    ):
        lazy = generate_corpus(3, seed=1, scale=TINY, families=(family,))
        eager = _eager(generate_corpus(
            3, seed=1, scale=TINY, families=(family,)
        ))
        lazy_path = write_manifest(lazy, tmp_path / "lazy.toml")
        eager_path = write_manifest(eager, tmp_path / "eager.toml")
        assert lazy_path.read_bytes() == eager_path.read_bytes()
        assert json.dumps(lazy.to_dict()) == json.dumps(eager.to_dict())

    def test_study_bands_equal_the_resolved_entries(self):
        corpus = generate_corpus(len(FAMILIES), seed=2, scale=TINY)
        result = run_generalization_study(Session(scale=TINY), corpus)
        assert all(entry.pending for entry in corpus.entries)
        assert [row.predicted_band for row in result.rows] == [
            entry.predicted_band for entry in corpus.entries
        ]

    def test_names_and_len_build_nothing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a corpus kernel was built")

        monkeypatch.setattr("repro.workloads.corpus.build_generated",
                            forbidden)
        monkeypatch.setattr("repro.workloads.corpus.characterize",
                            forbidden)
        corpus = generate_corpus(8, seed=4, scale=TINY)
        assert len(corpus) == 8
        assert len(corpus.names) == len(set(corpus.names)) == 8
        assert corpus.families == FAMILIES
        assert all(entry.pending for entry in corpus.entries)
        with pytest.raises(AssertionError, match="built"):
            corpus.entries[0].digest

    def test_each_entry_resolves_once(self, monkeypatch):
        builds: list[str] = []

        def counting(family, seed, scale):
            builds.append(f"{family}:{seed}")
            return build_generated(family, seed, scale)

        monkeypatch.setattr("repro.workloads.corpus.build_generated",
                            counting)
        corpus = generate_corpus(4, seed=4, scale=TINY)
        corpus.to_dict()
        corpus.to_dict()
        assert corpus == generate_corpus(4, seed=4, scale=TINY)
        assert len(builds) == 8  # four here, four for the second corpus
        assert not any(entry.pending for entry in corpus.entries)
