"""A program is its columns: builder-made traces versus object-made ones.

:class:`~repro.ir.KernelBuilder` writes integer trace columns directly,
and :class:`~repro.ir.Instruction` objects are views made on first
index or iteration. These tests pin that the two construction paths
agree on every column and every derived face, that a built program
never aliases its builder, that the shipped compile path never makes
the views, and that a generated corpus hands its programs to the
session instead of having them built twice.
"""

from __future__ import annotations

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

    def test_adopted_programs_match_a_fresh_build(self):
        corpus = generate_corpus(self.SIZE, seed=3, scale=TINY)
        built = dict(corpus.programs)
        session = Session(scale=TINY)
        run_generalization_study(session, corpus)
        assert corpus.programs == {}  # handed over, not shared
        for name in corpus.names:
            adopted = session.program(name)
            assert adopted is built[name]
            assert adopted.digest() == build_kernel(name, TINY).digest()

    def test_programs_the_session_holds_win(self):
        corpus = generate_corpus(2, seed=3, scale=TINY)
        built = dict(corpus.programs)
        session = Session(scale=TINY)
        session.run(generalization_sweep(
            corpus.names, 32, DEFAULT_MEMORY_DIFFERENTIAL,
        ))
        # Everything the study needs is already simulated: the session
        # has built its own programs and takes none of the corpus's.
        run_generalization_study(session, corpus)
        for name in corpus.names:
            assert session.program(name) is not built[name]
        assert session._prebuilt == {}

    def test_other_scale_builds_its_own(self):
        corpus = generate_corpus(2, seed=3, scale=TINY)
        session = Session(scale=2 * TINY)
        run_generalization_study(session, corpus)
        for name in corpus.names:
            assert session.program(name) is not corpus.programs[name]
            assert len(session.program(name)) > len(corpus.programs[name])

    def test_programs_stay_out_of_the_manifest(self, tmp_path):
        corpus = generate_corpus(2, seed=3, scale=TINY)
        assert set(corpus.programs) == set(corpus.names)
        loaded = load_manifest(write_manifest(corpus, tmp_path / "c.toml"))
        assert loaded == corpus
        assert loaded.programs == {}
        assert "programs" not in corpus.to_dict()
        assert "programs" not in repr(corpus)
