"""Shared fixtures: small hand-built programs and a tiny session.

Simulation-heavy fixtures are session-scoped; everything they return is
treated as immutable by the tests.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import KernelBuilder, Program, Session


def build_daxpy(n: int = 16, name: str = "daxpy") -> Program:
    """y[i] += a * x[i] — the smallest realistic streaming kernel."""
    builder = KernelBuilder(name)
    x = builder.array("x", n)
    y = builder.array("y", n)
    iv = None
    for i in range(n):
        iv = builder.induction(iv)
        xv = builder.load(x, i, iv)
        yv = builder.load(y, i, iv)
        builder.store(y, i, builder.fma(xv, yv), iv)
    return builder.build()


def build_pointer_chase(n: int = 8, name: str = "chase") -> Program:
    """Each load's address depends on the previous load's value."""
    builder = KernelBuilder(name)
    table = builder.array("table", n)
    previous = None
    for i in range(n):
        deps = () if previous is None else (previous,)
        previous = builder.load(table, i, *deps)
    return builder.build()


def build_feedback(n: int = 8, name: str = "feedback") -> Program:
    """FP results steer addressing: a loss-of-decoupling chain."""
    builder = KernelBuilder(name)
    data = builder.array("data", n)
    gate = None
    for i in range(n):
        deps = () if gate is None else (gate,)
        value = builder.load(data, i, *deps)
        squared = builder.fmul(value, value)
        gate = builder.cvt_f2i(squared)
    return builder.build()


def build_rmw_chain(n: int = 8, name: str = "rmw") -> Program:
    """Read-modify-write of a single location: store->load serialisation."""
    builder = KernelBuilder(name)
    cell = builder.array("cell", 1)
    iv = None
    for _ in range(n):
        iv = builder.induction(iv)
        old = builder.load(cell, 0, iv)
        new = builder.fadd(old, old)
        builder.store(cell, 0, new, iv)
    return builder.build()


@pytest.fixture(scope="session")
def daxpy() -> Program:
    return build_daxpy()


@pytest.fixture(scope="session")
def pointer_chase() -> Program:
    return build_pointer_chase()


@pytest.fixture(scope="session")
def feedback() -> Program:
    return build_feedback()


@pytest.fixture(scope="session")
def rmw_chain() -> Program:
    return build_rmw_chain()


@pytest.fixture(scope="session")
def tiny_lab() -> Session:
    """A session small enough for wiring tests (not for fidelity checks)."""
    return Session(scale=2_000)


@pytest.fixture(scope="session")
def claims_lab() -> Session:
    """The session used by the paper-claims integration tests."""
    return Session(scale=8_000)


@pytest.fixture(scope="session")
def tiny_report_site(tmp_path_factory):
    """A full report site built once at tiny scale, shared across tests.

    Returns ``(out_dir, manifest, session)``. The session keeps its
    in-memory caches, so a second ``build_report`` against it (for
    determinism checks) is nearly free.
    """
    from repro import Session, build_report, generate_corpus
    from repro.experiments import PRESETS

    preset = PRESETS["tiny"]
    out = tmp_path_factory.mktemp("report") / "site"
    session = Session(scale=preset.scale)
    session.store(tmp_path_factory.mktemp("store") / "results.sqlite")
    corpus = generate_corpus(4, seed=0, scale=preset.scale)
    manifest = build_report(
        session,
        preset,
        out,
        corpus=corpus,
        bench_path=Path(__file__).resolve().parent.parent
        / "BENCH_engine.json",
    )
    return out, manifest, session
