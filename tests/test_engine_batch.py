"""Parity suite for the batched sweep engine (:mod:`repro.machines.batch`).

The batched engine stacks N sweep lanes — same lowered program,
different (window, memory) pairs — into one struct-of-arrays stepping
loop. Its contract is *bit-exactness*: every lane must produce the
SimulationResult the scalar engine would, and Session-level batching
must leave result-store keys and payloads untouched. The suite checks:

* lane-for-lane parity against ``simulate`` on every declarative
  memory kind and both machine models (stateful kinds exercise the
  per-lane fallback path);
* the same parity against the scalar fast loop with its steady-state
  skip armed and disarmed, and with a leftover ``REPRO_EVENT_ENGINE``
  that must change nothing;
* Session runs with ``batch=True`` vs ``batch=False``: identical
  results, identical store keys, byte-identical payloads,
  serial and ``jobs=4``;
* singleton groups through ``Session.evaluate_batch``, the per-lane
  batch counters, the on-disk lowering cache, and the warm store path;
* a Hypothesis property over generated ``gen:<family>:<seed>``
  kernels.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro import (  # noqa: E402
    DecoupledMachine,
    ResultStore,
    SuperscalarMachine,
    Unit,
    UnitConfig,
)
from repro.api import MemorySpec, Point, Session, Sweep  # noqa: E402
from repro.experiments.scales import PRESETS  # noqa: E402
from repro.kernels import build_kernel  # noqa: E402
from repro.machines import registry, simulate, swsm  # noqa: E402
from repro.machines.batch import (  # noqa: E402
    BatchLane,
    simulate_batch,
    vector_eligible,
)
from repro.errors import SimulationError  # noqa: E402
from repro.machines.lowered import LoweredProgram  # noqa: E402
from repro.memory import FixedLatencyMemory, MemorySystem  # noqa: E402
from repro.obs.telemetry import add_counters, zero_counters  # noqa: E402
from repro.workloads.grammar import FAMILIES  # noqa: E402
from test_engine_soa import run_unskipped  # noqa: E402

TINY = PRESETS["tiny"].scale

MEMORY_SPECS = {
    "fixed": MemorySpec(kind="fixed"),
    "bypass": MemorySpec(kind="bypass", entries=16, line_bytes=32),
    "cache": MemorySpec(kind="cache"),
    "hierarchy": MemorySpec(
        kind="hierarchy", levels=((4096, 32, 2, 1), (65536, 32, 4, 6))
    ),
    "banked": MemorySpec(kind="banked", banks=4, bank_busy=3),
    "prefetch": MemorySpec(kind="prefetch", entries=8, streams=2),
}

#: Kinds whose models are uniform; these must take the vectorized path
#: (checked via the lane counters).
UNIFORM_KINDS = ("fixed",)


def dm_configs(window: int) -> dict[Unit, UnitConfig]:
    return {
        Unit.AU: UnitConfig(window=window, width=4, name="AU"),
        Unit.DU: UnitConfig(window=window, width=5, name="DU"),
    }


def swsm_configs(window: int) -> dict[Unit, UnitConfig]:
    return {Unit.SINGLE: UnitConfig(window=window, width=9)}


_MAKE_CONFIGS = {"dm": dm_configs, "swsm": swsm_configs}
_COMPILED_CACHE: dict[tuple[str, str, int], object] = {}


def compiled_for(name: str, machine: str, scale: int = TINY):
    """Compile once per (kernel, machine); the suite reuses programs."""
    key = (name, machine, scale)
    if key not in _COMPILED_CACHE:
        program = build_kernel(name, scale)
        cls = DecoupledMachine if machine == "dm" else SuperscalarMachine
        _COMPILED_CACHE[key] = cls.compile(program)
    return _COMPILED_CACHE[key]


class AddressHashMemory(MemorySystem):
    """An address-pure model: not uniform, so never vectorized."""

    def __init__(self, base: int = 40) -> None:
        self.base = base
        self.queries = 0

    def extra_latency(self, addr: int, now: int) -> int:
        self.queries += 1
        return self.base + (addr >> 3) % 7

    def latencies(self, addrs, now):
        self.queries += len(addrs)
        return [self.base + (addr >> 3) % 7 for addr in addrs]

    def reset(self) -> None:
        pass


def lane_counters(results) -> dict[str, int]:
    """Counters summed over the lane results of one batched call."""
    total = zero_counters()
    for result in results:
        add_counters(total, result.telemetry.counters)
    return total


def shipped(compiled, configs, memory):
    return simulate(compiled, configs, memory, collect_issue_times=True)


def unskipped(compiled, configs, memory):
    return run_unskipped(compiled, configs, memory)[0]


def assert_lane_parity(compiled, lanes, reference_memories,
                       scalar=shipped) -> list:
    """Each batched lane equals a fresh scalar run of the same lane.

    Returns the batched results.
    """
    results = simulate_batch(compiled, lanes, collect_issue_times=True)
    assert len(results) == len(lanes)
    for lane, memory, got in zip(lanes, reference_memories, results):
        assert got == scalar(compiled, lane.unit_configs, memory)
    return results


class TestLaneParity:
    """simulate_batch vs simulate, every memory kind, both machines."""

    @pytest.mark.parametrize("machine", ("dm", "swsm"))
    @pytest.mark.parametrize("kind", sorted(MEMORY_SPECS))
    def test_memory_kind(self, machine, kind):
        spec = MEMORY_SPECS[kind]
        compiled = compiled_for("flo52q", machine)
        make = _MAKE_CONFIGS[machine]
        grid = [(8, 60), (32, 0), (32, 60), (64, 60)]
        lanes = [
            BatchLane(unit_configs=make(window), memory=spec.build(md))
            for window, md in grid
        ]
        refs = [spec.build(md) for _, md in grid]
        results = assert_lane_parity(compiled, lanes, refs)
        if kind in UNIFORM_KINDS:
            counters = lane_counters(results)
            assert counters["batch_runs"] >= 1
            # Aperiodic lanes may be evicted to the scalar fallback;
            # every lane is accounted for either way.
            vectorized = counters["batch_lanes"]
            fallback = counters["batch_fallback_lanes"]
            assert vectorized + fallback == len(grid)
            assert vectorized >= 2
            assert any(r.telemetry.strategy == "batch" for r in results)

    @pytest.mark.parametrize("machine", ("dm", "swsm"))
    def test_stateful_kinds_fall_back_per_lane(self, machine):
        """Stateful memory lanes route through the scalar engine."""
        compiled = compiled_for("trfd", machine)
        make = _MAKE_CONFIGS[machine]
        spec = MEMORY_SPECS["cache"]
        lanes = [
            BatchLane(unit_configs=make(w), memory=spec.build(60))
            for w in (8, 32)
        ]
        results = simulate_batch(compiled, lanes)
        assert lane_counters(results)["batch_fallback_lanes"] == 2
        for lane, got in zip(lanes, results):
            assert got.cycles == simulate(
                compiled, lane.unit_configs, spec.build(60)
            ).cycles

    @pytest.mark.parametrize("machine", ("dm", "swsm"))
    def test_custom_stateless_model_queried_identically(self, machine):
        """Address-pure models fall back to the scalar engine, with
        bit-identical results and query counts."""
        compiled = compiled_for("mdg", machine)
        make = _MAKE_CONFIGS[machine]
        mems = [AddressHashMemory() for _ in range(3)]
        lanes = [
            BatchLane(unit_configs=make(w), memory=m)
            for w, m in zip((4, 16, 128), mems)
        ]
        refs = [AddressHashMemory() for _ in range(3)]
        results = assert_lane_parity(compiled, lanes, refs)
        assert lane_counters(results)["batch_fallback_lanes"] == 3
        for lane_mem, ref_mem in zip(mems, refs):
            assert lane_mem.queries == ref_mem.queries

    @pytest.mark.parametrize("period_skip", ("1", "0"))
    @pytest.mark.parametrize("event_engine", ("0", "1"))
    def test_parity_under_engine_toggles(
        self, monkeypatch, period_skip, event_engine
    ):
        """Lanes match the scalar loop with its skip armed or disarmed.

        ``period_skip="1"`` compares against shipped ``simulate``;
        ``"0"`` against the fast loop driven directly with the
        steady-state skip disarmed. ``REPRO_EVENT_ENGINE`` no longer
        exists; a leftover value in the environment must change
        nothing either.
        """
        monkeypatch.setenv("REPRO_EVENT_ENGINE", event_engine)
        compiled = compiled_for("flo52q", "dm")
        grid = [(8, 60), (64, 0), (64, 60)]
        lanes = [
            BatchLane(
                unit_configs=dm_configs(w), memory=FixedLatencyMemory(md)
            )
            for w, md in grid
        ]
        refs = [FixedLatencyMemory(md) for _, md in grid]
        scalar = shipped if period_skip == "1" else unskipped
        assert_lane_parity(compiled, lanes, refs, scalar)

    def test_mixed_lanes_split_vector_and_fallback(self):
        compiled = compiled_for("trfd", "dm")
        lanes = [
            BatchLane(
                unit_configs=dm_configs(16), memory=FixedLatencyMemory(60)
            ),
            BatchLane(
                unit_configs=dm_configs(16),
                memory=MEMORY_SPECS["banked"].build(60),
            ),
            BatchLane(
                unit_configs=dm_configs(32), memory=FixedLatencyMemory(70)
            ),
        ]
        refs = [
            FixedLatencyMemory(60),
            MEMORY_SPECS["banked"].build(60),
            FixedLatencyMemory(70),
        ]
        counters = lane_counters(assert_lane_parity(compiled, lanes, refs))
        assert counters["batch_lanes"] == 2
        assert counters["batch_fallback_lanes"] == 1

    def test_vector_eligible_predicate(self):
        assert vector_eligible(FixedLatencyMemory(60), 32)
        assert not vector_eligible(AddressHashMemory(), 64)
        # Unlimited windows resolve to program length >> the cap.
        assert not vector_eligible(FixedLatencyMemory(60), None)
        assert not vector_eligible(FixedLatencyMemory(60), 4096)
        assert not vector_eligible(MEMORY_SPECS["cache"].build(60), 32)


def sweep_for(machines=("dm", "swsm")) -> Sweep:
    return Sweep.grid(
        program="trfd",
        machine=machines,
        window=(8, 16, 32),
        memory_differential=(0, 60),
    )


def run_session(tmp_path, label, *, batch, jobs=1, sweep=None, scale=TINY):
    cache = tmp_path / label
    session = Session(scale=scale, cache_dir=cache, batch=batch)
    outcome = session.run(sweep or sweep_for(), jobs=jobs)
    return session, outcome, cache


def _no_compile(*args, **kwargs):
    raise AssertionError("compiled despite a warm lowering cache")


class _Pickled:
    """Pickles as ``cls`` restored from ``state``: an entry written by
    an older layout of ``cls``."""

    def __init__(self, cls, state) -> None:
        self.cls, self.state = cls, state

    def __reduce__(self):
        return (self.cls, (), self.state)


def cache_snapshot(cache_dir) -> dict[str, bytes]:
    """Store key -> payload bytes of ``cache_dir``'s result store."""
    with ResultStore(cache_dir / "results.sqlite") as store:
        return dict(store._con.execute("SELECT key, payload FROM results"))


def drop_results(session) -> None:
    """Close and delete a session's result store; keep its lowerings."""
    session.store().close()
    for path in Path(session.cache_dir).glob("results.sqlite*"):
        path.unlink()


class TestSessionParity:
    """Batched sweeps: same results, same cache keys, same bytes."""

    def test_serial_batched_matches_per_point(self, tmp_path):
        batched, got, bdir = run_session(tmp_path, "b", batch=True)
        scalar, want, sdir = run_session(tmp_path, "s", batch=False)
        assert got.results == want.results
        snapshot = cache_snapshot(bdir)
        assert snapshot == cache_snapshot(sdir)
        assert len(snapshot) == len(got)
        assert batched.stats["batch_groups"] > 0
        assert batched.stats["batch_points"] > 0
        assert scalar.stats["batch_groups"] == 0
        assert batched.stats["evaluated"] == scalar.stats["evaluated"]
        assert batched.stats["disk_misses"] == scalar.stats["disk_misses"]

    def test_parallel_batched_matches_per_point(self, tmp_path):
        _, got, bdir = run_session(tmp_path, "b4", batch=True, jobs=4)
        _, want, sdir = run_session(tmp_path, "s1", batch=False)
        assert got.results == want.results
        snapshot = cache_snapshot(bdir)
        assert snapshot == cache_snapshot(sdir)
        assert len(snapshot) == len(got)

    def test_stateful_memory_sweep_unaffected(self, tmp_path):
        sweep = Sweep.grid(
            program="trfd",
            machine=("dm",),
            window=(8, 16),
            memory_differential=(0, 60),
            memory=(MEMORY_SPECS["cache"],),
        )
        batched, got, _ = run_session(
            tmp_path, "b", batch=True, sweep=sweep
        )
        _, want, _ = run_session(tmp_path, "s", batch=False, sweep=sweep)
        assert got.results == want.results
        # Stateful lanes never enter a batch group.
        assert batched.stats["batch_groups"] == 0

    def test_evaluate_batch_handles_singletons(self):
        # The planner only batches groups of two or more; a one-lane
        # group through evaluate_batch enters simulate_batch, which
        # never vectorizes fewer than two lanes: the lane takes the
        # counted scalar fallback and must still match evaluate.
        point = Point(program="trfd", machine="dm", window=16,
                      memory_differential=60)
        session = Session(scale=TINY)
        [(got_point, got)] = session.evaluate_batch([point])
        assert got.telemetry.strategy == "uniform-table"
        assert got.telemetry.counters["batch_fallback_lanes"] == 1
        assert got.telemetry.counters["batch_lanes"] == 0
        assert got_point == point
        assert got == Session(scale=TINY).evaluate(point)

    def test_session_knob_overrides_env(self, tmp_path, monkeypatch):
        # The knob is the only switch: a leftover REPRO_BATCH_ENGINE in
        # the environment changes nothing in either direction.
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "force")
        session, _, _ = run_session(tmp_path, "knob", batch=False)
        assert session.stats["batch_groups"] == 0
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "off")
        session, _, _ = run_session(tmp_path, "default", batch=True)
        assert session.stats["batch_groups"] > 0


class TestLoweringCache:
    """The digest-keyed on-disk lowering cache under ``lowered/``."""

    def test_populated_and_reused(self, tmp_path, monkeypatch):
        first, got, cache = run_session(tmp_path, "lc", batch=True)
        entries = sorted((cache / "lowered").glob("*.pkl"))
        assert entries  # one per (program, machine, partition)
        # A second session must load every lowering instead of
        # recompiling (both compilers now raise), and still produce
        # identical results.
        monkeypatch.setattr(
            "repro.machines.registry.partition_with_strategy", _no_compile
        )
        monkeypatch.setattr("repro.machines.swsm.lower_swsm", _no_compile)
        drop_results(first)  # force re-simulation, keep lowerings
        second = Session(scale=TINY, cache_dir=cache, batch=True)
        want = second.run(sweep_for())
        assert want.results == got.results
        assert second.stats["evaluated"] == len(list(sweep_for().points()))

    def test_source_edit_misses_every_entry(self, tmp_path, monkeypatch):
        first, got, cache = run_session(tmp_path, "lc", batch=True)
        cold = len(list((cache / "lowered").glob("*.pkl")))
        drop_results(first)
        # Another package source digest (an edit to any compiler
        # module) must miss every entry the old sources wrote.
        monkeypatch.setattr(
            "repro.api.session.source_digest", lambda: "edited"
        )
        compiled = []
        for module, name in ((registry, "partition_with_strategy"),
                             (swsm, "lower_swsm")):
            def counting(*args, _real=getattr(module, name), **kwargs):
                compiled.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        edited = Session(scale=TINY, cache_dir=cache, batch=True)
        for machine in ("dm", "swsm"):
            source = edited.program("trfd")
            assert edited._lowering_load(source, machine, "slice") is None
        want = edited.run(sweep_for())
        assert want.results == got.results
        assert len(compiled) == cold == 2
        # The first write under the new sources deletes the old entries.
        assert len(list((cache / "lowered").glob("*.pkl"))) == cold

    def test_old_layout_entry_recompiles(self, tmp_path):
        first, got, cache = run_session(tmp_path, "lc", batch=True)
        # The format-1 layout: a (program, columns) pair, here pickled
        # at the current key. Loading must recompile, not half-load.
        for path in (cache / "lowered").glob("*.pkl"):
            compiled = pickle.loads(path.read_bytes())
            path.write_bytes(pickle.dumps((compiled, compiled.lowered())))
        drop_results(first)
        recovering = Session(scale=TINY, cache_dir=cache, batch=True)
        for machine in ("dm", "swsm"):
            source = recovering.program("trfd")
            assert recovering._lowering_load(source, machine, "slice") is None
        want = recovering.run(sweep_for())
        assert want.results == got.results
        assert recovering.stats["evaluated"] == len(got)

    def test_format2_column_layout_recompiles(self, tmp_path):
        first, got, cache = run_session(tmp_path, "lc", batch=True)
        # The format-2 layout: the per-gid columns as tuple slots named
        # like today's views, pickled at the current key.
        old_slots = (
            "total", "units", "stream_gids", "n_srcs", "src_off", "cons",
            "mode", "lat", "addr", "unit_index", "orig_index",
            "base_addlat", "memory_gids", "mem_units", "is_mem",
            "min_latency", "min_dep_offset", "dep_span", "pair",
            "delivers", "pair_missing", "_steady",
        )
        for path in (cache / "lowered").glob("*.pkl"):
            compiled = pickle.loads(path.read_bytes())
            low = compiled.lowered()
            state = {slot: getattr(low, slot) for slot in old_slots}
            compiled._low = _Pickled(LoweredProgram, state)
            path.write_bytes(pickle.dumps(compiled))
        with pytest.raises(SimulationError, match="column layout"):
            pickle.loads(path.read_bytes())
        drop_results(first)
        recovering = Session(scale=TINY, cache_dir=cache, batch=True)
        for machine in ("dm", "swsm"):
            source = recovering.program("trfd")
            assert recovering._lowering_load(source, machine, "slice") is None
        want = recovering.run(sweep_for())
        assert want.results == got.results
        assert recovering.stats["evaluated"] == len(got)

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.api.session.os.replace", refuse)
        session = Session(scale=TINY, cache_dir=tmp_path / "lc")
        compiled = session.compiled("trfd", "dm")
        assert compiled.num_instructions > 0  # compiling still succeeds
        assert list((tmp_path / "lc" / "lowered").iterdir()) == []

    def test_corrupt_entry_recompiles(self, tmp_path):
        first, got, cache = run_session(tmp_path, "lc", batch=True)
        for path in (cache / "lowered").glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        drop_results(first)
        recovering = Session(scale=TINY, cache_dir=cache, batch=True)
        want = recovering.run(sweep_for())
        assert want.results == got.results
        assert recovering.stats["evaluated"] == len(got)


class TestWarmPath:
    """Disk-cache reads on re-runs."""

    def test_warm_rerun_is_all_disk_hits(self, tmp_path):
        _, got, cache = run_session(tmp_path, "warm", batch=True)
        warm = Session(scale=TINY, cache_dir=cache, batch=True)
        outcome = warm.run(sweep_for())
        assert outcome.results == got.results
        assert warm.stats["evaluated"] == 0
        assert warm.stats["disk_hits"] == len(list(sweep_for().points()))


@settings(max_examples=10, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 500),
    window=st.sampled_from([4, 16, 64]),
    md=st.sampled_from([0, 7, 60]),
)
def test_generated_kernel_lane_parity(family, seed, window, md):
    """Batched vs scalar on arbitrary generated-grammar kernels."""
    compiled = compiled_for(f"gen:{family}:{seed}", "dm", TINY)
    lanes = [
        BatchLane(
            unit_configs=dm_configs(window), memory=FixedLatencyMemory(md)
        ),
        BatchLane(
            unit_configs=dm_configs(2 * window),
            memory=FixedLatencyMemory(md),
        ),
    ]
    refs = [FixedLatencyMemory(md), FixedLatencyMemory(md)]
    assert_lane_parity(compiled, lanes, refs)
