"""The experiment session: evaluate points and sweeps, cached and parallel.

``Session`` keeps three levels of in-memory memoisation — architectural
traces, compiled machine programs, simulation results — plus the static
page records of :meth:`Session.static_record`, and adds two things:

* a **persistent result store** (``cache_dir``): every result is
  recorded in ``cache_dir/results.sqlite``, a
  :class:`~repro.report.ResultStore`, under the SHA-256 of (point,
  scale, latency model, cache format), so a second process, a later
  session or a re-run of a CLI command reuses earlier simulations
  byte-for-byte; any change to the spec, the scale or the latencies
  changes the key and forces a fresh run. Compiled programs are cached
  beside it, as files under ``cache_dir/lowered/``. A store attached
  with :meth:`Session.store` takes the place of ``results.sqlite``;
* **one sweep executor** (``jobs``, ``batch``): :meth:`Session.run`
  plans a sweep's uncached points into tasks — batch groups of points
  that share a compiled program, then one-point tasks in sweep order —
  and runs every task once, through one local loop or, with
  ``jobs > 1``, one ``concurrent.futures`` pool map (tasks a worker
  cannot run stay in the local loop). Every result is folded into the
  caches the same way wherever it ran, and because every simulation is
  deterministic and cycle-exact the results are identical to a serial
  run — only the wall clock changes.

Machines are resolved through :mod:`repro.machines.registry`, so a
machine registered with :func:`repro.machines.register_machine`
participates in sweeps, caching and parallelism with no changes here.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..config import LatencyModel, require_scale
from ..ir import Program
from ..ir.transforms import expand_code
from ..kernels import build_kernel
from ..machines import LoweredProgram, SimulationResult
from ..machines.registry import get_machine
from ..obs.telemetry import RunTelemetry, add_counters, zero_counters
from ..obs.trace import SpanTracer, tracer_from_env
from ..partition import MachineProgram
from .spec import (
    PYTHON_VERSION,
    Point,
    Sweep,
    latencies_doc,
    point_batch_key,
    point_digest,
    profile_digest,
    source_digest,
)

__all__ = ["Session", "SweepResult"]

#: Distinguishes "no argument" from an explicit None in Session.store().
_UNSET = object()

#: One planned unit of sweep work: a batch group or one point.
_Task = Point | tuple[Point, ...]


@dataclass(frozen=True)
class SweepResult:
    """The evaluated points of one sweep, in sweep order."""

    points: tuple[Point, ...]
    results: tuple[SimulationResult, ...]
    name: str = ""
    #: Per-sweep telemetry rollup (cache-tier hits, engine counters,
    #: strategy histogram, wall seconds) — see :meth:`Session.run`.
    #: Excluded from equality: two runs of one sweep are the same
    #: result regardless of where each point came from.
    telemetry: dict | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.points, self.results))

    def cycles(self) -> tuple[int, ...]:
        return tuple(result.cycles for result in self.results)


@dataclass
class Session:
    """Builds, compiles, simulates and caches — in memory and in a store.

    Attributes:
        scale: approximate architectural instruction count per kernel.
        au_width / du_width / swsm_width: default issue widths used by
            the convenience accessors (paper: 4+5=9); explicit
            :class:`~repro.api.spec.Point` fields always win.
        latencies: operation latency model (a fresh instance per
            session — sessions never alias each other's state).
        cache_dir: directory of the result store ``results.sqlite``
            (opened on first use, replaced by an attached :meth:`store`;
            like any store, used only from the thread that opened it)
            and the compiled-program cache ``lowered/``; ``None``
            disables both.
        jobs: default process-pool width for :meth:`run` (1 = serial).
        batch: batched-sweep planner toggle for :meth:`run`. ``True``
            (default) groups sweep points that share a compiled program
            and simulates each group of two or more through the batched
            engine (:mod:`repro.machines.batch`); ``False`` keeps every
            point on the per-point path. NumPy is imported only when a
            sweep has such a group; a sweep without one (or a process
            without NumPy) runs every point per-point. Batched runs are
            bit-exact with per-point runs and record the same per-point
            store rows, so this knob never enters cache keys.
        trace: structured span tracing (:mod:`repro.obs.trace`). A
            path enables JSONL tracing to that file; ``None`` (the
            default) defers to the ``REPRO_TRACE`` environment
            variable; ``False`` disables tracing unconditionally
            (pool workers run with ``False`` so forked children never
            interleave writes into the parent's trace file).
    """

    scale: int = 20_000
    au_width: int = 4
    du_width: int = 5
    swsm_width: int = 9
    latencies: LatencyModel = field(default_factory=LatencyModel)
    cache_dir: str | Path | None = None
    jobs: int = 1
    batch: bool = True
    trace: str | Path | bool | None = None

    def __post_init__(self) -> None:
        require_scale(self.scale)
        self._programs: dict[tuple[str, float], Program] = {}
        self._custom: dict[str, Program] = {}
        self._compiled: dict[tuple[str, float, str, str], object] = {}
        self._profiles: dict[str, object] = {}
        # Static page records by (kind, name); per store, like _store_keys.
        self._records: dict[tuple[str, str], object] = {}
        self._results: dict[Point, SimulationResult] = {}
        # Inside _release_scope: (kernels not yet settled, kernels to
        # forget once settled, the settle callback).
        self._scope: tuple[set[str], frozenset[str], Callable] | None = None
        # The lowering tag whose first write pruned the other tags.
        self._pruned_tag: str | None = None
        # _UNSET until first use, which opens the cache_dir store.
        self._result_store = _UNSET
        # Stats a lookup counts: disk_* (cache_dir) or store_hits.
        self._store_tier = "disk"
        self._store_keys: dict[Point, str] = {}
        self.stats = {
            "evaluated": 0,
            "memory_hits": 0,
            "disk_hits": 0,
            "disk_misses": 0,
            "store_hits": 0,
            "kernels_built": 0,
            "batch_groups": 0,
            "batch_points": 0,
            "compile_seconds": 0.0,
            "simulate_seconds": 0.0,
            "sweep_seconds": 0.0,
        }
        # Session-level rollup of every *fresh* simulation's telemetry
        # (cache hits keep their original record and are not re-counted).
        self._telemetry = {
            "runs": 0,
            "reused_passes": 0,
            "counters": zero_counters(),
            "strategies": {},
        }
        self._tracer: SpanTracer | None = None
        if self.trace is None:
            self._tracer = tracer_from_env()
        elif self.trace:
            self._tracer = SpanTracer(self.trace)

    def _span(self, name: str, **attrs):
        """A tracer span when tracing is on, else a no-op context."""
        if self._tracer is None:
            return nullcontext()
        return self._tracer.span(name, **attrs)

    # -- persistent result store -------------------------------------------------

    def store(self, target=_UNSET):
        """The session's persistent :class:`~repro.report.ResultStore`.

        It is the session's only persistent result tier: points are
        looked up in it before simulating, and every evaluated point —
        fresh, memory-cached or store-cached — is recorded under its
        content-addressed key, so the store accumulates exactly the set
        of distinct operating points this session has seen. Custom
        (non-registry) programs stay out: the key does not cover their
        content.

        Without an argument, returns the store in use: the attached
        one, else ``cache_dir/results.sqlite`` (opened here on first
        use), else ``None``. With one, attaches it in place of the
        ``cache_dir`` store and returns it: pass a
        :class:`~repro.report.ResultStore`, a path (opened on demand),
        or ``None`` to detach (the session then persists no results).
        """
        if target is _UNSET:
            if self._result_store is _UNSET:
                self._result_store = None if self.cache_dir is None else (
                    _open_store(Path(self.cache_dir) / "results.sqlite")
                )
            return self._result_store
        # The recorded-key and record memos are per store: a fresh
        # store must see every point and record again.
        self._store_keys = {}
        self._records = {}
        self._store_tier = "store"
        self._result_store = None if target is None else _open_store(target)
        return self._result_store

    # -- programs ----------------------------------------------------------------

    def program(self, name: str) -> Program:
        """The architectural trace of a kernel at this session's scale."""
        return self._program_for(name, 0.0)

    def register_program(self, program: Program) -> None:
        """Make a custom (non-registry) program available under its name.

        Custom programs exist only in this process: points naming them
        are evaluated locally (never shipped to workers) and stay out
        of the result store, whose keys cover only registry kernels —
        a stored entry for a same-named trace with different content
        would otherwise be silently wrong.
        """
        self._custom[program.name] = program
        self._forget(program.name, results=True)

    def _forget(self, name: str, results: bool = False) -> None:
        """Drop what this session holds of program ``name``: its traces
        (every expansion) and compiled programs, and with ``results``
        its profile and simulation results too."""
        for memo in (self._programs, self._compiled):
            for key in [key for key in memo if key[0] == name]:
                del memo[key]
        if results:
            self._profiles.pop(name, None)
            for point in [p for p in self._results if p.program == name]:
                del self._results[point]

    @contextmanager
    def _release_scope(
        self, names: Iterable[str], settle: Callable[[str], None]
    ) -> Iterator[None]:
        """Hold at most one of ``names``' programs at a time.

        Inside, once a sweep has folded a named kernel's last point,
        :meth:`run` calls ``settle(name)`` while the kernel is still
        held and then forgets its traces and compiled programs
        (:meth:`_forget`); profiles, static records and results stay.
        Kernels this session held before the scope opened are settled
        but kept. Pool workers forget a named kernel when their next
        task names another one.
        """
        names = set(names)
        held = {name for name, _ in self._programs}
        self._scope = (set(names), frozenset(names - held), settle)
        try:
            yield
        finally:
            unsettled, release, _ = self._scope
            self._scope = None
            for name in unsettled & release:
                self._forget(name)

    def _settle(self, name: str) -> None:
        """Hand a scoped kernel to the scope's callback, then release it."""
        if self._scope is None or name not in self._scope[0]:
            return
        unsettled, release, settle = self._scope
        unsettled.discard(name)
        settle(name)
        if name in release:
            self._forget(name)

    def _program_for(self, name: str, expansion: float) -> Program:
        key = (name, expansion)
        if key not in self._programs:
            if expansion:
                base = self._program_for(name, 0.0)
                self._programs[key] = expand_code(base, expansion)
            elif name in self._custom:
                self._programs[key] = self._custom[name]
            else:
                self._programs[key] = build_kernel(name, self.scale)
                self.stats["kernels_built"] += 1
        return self._programs[key]

    def profile(self, name: str):
        """The static workload profile of a kernel at this session's
        scale (cached) — see :func:`repro.workloads.characterize`."""
        if name not in self._profiles:
            from ..workloads import characterize

            self._profiles[name] = characterize(self.program(name))
        return self._profiles[name]

    def static_record(
        self, kind: str, name: str, compute: Callable[[], object]
    ):
        """One kernel's static page record, memoised in memory and the store.

        ``compute`` returns the record as JSON-able data (a tuple reads
        back as a list). The record is taken from this session's memory,
        else from the store's ``profiles`` table under
        :func:`~repro.api.spec.profile_digest` (kind, name, scale,
        Python version, source digest), else computed and written there
        (a write that drops the rows of every other source digest).
        Computed records pass through JSON too, so a cold and a warm
        session return equal values. Custom programs skip both memos:
        the key does not cover their content.
        """
        if name in self._custom:
            return _json_copy(compute())
        memo = (kind, name)
        if memo not in self._records:
            store = self.store()
            if store is None:
                record = _json_copy(compute())
            else:
                key = profile_digest(kind, name, self.scale)
                record = store.load_profile(key)
                if record is None:
                    record = _json_copy(compute())
                    store.record_profile(key, record)
            self._records[memo] = record
        return self._records[memo]

    # -- compilation -------------------------------------------------------------

    def compiled(
        self,
        program: str,
        machine: str = "dm",
        partition: str = "slice",
        expansion: float = 0.0,
    ):
        """The lowered machine program (cached; window-independent).

        With a ``cache_dir``, compiled programs are also shared across
        processes through a digest-keyed lowering cache, one file per
        program under ``cache_dir/lowered/``: the
        key covers the *content* of the architectural program
        (:meth:`~repro.ir.Program.digest`), the machine family, the
        partition strategy, the latency model, the Python version and
        the package sources, and the entry stores
        the compiled program — its struct-of-arrays columns — with a
        materialised steady-state analysis, so pool workers stop
        recompiling and re-running the period search for every sweep
        group. An entry in any other layout is a miss, not a partial
        load.
        """
        key = (program, expansion, machine, partition)
        if key not in self._compiled:
            model = get_machine(machine)
            source = self._program_for(program, expansion)
            started = time.perf_counter()
            with self._span("lower", program=program, machine=machine):
                loaded = self._lowering_load(source, machine, partition)
            if loaded is not None:
                self._compiled[key] = loaded
            else:
                point = Point(
                    program=program,
                    machine=machine,
                    partition=partition,
                    expansion=expansion,
                )
                with self._span("compile", program=program, machine=machine):
                    compiled = model.compile(source, point, self.latencies)
                self._lowering_store(source, machine, partition, compiled)
                self._compiled[key] = compiled
            self.stats["compile_seconds"] += time.perf_counter() - started
        return self._compiled[key]

    def _lowering_path(
        self, source: Program, machine: str, partition: str
    ) -> Path | None:
        """Content address of one compiled program in the lowering cache.

        Keyed by program *content*, so (unlike the result store) even
        custom registered programs are safely cacheable, and by the
        Python version and :func:`~repro.api.spec.source_digest`, so an
        edit to any compiler source misses instead of serving what the
        old code compiled. The file name starts with a short tag of
        those two (:func:`_lowering_tag`), which is how the first write
        under a new tag finds the stale entries to delete. ``serial``
        skips the cache — its "compilation" is the identity.
        """
        if self.cache_dir is None or machine == "serial":
            return None
        doc = {
            "program": source.digest(),
            "machine": machine,
            "partition": partition,
            "latencies": latencies_doc(self.latencies),
            "python": PYTHON_VERSION,
            "sources": source_digest(),
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        name = f"{_lowering_tag()}-{digest}.pkl"
        return Path(self.cache_dir) / "lowered" / name

    def _lowering_load(self, source: Program, machine: str, partition: str):
        path = self._lowering_path(source, machine, partition)
        if path is None:
            return None
        try:
            with path.open("rb") as handle:
                compiled = pickle.load(handle)
        except Exception:
            return None  # absent or corrupt: recompile
        if not isinstance(compiled, MachineProgram) or not isinstance(
            getattr(compiled, "_low", None), LoweredProgram
        ):
            return None  # another layout: recompile, never half-load
        return compiled

    def _lowering_store(
        self, source: Program, machine: str, partition: str, compiled
    ) -> None:
        path = self._lowering_path(source, machine, partition)
        if path is None or not isinstance(compiled, MachineProgram):
            return
        # Materialise the columns and the steady-state analysis so
        # loaders skip both; a compiled program pickles as its columns.
        compiled.lowered().steady()
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tag = _lowering_tag()
            if tag != self._pruned_tag:
                # Like the store's profiles rows: the first write under
                # a tag deletes the entries no current build asks for.
                _prune_lowerings(path.parent, tag)
                self._pruned_tag = tag
            with tmp.open("wb") as handle:
                pickle.dump(
                    compiled, handle, protocol=pickle.HIGHEST_PROTOCOL
                )
            os.replace(tmp, path)
        except OSError:
            # The cache is best-effort; simulation proceeds regardless.
            with suppress(OSError):
                tmp.unlink(missing_ok=True)

    # -- windows -----------------------------------------------------------------

    def resolve_window(
        self, name: str, window: int | None, expansion: float = 0.0
    ) -> int:
        """Translate the unlimited-window sentinel into a concrete size:
        the length of the program as expanded by ``expansion``."""
        if window is not None:
            return window
        return max(len(self._program_for(name, expansion)), 1)

    # -- point evaluation --------------------------------------------------------

    def _canonical(self, point: Point) -> Point:
        return get_machine(point.machine).canonical(point)

    def evaluate(self, point: Point) -> SimulationResult:
        """Cycle-exact result of one point (memory, store, simulate)."""
        canonical = self._canonical(point)
        cached = self._lookup(canonical)
        if cached is not None:
            self._record(canonical, cached)
            return cached
        result = self._simulate(canonical)
        self._fold(canonical, result)
        return result

    def _record(self, canonical: Point, result: SimulationResult) -> None:
        """Write one result to the store; the only persistent write."""
        store = self.store()
        if store is None or canonical.program in self._custom:
            return
        key = self._store_keys.get(canonical)
        if key is not None:
            # Already warehoused by this session: keep the key visible
            # to manifest tracking without re-hashing the point.
            store.touch(key)
        else:
            with self._span(
                "store.write",
                program=canonical.program,
                machine=canonical.machine,
            ):
                self._store_keys[canonical] = store.record(
                    canonical, self.scale, self.latencies, result
                )

    def cycles(self, point: Point) -> int:
        return self.evaluate(point).cycles

    def speedup(self, point: Point) -> float:
        """Speedup over the serial reference at the same differential."""
        serial = self.cycles(
            replace(point, machine="serial", probe_esw=False)
        )
        return serial / self.cycles(point)

    def _lookup(self, canonical: Point) -> SimulationResult | None:
        if canonical in self._results:
            self.stats["memory_hits"] += 1
            return self._results[canonical]
        if canonical.program in self._custom:
            return None  # store keys don't cover custom program content
        with self._span(
            "cache.probe",
            program=canonical.program,
            machine=canonical.machine,
        ):
            loaded = self._store_load(canonical)
        if loaded is not None:
            self._results[canonical] = loaded
        return loaded

    def _store_load(self, canonical: Point) -> SimulationResult | None:
        """Rehydrate a point from the result store, if resident.

        This is what makes sweeps resumable: a killed-and-rerun sweep
        against the same store only simulates the missing points — the
        rest are served from the store's pickled payloads. Lookups in
        the ``cache_dir`` store count as ``disk_hits``/``disk_misses``,
        hits in an attached store as ``store_hits``.
        """
        store = self.store()
        if store is None:
            return None
        tier = self._store_tier
        key = point_digest(canonical, self.scale, self.latencies)
        result = store.load(key)
        if result is None:
            if tier == "disk":
                self.stats["disk_misses"] += 1
            return None
        self.stats[f"{tier}_hits"] += 1
        # The row is already warehoused under this key; remember it so
        # _record touches the key instead of re-pickling the result.
        self._store_keys[canonical] = key
        return _stamp_tier(result, tier)

    def _store(self, canonical: Point, result: SimulationResult) -> None:
        """Memoise and persist a fresh result as soon as it exists.

        Sweep prefetches call this per point, so an interrupted sweep
        leaves every finished point in the store for a rerun.
        """
        self._results[canonical] = result
        self._absorb_telemetry(result)
        self._record(canonical, result)

    def _fold(self, canonical: Point, result: SimulationResult) -> None:
        """Fold one freshly simulated result in, wherever it ran."""
        self._store(canonical, result)
        self.stats["evaluated"] += 1

    def _absorb_telemetry(self, result: SimulationResult) -> None:
        """Fold one fresh result's telemetry into the session rollup.

        Every freshly simulated result passes through ``_store`` once,
        wherever it ran, so this one rollup covers every sweep task.
        """
        telemetry = result.telemetry
        if telemetry is None:
            return
        agg = self._telemetry
        agg["runs"] += 1
        agg["reused_passes"] += telemetry.reused_passes
        add_counters(agg["counters"], telemetry.counters)
        strategies = agg["strategies"]
        strategies[telemetry.strategy] = (
            strategies.get(telemetry.strategy, 0) + 1
        )

    def telemetry(self) -> dict:
        """Aggregated telemetry of every fresh simulation this session.

        Returns the sums of the fresh results' telemetry counters
        (whichever engines and however many worker processes ran) and
        reused engine passes, a strategy histogram, and a copy of the
        cache/timing ``stats``.
        """
        return {
            "runs": self._telemetry["runs"],
            "reused_passes": self._telemetry["reused_passes"],
            "counters": dict(self._telemetry["counters"]),
            "strategies": dict(self._telemetry["strategies"]),
            "stats": dict(self.stats),
        }

    def _simulate(self, canonical: Point) -> SimulationResult:
        model = get_machine(canonical.machine)
        compiled = self.compiled(
            canonical.program,
            canonical.machine,
            canonical.partition,
            canonical.expansion,
        )
        window = self.resolve_window(
            canonical.program, canonical.window, canonical.expansion
        )
        memory = canonical.memory.build(canonical.memory_differential)
        started = time.perf_counter()
        with self._span(
            "simulate",
            program=canonical.program,
            machine=canonical.machine,
            window=canonical.window,
            memory_differential=canonical.memory_differential,
        ):
            result = model.simulate(
                compiled, canonical, window, memory, self.latencies
            )
        self.stats["simulate_seconds"] += time.perf_counter() - started
        return _with_memory_stats(result, memory)

    def evaluate_batch(
        self, group: Sequence[Point]
    ) -> list[tuple[Point, SimulationResult]]:
        """Simulate a batch-key group of canonical points in one call.

        All points must share :func:`~repro.api.spec.point_batch_key`
        (one program, one machine family, one compiled form) and their
        machine must expose ``batch_configs``. The compiled program is
        derived once; each point becomes one lane of a batched
        simulation (:mod:`repro.machines.batch`). Results — including
        memory-model stats in ``meta`` — are bit-exact with per-point
        :meth:`evaluate` calls, positionally aligned with ``group``.
        Pure compute: the caller folds results into the caches.
        """
        from ..machines.batch import BatchLane, simulate_batch

        first = group[0]
        model = get_machine(first.machine)
        hook = model.batch_configs  # planner guarantees the hook exists
        compiled = self.compiled(
            first.program, first.machine, first.partition, first.expansion
        )
        lanes = []
        for point in group:
            window = self.resolve_window(
                point.program, point.window, point.expansion
            )
            lanes.append(BatchLane(
                unit_configs=hook(point, window, self.latencies),
                memory=point.memory.build(point.memory_differential),
            ))
        started = time.perf_counter()
        with self._span(
            "simulate",
            program=first.program,
            machine=first.machine,
            lanes=len(lanes),
        ):
            results = simulate_batch(compiled, lanes, self.latencies)
        self.stats["simulate_seconds"] += time.perf_counter() - started
        return [
            (point, _with_memory_stats(result, lane.memory))
            for point, lane, result in zip(group, lanes, results)
        ]

    # -- sweeps ------------------------------------------------------------------

    def run(
        self, sweep: Sweep | Iterable[Point], jobs: int | None = None
    ) -> SweepResult:
        """Evaluate every point of a sweep; optionally in parallel.

        ``jobs`` overrides the session default. With ``jobs > 1``,
        points that are not already cached are evaluated on a process
        pool; results are bit-identical to a serial run (simulations
        are deterministic) and are folded back into this session's
        memory cache and result store.
        """
        if isinstance(sweep, Sweep):
            points = tuple(sweep.points())
            name = sweep.name
        else:
            points = tuple(sweep)
            name = ""
        effective_jobs = self.jobs if jobs is None else jobs
        started = time.perf_counter()
        before = self.telemetry()
        with self._span("sweep", sweep=name, points=len(points)):
            # Batch off at jobs=1 plans nothing worth a prefetch: the
            # evaluation loop alone runs and counts each point once.
            if self.batch or effective_jobs > 1:
                self._prefetch(points, effective_jobs)
            results = tuple(self._evaluate_all(points))
        elapsed = time.perf_counter() - started
        self.stats["sweep_seconds"] += elapsed
        return SweepResult(
            points=points,
            results=results,
            name=name,
            telemetry={
                "points": len(points),
                "wall_seconds": elapsed,
                **telemetry_delta(before, self.telemetry()),
            },
        )

    def _evaluate_all(
        self, points: tuple[Point, ...]
    ) -> Iterator[SimulationResult]:
        """Evaluate ``points`` in order, settling each scoped kernel
        after its last point (see :meth:`_release_scope`)."""
        last = {}
        if self._scope is not None:
            last = {point.program: index for index, point in enumerate(points)}
        for index, point in enumerate(points):
            yield self.evaluate(point)
            if last.get(point.program) == index:
                self._settle(point.program)

    def _pending_points(self, points: tuple[Point, ...]) -> list[Point]:
        """Canonical uncached points, deduplicated, in sweep order.

        Consults the caches through :meth:`_lookup`, so hits are
        counted (and memoised) here exactly as a serial evaluation
        loop would count them.
        """
        pending: list[Point] = []
        seen: set[Point] = set()
        for point in points:
            canonical = self._canonical(point)
            if canonical in seen:
                continue
            seen.add(canonical)
            if self._lookup(canonical) is None:
                pending.append(canonical)
        return pending

    def _plan(self, pending: list[Point]) -> list[_Task]:
        """The tasks that evaluate a sweep's pending points, in run order.

        With ``batch`` on, pending points that share
        :func:`~repro.api.spec.point_batch_key` and would vectorize are
        grouped; each group of two or more becomes one batch task (a
        tuple of points, counted in the batch stats). Every other point
        is a one-point task, in sweep order, so a sweep ordered by
        program keeps each program's one-point tasks together. NumPy is
        imported only once a batch task exists; without it every point
        is a one-point task.
        """
        if not self.batch:
            return list(pending)
        from ..machines.batch import load_numpy, vector_eligible

        groups: dict[tuple, list[Point]] = {}
        for canonical in pending:
            key = point_batch_key(canonical)
            model = get_machine(canonical.machine)
            if (
                key is not None
                and getattr(model, "batch_configs", None) is not None
                and vector_eligible(
                    canonical.memory.build(canonical.memory_differential),
                    canonical.window,
                )
            ):
                groups.setdefault(key, []).append(canonical)
        batched = [tuple(group) for group in groups.values() if len(group) >= 2]
        if batched and not load_numpy():
            batched = []
        for group in batched:
            self.stats["batch_groups"] += 1
            self.stats["batch_points"] += len(group)
        grouped = {point for group in batched for point in group}
        return [
            *batched, *(point for point in pending if point not in grouped)
        ]

    def _prefetch(self, points: tuple[Point, ...], jobs: int) -> None:
        """Run every planned task of a sweep once, folding in each result.

        With ``jobs > 1``, the tasks a worker can run go through one
        ``pool.map``. The rest (custom programs; runtime-registered
        machines without fork) run here after the pool drains, in plan
        order — batch groups, then points — as every task does at
        ``jobs == 1``. Each result is folded in as it arrives, so an
        interrupted sweep leaves every finished point in the store, and
        a scoped kernel is settled once its last task has been folded.
        """
        local = self._plan(self._pending_points(points))
        # Tasks left per program; folding the last one settles it.
        left = Counter(_task_program(task) for task in local)

        def fold(task: _Task, pairs) -> None:
            for canonical, result in pairs:
                self._fold(canonical, result)
            program = _task_program(task)
            left[program] -= 1
            if not left[program]:
                self._settle(program)

        pooled = []
        if jobs > 1:
            context = _fork_context()
            pooled = [
                task for task in local if self._poolable(task, context)
            ]
            local = [
                task for task in local if not self._poolable(task, context)
            ]
        if pooled:
            config = {
                "scale": self.scale,
                "au_width": self.au_width,
                "du_width": self.du_width,
                "swsm_width": self.swsm_width,
                "latencies": self.latencies,
                # Workers share the digest-keyed lowering cache: the
                # first worker to need a compiled program persists it,
                # the rest load it. They open no result store (this
                # process records every result they return), and never
                # inherit tracing: a forked child appending to the
                # parent's trace file would interleave span streams.
                "cache_dir": self.cache_dir,
                "trace": False,
                # The kernels a worker drops when its next task names
                # another one.
                "release": (
                    frozenset() if self._scope is None else self._scope[1]
                ),
            }
            workers = min(jobs, len(pooled))
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=(config,),
            )
            try:
                for task, pairs in zip(pooled, pool.map(
                    _worker_evaluate,
                    pooled,
                    chunksize=max(1, len(pooled) // (workers * 4)),
                )):
                    fold(task, pairs)
            except BaseException:
                # Ctrl-C (or any abort) must not hang waiting for queued
                # work: cancel what hasn't started and return
                # immediately — points already folded in stay cached,
                # so a rerun resumes.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            else:
                pool.shutdown()
        for task in local:
            fold(task, self._evaluate_task(task))

    def _poolable(self, task: _Task, context) -> bool:
        canonical = _task_point(task)
        if canonical.program in self._custom:
            return False  # custom programs only exist in this process
        if context is None and canonical.machine not in _BUILTIN_MACHINES:
            # Without fork, a worker can't see machines registered at
            # runtime; evaluate those points locally instead.
            return False
        return True

    def _evaluate_task(
        self, task: _Task
    ) -> list[tuple[Point, SimulationResult]]:
        """Simulate one planned task: a batch group or one point.

        Pure compute: the caller folds the results into the caches.
        """
        if isinstance(task, Point):
            return [(task, self._simulate(task))]
        return self.evaluate_batch(task)

    # -- convenience accessors ---------------------------------------------------

    def dm_point(
        self, name: str, window: int | None, memory_differential: int, **over
    ) -> Point:
        return Point(
            program=name,
            machine="dm",
            window=window,
            memory_differential=memory_differential,
            au_width=self.au_width,
            du_width=self.du_width,
            **over,
        )

    def swsm_point(
        self, name: str, window: int | None, memory_differential: int, **over
    ) -> Point:
        return Point(
            program=name,
            machine="swsm",
            window=window,
            memory_differential=memory_differential,
            swsm_width=self.swsm_width,
            **over,
        )

    def serial_point(self, name: str, memory_differential: int) -> Point:
        return Point(
            program=name,
            machine="serial",
            window=None,
            memory_differential=memory_differential,
        )

    def dm_compiled(self, name: str):
        return self.compiled(name, "dm")

    def swsm_compiled(self, name: str):
        return self.compiled(name, "swsm")

    def dm_result(
        self, name: str, window: int | None, memory_differential: int
    ) -> SimulationResult:
        """Cached DM run (both unit windows set to ``window``)."""
        return self.evaluate(self.dm_point(name, window, memory_differential))

    def swsm_result(
        self, name: str, window: int | None, memory_differential: int
    ) -> SimulationResult:
        """Cached SWSM run."""
        return self.evaluate(self.swsm_point(name, window, memory_differential))

    def dm_cycles(self, name: str, window: int | None, md: int) -> int:
        return self.dm_result(name, window, md).cycles

    def swsm_cycles(self, name: str, window: int | None, md: int) -> int:
        return self.swsm_result(name, window, md).cycles

    def serial_cycles(self, name: str, md: int) -> int:
        return self.evaluate(self.serial_point(name, md)).cycles

    def dm_speedup(self, name: str, window: int | None, md: int) -> float:
        return self.serial_cycles(name, md) / self.dm_cycles(name, window, md)

    def swsm_speedup(self, name: str, window: int | None, md: int) -> float:
        return self.serial_cycles(name, md) / self.swsm_cycles(name, window, md)

    def dm_lhe(self, name: str, window: int | None, md: int) -> float:
        """Latency-hiding effectiveness of the DM at one operating point."""
        perfect = self.dm_cycles(name, window, 0)
        actual = self.dm_cycles(name, window, md)
        return perfect / actual


def telemetry_delta(before: dict, after: dict) -> dict:
    """What a session did between two :meth:`Session.telemetry` snapshots.

    The cache and batch stats and every engine counter as deltas, and
    the strategies whose run count moved.
    """
    hits = {
        key: after["stats"][key] - before["stats"][key]
        for key in (
            "evaluated", "memory_hits", "disk_hits", "store_hits",
            "batch_groups", "batch_points",
        )
    }
    counters = {
        key: value - before["counters"].get(key, 0)
        for key, value in after["counters"].items()
    }
    strategies = {
        key: count
        for key, count in (
            (key, value - before["strategies"].get(key, 0))
            for key, value in after["strategies"].items()
        )
        if count
    }
    return {**hits, "counters": counters, "strategies": strategies}


def _lowering_tag() -> str:
    """Short tag of the Python version and package sources: the prefix
    of every lowering-cache file name those two wrote."""
    source = f"{PYTHON_VERSION}:{source_digest()}"
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]


def _prune_lowerings(directory: Path, tag: str) -> None:
    """Delete the lowering entries of every tag but ``tag`` (or none):
    what another Python or source tree wrote."""
    for path in directory.glob("*.pkl"):
        if not path.name.startswith(f"{tag}-"):
            with suppress(OSError):
                path.unlink()


def _open_store(target):
    """``target`` as a :class:`~repro.report.ResultStore`."""
    from ..report.store import ResultStore

    return target if isinstance(target, ResultStore) else ResultStore(target)


def _json_copy(record):
    """``record`` as it reads back from JSON."""
    return json.loads(json.dumps(record))


def _with_memory_stats(result: SimulationResult, memory) -> SimulationResult:
    """``result`` with a stateful memory model's hit/conflict counters
    (bypass_hit_rate, cache_hit_rate, bank_conflict_rate,
    prefetch_hit_rate, ...) merged into its metadata."""
    extras = memory.stats()
    if not extras:
        return result
    return replace(result, meta={**result.meta, **extras})


def _stamp_tier(result: SimulationResult, tier: str) -> SimulationResult:
    """Mark which cache tier served this copy of a result.

    Store hits arrive with the recorded strategy attached (from the
    row's telemetry column) and only need the tier corrected; a row
    without telemetry gets a minimal record with strategy ``cached``.
    """
    if result.telemetry is None:
        return replace(result, telemetry=RunTelemetry(
            strategy="cached", sim_cycles=result.cycles, cache_tier=tier,
        ))
    if result.telemetry.cache_tier == tier:
        return result
    return replace(
        result, telemetry=replace(result.telemetry, cache_tier=tier)
    )


# -- process-pool workers ----------------------------------------------------------

#: Machines registered at import time, visible in any worker process.
_BUILTIN_MACHINES = frozenset({"dm", "swsm", "serial"})


def _fork_context():
    """The fork start-method context, or None where fork is unavailable.

    Forked workers inherit runtime machine registrations; spawned ones
    would not, so the caller keeps non-builtin machines local then.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _task_point(task: _Task) -> Point:
    """A task's point, or its first one for a batch group."""
    return task if isinstance(task, Point) else task[0]


def _task_program(task: _Task) -> str:
    return _task_point(task).program


_WORKER_SESSION: Session | None = None
#: The kernels this worker forgets once its tasks move past them, and
#: the kernel its last task named.
_WORKER_RELEASE: frozenset[str] = frozenset()
_WORKER_KERNEL: str | None = None


def _worker_init(config: dict) -> None:
    global _WORKER_SESSION, _WORKER_RELEASE
    config = dict(config)
    _WORKER_RELEASE = config.pop("release")
    _WORKER_SESSION = Session(**config)
    _WORKER_SESSION.store(None)  # the parent does every result write


def _worker_evaluate(task: _Task) -> list[tuple[Point, SimulationResult]]:
    """One planned task, one worker: a batch group or one point."""
    global _WORKER_KERNEL
    assert _WORKER_SESSION is not None
    program = _task_program(task)
    if _WORKER_KERNEL != program and _WORKER_KERNEL in _WORKER_RELEASE:
        _WORKER_SESSION._forget(_WORKER_KERNEL)
    _WORKER_KERNEL = program
    return _WORKER_SESSION._evaluate_task(task)
