"""Outside-in span tracer: wraps each layer's public entry points.

Nothing under ``src/`` knows about this tracer. :func:`install` replaces
every binding a caller actually uses — a function imported by name into
another module is a second binding, and patching only its home module
would miss the calls that go through the copy — and methods are wrapped
on their class. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import time

#: Span name -> (module, attribute) bindings or (module, class, method).
#: Span names double as the per-layer metric prefixes in catalog.py.
BINDINGS = {
    "kernels.build": [
        ("repro.kernels.base", "build_kernel"),
        ("repro.kernels", "build_kernel"),
        ("repro.api.session", "build_kernel"),
        ("repro.workloads.grammar", "build_generated"),
        ("repro.workloads.corpus", "build_generated"),
        ("repro.workloads", "build_generated"),
        ("repro.report.emitters", "build_generated"),
    ],
    "workloads.characterize": [
        ("repro.workloads.characterize", "characterize"),
        ("repro.workloads", "characterize"),
        ("repro.workloads.corpus", "characterize"),
        ("repro.report.emitters", "characterize"),
    ],
    "workloads.generate": [
        ("repro.workloads.corpus", "generate_corpus"),
        ("repro.workloads", "generate_corpus"),
    ],
    "partition.dm": [
        ("repro.partition.strategies", "partition_with_strategy"),
        ("repro.machines.registry", "partition_with_strategy"),
    ],
    "partition.swsm": [
        ("repro.partition.swsm_lowering", "lower_swsm"),
        ("repro.partition", "lower_swsm"),
        ("repro.machines.swsm", "lower_swsm"),
    ],
    "lowered.lower": [
        ("repro.machines.lowered", "lower_program"),
        ("repro.machines", "lower_program"),
    ],
    "lowered.steady": [("repro.machines.lowered", "LoweredProgram", "steady")],
    "session": [
        ("repro.api.session", "Session", "run"),
        ("repro.api.session", "Session", "evaluate"),
        ("repro.api.session", "Session", "compiled"),
    ],
    "engine.simulate": [
        ("repro.machines.engine", "simulate"),
        ("repro.machines.dm", "simulate"),
        ("repro.machines.swsm", "simulate"),
        ("repro.machines", "simulate"),
    ],
    "batch.simulate": [("repro.machines.batch", "simulate_batch")],
    # memory.latencies: every MemorySystem subclass, found at install time.
    "store.record": [("repro.report.store", "ResultStore", "record")],
    "store.load": [("repro.report.store", "ResultStore", "load")],
    "store.touch": [("repro.report.store", "ResultStore", "touch")],
    # report.emit: every emit_* binding the site builder calls.
    "report.site": [
        ("repro.report.site", "write_site"),
        ("repro.report", "write_site"),
    ],
}


class Tracer:
    """In-memory span recorder for one run (single-threaded callers).

    A span is ``[id, parent id, name, start, end, counts]``. ``counts``
    is filled only for simulations, from the returned results' own
    telemetry, so simulated-instruction rates and skip shares need no
    counter inside the program: ``(instructions, skipped instructions,
    steady skips)`` of a scalar run, or summed over a batch's vectorized
    lanes (its fallback lanes are scalar runs with spans of their own).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def wrap(self, func, name: str):
        """One wrapper per original function, shared by every binding."""
        wrapper = self._wrappers.get(id(func))
        if wrapper is not None:
            return wrapper
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        counted = COUNTED.get(name)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else None, name,
                    clock(), 0.0, NO_COUNTS]
            spans.append(span)
            stack.append(span[0])
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if counted is not None:
                span[5] = counted(result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        self._wrappers[id(func)] = wrapper
        return wrapper

    def write(self, path: str) -> None:
        """Write the spans as JSONL (one object per span)."""
        with open(path, "w") as handle:
            for sid, parent, name, start, end, _ in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


NO_COUNTS = (0, 0, 0)


def _run_counts(result) -> tuple[int, int, int]:
    counters = result.telemetry.counters
    return (result.instructions, counters["skipped_instructions"],
            counters["steady_skips"])


def _lane_counts(results) -> tuple[int, int, int]:
    lanes = [_run_counts(r) for r in results
             if r.telemetry.strategy == "batch"]
    return tuple(sum(column) for column in zip(NO_COUNTS, *lanes))


#: Span names whose results carry counts, and how to read them.
COUNTED = {"engine.simulate": _run_counts, "batch.simulate": _lane_counts}


def install(tracer: Tracer) -> None:
    """Patch every binding in :data:`BINDINGS` plus the discovered ones."""
    bindings = {name: list(targets) for name, targets in BINDINGS.items()}
    from repro.memory import MemorySystem

    bindings["memory.latencies"] = [
        (cls.__module__, cls.__name__, "latencies")
        for cls in _subclasses(MemorySystem)
        if "latencies" in vars(cls)
    ]
    site = importlib.import_module("repro.report.site")
    bindings["report.emit"] = [
        ("repro.report.site", attr) for attr in vars(site)
        if attr.lstrip("_").startswith("emit_")
    ]
    for name, targets in bindings.items():
        for target in targets:
            owner = importlib.import_module(target[0])
            if len(target) == 3:
                owner = getattr(owner, target[1])
            attr = target[-1]
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def summarize(spans: list[list], start: float, end: float) -> dict:
    """Per-span-name self time, totals and counts, plus coverage.

    Self time is a span's duration minus its children's. ``entries``
    counts spans whose parent is not of the same name, so a build that
    delegates to another build counts once; ``instructions``,
    ``skipped`` and ``skips`` sum the spans' counts. Coverage is the share of
    ``[start, end]`` that root spans cover.
    """
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _, s0, s1, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (s1 - s0)
    layers: dict[str, dict] = {}
    roots = []
    for sid, parent, name, s0, s1, counts in spans:
        layer = layers.setdefault(name, {
            "self_s": 0.0, "total_s": 0.0, "calls": 0, "entries": 0,
            "instructions": 0, "skipped": 0, "skips": 0,
        })
        layer["self_s"] += (s1 - s0) - child_time.get(sid, 0.0)
        layer["total_s"] += s1 - s0
        layer["calls"] += 1
        for key, count in zip(("instructions", "skipped", "skips"), counts):
            layer[key] += count
        if parent is None or by_id[parent][2] != name:
            layer["entries"] += 1
        if parent is None:
            roots.append((max(s0, start), min(s1, end)))
    covered, reach = 0.0, start
    for s0, s1 in sorted(roots):
        s0 = max(s0, reach)
        if s1 > s0:
            covered += s1 - s0
            reach = s1
    return {"layers": layers, "coverage": covered / (end - start)}
