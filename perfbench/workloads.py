"""The four benchmark workloads, driven through the public API only.

Each workload is built by :func:`prepare` into a timed ``run`` callable
plus an untimed ``check`` that turns the run's output into digests the
parent compares with the recorded reference. Every workload runs with
the shipped defaults: batch planner and event engine left to their
defaults, ``jobs=1``, and a Session created fresh in a fresh process.

* ``table1`` — the seven paper kernels, Table 1's 98 DM points.
  Simulation-bound, and the only workload the batch planner engages.
* ``corpus`` — a seeded 12-kernel generated corpus and the
  generalization study over it on both machines, 72 points, every one
  simulated fresh: mostly front end (generate, characterize, build,
  partition, lower), with no batching and no stateful memory.
* ``hierarchy`` — the memory-hierarchy ablation for three kernels and
  three windows, 108 points, with a fresh disk cache as the README
  documents it. The only workload on stateful memory models and on the
  cache write path.
* ``report-warm`` — ``build_report`` against a store filled by a cold
  build during set-up, as ``repro report`` reruns do: the store read
  path plus rendering. Every point is served from the store, so the
  rest is front end: regenerating and characterizing the seeded
  12-kernel corpus, building kernels, partitioning and lowering.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, NamedTuple

from repro.api import Session
from repro.api.presets import (
    generalization_sweep, hierarchy_sweep, table1_sweep,
)
from repro.experiments import (
    PRESETS, run_generalization_study, run_memory_hierarchy_ablation,
    run_table1,
)
from repro.report import build_report
import repro.workloads

from catalog import SEED_POOL

#: The generated corpus size, ``repro report``'s default.
CORPUS_SIZE = 12
HIERARCHY_PROGRAMS = ("flo52q", "mdg", "track")
HIERARCHY_WINDOWS = (16, 32, 64)


class Prepared(NamedTuple):
    run: Callable[[], object]
    check: Callable[[object], dict]
    sessions: list


def prepare(
    workload: str, seed: int, scale: str, tmp: Path, store: Path | None
) -> Prepared:
    """Set up one workload in ``tmp``; report-warm reads and fills ``store``."""
    preset = PRESETS[scale]
    corpus_seed = seed % SEED_POOL
    session = Session(
        scale=preset.scale,
        cache_dir=tmp / "cache" if workload == "hierarchy" else None,
    )
    # The paper's bands hold only from the small preset up.
    banded = preset.scale >= PRESETS["small"].scale

    if workload == "table1":
        def run():
            return run_table1(session)

        def check(result):
            sweep = table1_sweep(
                au_width=session.au_width, du_width=session.du_width
            )
            outputs = point_digests(session, [sweep])
            wrong = {
                row.program for row in result.rows
                if banded and not row.band_matches
            }
            failed = [key for key in outputs if key.split("/")[0] in wrong]
            return {"outputs": outputs, "failed": failed}

    elif workload == "corpus":
        def run():
            corpus = repro.workloads.generate_corpus(
                CORPUS_SIZE, corpus_seed, preset.scale
            )
            run_generalization_study(session, corpus)
            return corpus

        def check(corpus):
            sweep = generalization_sweep(
                corpus.names,
                au_width=session.au_width,
                du_width=session.du_width,
                swsm_width=session.swsm_width,
            )
            return {"outputs": point_digests(session, [sweep]), "failed": []}

    elif workload == "hierarchy":
        def run():
            for program in HIERARCHY_PROGRAMS:
                for window in HIERARCHY_WINDOWS:
                    run_memory_hierarchy_ablation(
                        session, program, window=window
                    )

        def check(_):
            sweeps = [
                hierarchy_sweep(
                    program,
                    window,
                    au_width=session.au_width,
                    du_width=session.du_width,
                    swsm_width=session.swsm_width,
                )
                for program in HIERARCHY_PROGRAMS
                for window in HIERARCHY_WINDOWS
            ]
            return {"outputs": point_digests(session, sweeps), "failed": []}

    elif workload == "report-warm":
        session.store(store)
        site = tmp / "site"

        def run():
            corpus = repro.workloads.generate_corpus(
                CORPUS_SIZE, corpus_seed, preset.scale
            )
            return build_report(session, preset, site, corpus=corpus)

        def check(manifest):
            outputs = {
                page: file_digest(site / page) for page in manifest["pages"]
            }
            return {"outputs": outputs, "failed": []}

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Prepared(run, check, [session])


def point_key(point) -> str:
    """What tells the workload's points apart, stable across refactors."""
    return "/".join(str(part) for part in (
        point.program, point.machine, point.window,
        point.memory_differential, point.memory.kind,
    ))


def point_digests(session: Session, sweeps) -> dict[str, str]:
    """Digest of cycles, instructions and meta for each point.

    The workload has already evaluated every point, so these lookups
    are memory hits that read back exactly what the workload computed.
    """
    digests = {}
    for sweep in sweeps:
        for point, result in session.run(sweep):
            blob = json.dumps(
                [result.cycles, result.instructions, result.meta],
                sort_keys=True,
                default=_plain,
            )
            digests[point_key(point)] = _sha(blob.encode())
    return digests


def file_digest(path: Path) -> str:
    return _sha(path.read_bytes())


def _plain(value):
    """JSON fallback: NumPy scalars by value, anything else by repr."""
    return value.item() if hasattr(value, "item") else repr(value)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]
