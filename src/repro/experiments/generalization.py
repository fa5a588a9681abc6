"""The generalization study: does Table 1 survive beyond seven programs?

The paper classifies seven PERFECT-club programs into latency-hiding
bands (Table 1) and concludes that, at a memory differential, the DM
dominates the SWSM at limited window sizes. Seven is a small sample.
This study re-derives both observations over an arbitrary *generated*
corpus (:mod:`repro.workloads`): for every kernel, on both machines,

* **band classification** — LHE at the unlimited window and the study
  differential, exactly Table 1's construction, classified with the
  same thresholds (:func:`repro.metrics.classify_band`);
* **limited-window comparison** — DM vs SWSM cycles at the probe
  window and differential, the figure-4-6 operating regime where the
  paper finds the DM ahead.

Per kernel, the paper's *crossover structure holds* when the DM wins
the limited-window comparison and hides at least as much latency as
the SWSM at the unlimited window. The result aggregates per family —
band histograms, prediction agreement (static characterizer vs
measured band) and the holds fraction — so the report shows exactly
*where* the conclusion generalizes and where it breaks (e.g. pointer
chases, where neither machine can hide anything and the DM's
advantage collapses to parity).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.presets import generalization_sweep
from ..api.session import Session
from ..config import DEFAULT_MEMORY_DIFFERENTIAL
from ..kernels import get_kernel
from ..metrics import classify_band, lhe
from ..workloads import Corpus, parse_generated_name

__all__ = [
    "FamilyGeneralization",
    "GeneralizationResult",
    "GeneralizationRow",
    "run_generalization_study",
]


@dataclass(frozen=True)
class GeneralizationRow:
    """One kernel's measurements on both machines."""

    name: str
    family: str
    predicted_band: str
    dm_lhe: float
    swsm_lhe: float
    dm_cycles: int  # at the probe window and study differential
    swsm_cycles: int

    @property
    def dm_band(self) -> str:
        """Measured Table-1-style band of the DM."""
        return classify_band(self.dm_lhe)

    @property
    def swsm_band(self) -> str:
        return classify_band(self.swsm_lhe)

    @property
    def dm_wins(self) -> bool:
        """DM at least matches the SWSM at the limited window."""
        return self.dm_cycles <= self.swsm_cycles

    @property
    def prediction_matches(self) -> bool:
        """Static characterizer prediction agrees with the DM band."""
        return self.predicted_band == self.dm_band

    @property
    def structure_holds(self) -> bool:
        """The paper's crossover structure holds for this kernel."""
        return self.dm_wins and self.dm_lhe >= self.swsm_lhe


@dataclass(frozen=True)
class FamilyGeneralization:
    """One access-pattern family's aggregate."""

    family: str
    rows: tuple[GeneralizationRow, ...]

    @property
    def kernels(self) -> int:
        return len(self.rows)

    @property
    def band_counts(self) -> dict[str, int]:
        """Measured DM band histogram ({"high": n, ...})."""
        counts = {"high": 0, "moderate": 0, "poor": 0}
        for row in self.rows:
            counts[row.dm_band] += 1
        return counts

    @property
    def mean_dm_lhe(self) -> float:
        return sum(row.dm_lhe for row in self.rows) / len(self.rows)

    @property
    def mean_swsm_lhe(self) -> float:
        return sum(row.swsm_lhe for row in self.rows) / len(self.rows)

    @property
    def dm_wins(self) -> int:
        return sum(1 for row in self.rows if row.dm_wins)

    @property
    def holds(self) -> int:
        return sum(1 for row in self.rows if row.structure_holds)

    @property
    def prediction_hits(self) -> int:
        return sum(1 for row in self.rows if row.prediction_matches)


@dataclass(frozen=True)
class GeneralizationResult:
    """The full study: per-kernel rows and per-family aggregates."""

    corpus_name: str
    scale: int
    window: int
    memory_differential: int
    rows: tuple[GeneralizationRow, ...]
    families: tuple[FamilyGeneralization, ...]

    @property
    def kernels(self) -> int:
        return len(self.rows)

    @property
    def holds(self) -> int:
        return sum(1 for row in self.rows if row.structure_holds)

    @property
    def holds_fraction(self) -> float:
        return self.holds / len(self.rows) if self.rows else 0.0

    @property
    def prediction_agreement(self) -> float:
        if not self.rows:
            return 0.0
        hits = sum(1 for row in self.rows if row.prediction_matches)
        return hits / len(self.rows)


def _study_entries(
    session: Session,
    corpus: Corpus | tuple[str, ...] | list[str],
) -> list[tuple[str, str, str | None]]:
    """Normalise the input to (name, family, predicted band) triples.

    The band is ``None`` where it is the session's own profile, which
    the study reads while it holds the kernel.
    """
    if isinstance(corpus, Corpus):
        same_scale = corpus.scale == session.scale
        return [
            (entry.name, entry.family,
             None if same_scale and entry.pending else entry.predicted_band)
            for entry in corpus.entries
        ]
    entries = []
    for raw in corpus:
        # Lower-case first so family classification agrees with the
        # case-insensitive registry lookup the simulation will use.
        name = str(raw).lower()
        parsed = parse_generated_name(name)
        family = parsed[0] if parsed else "named"
        entries.append((name, family, get_kernel(name).resolved_band))
    return entries


def _session_band(session: Session, name: str) -> str:
    """A kernel's predicted band at the session's scale, as a static
    record: a warm store serves it without building the kernel."""
    return session.static_record(
        "band", name, lambda: session.profile(name).predicted_band
    )


def run_generalization_study(
    session: Session,
    corpus: Corpus | tuple[str, ...] | list[str],
    window: int = 32,
    memory_differential: int = DEFAULT_MEMORY_DIFFERENTIAL,
) -> GeneralizationResult:
    """Run the study over a corpus (or an explicit list of kernel names).

    Kernels are regenerated at the *session's* scale — generated names
    are scale-free — so one manifest drives the study at any fidelity
    preset. Plain registry names (the seven paper kernels) are accepted
    too and grouped under the ``named`` pseudo-family, which is how the
    study cross-checks itself against Table 1.

    A corpus fresh from :func:`~repro.workloads.generate_corpus` at the
    session's scale is never resolved: each kernel's predicted band is
    the session's own profile, read through
    :meth:`~repro.api.Session.static_record`, so a cold study builds
    each kernel once (in the session) and a warm one builds none. A
    loaded manifest keeps its recorded bands, and a corpus generated
    at another scale resolves its entries.

    The session holds at most one corpus kernel at a time: once a
    kernel's last point is folded, its band is read and the session
    forgets its trace and compiled programs (kernels it held before
    the study stay).
    """
    entries = _study_entries(session, corpus)
    names = tuple(name for name, _, _ in entries)
    bands = {name: band for name, _, band in entries if band is not None}

    def settle(name: str) -> None:
        if name not in bands:
            bands[name] = _session_band(session, name)

    sweep = generalization_sweep(
        names,
        window,
        memory_differential,
        au_width=session.au_width,
        du_width=session.du_width,
        swsm_width=session.swsm_width,
    )
    with session._release_scope(names, settle):
        cycles = {
            (p.program, p.machine, p.window, p.memory_differential): r.cycles
            for p, r in session.run(sweep)
        }
    rows = []
    for name, family, _ in entries:
        rows.append(
            GeneralizationRow(
                name=name,
                family=family,
                predicted_band=bands[name],
                dm_lhe=lhe(
                    cycles[(name, "dm", None, 0)],
                    cycles[(name, "dm", None, memory_differential)],
                ),
                swsm_lhe=lhe(
                    cycles[(name, "swsm", None, 0)],
                    cycles[(name, "swsm", None, memory_differential)],
                ),
                dm_cycles=cycles[(name, "dm", window,
                                  memory_differential)],
                swsm_cycles=cycles[(name, "swsm", window,
                                    memory_differential)],
            )
        )
    order: list[str] = []
    grouped: dict[str, list[GeneralizationRow]] = {}
    for row in rows:
        if row.family not in grouped:
            order.append(row.family)
            grouped[row.family] = []
        grouped[row.family].append(row)
    families = tuple(
        FamilyGeneralization(family=family, rows=tuple(grouped[family]))
        for family in order
    )
    return GeneralizationResult(
        corpus_name=corpus.name if isinstance(corpus, Corpus) else "",
        scale=session.scale,
        window=window,
        memory_differential=memory_differential,
        rows=tuple(rows),
        families=families,
    )
