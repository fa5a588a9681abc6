"""Structured emitters: one function per paper artefact.

Each emitter runs the matching experiment driver through a
:class:`~repro.api.Session` and shapes the typed result into an
:class:`~repro.report.rows.Artifact` — tables, plot series and summary
lines as *data*. The CLI prints ``render_text(artifact)`` (the classic
terminal output, byte-identical to the pre-report printers); the site
generator renders the same artefacts as Markdown/HTML pages with SVG
charts. With a :class:`~repro.report.ResultStore` attached to the
session, every point an emitter evaluates lands in the warehouse under
its content-addressed key.
"""

from __future__ import annotations

from ..api.session import Session
from ..experiments import (
    FIGURE_PROGRAMS,
    ScalePreset,
    run_bypass_ablation,
    run_code_expansion_ablation,
    run_esw_study,
    run_ewr_figure,
    run_issue_split_ablation,
    run_memory_hierarchy_ablation,
    run_partition_ablation,
    run_speedup_figure,
    run_table1,
)
from ..experiments.generalization import (
    GeneralizationResult,
    run_generalization_study,
)
from ..kernels import get_kernel, list_kernels
from ..partition import analyze_decoupling
from ..workloads import FAMILIES, build_generated, characterize, generated_name
from .rows import Artifact, PlotBlock, TableBlock, TextBlock

__all__ = [
    "ABLATION_STUDIES",
    "emit_ablation",
    "emit_esw",
    "emit_ewr",
    "emit_generate",
    "emit_generalization",
    "emit_kernels",
    "emit_speedup",
    "emit_table1",
]

#: The non-generalization ablation studies, in report order.
ABLATION_STUDIES = (
    "issue-split", "partition", "bypass", "expansion", "hierarchy",
)


def emit_table1(session: Session, preset: ScalePreset) -> Artifact:
    """Table 1: DM latency-hiding effectiveness at md=60."""
    result = run_table1(session)
    headers = ("Prog", *(
        "unl" if window is None else str(window) for window in result.windows
    ), "band")
    rows = tuple(
        (row.program,
         *(row.lhe_by_window[window] for window in result.windows),
         row.measured_band)
        for row in result.rows
    )
    return Artifact(
        slug="table1",
        title="Table 1: DM latency hiding effectiveness",
        description=(
            "Latency-hiding effectiveness (LHE) of the access decoupled "
            "machine across window sizes at a memory differential of "
            f"{result.memory_differential}, ending in the unlimited-window "
            "column that defines the paper's high/moderate/poor bands."
        ),
        blocks=(
            TableBlock(
                headers=headers,
                rows=rows,
                title=f"Table 1: DM latency hiding effectiveness, md="
                      f"{result.memory_differential} (scale={preset.name})",
            ),
            TextBlock((
                f"bands matching the paper: "
                f"{result.bands_correct}/{len(result.rows)}",
            )),
        ),
    )


def emit_speedup(
    session: Session, preset: ScalePreset, program: str, slug: str = ""
) -> Artifact:
    """Figures 4-6: speedup versus window size for one program."""
    figure = run_speedup_figure(
        session, program, windows=preset.speedup_windows
    )
    series = tuple(
        (f"{curve.machine} md={curve.memory_differential}", curve.speedups)
        for curve in figure.curves
    )
    lines = []
    for md in (0, 60):
        crossover = figure.crossover_window(md)
        text = (
            "none (DM wins everywhere)" if crossover is None
            else str(crossover)
        )
        lines.append(f"md={md}: SWSM overtakes the DM at window {text}")
    return Artifact(
        slug=slug or f"speedup-{program}",
        title=f"Speedup vs window size: {program}",
        description=(
            f"Speedup of the DM and the SWSM over the serial reference "
            f"for {program}, against window size, at memory differentials "
            f"0 and 60 (combined issue width 9)."
        ),
        blocks=(
            PlotBlock(
                x_values=figure.windows,
                series=series,
                title=f"Speedup vs window size: {program} (CIW=9)",
                x_label="window size",
                y_label="speedup over serial",
            ),
            TextBlock(tuple(lines)),
        ),
    )


def emit_ewr(
    session: Session, preset: ScalePreset, program: str, slug: str = ""
) -> Artifact:
    """Figures 7-9: equivalent window ratio for one program."""
    figure = run_ewr_figure(
        session, program,
        dm_windows=preset.ewr_windows,
        differentials=preset.ewr_differentials,
    )
    series = tuple(
        (f"md={curve.memory_differential}", curve.ratios)
        for curve in figure.curves
    )
    return Artifact(
        slug=slug or f"ewr-{program}",
        title=f"Equivalent window ratio: {program}",
        description=(
            f"The SWSM window needed to match each DM window on "
            f"{program}, as a ratio, per memory differential. Gaps mark "
            f"DM operating points no SWSM window could match."
        ),
        blocks=(
            PlotBlock(
                x_values=figure.dm_windows,
                series=series,
                title=f"Equivalent window ratio: {program}",
                x_label="access decoupled window size",
                y_label="SWSM window / DM window",
            ),
        ),
    )


def emit_esw(session: Session) -> Artifact:
    """Figure 3 quantified: effective-single-window statistics."""
    rows = run_esw_study(session, FIGURE_PROGRAMS)
    return Artifact(
        slug="esw",
        title="Effective single window",
        description=(
            "Time-weighted mean and peak effective single window of DM "
            "runs versus the sum of the two physical windows — the "
            "paper's Figure 3 concept measured on real runs."
        ),
        blocks=(
            TableBlock(
                headers=("Prog", "md", "window", "mean ESW", "peak ESW",
                         "amplification"),
                rows=tuple(
                    (row.program, row.memory_differential, row.window,
                     row.stats.mean, row.stats.peak,
                     row.stats.amplification)
                    for row in rows
                ),
                title="Effective single window (vs 2x physical window)",
            ),
        ),
    )


def emit_ablation(session: Session, study: str, program: str) -> Artifact:
    """One design-choice ablation study (see :data:`ABLATION_STUDIES`)."""
    slug = f"ablation-{study}"
    if study == "issue-split":
        points = run_issue_split_ablation(session, program)
        best = min(points, key=lambda p: p.cycles)
        blocks = (
            TableBlock(
                headers=("AU", "DU", "cycles"),
                rows=tuple(
                    (p.au_width, p.du_width, p.cycles) for p in points
                ),
                title=f"Issue-width split at CIW=9: {program} "
                      f"(md=60, window=32)",
            ),
            TextBlock((
                f"best split: AU={best.au_width} DU={best.du_width}",
            )),
        )
        description = (
            "Every AU/DU division of the combined issue width of 9; "
            "the paper adopts 4+5 following its companion study."
        )
    elif study == "partition":
        points = run_partition_ablation(session, program)
        blocks = (
            TableBlock(
                headers=("strategy", "cycles", "AU instrs", "DU instrs"),
                rows=tuple(
                    (p.strategy, p.cycles, p.au_instructions,
                     p.du_instructions)
                    for p in points
                ),
                title=f"Partition strategies: {program} (md=60, window=32)",
            ),
        )
        description = (
            "DM cycles under each access/execute partitioning strategy — "
            "the paper's future-work question on code division."
        )
    elif study == "bypass":
        points = run_bypass_ablation(session, program)
        blocks = (
            TableBlock(
                headers=("entries", "cycles", "hit rate"),
                rows=tuple(
                    (p.entries, p.cycles, p.hit_rate) for p in points
                ),
                title=f"Bypass buffer: {program} (md=60, window=32)",
            ),
        )
        description = (
            "The paper's proposed bypass buffer at increasing sizes: "
            "cycles and hit rate under the DM."
        )
    elif study == "hierarchy":
        points = run_memory_hierarchy_ablation(session, program)
        fixed = points[0]
        best = min(points, key=lambda p: p.dm_cycles)
        blocks = (
            TableBlock(
                headers=("memory", "DM cycles", "SWSM cycles",
                         "DM advantage", "DM locality"),
                rows=tuple(
                    (p.memory, p.dm_cycles, p.swsm_cycles, p.dm_advantage,
                     p.dm_hit_rate)
                    for p in points
                ),
                title=f"Memory hierarchy: {program} (md=60, window=32)",
            ),
            TextBlock((
                f"DM advantage {fixed.dm_advantage:.2f}x under the paper's "
                f"fixed model; best DM memory system: {best.memory} "
                f"({best.dm_cycles} cycles)",
            )),
        )
        description = (
            "DM versus SWSM under every memory-system model (caches, "
            "configurable hierarchies, banked memory, a stream "
            "prefetcher): how much of the DM advantage survives when "
            "the memory system captures locality itself."
        )
    elif study == "expansion":
        points = run_code_expansion_ablation(session, program)
        blocks = (
            TableBlock(
                headers=("overhead", "DM cycles", "SWSM cycles", "SWSM/DM"),
                rows=tuple(
                    (f"{p.fraction:.0%}", p.dm_cycles, p.swsm_cycles,
                     p.dm_over_swsm)
                    for p in points
                ),
                title=f"Code expansion: {program} (md=60, window=32)",
            ),
        )
        description = (
            "DM versus SWSM as unrolling bookkeeping overhead is added "
            "— the paper's future-work question on code expansion."
        )
    else:
        raise ValueError(f"unknown ablation study {study!r}")
    return Artifact(
        slug=slug,
        title=f"Ablation: {study} ({program})",
        description=description,
        blocks=blocks,
    )


def emit_kernels(session: Session) -> Artifact:
    """The workload-model inventory (static analysis, no simulation).

    Each row is a :meth:`~repro.api.Session.static_record`, so a warm
    store serves the page without building a kernel.
    """
    rows = [
        tuple(session.static_record(
            "kernels", name, lambda name=name: _kernel_row(session, name)
        ))
        for name in list_kernels()
    ]
    return Artifact(
        slug="kernels",
        title="Workload models",
        description=(
            "The synthetic PERFECT-club substitutes: size, memory "
            "fraction, address-slice share, loss-of-decoupling events "
            "and the paper's latency-hiding band."
        ),
        blocks=(
            TableBlock(
                headers=("kernel", "instrs", "mem frac", "AU frac",
                         "self-loads", "LOD events", "paper band"),
                rows=tuple(rows),
                title="Workload models (PERFECT Club substitutes)",
            ),
        ),
    )


def emit_generate(
    session: Session, family: str = "all", seed: int = 0, count: int = 1
) -> Artifact:
    """Sampled kernels from the loop-nest grammar with static profiles.

    Rows are :meth:`~repro.api.Session.static_record` values, like the
    kernels page's.
    """
    families = FAMILIES if family == "all" else (family,)
    rows = [
        tuple(session.static_record(
            "generated",
            generated_name(sampled_family, sampled_seed),
            lambda f=sampled_family, s=sampled_seed: _generated_row(
                session, f, s
            ),
        ))
        for sampled_family in families
        for sampled_seed in range(seed, seed + max(1, count))
    ]
    return Artifact(
        slug="generated",
        title="Generated kernels",
        description=(
            "Kernels sampled from the seeded loop-nest grammar with "
            "their static characterizer profiles (no simulation)."
        ),
        blocks=(
            TableBlock(
                headers=("kernel", "instrs", "mem frac", "fp frac",
                         "LOD/ki", "self-ld/ki", "load chain", "pred band"),
                rows=tuple(rows),
                title="Generated kernels (loop-nest grammar, static "
                      "profile)",
            ),
        ),
    )


def _kernel_row(session: Session, name: str) -> tuple:
    """The kernels page's row for one registry kernel."""
    spec = get_kernel(name)
    program = session.program(name)
    report = analyze_decoupling(program)
    return (
        name, len(program), f"{program.stats.memory_fraction:.2f}",
        f"{report.au_fraction:.2f}", report.self_loads,
        report.lod_events, spec.resolved_band,
    )


def _generated_row(session: Session, family: str, seed: int) -> tuple:
    """The generated-kernels page's row for one grammar sample."""
    program = build_generated(family, seed, session.scale)
    # A build the session's program memo does not see; count it there.
    session.stats["kernels_built"] += 1
    profile = characterize(program)
    return (
        generated_name(family, seed), len(program),
        f"{profile.memory_fraction:.2f}",
        f"{profile.fp_fraction:.2f}",
        f"{profile.lod_rate:.2f}",
        f"{profile.self_load_rate:.2f}",
        f"{profile.load_chain_fraction:.3f}",
        profile.predicted_band,
    )


def emit_generalization(
    session: Session, preset: ScalePreset, corpus
) -> tuple[Artifact, ...]:
    """The generalization study: a summary artefact plus one per family.

    The first artefact is the per-family aggregate table the CLI
    prints; the rest are per-family kernel breakdowns rendered as their
    own site pages. All derive from a single study run (one sweep).
    """
    result = run_generalization_study(session, corpus)
    corpus_name = corpus.name if hasattr(corpus, "name") else ""
    summary = _generalization_summary(result, corpus_name, preset)
    families = tuple(
        _generalization_family(result, family.family)
        for family in result.families
    )
    return (summary, *families)


def _generalization_summary(
    result: GeneralizationResult, corpus_name: str, preset: ScalePreset
) -> Artifact:
    rows = []
    for family in result.families:
        bands = family.band_counts
        rows.append((
            family.family, family.kernels, bands["high"],
            bands["moderate"], bands["poor"],
            f"{family.prediction_hits}/{family.kernels}",
            f"{family.mean_dm_lhe:.3f}", f"{family.mean_swsm_lhe:.3f}",
            f"{family.dm_wins}/{family.kernels}",
            f"{family.holds}/{family.kernels}",
        ))
    return Artifact(
        slug="generalization",
        title="Generalization study",
        description=(
            "Does Table 1 survive beyond the paper's seven programs? "
            "Band classification and the limited-window DM-vs-SWSM "
            "comparison re-derived over a generated corpus, aggregated "
            "per access-pattern family."
        ),
        blocks=(
            TableBlock(
                headers=("family", "n", "high", "mod", "poor", "pred hit",
                         "DM LHE", "SWSM LHE", "DM wins", "holds"),
                rows=tuple(rows),
                title=f"Generalization study: {corpus_name} "
                      f"({result.kernels} kernels, scale={preset.name}, "
                      f"window={result.window}, "
                      f"md={result.memory_differential})",
            ),
            TextBlock((
                f"paper crossover structure holds for {result.holds}/"
                f"{result.kernels} kernels ({result.holds_fraction:.0%}); "
                f"characterizer band agreement "
                f"{result.prediction_agreement:.0%}",
            )),
        ),
    )


def _generalization_family(
    result: GeneralizationResult, family_name: str
) -> Artifact:
    family = next(
        f for f in result.families if f.family == family_name
    )
    rows = tuple(
        (row.name, row.predicted_band, row.dm_band, row.swsm_band,
         f"{row.dm_lhe:.3f}", f"{row.swsm_lhe:.3f}",
         row.dm_cycles, row.swsm_cycles,
         "yes" if row.dm_wins else "no",
         "yes" if row.structure_holds else "no")
        for row in family.rows
    )
    return Artifact(
        slug=f"generalization-{family_name}",
        title=f"Generalization: {family_name} family",
        description=(
            f"Per-kernel measurements for the {family_name} family: "
            f"predicted vs measured bands, LHE on both machines, and "
            f"whether the paper's crossover structure holds at "
            f"window={result.window}, md={result.memory_differential}."
        ),
        blocks=(
            TableBlock(
                headers=("kernel", "pred band", "DM band", "SWSM band",
                         "DM LHE", "SWSM LHE", "DM cycles", "SWSM cycles",
                         "DM wins", "holds"),
                rows=rows,
                title=f"{family_name}: {family.kernels} kernels "
                      f"(window={result.window}, "
                      f"md={result.memory_differential})",
            ),
            TextBlock((
                f"structure holds for {family.holds}/{family.kernels}; "
                f"characterizer agreement "
                f"{family.prediction_hits}/{family.kernels}",
            )),
        ),
    )
