"""The static report site: every paper artefact as Markdown/HTML pages.

:func:`build_report` runs every artefact emitter through one session
(recording each evaluated point into the session's attached
:class:`~repro.report.ResultStore`, when present) and renders the
results with :func:`write_site`: one Markdown page and one HTML page
per artefact, SVG line charts for the figure series, per-family
generalization pages, a machine/memory-model index, an engine
benchmark-trajectory page folded in from ``BENCH_engine.json``, and a
``manifest.json`` mapping every artefact to the store keys that back
it.

The output is deterministic byte-for-byte: no timestamps, sorted
manifests, fixed float formatting. Re-running against a warm cache
reproduces the site exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from xml.sax.saxutils import escape as xml_escape

from ..api.session import Session
from ..experiments import ScalePreset
from ..experiments.formatting import format_cell as _format_cell
from ..machines import list_machines
from .emitters import (
    ABLATION_STUDIES,
    emit_ablation,
    emit_esw,
    emit_generalization,
    emit_generate,
    emit_kernels,
    emit_speedup,
    emit_table1,
)
from .emitters import emit_ewr as _emit_ewr
from .rows import Artifact, PlotBlock, TableBlock, TextBlock
from .store import SCHEMA_VERSION
from .svg import render_line_chart

__all__ = ["build_report", "load_bench", "write_site"]

#: Figure slug -> program, in paper order (figures 4-9).
SPEEDUP_FIGURES = (("fig4", "flo52q"), ("fig5", "mdg"), ("fig6", "track"))
EWR_FIGURES = (("fig7", "flo52q"), ("fig8", "mdg"), ("fig9", "track"))

#: Memory-system kinds shown on the models index page.
_MEMORY_KIND_NOTES = (
    ("fixed", "the paper's model: every access costs the differential"),
    ("bypass", "LRU bypass buffer over the fixed model (future-work §)"),
    ("cache", "the stock two-level LRU hierarchy"),
    ("hierarchy", "cache hierarchy with configurable level geometry"),
    ("banked", "interleaved banks with conflict queuing"),
    ("prefetch", "stride/stream prefetcher over the fixed model"),
)


def build_report(
    session: Session,
    preset: ScalePreset,
    out_dir: str | Path,
    corpus=None,
    ablation_program: str = "flo52q",
    bench_path: str | Path | None = None,
) -> dict:
    """Run every artefact and render the full site; returns the manifest.

    ``corpus`` feeds the generalization study (skipped when ``None``).
    ``bench_path`` names a ``BENCH_engine.json`` trajectory to fold in
    as a benchmark page (skipped when missing). With a result store
    attached to the session, the manifest records the store keys behind
    each artefact.
    """
    store = session.store()
    artifacts: list[Artifact] = []

    def tracked(emit) -> list[Artifact]:
        if store is None:
            produced = emit()
            return (
                list(produced) if isinstance(produced, tuple) else [produced]
            )
        with store.track() as group:
            produced = emit()
        items = list(produced) if isinstance(produced, tuple) else [produced]
        return [item.with_store_keys(group.keys) for item in items]

    artifacts += tracked(lambda: emit_table1(session, preset))
    artifacts += tracked(lambda: emit_esw(session))
    for slug, program in SPEEDUP_FIGURES:
        artifacts += tracked(
            lambda s=slug, p=program: emit_speedup(session, preset, p, slug=s)
        )
    for slug, program in EWR_FIGURES:
        artifacts += tracked(
            lambda s=slug, p=program: _emit_ewr(session, preset, p, slug=s)
        )
    for study in ABLATION_STUDIES:
        artifacts += tracked(
            lambda s=study: emit_ablation(session, s, ablation_program)
        )
    if corpus is not None:
        artifacts += tracked(
            lambda: emit_generalization(session, preset, corpus)
        )
    artifacts += tracked(lambda: emit_kernels(session))
    artifacts += tracked(lambda: emit_generate(session))

    bench = load_bench(bench_path) if bench_path is not None else None
    return write_site(
        artifacts, out_dir, preset, bench=bench, store=store
    )


def load_bench(path: str | Path) -> dict | None:
    """The BENCH_engine.json payload, or None when absent/unreadable."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


# -- rendering ---------------------------------------------------------------------


def write_site(
    artifacts: list[Artifact],
    out_dir: str | Path,
    preset: ScalePreset,
    bench: dict | None = None,
    store=None,
) -> dict:
    """Render artefact pages, the index, the models page and the manifest.

    Works for an empty artefact list too: the index then renders a
    valid "no results yet" site (models page and manifest included),
    which is what ``repro report`` on a fresh checkout degrades to if
    every study is disabled.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _clean_previous(out)
    pages: list[str] = []
    charts = 0

    for artifact in artifacts:
        svg_names = _write_charts(artifact, out)
        charts += len(svg_names)
        (out / f"{artifact.slug}.md").write_text(
            _artifact_markdown(artifact, svg_names)
        )
        (out / f"{artifact.slug}.html").write_text(
            _page_html(artifact.title, _artifact_body_html(artifact, svg_names))
        )
        pages += [f"{artifact.slug}.md", f"{artifact.slug}.html", *svg_names]

    models_md, models_html = _models_page()
    (out / "models.md").write_text(models_md)
    (out / "models.html").write_text(models_html)
    pages += ["models.md", "models.html"]

    if store is not None:
        telemetry_md, telemetry_html = _telemetry_page(store)
        (out / "telemetry.md").write_text(telemetry_md)
        (out / "telemetry.html").write_text(telemetry_html)
        pages += ["telemetry.md", "telemetry.html"]

    if bench is not None:
        bench_md, bench_html = _bench_page(bench)
        (out / "bench.md").write_text(bench_md)
        (out / "bench.html").write_text(bench_html)
        pages += ["bench.md", "bench.html"]

    index_md, index_html = _index_page(
        artifacts, preset, bench is not None, store is not None
    )
    (out / "index.md").write_text(index_md)
    (out / "index.html").write_text(index_html)
    pages += ["index.md", "index.html", "manifest.json"]

    manifest = {
        "scale": {"name": preset.name, "instructions": preset.scale},
        "store": {
            "schema": SCHEMA_VERSION,
            "results": len(store) if store is not None else 0,
            "attached": store is not None,
        },
        "artifacts": [
            {
                "slug": artifact.slug,
                "title": artifact.title,
                "store_keys": list(artifact.store_keys),
            }
            for artifact in artifacts
        ],
        "pages": sorted(pages),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def _clean_previous(out: Path) -> None:
    """Remove the pages a previous report wrote into this directory.

    A re-run with a smaller artefact set (fewer corpus families, no
    bench file) must not leave orphaned pages behind that contradict
    the fresh ``manifest.json``. Only files the old manifest claims —
    plain names inside the output directory — are removed; anything
    else in the directory is left alone.
    """
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return
    try:
        old = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return
    for name in old.get("pages", ()) if isinstance(old, dict) else ():
        if not isinstance(name, str) or "/" in name or "\\" in name:
            continue
        if name.startswith("."):
            continue
        target = out / name
        if target.is_file():
            target.unlink()


def _write_charts(artifact: Artifact, out: Path) -> list[str]:
    names = []
    index = 0
    for block in artifact.blocks:
        if isinstance(block, PlotBlock):
            name = f"{artifact.slug}-{index}.svg"
            (out / name).write_text(render_line_chart(block))
            names.append(name)
            index += 1
    return names


def _md_table(block: TableBlock) -> str:
    lines = []
    if block.title:
        lines.append(f"*{block.title}*")
        lines.append("")
    lines.append("| " + " | ".join(block.headers) + " |")
    lines.append("| " + " | ".join("---" for _ in block.headers) + " |")
    for row in block.rows:
        lines.append(
            "| " + " | ".join(_format_cell(v) for v in row) + " |"
        )
    return "\n".join(lines)


def _plot_data_table(block: PlotBlock) -> TableBlock:
    headers = (block.x_label, *(label for label, _ in block.series))
    rows = tuple(
        (x, *(ys[i] for _, ys in block.series))
        for i, x in enumerate(block.x_values)
    )
    return TableBlock(headers=headers, rows=rows)


def _artifact_markdown(artifact: Artifact, svg_names: list[str]) -> str:
    lines = [f"# {artifact.title}", "", "[report index](index.md)", ""]
    if artifact.description:
        lines += [artifact.description, ""]
    svg_iter = iter(svg_names)
    for block in artifact.blocks:
        if isinstance(block, TableBlock):
            lines += [_md_table(block), ""]
        elif isinstance(block, PlotBlock):
            name = next(svg_iter)
            lines += [f"![{block.title}]({name})", ""]
            lines += [_md_table(_plot_data_table(block)), ""]
        elif isinstance(block, TextBlock):
            for line in block.lines:
                lines += [f"> {line}", ""]
    if artifact.store_keys:
        lines += [
            f"<sub>{len(artifact.store_keys)} stored operating points "
            f"back this artefact; keys in [manifest.json](manifest.json)."
            f"</sub>",
            "",
        ]
    return "\n".join(lines)


# -- html --------------------------------------------------------------------------

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 64rem; padding: 0 1rem; background: #f9f9f7;
       color: #0b0b0b; }
h1, h2 { font-weight: 600; }
a { color: #2a78d6; }
table { border-collapse: collapse; margin: 1rem 0; background: #fcfcfb; }
caption { text-align: left; color: #52514e; font-style: italic;
          padding-bottom: 0.4rem; }
th, td { border: 1px solid #e1e0d9; padding: 0.3rem 0.7rem;
         font-size: 0.9rem; }
th { background: #f0efec; text-align: left; }
td { font-variant-numeric: tabular-nums; text-align: right; }
td:first-child { text-align: left; }
blockquote { color: #52514e; border-left: 3px solid #c3c2b7;
             margin: 1rem 0; padding: 0.2rem 1rem; }
img { max-width: 100%; }
sub { color: #898781; }
"""


def _escape(text: object) -> str:
    return xml_escape(str(text))


def _page_html(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        f"<title>{_escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        f"{body}\n</body>\n</html>\n"
    )


def _html_table(block: TableBlock) -> str:
    lines = ["<table>"]
    if block.title:
        lines.append(f"<caption>{_escape(block.title)}</caption>")
    lines.append(
        "<tr>" + "".join(f"<th>{_escape(h)}</th>" for h in block.headers)
        + "</tr>"
    )
    for row in block.rows:
        lines.append(
            "<tr>"
            + "".join(f"<td>{_escape(_format_cell(v))}</td>" for v in row)
            + "</tr>"
        )
    lines.append("</table>")
    return "\n".join(lines)


def _artifact_body_html(artifact: Artifact, svg_names: list[str]) -> str:
    parts = [
        f"<h1>{_escape(artifact.title)}</h1>",
        '<p><a href="index.html">report index</a></p>',
    ]
    if artifact.description:
        parts.append(f"<p>{_escape(artifact.description)}</p>")
    svg_iter = iter(svg_names)
    for block in artifact.blocks:
        if isinstance(block, TableBlock):
            parts.append(_html_table(block))
        elif isinstance(block, PlotBlock):
            name = next(svg_iter)
            parts.append(
                f'<p><img src="{name}" alt="{_escape(block.title)}"></p>'
            )
            parts.append(_html_table(_plot_data_table(block)))
        elif isinstance(block, TextBlock):
            for line in block.lines:
                parts.append(f"<blockquote>{_escape(line)}</blockquote>")
    if artifact.store_keys:
        parts.append(
            f"<p><sub>{len(artifact.store_keys)} stored operating points "
            f'back this artefact; keys in <a href="manifest.json">'
            f"manifest.json</a>.</sub></p>"
        )
    return "\n".join(parts)


# -- index / models / bench pages --------------------------------------------------

_SECTIONS = (
    ("Paper tables and studies", ("table1", "esw")),
    ("Speedup figures (4–6)", ("fig4", "fig5", "fig6")),
    ("Equivalent-window figures (7–9)", ("fig7", "fig8", "fig9")),
    ("Ablations", tuple(f"ablation-{s}" for s in ABLATION_STUDIES)),
    ("Generalization", ("generalization",)),
    ("Workloads", ("kernels", "generated")),
)


def _index_sections(
    artifacts: list[Artifact],
) -> list[tuple[str, list[Artifact]]]:
    by_slug = {artifact.slug: artifact for artifact in artifacts}
    sections = []
    placed = set()
    for title, slugs in _SECTIONS:
        members = [by_slug[slug] for slug in slugs if slug in by_slug]
        if title == "Generalization":
            families = sorted(
                (a for a in artifacts
                 if a.slug.startswith("generalization-")),
                key=lambda a: a.slug,
            )
            members += families
        if members:
            sections.append((title, members))
            placed.update(member.slug for member in members)
    leftovers = [a for a in artifacts if a.slug not in placed]
    if leftovers:
        sections.append(("Other artefacts", leftovers))
    return sections


def _index_page(
    artifacts: list[Artifact],
    preset: ScalePreset,
    has_bench: bool,
    has_telemetry: bool = False,
) -> tuple[str, str]:
    intro = (
        f"Every table and figure of the paper, regenerated from "
        f"cycle-exact simulation at scale **{preset.name}** "
        f"({preset.scale:,} architectural instructions per kernel) and "
        f"rendered from the persistent results store."
    )
    md = ["# Paper-artifact report", "", intro, ""]
    html = [
        "<h1>Paper-artifact report</h1>",
        "<p>" + _escape(intro.replace("**", "")) + "</p>",
    ]
    if not artifacts:
        empty = (
            "No results yet — run `repro report` to evaluate the paper "
            "artefacts and populate this site."
        )
        md += [empty, ""]
        html.append(f"<p>{_escape(empty.replace('`', ''))}</p>")
    for title, members in _index_sections(artifacts):
        md += [f"## {title}", ""]
        html.append(f"<h2>{_escape(title)}</h2>")
        html.append("<ul>")
        for artifact in members:
            md.append(
                f"- [{artifact.title}]({artifact.slug}.md) — "
                f"{artifact.description}"
            )
            html.append(
                f'<li><a href="{artifact.slug}.html">'
                f"{_escape(artifact.title)}</a> — "
                f"{_escape(artifact.description)}</li>"
            )
        md.append("")
        html.append("</ul>")
    md += ["## Reference", ""]
    html.append("<h2>Reference</h2>")
    html.append("<ul>")
    md.append(
        "- [Machines and memory models](models.md) — every registered "
        "machine and memory-system kind"
    )
    html.append(
        '<li><a href="models.html">Machines and memory models</a></li>'
    )
    if has_bench:
        md.append(
            "- [Engine benchmark trajectory](bench.md) — measured "
            "throughput per engine, machine and scale"
        )
        html.append(
            '<li><a href="bench.html">Engine benchmark trajectory</a></li>'
        )
    if has_telemetry:
        md.append(
            "- [Run telemetry](telemetry.md) — engine strategies and "
            "accelerator counters behind every stored point"
        )
        html.append('<li><a href="telemetry.html">Run telemetry</a></li>')
    md.append(
        "- [manifest.json](manifest.json) — artefact-to-store-key map "
        "for this report"
    )
    html.append('<li><a href="manifest.json">manifest.json</a></li>')
    md.append("")
    html.append("</ul>")
    return "\n".join(md), _page_html("Paper-artifact report", "\n".join(html))


def _models_page() -> tuple[str, str]:
    machines = TableBlock(
        headers=("machine", "role"),
        rows=tuple(
            (name, _MACHINE_NOTES.get(name, "registered machine model"))
            for name in sorted(list_machines())
        ),
        title="Registered machine models",
    )
    kinds = TableBlock(
        headers=("memory kind", "model"),
        rows=_MEMORY_KIND_NOTES,
        title="Memory-system kinds (MemorySpec)",
    )
    md = "\n".join([
        "# Machines and memory models", "", "[report index](index.md)", "",
        _md_table(machines), "",
        _md_table(kinds), "",
        "Machines register through `repro.machines.register_machine`; "
        "memory systems are declared per point with `MemorySpec` and "
        "built at evaluation time.", "",
    ])
    body = "\n".join([
        "<h1>Machines and memory models</h1>",
        '<p><a href="index.html">report index</a></p>',
        _html_table(machines),
        _html_table(kinds),
        "<p>Machines register through "
        "<code>repro.machines.register_machine</code>; memory systems "
        "are declared per point with <code>MemorySpec</code> and built "
        "at evaluation time.</p>",
    ])
    return md, _page_html("Machines and memory models", body)


_MACHINE_NOTES = {
    "dm": "access decoupled machine (AU + DU, decoupled memory)",
    "swsm": "single-window superscalar at the DM's combined width",
    "serial": "in-order serial reference (speedup denominator)",
}

#: Counter columns of the telemetry page, in display order.
_TELEMETRY_COUNTERS = (
    ("steady_skips", "steady skips"),
    ("skipped_instructions", "skipped instrs"),
    ("event_runs", "event runs"),
    ("batch_lanes", "batch lanes"),
)


def _telemetry_page(store) -> tuple[str, str]:
    """Per-(program, machine, strategy) rollup of store-recorded telemetry.

    Renders only the deterministic store column (strategy + counter
    sums), never wall-clock numbers, so a rebuild against the same
    store reproduces the page byte-for-byte.
    """
    groups: dict[tuple[str, str, str], dict] = {}
    recorded = 0
    for row in store.rows():
        telemetry = row.telemetry
        if telemetry is None:
            continue
        recorded += 1
        key = (row.program, row.machine, telemetry.get("strategy", "?"))
        group = groups.setdefault(key, {"points": 0, "counters": {}})
        group["points"] += 1
        counters = group["counters"]
        for name, value in (telemetry.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
    table = TableBlock(
        headers=("program", "machine", "strategy", "points",
                 *(label for _, label in _TELEMETRY_COUNTERS)),
        rows=tuple(
            (
                program, machine, strategy, group["points"],
                *(group["counters"].get(name, 0)
                  for name, _ in _TELEMETRY_COUNTERS),
            )
            for (program, machine, strategy), group in sorted(groups.items())
        ),
        title="Engine strategy and accelerator counters per stored point",
    )
    context = (
        f"{recorded} of {len(store)} stored operating points carry run "
        f"telemetry (rows from pre-telemetry stores have none). "
        f"Strategies name the engine fast path that produced the "
        f"result; counters sum each strategy's accelerator work. See "
        f"docs/observability.md for the field glossary."
    )
    md = "\n".join([
        "# Run telemetry", "",
        "[report index](index.md)", "",
        context, "",
        _md_table(table), "",
    ])
    body = "\n".join([
        "<h1>Run telemetry</h1>",
        '<p><a href="index.html">report index</a></p>',
        f"<p>{_escape(context)}</p>",
        _html_table(table),
    ])
    return md, _page_html("Run telemetry", body)


def _seconds(value: object) -> str:
    """Wall-clock seconds at full precision (2dp would erase them)."""
    if isinstance(value, (int, float)):
        return f"{value:.6f}".rstrip("0").rstrip(".")
    return "" if value is None else str(value)


def _row_speedup(row: dict) -> str:
    """One speedup cell, whichever baseline the row was measured
    against (object engine, probe-route loop, per-point dispatch, or
    the uniform-table cycle loop)."""
    for key, baseline in (
        ("speedup_vs_objects", "objects"),
        ("speedup_vs_probing", "probing"),
        ("speedup_vs_per_point", "per-point"),
        ("speedup_vs_loop", "loop"),
    ):
        value = row.get(key)
        if value is not None:
            return f"{value}x vs {baseline}"
    return ""


def _bench_page(payload: dict) -> tuple[str, str]:
    rows = payload.get("rows", [])
    table = TableBlock(
        headers=("scale", "machine", "engine", "memory", "lanes",
                 "instructions", "cycles", "seconds", "instrs/sec",
                 "speedup"),
        rows=tuple(
            (
                row.get("scale", ""), row.get("machine", ""),
                row.get("engine", ""), row.get("memory", ""),
                row.get("lanes", ""),
                row.get("instructions", ""), row.get("cycles", ""),
                _seconds(row.get("seconds")), row.get("ips", ""),
                _row_speedup(row),
            )
            for row in rows
        ),
        title=str(payload.get("benchmark", "engine benchmark")),
    )
    context = (
        f"Kernel `{payload.get('kernel', '?')}`, window "
        f"{payload.get('window', '?')}, memory differential "
        f"{payload.get('memory_differential', '?')}; last refreshed "
        f"{payload.get('updated', 'unknown')} by the engine benchmarks "
        f"(`benchmarks/bench_engine_soa.py`, `bench_engine_batch.py`; "
        f"batch rows sweep one differential per lane and report whole "
        f"sweep-axis wall clock)."
    )
    md = "\n".join([
        "# Engine benchmark trajectory", "",
        "[report index](index.md)", "",
        context, "",
        _md_table(table), "",
    ])
    body = "\n".join([
        "<h1>Engine benchmark trajectory</h1>",
        '<p><a href="index.html">report index</a></p>',
        f"<p>{_escape(context.replace('`', ''))}</p>",
        _html_table(table),
    ])
    return md, _page_html("Engine benchmark trajectory", body)
