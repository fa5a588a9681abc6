"""Command-line interface: regenerate any paper artefact from a shell.

Examples::

    python -m repro table1
    python -m repro fig4 --scale paper
    python -m repro ewr --program mdg
    python -m repro esw
    python -m repro ablation --study bypass --program flo52q
    python -m repro kernels

Generated workloads (the loop-nest grammar, corpus manifests and the
beyond-the-paper generalization study)::

    python -m repro generate --family gather --seed 7 --count 3
    python -m repro corpus --size 100 --seed 0
    python -m repro corpus --verify corpus/default-100.toml
    python -m repro ablation --study generalization --corpus corpus/default-100.toml
    python -m repro run --program gen:stencil:42 --machine dm

Generic declarative sweeps (any grid, parallel, disk-cached)::

    python -m repro --jobs 4 --cache-dir .repro-cache sweep --preset fig4
    python -m repro sweep --preset bypass --program mdg
    python -m repro sweep --spec my_sweep.toml
    python -m repro run --program trfd --machine swsm --window 64 --md 60

The paper-artifact report (persistent results store + static site)::

    python -m repro report --out docs/report
    python -m repro --scale tiny report --corpus corpus/default-100.toml
    python -m repro results --program mdg --machine dm
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .api import (
    PRESETS_NEEDING_PROGRAM,
    SWEEP_PRESETS,
    MemorySpec,
    Point,
    Session,
    Sweep,
    load_sweep,
)
from .errors import ReproError
from .experiments import PRESETS, active_preset, render_table
from .report import (
    ResultStore,
    build_report,
    emit_ablation,
    emit_esw,
    emit_ewr,
    emit_generate,
    emit_generalization,
    emit_kernels,
    emit_speedup,
    emit_table1,
    render_text,
)
from .workloads import (
    FAMILIES,
    generate_corpus,
    load_manifest,
    verify_corpus,
    write_manifest,
)

__all__ = ["main"]

_FIGURE_BY_COMMAND = {"fig4": "flo52q", "fig5": "mdg", "fig6": "track"}
_EWR_BY_COMMAND = {"fig7": "flo52q", "fig8": "mdg", "fig9": "track"}


def _window_arg(text: str) -> int | None:
    if text.lower() in ("unl", "unlimited", "none"):
        return None
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Jones & Topham (MICRO-30, 1997).",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(PRESETS),
        default=None,
        help="fidelity preset (default: REPRO_SCALE env var or 'small')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate sweeps on a process pool of N workers",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent cache directory, reused across runs: results in "
        "DIR/results.sqlite, compiled programs in DIR/lowered/ "
        "(a --store, where given, replaces the results file)",
    )
    parser.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="batched sweep engine: group sweep points sharing a "
        "compiled program and simulate each group in one vectorized "
        "run (bit-exact; --no-batch forces per-point dispatch)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="append a structured JSONL span trace of this invocation "
        "(compiles, cache probes, simulations, sweeps; same format as "
        "the REPRO_TRACE env toggle; see docs/observability.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="LHE of the DM at md=60 (Table 1)")
    for command, program in _FIGURE_BY_COMMAND.items():
        sub.add_parser(command, help=f"speedup vs window for {program}")
    for command, program in _EWR_BY_COMMAND.items():
        sub.add_parser(command, help=f"equivalent window ratio for {program}")
    speedup = sub.add_parser("speedup", help="speedup figure for any kernel")
    speedup.add_argument("--program", default="flo52q")
    ewr = sub.add_parser("ewr", help="EWR figure for any kernel")
    ewr.add_argument("--program", default="flo52q")
    sub.add_parser("esw", help="effective-single-window study (Figure 3)")
    ablation = sub.add_parser("ablation", help="design-choice ablations")
    ablation.add_argument(
        "--study",
        choices=(
            "issue-split", "partition", "bypass", "expansion", "hierarchy",
            "generalization",
        ),
        default="issue-split",
    )
    ablation.add_argument("--program", default="flo52q")
    ablation.add_argument(
        "--corpus",
        default=None,
        metavar="FILE",
        help="corpus manifest for --study generalization "
        "(default: generate one in memory)",
    )
    ablation.add_argument(
        "--size",
        type=int,
        default=100,
        help="generated corpus size when no --corpus manifest is given",
    )
    ablation.add_argument(
        "--seed",
        type=int,
        default=0,
        help="corpus seed when no --corpus manifest is given",
    )
    sub.add_parser("kernels", help="list workload models and their structure")

    report = sub.add_parser(
        "report",
        help="render every paper artefact as a static site "
        "(Markdown/HTML/SVG) backed by the persistent results store",
    )
    report.add_argument(
        "--out",
        default="docs/report",
        metavar="DIR",
        help="site output directory (default: docs/report)",
    )
    report.add_argument(
        "--store",
        default=".repro-results.sqlite",
        metavar="FILE",
        help="persistent results store; grows incrementally across runs; "
        "pass 'none' to disable (default: .repro-results.sqlite)",
    )
    report.add_argument(
        "--program",
        default="flo52q",
        help="program the ablation pages study (default: flo52q)",
    )
    report.add_argument(
        "--corpus",
        default=None,
        metavar="FILE",
        help="corpus manifest for the generalization pages "
        "(default: generate one in memory)",
    )
    report.add_argument(
        "--corpus-size",
        type=int,
        default=12,
        help="generated corpus size when no --corpus manifest is given",
    )
    report.add_argument(
        "--corpus-seed",
        type=int,
        default=0,
        help="corpus seed when no --corpus manifest is given",
    )
    report.add_argument(
        "--bench",
        default="BENCH_engine.json",
        metavar="FILE",
        help="engine benchmark trajectory to fold into the site "
        "(page skipped when the file is missing)",
    )
    report.add_argument(
        "--scale",
        choices=sorted(PRESETS),
        default=argparse.SUPPRESS,
        help="fidelity preset (same as the global --scale)",
    )

    results = sub.add_parser(
        "results",
        help="inspect the persistent results store",
    )
    results.add_argument(
        "--store",
        default=".repro-results.sqlite",
        metavar="FILE",
        help="results store to read (default: .repro-results.sqlite)",
    )
    results.add_argument("--program", default=None, help="filter by program")
    results.add_argument("--machine", default=None, help="filter by machine")
    results.add_argument(
        "--limit",
        type=int,
        default=20,
        help="maximum rows to print (0 = all; default: 20)",
    )

    generate = sub.add_parser(
        "generate",
        help="sample kernels from the loop-nest grammar and characterize them",
    )
    generate.add_argument(
        "--family",
        choices=(*FAMILIES, "all"),
        default="all",
        help="access-pattern family to sample (default: one of each)",
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--count",
        type=int,
        default=1,
        help="kernels per family, at consecutive seeds",
    )

    corpus = sub.add_parser(
        "corpus",
        help="write or verify a corpus manifest of generated kernels",
    )
    corpus.add_argument(
        "--verify",
        metavar="FILE",
        default=None,
        help="verify that every kernel of a manifest regenerates "
        "bit-identically",
    )
    corpus.add_argument("--size", type=int, default=100)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument(
        "--name", default=None, help="corpus name (default: default-<size>)"
    )
    corpus.add_argument(
        "--families",
        default=None,
        help="comma-separated family subset (default: all six)",
    )
    corpus.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="manifest path, .toml or .json "
        "(default: corpus/<name>.toml)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="evaluate a declarative sweep (named preset or TOML/JSON spec)",
    )
    source = sweep.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--preset",
        choices=sorted(SWEEP_PRESETS),
        help="named sweep reproducing a paper artefact grid",
    )
    source.add_argument(
        "--spec", metavar="FILE", help="sweep spec file (.toml or .json)"
    )
    sweep.add_argument(
        "--program",
        default=None,
        help="program for presets that take one (e.g. bypass, speedup)",
    )
    sweep.add_argument(
        "--timings",
        action="store_true",
        help="print a one-line telemetry summary (points, cache hits, "
        "engine strategies, wall seconds) after the sweep table",
    )

    serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP server "
        "(submit/poll/fetch jobs over HTTP; see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8077)
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads evaluating jobs",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="queued jobs before 503 backpressure",
    )
    serve.add_argument(
        "--store",
        default=".repro-results.sqlite",
        metavar="FILE",
        help="WAL-mode results store shared by the workers "
        "(finished points are served from it without re-simulation); "
        "'none' leaves only the --cache-dir's results.sqlite, if any "
        "(default: .repro-results.sqlite)",
    )
    serve.add_argument(
        "--site",
        default=None,
        metavar="DIR",
        help="serve a built 'repro report' site under /v1/artifacts/",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds to wait for running jobs on SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="per-connection socket timeout in seconds",
    )
    serve.add_argument(
        "--retry-after",
        type=int,
        default=1,
        metavar="S",
        help="Retry-After seconds sent with 503 backpressure",
    )

    run = sub.add_parser("run", help="evaluate one operating point")
    run.add_argument("--program", required=True)
    run.add_argument("--machine", default="dm")
    run.add_argument(
        "--window",
        type=_window_arg,
        default=32,
        help="instruction window size, or 'unlimited'",
    )
    run.add_argument("--md", type=int, default=60, dest="memory_differential")
    run.add_argument("--au-width", type=int, default=None)
    run.add_argument("--du-width", type=int, default=None)
    run.add_argument("--swsm-width", type=int, default=None)
    run.add_argument("--partition", default="slice")
    run.add_argument("--expansion", type=float, default=0.0)
    run.add_argument(
        "--memory",
        choices=(
            "fixed", "bypass", "cache", "hierarchy", "banked", "prefetch",
        ),
        default="fixed",
    )
    run.add_argument("--entries", type=int, default=64)
    run.add_argument("--line-bytes", type=int, default=32)
    run.add_argument(
        "--timings",
        action="store_true",
        help="print a one-line telemetry summary (engine strategy, "
        "counters, wall seconds) after the result",
    )
    return parser


def _make_session(args: argparse.Namespace):
    preset = PRESETS[args.scale] if args.scale else active_preset()
    session = Session(
        scale=preset.scale,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        batch=args.batch,
        trace=args.trace,
    )
    return session, preset


def _print_table1(session: Session, preset) -> None:
    print(render_text(emit_table1(session, preset)))


def _print_speedup(session: Session, preset, program: str) -> None:
    print(render_text(emit_speedup(session, preset, program)))


def _print_ewr(session: Session, preset, program: str) -> None:
    print(render_text(emit_ewr(session, preset, program)))


def _print_esw(session: Session) -> None:
    print(render_text(emit_esw(session)))


def _print_ablation(session: Session, study: str, program: str) -> None:
    print(render_text(emit_ablation(session, study, program)))


def _print_kernels(session: Session) -> None:
    print(render_text(emit_kernels(session)))


def _print_generalization(session: Session, preset, args) -> None:
    if args.corpus:
        corpus = load_manifest(args.corpus)
    else:
        corpus = generate_corpus(
            args.size, seed=args.seed, scale=preset.scale
        )
    summary, *_families = emit_generalization(session, preset, corpus)
    print(render_text(summary))


def _print_generate(session: Session, args) -> None:
    print(render_text(
        emit_generate(session, args.family, args.seed, args.count)
    ))


def _report_command(session: Session, preset, args) -> int:
    if args.store:
        # 'none' detaches every result store, --cache-dir's included.
        session.store(None if args.store.lower() == "none" else args.store)
    if args.corpus:
        corpus = load_manifest(args.corpus)
    else:
        corpus = generate_corpus(
            args.corpus_size, seed=args.corpus_seed, scale=preset.scale
        )
    manifest = build_report(
        session,
        preset,
        args.out,
        corpus=corpus,
        ablation_program=args.program,
        bench_path=args.bench,
    )
    charts = sum(1 for page in manifest["pages"] if page.endswith(".svg"))
    print(
        f"report: {len(manifest['artifacts'])} artefacts, "
        f"{len(manifest['pages'])} files ({charts} SVG charts) "
        f"-> {args.out}"
    )
    # A warm rebuild serves every point from the store (an attached
    # --store counts store hits, the --cache-dir store disk hits).
    stats = session.telemetry()["stats"]
    print(
        f"points: {stats['store_hits'] + stats['disk_hits']} from the "
        f"store, {stats['evaluated']} simulated"
    )
    # A warm rebuild also reads every static page record from the
    # store, so it builds no kernel.
    print(f"kernels: {stats['kernels_built']} built")
    store = session.store()
    if store is not None:
        print(f"store: {len(store)} results in {store.path or args.store}")
    return 0


def _results_command(args) -> int:
    if not Path(args.store).exists():
        print(f"no results yet in {args.store}")
        return 0
    store = ResultStore(args.store)
    rows = store.rows(
        program=args.program,
        machine=args.machine,
        limit=args.limit if args.limit > 0 else None,
    )
    if not rows:
        print(f"no results yet in {args.store}")
        return 0
    table = []
    for row in rows:
        window = "unl" if row.window is None else row.window
        memory = _memory_label(MemorySpec(**row.memory))
        table.append([
            row.program, row.machine, window, row.memory_differential,
            memory, row.scale, row.cycles, f"{row.ipc:.3f}",
        ])
    print(render_table(
        ["program", "machine", "window", "md", "memory", "scale",
         "cycles", "ipc"],
        table,
        title=f"results store {args.store}",
    ))
    summary = store.summary()
    print(
        f"{summary['results']} stored results "
        f"({summary['programs']} programs, {summary['machines']} machines, "
        f"{summary['scales']} scales); showing {len(rows)}"
    )
    return 0


def _corpus_command(session: Session, preset, args) -> int:
    if args.verify:
        corpus = load_manifest(args.verify)
        problems = verify_corpus(corpus)
        if problems:
            for problem in problems:
                print(f"MISMATCH {problem}")
            print(
                f"{corpus.name}: {len(problems)} of {len(corpus)} kernels "
                f"failed to regenerate bit-identically"
            )
            return 1
        print(
            f"{corpus.name}: all {len(corpus)} kernels regenerate "
            f"bit-identically at scale {corpus.scale}"
        )
        return 0
    families = (
        tuple(f.strip() for f in args.families.split(","))
        if args.families else FAMILIES
    )
    corpus = generate_corpus(
        args.size,
        seed=args.seed,
        scale=preset.scale,
        families=families,
        name=args.name or "",
    )
    out = args.out or f"corpus/{corpus.name}.toml"
    if args.out is None and Path(out).exists():
        try:
            existing = load_manifest(out)
        except ReproError:
            # Unreadable or from an incompatible grammar/schema: this
            # command is exactly how such a manifest gets regenerated.
            existing = None
        if existing is not None and (
            existing.seed, existing.scale, existing.families
        ) != (corpus.seed, corpus.scale, corpus.families):
            print(
                f"refusing to overwrite {out}: it pins a different "
                f"corpus (seed {existing.seed}, scale {existing.scale},"
                f" {len(existing.families)} families); pass --out to "
                f"write elsewhere"
            )
            return 1
    path = write_manifest(corpus, out)
    rows = [
        [family, len(entries),
         sum(1 for e in entries if e.predicted_band == "high"),
         sum(1 for e in entries if e.predicted_band == "moderate"),
         sum(1 for e in entries if e.predicted_band == "poor")]
        for family, entries in corpus.by_family().items()
    ]
    print(render_table(
        ["family", "kernels", "pred high", "pred mod", "pred poor"],
        rows,
        title=f"Corpus {corpus.name}: {len(corpus)} kernels at "
              f"scale {corpus.scale} (seed {corpus.seed})",
    ))
    print(f"manifest written to {path}")
    return 0


def _build_sweep(args: argparse.Namespace) -> Sweep:
    if args.spec:
        return load_sweep(args.spec)
    factory = SWEEP_PRESETS[args.preset]
    if args.preset in PRESETS_NEEDING_PROGRAM:
        program = args.program or "flo52q"
        return factory(program)
    if args.program is not None:
        if args.preset in ("table1", "esw"):
            return factory(programs=(args.program,))
        raise SystemExit(
            f"--program does not apply to preset {args.preset!r}"
        )
    return factory()


def _memory_label(memory: MemorySpec) -> str:
    """Short sweep-table label showing the field each kind reads."""
    if memory.kind in ("bypass", "prefetch"):
        return f"{memory.kind}({memory.entries})"
    if memory.kind == "banked":
        return f"banked({memory.banks}x{memory.bank_busy}c)"
    if memory.kind == "hierarchy":
        levels = "stock" if memory.levels is None else len(memory.levels)
        return f"hierarchy({levels})"
    return memory.kind


def _print_sweep(
    session: Session, sweep: Sweep, timings: bool = False
) -> None:
    outcome = session.run(sweep)
    rows = []
    for point, result in outcome:
        window = "unl" if point.window is None else point.window
        memory = _memory_label(point.memory)
        rows.append([
            point.program, point.machine, window, point.memory_differential,
            memory, result.cycles, result.ipc,
        ])
    title = f"sweep {sweep.name or '<unnamed>'}: {len(outcome)} points"
    print(render_table(
        ["program", "machine", "window", "md", "memory", "cycles", "ipc"],
        rows, title=title,
    ))
    stats = session.stats
    print(
        f"cache: {stats['evaluated']} simulated, "
        f"{stats['disk_hits']} disk hits, "
        f"{stats['memory_hits']} memory hits"
    )
    if timings and outcome.telemetry is not None:
        print(_timings_line(outcome.telemetry))


def _timings_line(telemetry: dict) -> str:
    """The opt-in ``--timings`` one-liner for one sweep's rollup."""
    strategies = ",".join(
        f"{name}={count}"
        for name, count in sorted(telemetry["strategies"].items())
    ) or "none"
    counters = telemetry["counters"]
    return (
        f"timings: {telemetry['points']} points "
        f"({telemetry['evaluated']} simulated, "
        f"{telemetry['memory_hits']} memory / "
        f"{telemetry['disk_hits']} disk / "
        f"{telemetry['store_hits']} store hits), "
        f"strategies {strategies}, "
        f"{counters.get('batch_lanes', 0)} batch lanes, "
        f"{counters.get('steady_skips', 0)} steady skips, "
        f"{telemetry['wall_seconds']:.3f}s wall"
    )


def _print_run(session: Session, args: argparse.Namespace) -> None:
    point = Point(
        program=args.program,
        machine=args.machine,
        window=args.window,
        memory_differential=args.memory_differential,
        au_width=args.au_width if args.au_width is not None
        else session.au_width,
        du_width=args.du_width if args.du_width is not None
        else session.du_width,
        swsm_width=args.swsm_width if args.swsm_width is not None
        else session.swsm_width,
        partition=args.partition,
        expansion=args.expansion,
        memory=MemorySpec(
            kind=args.memory,
            entries=args.entries,
            line_bytes=args.line_bytes,
        ),
    )
    result = session.evaluate(point)
    window = "unlimited" if point.window is None else point.window
    print(
        f"{point.program} on {point.machine} "
        f"(window={window}, md={point.memory_differential}, "
        f"memory={point.memory.kind}): "
        f"{result.cycles} cycles, ipc={result.ipc:.3f}"
    )
    if point.machine != "serial":
        print(f"speedup over serial: {session.speedup(point):.3f}")
    if args.timings and result.telemetry is not None:
        telemetry = result.telemetry
        counters = ",".join(
            f"{name}={value}"
            for name, value in sorted(telemetry.counters.items())
            if value
        ) or "none"
        print(
            f"timings: strategy {telemetry.strategy} "
            f"(tier {telemetry.cache_tier}), counters {counters}, "
            f"{telemetry.wall_seconds:.3f}s wall"
        )


def _serve_command(preset, args) -> int:
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        scale=preset.scale,
        workers=args.workers,
        queue_limit=args.queue_limit,
        cache_dir=args.cache_dir,
        store_path=(
            None if not args.store or args.store.lower() == "none"
            else args.store
        ),
        site_dir=args.site,
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
        request_timeout=args.request_timeout,
        retry_after=args.retry_after,
    )
    return serve(config)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # A mid-sweep Ctrl-C lands here after the session has already
        # cancelled its pool workers: exit cleanly, no traceback. Work
        # finished before the interrupt is in the caches for a rerun.
        print("repro: interrupted", file=sys.stderr)
        return 130


def _dispatch(args: argparse.Namespace) -> int:
    session, preset = _make_session(args)
    command = args.command
    if command == "table1":
        _print_table1(session, preset)
    elif command in _FIGURE_BY_COMMAND:
        _print_speedup(session, preset, _FIGURE_BY_COMMAND[command])
    elif command in _EWR_BY_COMMAND:
        _print_ewr(session, preset, _EWR_BY_COMMAND[command])
    elif command == "speedup":
        _print_speedup(session, preset, args.program)
    elif command == "ewr":
        _print_ewr(session, preset, args.program)
    elif command == "esw":
        _print_esw(session)
    elif command == "ablation":
        if args.study == "generalization":
            _print_generalization(session, preset, args)
        else:
            _print_ablation(session, args.study, args.program)
    elif command == "kernels":
        _print_kernels(session)
    elif command == "report":
        return _report_command(session, preset, args)
    elif command == "results":
        return _results_command(args)
    elif command == "generate":
        _print_generate(session, args)
    elif command == "corpus":
        return _corpus_command(session, preset, args)
    elif command == "sweep":
        _print_sweep(session, _build_sweep(args), timings=args.timings)
    elif command == "serve":
        return _serve_command(preset, args)
    elif command == "run":
        _print_run(session, args)
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
