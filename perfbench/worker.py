"""One workload run in a fresh process; prints one JSON report line.

Started by run.py with every ``REPRO_*`` variable removed and ``src`` on
``PYTHONPATH``. ``setup_s`` runs from interpreter start-up to a prepared
workload (imports plus set-up); ``wall_s`` times the workload alone. Both
are in reference seconds (see hostspeed.py); ``host_wall_s`` is the raw
wall time. With ``--trace 1`` the layer tracer is installed after set-up,
and the report carries the per-layer metrics of the timed part, their
times converted to reference seconds alike.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

from hostspeed import HostSpeed  # noqa: E402

HOST = HostSpeed()
HOST.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--store", type=Path, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here as JSONL")
    args = parser.parse_args()
    leaked = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if leaked:
        raise SystemExit(f"worker: REPRO_* variables set: {leaked}")

    from workloads import prepare

    prepared = prepare(args.workload, args.seed, args.scale, args.tmp,
                       args.store)
    report = {"setup_s": HOST.reference_seconds(STARTED, time.perf_counter())}
    if args.setup_only:
        HOST.stop()
        print(json.dumps(report))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        install(tracer)
    error, output = None, None
    start = time.perf_counter()
    try:
        output = prepared.run()
    except Exception:
        error = traceback.format_exc()
    end = time.perf_counter()
    HOST.stop()
    report["wall_s"] = HOST.reference_seconds(start, end)
    report["host_wall_s"] = end - start
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    if tracer is not None:
        tracer.enabled = False
    # Before the check, whose read-back lookups count as memory hits.
    telemetry = [session.telemetry() for session in prepared.sessions]
    report["error"] = error
    report.update(
        prepared.check(output) if error is None
        else {"outputs": {}, "failed": []}
    )
    report["points"] = sum(
        t["stats"][key] for t in telemetry
        for key in ("evaluated", "disk_hits", "store_hits")
    )
    if tracer is not None:
        from catalog import layer_metrics
        from tracer import summarize

        pages = len(report["outputs"]) if args.workload == "report-warm" else 0
        summary = summarize(tracer.spans, start, end)
        to_reference = report["wall_s"] / (end - start)
        for layer in summary["layers"].values():
            layer["self_s"] *= to_reference
            layer["total_s"] *= to_reference
        report["layers"] = layer_metrics(summary, telemetry, pages)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
