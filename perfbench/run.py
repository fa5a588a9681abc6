"""End-to-end benchmark of the reproduction's artefact workloads.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all     # every workload, every metric
    python3 perfbench/run.py --list    # the metric catalogue

Run from the repository root. Load is a closed loop with one caller:
workload runs one after another, each in a fresh process (so peak RSS
and in-process memo caches are per run) with every ``REPRO_*`` variable
removed, ``jobs=1``, and all caches, stores and sites in a temporary
directory. Runs repeat until ``--seconds`` have passed (at least one).
Every run's outputs are checked against ``perfbench/reference``; the
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are in reference seconds: each run probes the host's speed while
it runs and scales its host time to a host of fixed speed (see
hostspeed.py), because a shared host's speed swings by a quarter or
more within seconds. Every metric is the median over the benchmark
run's samples. The summary line before the JSON gives sample counts and
the median raw host wall time too.

``--trace 1`` alternates traced runs with the untraced ones and reports
the per-layer metrics of the median traced run instead: self time and
counts per layer, the share of wall time the layer spans cover, the
tracing overhead (median traced against median untraced) and the share
of operations that failed. Table 1 traced runs also check the paper's
bands, in one untimed run at a scale where they hold.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalog import (
    CHECK_SCALES, END_TO_END, PER_LAYER, SCALES, WORKLOADS, input_id,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
#: Set-ups measured per untraced benchmark run: fresh-process imports,
#: or for report-warm a full cold report build.
IMPORT_SETUPS = 4
COLD_BUILDS = 2
#: Seconds one benchmark run may take, children included.
RUN_LIMIT = 170


class BenchError(RuntimeError):
    pass


def spawn(
    workload: str, seed: int, scale: str, tmp: Path,
    timeout: float = RUN_LIMIT, **flags,
) -> dict:
    """Run worker.py once and return its JSON report."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    child = Path(tempfile.mkdtemp(dir=tmp))
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--tmp", str(child),
    ]
    for flag, value in flags.items():
        if value is True:
            command.append("--" + flag.replace("_", "-"))
        elif value is not None:
            command += ["--" + flag.replace("_", "-"), str(value)]
    proc = subprocess.run(
        command, env=env, cwd=child, capture_output=True, text=True,
        timeout=max(timeout, 0.1),
    )
    if proc.returncode != 0:
        raise BenchError(
            f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Counts operations and failures against the recorded reference.

    An operation is one operating point (one page for report-warm). It
    fails when the run raised, when its digest differs from the
    reference or is missing, or when the workload flagged it (a Table 1
    row outside its paper band).
    """

    def __init__(self, workload: str, seed: int) -> None:
        path = REFERENCE / f"{workload}.json"
        self.references = json.loads(path.read_text())
        self.input = input_id(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, report: dict, scale: str) -> None:
        expected = self.references[scale][self.input]
        outputs = report["outputs"]
        if report["error"] is not None:
            self.errors.append(report["error"])
            self.attempted += len(expected)
            self.failed += len(expected)
            return
        keys = set(expected) | set(outputs)
        bad = {k for k in keys if outputs.get(k) != expected.get(k)}
        bad |= set(report["failed"])
        self.attempted += len(keys)
        self.failed += len(bad)


def measure(
    workload: str, seed: int, seconds: float, trace: bool,
    spans: str | None = None,
) -> dict:
    """One benchmark run of one workload: the result object to print."""
    scale = SCALES[workload]
    checker = Checker(workload, seed)
    setups, walls, host_walls, rss, rates, traced = [], [], [], [], [], []
    cold = None
    deadline = time.monotonic() + RUN_LIMIT
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as name:
        tmp = Path(name)

        def run(scale: str = scale, **flags) -> dict:
            report = spawn(workload, seed, scale, tmp,
                           deadline - time.monotonic(), **flags)
            checker.add(report, scale)
            return report

        if trace and workload in CHECK_SCALES:
            run(CHECK_SCALES[workload])
        store = None
        if workload == "report-warm":
            for index in range(1 if trace else COLD_BUILDS):
                store = tmp / f"store-{index}.sqlite"
                cold = run(store=store, trace=int(trace))
                setups.append(cold["setup_s"] + cold["wall_s"])
        elif not trace:
            for _ in range(IMPORT_SETUPS):
                setups.append(spawn(
                    workload, seed, scale, tmp, deadline - time.monotonic(),
                    setup_only=True,
                )["setup_s"])
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < seconds:
            report = run(store=store)
            if cold is None:
                setups.append(report["setup_s"])
            walls.append(report["wall_s"])
            host_walls.append(report["host_wall_s"])
            rss.append(report["peak_rss_mb"])
            rates.append(report["points"] / report["wall_s"])
            if trace:
                path = tmp / f"spans-{len(traced)}.jsonl"
                traced.append(run(store=store, trace=1, spans=path))
                traced[-1]["spans_path"] = path
        if trace:
            traced.sort(key=lambda r: r["wall_s"])
            middle = traced[(len(traced) - 1) // 2]
            if spans:
                shutil.copyfile(middle["spans_path"], spans)

    print(
        f"{workload}: seed {seed}, scale {scale}, {len(walls)} timed runs "
        f"(wall_s median {statistics.median(walls):.4f}, host wall median "
        f"{statistics.median(host_walls):.4f}), {len(setups)} set-ups, "
        f"{len(traced)} traced runs"
    )
    for error in checker.errors:
        print(error, file=sys.stderr)
    if trace:
        values = middle["layers"]
        if cold is not None:
            # The store is written only by the cold build during set-up.
            for key in ("store.record_s", "store.records"):
                values[key] = cold["layers"][key]
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(walls) - 1
        )
        values["failed_frac"] = checker.failed / checker.attempted
        catalogue = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "points_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        catalogue = {k: v[0] for k, v in END_TO_END.items()}
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            key: {"value": values[key], "unit": unit}
            for key, unit in catalogue.items()
        },
    }


def print_catalogue() -> None:
    for name, (unit, better) in END_TO_END.items():
        print(f"end-to-end  {name:30} {unit:6} {better}")
    for name, (unit, better, moves) in PER_LAYER.items():
        print(f"per-layer   {name:30} {unit:6} {better:7} moves: {moves}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the median traced "
                        "run's spans to this JSONL file")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, and "
                        "print every metric with its unit")
    parser.add_argument("--list", action="store_true",
                        help="print the metric catalogue and exit")
    args = parser.parse_args(argv)
    if args.list:
        print_catalogue()
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.all:
            for workload in WORKLOADS:
                for trace in (False, True):
                    result = measure(workload, args.seed, args.seconds, trace)
                    for key, metric in result["metrics"].items():
                        print(f"  {workload:12} {key:30} "
                              f"{metric['value']:<14.6g} {metric['unit']}")
                    print(f"  {workload:12} correct={result['correct']} "
                          f"failed {result['failed']}/{result['attempted']}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spans = str(Path(args.spans).resolve()) if args.spans else None
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), spans)
    except (BenchError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
