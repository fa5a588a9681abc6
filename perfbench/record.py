"""Re-record the reference output digests from the current code.

    python3 perfbench/record.py [WORKLOAD ...]

Writes ``perfbench/reference/<workload>.json``: for every input (the
fixed inputs, or each corpus seed of the pool) the digest of each
operating point's cycles, instructions and meta, or of each report
page. Record only from a commit whose outputs are known good: the
benchmark counts any later difference as a failed operation.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from catalog import CHECK_SCALES, SCALES, SEED_POOL, WORKLOADS, input_id
from run import REFERENCE, ROOT, spawn


def record(workload: str) -> None:
    seeds = range(SEED_POOL) if input_id(workload, 1) != "fixed" else [0]
    scales = {SCALES[workload], CHECK_SCALES.get(workload, SCALES[workload])}
    recorded = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as name:
        tmp = Path(name)
        for scale in sorted(scales):
            inputs = recorded[scale] = {}
            for seed in seeds:
                report = spawn(
                    workload, seed, scale, tmp,
                    store=tmp / f"store-{scale}-{seed}.sqlite"
                    if workload == "report-warm" else None,
                )
                if report["error"] or report["failed"]:
                    raise SystemExit(
                        f"{workload} seed {seed}: refusing to record a "
                        f"failing run\n{report['error'] or report['failed']}"
                    )
                inputs[input_id(workload, seed)] = report["outputs"]
                print(f"{workload} {scale} seed {seed}: "
                      f"{len(report['outputs'])} outputs")
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / f"{workload}.json").write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; known: {WORKLOADS}")
        record(name)
