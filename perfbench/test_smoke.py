"""Structure-only smoke test of the benchmark; it checks no timings.

    python3 -m pytest perfbench -q

Every workload runs one timed sample, untraced and traced: the result
line must carry exactly the catalogued metrics, no operation may fail,
and the layer spans must cover at least 95% of wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from catalog import END_TO_END, PER_LAYER, WORKLOADS
from hostspeed import REFERENCE_PROBE_S, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == {name: entry[:2] for name, entry in PER_LAYER.items()}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
    if trace == "1":
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.95


def test_reference_seconds_remove_probes_and_host_slowdown():
    host = HostSpeed()
    # A host at half the reference speed: probes take twice as long.
    host.probes = [(0.5, 2 * REFERENCE_PROBE_S), (1.5, 2 * REFERENCE_PROBE_S),
                   (9.0, 1.0)]
    busy = 2.0 - 4 * REFERENCE_PROBE_S
    assert host.reference_seconds(0.0, 2.0) == pytest.approx(busy / 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "table1", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
