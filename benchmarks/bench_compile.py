"""Compile throughput: DM partitioning, SWSM lowering and the steady search.

Times the two compilers (``partition_with_strategy(..., "slice")`` for
the DM, ``lower_swsm`` for the SWSM) and ``LoweredProgram.steady()`` on
each compiled program, over two program sets built at one scale: the
seeded 12-kernel generated corpus (the perfbench ``corpus`` workload's
kernels at the same seed modulo its seed pool) and the seven paper
kernels. Kernels are built outside the
timed region; each round compiles every program afresh, so ``steady()``
never reads a cached answer. Each layer reports the best round's
seconds and its throughput in machine-instruction gids per second.

These are the layers perfbench's traced ``corpus`` run reports as
``partition.dm_s``, ``partition.swsm_s`` and ``lowered.steady_s`` (there
over one compile of the same 12 kernels, tracer included).

Run the full table as a script::

    PYTHONPATH=src python benchmarks/bench_compile.py [--scale tiny] \
        [--seed 0] [--rounds 5]

Under pytest the active ``REPRO_SCALE`` preset is measured once.
"""

from __future__ import annotations

import argparse
import time

from conftest import run_once

from repro.config import DEFAULT_LATENCIES
from repro.experiments.scales import PRESETS
from repro.kernels import build_kernel, list_kernels
from repro.partition import lower_swsm
from repro.partition.strategies import partition_with_strategy
from repro.workloads import generate_corpus
from repro.workloads.grammar import build_generated

#: perfbench's corpus size (``repro report``'s default).
CORPUS_SIZE = 12

LAYERS = ("dm", "swsm", "steady")

#: The timed compile of each machine, by layer name.
COMPILERS = (
    ("dm", lambda p: partition_with_strategy(p, "slice", DEFAULT_LATENCIES)),
    ("swsm", lambda p: lower_swsm(p, DEFAULT_LATENCIES)),
)


def program_sets(scale: int, seed: int) -> dict[str, list]:
    """The seeded generated corpus and the paper kernels, built."""
    corpus = generate_corpus(CORPUS_SIZE, seed, scale)
    return {
        f"corpus-{CORPUS_SIZE}-s{seed}": [
            build_generated(entry.family, entry.seed, scale)
            for entry in corpus.entries
        ],
        "paper": [build_kernel(name, scale) for name in list_kernels()],
    }


def compile_round(programs) -> tuple[dict[str, float], dict[str, int], list]:
    """Seconds and gids per layer for one fresh compile of ``programs``."""
    seconds = dict.fromkeys(LAYERS, 0.0)
    gids = dict.fromkeys(LAYERS, 0)
    steadies = []
    for program in programs:
        for layer, compile_ in COMPILERS:
            start = time.perf_counter()
            low = compile_(program).lowered()
            seconds[layer] += time.perf_counter() - start
            start = time.perf_counter()
            steadies.append(low.steady())
            seconds["steady"] += time.perf_counter() - start
            gids[layer] += low.total
            gids["steady"] += low.total
    return seconds, gids, steadies


def measure(scale: int, seed: int = 0, rounds: int = 3) -> list[dict]:
    """One row per program set and layer: best-round seconds and gids/s."""
    rows = []
    for name, programs in program_sets(scale, seed).items():
        best = dict.fromkeys(LAYERS, float("inf"))
        first = None
        for _ in range(rounds):
            seconds, gids, steadies = compile_round(programs)
            # Every round compiles the same programs to the same answer.
            assert first is None or steadies == first
            first = steadies
            for layer in LAYERS:
                best[layer] = min(best[layer], seconds[layer])
        for layer in LAYERS:
            rows.append({
                "set": name,
                "layer": layer,
                "programs": len(programs),
                "gids": gids[layer],
                "seconds": best[layer],
                "gids_per_s": gids[layer] / best[layer],
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'set':<18} {'layer':<7} {'gids':>8} {'ms':>8} {'Mgids/s':>8}"]
    for row in rows:
        lines.append(
            f"{row['set']:<18} {row['layer']:<7} {row['gids']:>8} "
            f"{1e3 * row['seconds']:>8.1f} {row['gids_per_s'] / 1e6:>8.3f}"
        )
    return "\n".join(lines)


def test_compile_throughput(preset, benchmark):
    rows = run_once(benchmark, lambda: measure(preset.scale, rounds=1))
    print()
    print(render(rows))
    assert {row["layer"] for row in rows} == set(LAYERS)
    for row in rows:
        assert row["gids"] > 0 and row["seconds"] > 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=sorted(PRESETS), default="tiny")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    rows = measure(PRESETS[args.scale].scale, args.seed, args.rounds)
    print(f"scale={args.scale} seed={args.seed} rounds={args.rounds} "
          "(best round per layer)")
    print(render(rows))


if __name__ == "__main__":
    main()
