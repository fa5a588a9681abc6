"""Declarative sweeps: one grid instead of a bespoke run_* function.

Crosses DM and SWSM with three memory-system variants on two kernels —
a study the per-figure entry points could never express — evaluated
through a session with a cache directory, whose result store
(``.repro-cache/results.sqlite``) keeps every simulated point. Run it
twice and watch the second invocation hit the store instead of
simulating.

Run:  python examples/sweep_api.py
"""

from __future__ import annotations

from repro import MemorySpec, Session, Sweep

CACHE_DIR = ".repro-cache"


def main() -> None:
    session = Session(scale=6_000, cache_dir=CACHE_DIR)
    sweep = Sweep.grid(
        name="memory-systems",
        program=("flo52q", "mdg"),
        machine=("dm", "swsm"),
        window=32,
        memory_differential=60,
        memory=(
            MemorySpec(kind="fixed"),               # the paper's model
            MemorySpec(kind="bypass", entries=64),  # future-work bypass
            MemorySpec(kind="cache"),               # two-level LRU
        ),
    )
    print(f"{sweep.name}: {len(sweep)} points\n")
    for point, result in session.run(sweep):
        speedup = session.speedup(point)
        print(f"  {point.program:7s} {point.machine:4s} "
              f"{point.memory.kind:6s} {result.cycles:7d} cycles  "
              f"speedup {speedup:5.2f}")
    stats = session.stats
    print(f"\ncache ({CACHE_DIR}): {stats['evaluated']} simulated, "
          f"{stats['disk_hits']} disk hits")


if __name__ == "__main__":
    main()
