"""Simulator throughput: instructions simulated per second.

Not a paper artefact — this times the struct-of-arrays engine itself,
the substrate every other benchmark stands on, at the scale tier
selected by ``REPRO_SCALE`` (``small``, ``paper`` or ``huge``). Uses
multi-round pytest-benchmark statistics (the run is deterministic and
cheap) and records the measured rates into
``BENCH_engine.json`` so the perf trajectory is tracked across PRs;
``bench_engine_soa.py`` adds the old-vs-new comparison rows. Each
timed round simulates a fresh unpickled copy of the compiled program,
made outside the timed region, so no round is served from the
program's pass memo.
"""

from __future__ import annotations

import pickle

import pytest

from trajectory import record_engine_rows

from repro import DecoupledMachine, DMConfig, SuperscalarMachine, SWSMConfig
from repro.kernels import build_kernel


@pytest.fixture(scope="module")
def flo52q_program(preset):
    return build_kernel("flo52q", preset.scale)


#: Timed rounds per engine throughput benchmark.
ROUNDS = 5


def _cold_rounds(benchmark, machine, compiled):
    """Time ``machine.run`` at md 60, each round on a fresh copy."""
    # One untimed run computes the steady state, which pickles with
    # the program; the pass memo does not.
    machine.run(compiled, memory_differential=60)
    state = pickle.dumps(compiled)
    return benchmark.pedantic(
        lambda copy: machine.run(copy, memory_differential=60),
        setup=lambda: ((pickle.loads(state),), {}),
        rounds=ROUNDS,
        iterations=1,
    )


def _record(preset, machine_name, compiled, result, seconds):
    record_engine_rows([{
        "scale": preset.name,
        "machine": machine_name,
        "engine": "soa",
        "instructions": compiled.num_instructions,
        "cycles": result.cycles,
        "seconds": round(seconds, 6),
        "ips": round(compiled.num_instructions / seconds),
    }])


def test_dm_engine_throughput(flo52q_program, preset, benchmark):
    machine = DecoupledMachine(DMConfig.symmetric(32))
    compiled = machine.compile(flo52q_program)
    result = _cold_rounds(benchmark, machine, compiled)
    seconds = benchmark.stats["mean"]
    rate = compiled.num_instructions / seconds
    _record(preset, "dm", compiled, result, seconds)
    print(f"\nDM: {rate / 1e3:.0f}k machine instructions / second "
          f"({result.cycles} cycles simulated)")


def test_swsm_engine_throughput(flo52q_program, preset, benchmark):
    machine = SuperscalarMachine(SWSMConfig(window=32))
    compiled = machine.compile(flo52q_program)
    result = _cold_rounds(benchmark, machine, compiled)
    seconds = benchmark.stats["mean"]
    rate = compiled.num_instructions / seconds
    _record(preset, "swsm", compiled, result, seconds)
    print(f"\nSWSM: {rate / 1e3:.0f}k machine instructions / second "
          f"({result.cycles} cycles simulated)")


def test_compile_throughput(flo52q_program, benchmark):
    benchmark(lambda: DecoupledMachine.compile(flo52q_program))


def test_lowering_throughput(flo52q_program, benchmark):
    """Cost of the one-time struct-of-arrays lowering pass."""
    from repro.machines import lower_program

    compiled = DecoupledMachine.compile(flo52q_program)
    benchmark(lambda: lower_program(compiled))
