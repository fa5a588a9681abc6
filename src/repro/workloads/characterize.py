"""Static workload characterisation: what a trace looks like *before*
simulation.

:func:`characterize` reduces a program to the structural quantities
the paper's experiments turn out to depend on — the instruction mix,
the inter-instruction dependence-distance histogram, the density of
DU -> AU crossings (loss-of-decoupling events) and AU self-loads, and
the depth of address-coupled load chains — and predicts which of the
paper's latency-hiding bands the program should land in.

The prediction is a documented heuristic over three quantities:

* **the dataflow LHE bound** (``dataflow_lhe_bound``): the ratio of
  execution-time lower bounds at md=0 and md=60, where each bound is
  ``max(critical path, instructions / combined issue width)`` — a
  machine is limited by its issue bandwidth or by the dependence
  structure, whichever bites. No machine can hide more latency than
  this ratio allows, so it upper-bounds the Table-1 LHE at an
  unlimited window and catches every *memory-carried* serialisation —
  pointer chases, carried store -> load chains — whatever shape it
  takes, while leaving throughput-bound programs (whose critical path
  is short but wide) correctly classified as hideable.
* **crossing density** (``lod_rate``): DU -> AU crossings per thousand
  instructions. Each crossing stalls the address unit behind the data
  unit, which is exactly what Table 1's *poorly effective* programs
  (TRACK) do at high density. Crossings hurt real machines well below
  the density at which they dominate the critical path, so they get
  their own thresholds.
* **address-coupled load chains** (``load_chain_fraction``): the
  longest chain of loads linked through address computation, relative
  to the number of loads. A pointer chase has a chain as long as the
  trace — no window, however large, can hide memory latency the
  address unit itself is serialised on. Gathers (chains of depth 2)
  and descriptor gating (depth 2, sparse) are cheap by the same
  measure, matching their *highly effective* classification.

The predicted band is the **worse** of the bound's band and the
density rules' band.

Corpus manifests persist the profile per kernel; the generalization
study compares the prediction against the measured band on both
machines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from ..config import DEFAULT_MEMORY_DIFFERENTIAL
from ..ir import Program
from ..ir.types import OP_INT, OP_LOAD
from ..metrics import classify_band
from ..partition import analyze_decoupling

__all__ = ["WorkloadProfile", "characterize"]

#: Band severity order, worst first.
_BAND_ORDER = ("poor", "moderate", "high")

#: The paper's combined issue width: the throughput floor of the
#: execution-time bound behind ``dataflow_lhe_bound``.
_ISSUE_WIDTH = 9

#: lod_rate at or above which hiding is predicted to collapse.
_POOR_LOD_RATE = 5.0
#: lod_rate at or above which hiding is predicted to degrade.
_MODERATE_LOD_RATE = 0.5
#: Longest address-coupled load chain / loads: chase detection.
_POOR_LOAD_CHAIN = 0.10
_MODERATE_LOAD_CHAIN = 0.02


@dataclass(frozen=True)
class WorkloadProfile:
    """Static structural profile of one program.

    Attributes:
        name: program name.
        total: architectural instruction count.
        int_fraction / fp_fraction / load_fraction / store_fraction:
            instruction mix.
        dep_distance_hist: dependence-distance histogram as
            ``(bucket, count)`` pairs; each bucket is a power-of-two
            lower bound (distance ``d`` lands in ``2**floor(log2 d)``).
        mean_dep_distance: mean distance over all dependence edges.
        lod_rate: DU -> AU crossings per thousand instructions.
        self_load_rate: AU self-loads per thousand instructions.
        load_chain_fraction: longest chain of loads coupled through
            address computation, divided by the load count.
        dataflow_ilp: instructions / dataflow critical path at md=0 —
            the parallelism an infinite machine could extract.
        dataflow_lhe_bound: ratio of execution-time lower bounds
            (``max(critical path, instructions / issue width)``) at
            md=0 and the default differential — the dependence
            structure's upper bound on Table-1 LHE at an unlimited
            window.
    """

    name: str
    total: int
    int_fraction: float
    fp_fraction: float
    load_fraction: float
    store_fraction: float
    dep_distance_hist: tuple[tuple[int, int], ...]
    mean_dep_distance: float
    lod_rate: float
    self_load_rate: float
    load_chain_fraction: float
    dataflow_ilp: float
    dataflow_lhe_bound: float

    @property
    def predicted_band(self) -> str:
        """Predicted latency-hiding band ("high"/"moderate"/"poor")."""
        if (self.lod_rate >= _POOR_LOD_RATE
                or self.load_chain_fraction >= _POOR_LOAD_CHAIN):
            density = "poor"
        elif (self.lod_rate >= _MODERATE_LOD_RATE
                or self.load_chain_fraction >= _MODERATE_LOAD_CHAIN):
            density = "moderate"
        else:
            density = "high"
        bound = classify_band(min(1.0, self.dataflow_lhe_bound))
        return min(density, bound, key=_BAND_ORDER.index)

    @property
    def memory_fraction(self) -> float:
        return self.load_fraction + self.store_fraction

    def to_dict(self) -> dict:
        """Plain-dict form (JSON/TOML compatible) including the band."""
        doc = asdict(self)
        doc["dep_distance_hist"] = [list(row) for row in
                                    self.dep_distance_hist]
        doc["predicted_band"] = self.predicted_band
        return doc


def _load_chain_depth(program: Program) -> int:
    """Longest chain of loads coupled through address computation.

    Chain depth propagates through integer ops and load address
    operands only; FP operations and stores break the chain (a value
    that detours through the data unit is a crossing, counted by
    ``lod_rate`` instead).
    """
    cols = program.columns
    depth = [0] * len(cols.op)
    deepest = 0
    for index, (op_code, srcs, addr_src) in enumerate(
        zip(cols.op, cols.srcs, cols.addr_src)
    ):
        if op_code == OP_INT:
            d = 0
            for src in srcs:
                if depth[src] > d:
                    d = depth[src]
            depth[index] = d
        elif op_code == OP_LOAD:
            d = depth[index] = (depth[addr_src] if addr_src >= 0 else 0) + 1
            if d > deepest:
                deepest = d
    return deepest


def _dep_distances(program: Program) -> list[int]:
    """``consumer - producer`` over every dependence edge (data, address
    and memory-ordering)."""
    cols = program.columns
    distances = [
        index - dep for index, srcs in enumerate(cols.srcs) for dep in srcs
    ]
    for column in (cols.addr_src, cols.mem_dep):
        distances += [
            index - dep for index, dep in enumerate(column) if dep >= 0
        ]
    return distances


def characterize(program: Program) -> WorkloadProfile:
    """Compute the static profile of one program."""
    stats = program.stats
    total = max(1, stats.total)

    distances = _dep_distances(program)
    buckets = Counter(map(int.bit_length, distances))
    edges = len(distances)
    distance_sum = sum(distances)

    report = analyze_decoupling(program)
    chain = _load_chain_depth(program)
    critical, critical_md = program._critical_paths(
        0, DEFAULT_MEMORY_DIFFERENTIAL
    )
    issue_floor = stats.total / _ISSUE_WIDTH
    bound_0 = max(float(critical), issue_floor)
    bound_md = max(float(critical_md), issue_floor)

    return WorkloadProfile(
        name=program.name,
        total=stats.total,
        int_fraction=stats.int_ops / total,
        fp_fraction=stats.fp_ops / total,
        load_fraction=stats.loads / total,
        store_fraction=stats.stores / total,
        dep_distance_hist=tuple(sorted(
            (1 << (bits - 1), n) for bits, n in buckets.items()
        )),
        mean_dep_distance=distance_sum / edges if edges else 0.0,
        lod_rate=report.lod_rate,
        self_load_rate=1000.0 * report.self_loads / total,
        load_chain_fraction=chain / max(1, stats.loads),
        dataflow_ilp=stats.total / critical if critical else 0.0,
        dataflow_lhe_bound=bound_0 / bound_md if bound_md else 1.0,
    )
