"""repro: Jones & Topham (MICRO-30, 1997) reproduced in Python.

A trace-driven microarchitecture study comparing data prefetching on an
access decoupled machine (DM) and a single-window out-of-order
superscalar machine (SWSM). See README.md for the quickstart, the
artefact map and the timing-semantics summary, and docs/api.md for the
declarative experiment API.

Quickstart::

    from repro import Session, run_speedup_figure

    session = Session(scale=12_000)
    figure = run_speedup_figure(session, "flo52q")
    print(figure.crossover_window(0))    # SWSM overtakes at md=0 ...
    print(figure.crossover_window(60))   # ... but never at md=60

Any grid over (kernel, machine, window, memory differential, ...) is a
declarative sweep — parallel and disk-cached::

    from repro import Sweep, Session

    session = Session(scale=12_000, cache_dir=".repro-cache", jobs=4)
    sweep = Sweep.grid(program=("mdg", "track"), machine=("dm", "swsm"),
                       window=(16, 64), memory_differential=(0, 60))
    for point, result in session.run(sweep):
        print(point.program, point.machine, result.cycles)
"""

from .api import (
    UNLIMITED,
    MemorySpec,
    Point,
    Session,
    Sweep,
    SweepResult,
    load_sweep,
)
from .config import (
    DEFAULT_LATENCIES,
    DEFAULT_MEMORY_DIFFERENTIAL,
    MEMORY_DIFFERENTIALS,
    DMConfig,
    LatencyModel,
    SWSMConfig,
    UnitConfig,
)
from .errors import (
    BuilderError,
    ConfigError,
    IRValidationError,
    KernelError,
    MetricError,
    PartitionError,
    ProjectionError,
    ReproError,
    SimulationDeadlockError,
    SimulationError,
)
from .experiments import (
    run_bypass_ablation,
    run_code_expansion_ablation,
    run_esw_study,
    run_ewr_figure,
    run_generalization_study,
    run_issue_split_ablation,
    run_memory_hierarchy_ablation,
    run_partition_ablation,
    run_speedup_figure,
    run_table1,
)
from .ir import Instruction, KernelBuilder, OpClass, Opcode, Program, Value
from .kernels import (
    PAPER_ORDER,
    SyntheticParams,
    build_kernel,
    build_synthetic_stream,
    get_kernel,
    list_kernels,
)
from .machines import (
    DecoupledMachine,
    MachineModel,
    SerialMachine,
    SimulationResult,
    SuperscalarMachine,
    get_machine,
    list_machines,
    register_machine,
)
from .memory import (
    BankedMemory,
    BypassBuffer,
    CacheMemory,
    FixedLatencyMemory,
    MemorySystem,
    StreamPrefetcher,
)
from .metrics import (
    classify_band,
    equivalent_window_ratio,
    find_equivalent_window,
    lhe,
    speedup,
)
from .partition import (
    MachineProgram,
    Unit,
    analyze_decoupling,
    compute_address_slice,
    lower_swsm,
    partition_dm,
)
from .report import ResultStore, StoredResult, build_report, write_site
from .workloads import (
    FAMILIES,
    Corpus,
    WorkloadProfile,
    build_generated,
    characterize,
    generate_corpus,
    generated_name,
    load_manifest,
    verify_corpus,
    write_manifest,
)

__version__ = "1.1.0"

__all__ = [
    "BankedMemory",
    "BuilderError",
    "BypassBuffer",
    "CacheMemory",
    "ConfigError",
    "Corpus",
    "DEFAULT_LATENCIES",
    "DEFAULT_MEMORY_DIFFERENTIAL",
    "DMConfig",
    "DecoupledMachine",
    "FAMILIES",
    "FixedLatencyMemory",
    "IRValidationError",
    "Instruction",
    "KernelBuilder",
    "KernelError",
    "LatencyModel",
    "MEMORY_DIFFERENTIALS",
    "MachineModel",
    "MachineProgram",
    "MemorySpec",
    "MemorySystem",
    "MetricError",
    "OpClass",
    "Opcode",
    "PAPER_ORDER",
    "PartitionError",
    "Point",
    "Program",
    "ProjectionError",
    "ReproError",
    "ResultStore",
    "SWSMConfig",
    "SerialMachine",
    "Session",
    "SimulationDeadlockError",
    "SimulationError",
    "SimulationResult",
    "StoredResult",
    "StreamPrefetcher",
    "SuperscalarMachine",
    "Sweep",
    "SweepResult",
    "SyntheticParams",
    "UNLIMITED",
    "Unit",
    "UnitConfig",
    "Value",
    "WorkloadProfile",
    "analyze_decoupling",
    "build_generated",
    "build_kernel",
    "build_report",
    "build_synthetic_stream",
    "characterize",
    "classify_band",
    "compute_address_slice",
    "equivalent_window_ratio",
    "find_equivalent_window",
    "generate_corpus",
    "generated_name",
    "get_kernel",
    "get_machine",
    "lhe",
    "list_kernels",
    "list_machines",
    "load_manifest",
    "load_sweep",
    "lower_swsm",
    "partition_dm",
    "register_machine",
    "run_bypass_ablation",
    "run_code_expansion_ablation",
    "run_esw_study",
    "run_ewr_figure",
    "run_generalization_study",
    "run_issue_split_ablation",
    "run_memory_hierarchy_ablation",
    "run_partition_ablation",
    "run_speedup_figure",
    "run_table1",
    "speedup",
    "verify_corpus",
    "write_manifest",
    "write_site",
    "__version__",
]
