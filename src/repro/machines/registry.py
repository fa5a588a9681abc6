"""The machine registry: pluggable machine models for the experiment layer.

The experiment API (:mod:`repro.api`) never names a machine class
directly; it looks the machine up here by the ``machine`` field of a
:class:`repro.api.Point`. A machine model is anything satisfying
:class:`MachineModel`:

* ``canonical(point)`` zeroes the point fields the machine ignores, so
  that e.g. a DM run at ``swsm_width=7`` and one at ``swsm_width=9``
  share a single cache entry;
* ``compile(program, point, latencies)`` lowers an architectural
  program once per (program, partition, expansion) — compilation is
  window-independent, so one compile serves every window size;
* ``simulate(compiled, point, window, memory, latencies)`` runs one
  operating point and returns a cycle-exact
  :class:`~repro.machines.engine.SimulationResult`.

New machines plug in without touching the experiment layer::

    from repro.machines import register_machine

    class MyMachine:
        name = "mine"
        ...

    register_machine(MyMachine())

after which ``Point(program="trfd", machine="mine", ...)`` evaluates
through any :class:`~repro.api.Session`, including sweeps and the disk
cache. Process-pool workers see runtime registrations through fork
inheritance; on platforms without fork, sessions transparently keep
non-builtin machines on the local executor.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from ..config import DMConfig, LatencyModel, SWSMConfig, UnitConfig
from ..errors import ConfigError
from ..ir import Program
from ..partition import MachineProgram
from ..partition.machine_program import Unit
from ..obs.telemetry import RunTelemetry
from ..partition.strategies import partition_with_strategy
from .dm import DecoupledMachine
from .engine import SimulationResult
from .serial import SerialMachine
from .swsm import SuperscalarMachine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.spec import Point
    from ..memory import MemorySystem

__all__ = [
    "MachineModel",
    "register_machine",
    "get_machine",
    "list_machines",
]

#: The paper's per-unit issue widths (AU=4, DU=5, combined 9); used to
#: canonicalise away width fields a machine does not read.
_DEFAULT_AU_WIDTH = 4
_DEFAULT_DU_WIDTH = 5
_DEFAULT_SWSM_WIDTH = 9
_DEFAULT_PARTITION = "slice"


@runtime_checkable
class MachineModel(Protocol):
    """What a machine must provide to plug into the experiment layer."""

    name: str

    def canonical(self, point: "Point") -> "Point":
        """Clear the point fields this machine ignores (cache folding)."""

    def compile(
        self, program: Program, point: "Point", latencies: LatencyModel
    ) -> Any:
        """Lower ``program`` once; reused across windows/differentials."""

    def simulate(
        self,
        compiled: Any,
        point: "Point",
        window: int,
        memory: "MemorySystem",
        latencies: LatencyModel,
    ) -> SimulationResult:
        """Run one operating point, cycle-exactly."""


class DecoupledModel:
    """The access decoupled machine (paper sections 2-3)."""

    name = "dm"

    def canonical(self, point: "Point") -> "Point":
        return replace(point, swsm_width=_DEFAULT_SWSM_WIDTH)

    def compile(
        self, program: Program, point: "Point", latencies: LatencyModel
    ) -> MachineProgram:
        return partition_with_strategy(program, point.partition, latencies)

    def simulate(
        self,
        compiled: MachineProgram,
        point: "Point",
        window: int,
        memory: "MemorySystem",
        latencies: LatencyModel,
    ) -> SimulationResult:
        machine = DecoupledMachine(
            DMConfig.symmetric(
                window,
                au_width=point.au_width,
                du_width=point.du_width,
                latencies=latencies,
            )
        )
        return machine.run(compiled, memory=memory, probe_esw=point.probe_esw)

    def batch_configs(
        self, point: "Point", window: int, latencies: LatencyModel
    ) -> dict:
        """Per-unit configs for one batch lane (the batched-sweep hook).

        A machine model exposing this hook opts into the batched sweep
        engine: the session groups points by
        :func:`repro.api.spec.point_batch_key` and stacks their lanes
        into one vectorized run (:mod:`repro.machines.batch`), which
        must produce exactly the schedule :meth:`simulate` would.
        """
        config = DMConfig.symmetric(
            window,
            au_width=point.au_width,
            du_width=point.du_width,
            latencies=latencies,
        )
        return {Unit.AU: config.au, Unit.DU: config.du}


class SuperscalarModel:
    """The single-window superscalar machine (paper section 4)."""

    name = "swsm"

    def canonical(self, point: "Point") -> "Point":
        return replace(
            point,
            au_width=_DEFAULT_AU_WIDTH,
            du_width=_DEFAULT_DU_WIDTH,
            partition=_DEFAULT_PARTITION,
            probe_esw=False,
        )

    def compile(
        self, program: Program, point: "Point", latencies: LatencyModel
    ) -> MachineProgram:
        return SuperscalarMachine.compile(program, latencies)

    def simulate(
        self,
        compiled: MachineProgram,
        point: "Point",
        window: int,
        memory: "MemorySystem",
        latencies: LatencyModel,
    ) -> SimulationResult:
        machine = SuperscalarMachine(
            SWSMConfig(
                window=window, width=point.swsm_width, latencies=latencies
            )
        )
        return machine.run(compiled, memory=memory)

    def batch_configs(
        self, point: "Point", window: int, latencies: LatencyModel
    ) -> dict:
        """Per-unit configs for one batch lane (see DecoupledModel)."""
        return {
            Unit.SINGLE: UnitConfig(
                window=window, width=point.swsm_width, name="SWSM"
            )
        }


class SerialModel:
    """The non-overlapped serial reference (the speedup denominator).

    Analytic, so it ignores the window, the widths, the partition and
    the memory-system variant: only the program and the memory
    differential matter, and ``canonical`` folds everything else away.
    """

    name = "serial"

    def canonical(self, point: "Point") -> "Point":
        return replace(
            point,
            window=None,
            au_width=_DEFAULT_AU_WIDTH,
            du_width=_DEFAULT_DU_WIDTH,
            swsm_width=_DEFAULT_SWSM_WIDTH,
            partition=_DEFAULT_PARTITION,
            probe_esw=False,
            memory=type(point.memory)(),
        )

    def compile(
        self, program: Program, point: "Point", latencies: LatencyModel
    ) -> Program:
        return program

    def simulate(
        self,
        compiled: Program,
        point: "Point",
        window: int,
        memory: "MemorySystem",
        latencies: LatencyModel,
    ) -> SimulationResult:
        serial = SerialMachine(latencies).run(
            compiled, point.memory_differential
        )
        return SimulationResult(
            name=serial.name,
            cycles=serial.cycles,
            instructions=serial.instructions,
            unit_stats={},
            telemetry=RunTelemetry(
                strategy="serial", sim_cycles=serial.cycles
            ),
        )


_MACHINES: dict[str, MachineModel] = {}


def register_machine(model: MachineModel, name: str | None = None) -> None:
    """Register a machine model under ``name`` (default: ``model.name``).

    Re-registering a name replaces the previous model — deliberate, so
    a study can swap in an instrumented variant of a stock machine.
    """
    key = name if name is not None else getattr(model, "name", None)
    if not key or not isinstance(key, str):
        raise ConfigError(
            f"machine model {model!r} needs a non-empty string name"
        )
    _MACHINES[key] = model


def get_machine(name: str) -> MachineModel:
    """Look up a registered machine model by name."""
    try:
        return _MACHINES[name]
    except KeyError:
        known = ", ".join(sorted(_MACHINES))
        raise ConfigError(
            f"unknown machine {name!r}; registered machines: {known}"
        ) from None


def list_machines() -> list[str]:
    """Names of all registered machine models, sorted."""
    return sorted(_MACHINES)


register_machine(DecoupledModel())
register_machine(SuperscalarModel())
register_machine(SerialModel())
