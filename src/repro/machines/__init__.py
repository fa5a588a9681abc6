"""Machine models: the DM, the SWSM, the serial reference, the
struct-of-arrays engine, the naive cycle-by-cycle oracle it is tested
against, and the registry that makes new machines pluggable."""

from .dm import DecoupledMachine
from .engine import SimulationResult, UnitStats, simulate
from .lowered import LoweredProgram, lower_program
from .reference import simulate_naive
from .registry import (
    MachineModel,
    get_machine,
    list_machines,
    register_machine,
)
from .serial import SerialMachine, SerialResult
from .swsm import SuperscalarMachine

__all__ = [
    "DecoupledMachine",
    "LoweredProgram",
    "MachineModel",
    "SuperscalarMachine",
    "SerialMachine",
    "SerialResult",
    "SimulationResult",
    "UnitStats",
    "get_machine",
    "list_machines",
    "lower_program",
    "register_machine",
    "simulate",
    "simulate_naive",
]
