"""Unit tests for IR types, instructions, and the Program container."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import (
    IRValidationError, Instruction, KernelBuilder, OpClass, Opcode, Program,
    Value,
)
from repro.config import LatencyModel
from repro.ir import OPCODE_CLASS, opcode_latency


class TestOpcodes:
    def test_every_opcode_has_a_class(self):
        for opcode in Opcode:
            assert opcode in OPCODE_CLASS

    def test_memory_classes(self):
        assert OPCODE_CLASS[Opcode.LOAD] is OpClass.LOAD
        assert OPCODE_CLASS[Opcode.STORE] is OpClass.STORE
        assert OpClass.LOAD.is_memory and OpClass.STORE.is_memory
        assert not OpClass.INT.is_memory and not OpClass.FP.is_memory

    def test_int_latency(self):
        assert opcode_latency(Opcode.IADD, LatencyModel()) == 1
        assert opcode_latency(Opcode.CVT_F2I, LatencyModel()) == 1

    def test_fp_latency(self):
        assert opcode_latency(Opcode.FMUL, LatencyModel()) == 3
        assert opcode_latency(Opcode.FDIV, LatencyModel()) == 12
        assert opcode_latency(Opcode.FSQRT, LatencyModel()) == 12

    def test_memory_latency_is_machine_dependent(self):
        with pytest.raises(IRValidationError):
            opcode_latency(Opcode.LOAD, LatencyModel())


class TestValue:
    def test_index(self):
        assert Value(3).index == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Value(-1)

    def test_equality(self):
        assert Value(2) == Value(2)
        assert Value(2) != Value(3)
        assert Value(2) != 2

    def test_hashing(self):
        assert hash(Value(4)) == hash(Value(4))
        assert {Value(4): "x"}[Value(4)] == "x"
        assert len({Value(1), Value(1), Value(2)}) == 2

    def test_immutable(self):
        value = Value(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.index = 4  # type: ignore[misc]
        assert value.index == 3

    def test_repr(self):
        assert repr(Value(3)) == "Value(index=3)"

    def test_pickle_round_trip(self):
        value = Value(9)
        assert pickle.loads(pickle.dumps(value)) == value

    def test_emitted_values_keep_the_contract(self):
        builder = KernelBuilder("t")
        builder.iadd()
        emitted = builder.iadd(Value(0))
        assert emitted == Value(1) and hash(emitted) == hash(Value(1))
        assert repr(emitted) == "Value(index=1)"
        assert pickle.loads(pickle.dumps(emitted)) == emitted
        with pytest.raises(dataclasses.FrozenInstanceError):
            emitted.index = 0  # type: ignore[misc]


class TestInstruction:
    def test_all_deps_combines_everything(self):
        inst = Instruction(
            index=5, opcode=Opcode.LOAD, srcs=(1,), addr_src=2, addr=100,
            mem_dep=3,
        )
        assert set(inst.all_deps()) == {1, 2, 3}

    def test_op_class_derived(self):
        assert Instruction(index=0, opcode=Opcode.FADD).op_class is OpClass.FP

    def test_value_property(self):
        assert Instruction(index=7, opcode=Opcode.IADD).value == Value(7)

    def test_str_is_readable(self):
        inst = Instruction(index=1, opcode=Opcode.LOAD, addr_src=0, addr=64)
        text = str(inst)
        assert "load" in text and "@64" in text


def _make(instructions) -> Program:
    return Program("test", instructions)


class TestProgramValidation:
    def test_valid_program(self):
        program = _make([
            Instruction(index=0, opcode=Opcode.IADD),
            Instruction(index=1, opcode=Opcode.LOAD, addr_src=0, addr=8),
            Instruction(index=2, opcode=Opcode.FMUL, srcs=(1,)),
        ])
        program.validate()

    def test_rejects_misnumbered_index(self):
        program = _make([Instruction(index=1, opcode=Opcode.IADD)])
        with pytest.raises(IRValidationError, match="position 0"):
            program.validate()

    def test_rejects_forward_reference(self):
        program = _make([
            Instruction(index=0, opcode=Opcode.FADD, srcs=(1,)),
            Instruction(index=1, opcode=Opcode.FADD),
        ])
        with pytest.raises(IRValidationError, match="earlier"):
            program.validate()

    def test_rejects_self_reference(self):
        program = _make([Instruction(index=0, opcode=Opcode.FADD, srcs=(0,))])
        with pytest.raises(IRValidationError):
            program.validate()

    def test_rejects_memory_without_address(self):
        program = _make([Instruction(index=0, opcode=Opcode.LOAD)])
        with pytest.raises(IRValidationError, match="no address"):
            program.validate()

    @pytest.mark.parametrize("opcode", [Opcode.LOAD, Opcode.STORE])
    @pytest.mark.parametrize("address", [-5, -7, -2])
    def test_rejects_negative_address(self, opcode, address):
        # Below the -1 sentinel an address would digest as "no address".
        program = _make([Instruction(index=0, opcode=opcode, addr=address)])
        with pytest.raises(IRValidationError, match="negative address"):
            program.validate()

    def test_rejects_address_on_arithmetic(self):
        program = _make([Instruction(index=0, opcode=Opcode.IADD, addr=4)])
        with pytest.raises(IRValidationError, match="has an address"):
            program.validate()

    def test_rejects_addr_src_on_arithmetic(self):
        program = _make([
            Instruction(index=0, opcode=Opcode.IADD),
            Instruction(index=1, opcode=Opcode.IADD, addr_src=0),
        ])
        with pytest.raises(IRValidationError, match="address dependency"):
            program.validate()

    def test_rejects_mem_dep_on_non_store(self):
        program = _make([
            Instruction(index=0, opcode=Opcode.LOAD, addr=1),
            Instruction(index=1, opcode=Opcode.LOAD, addr=1, mem_dep=0),
        ])
        with pytest.raises(IRValidationError, match="not a store"):
            program.validate()


class TestProgramStats:
    def test_counts(self, daxpy):
        stats = daxpy.stats
        # Per iteration: 1 induction + 2 (addr+load) pairs + fma +
        # (addr+store).
        assert stats.total == len(daxpy)
        assert stats.loads == 32
        assert stats.stores == 16
        assert stats.fp_ops == 16
        assert stats.int_ops == stats.total - 32 - 16 - 16
        assert 0 < stats.memory_fraction < 1

    def test_consumers_inverse_of_deps(self, daxpy):
        consumers = daxpy.consumers
        for inst in daxpy:
            for dep in inst.all_deps():
                assert inst.index in consumers[dep]


class TestTimingBounds:
    def test_serial_time_hand_computed(self):
        # iadd(1) + load(1+md) + fmul(3) + store(1)
        program = _make([
            Instruction(index=0, opcode=Opcode.IADD),
            Instruction(index=1, opcode=Opcode.LOAD, addr_src=0, addr=4),
            Instruction(index=2, opcode=Opcode.FMUL, srcs=(1,)),
            Instruction(index=3, opcode=Opcode.STORE, srcs=(2,), addr_src=0,
                        addr=8),
        ])
        assert program.serial_time(0) == 1 + 1 + 3 + 1
        assert program.serial_time(60) == 1 + 61 + 3 + 1

    def test_critical_path_ignores_parallel_work(self):
        # Two independent loads then a join.
        program = _make([
            Instruction(index=0, opcode=Opcode.LOAD, addr=0),
            Instruction(index=1, opcode=Opcode.LOAD, addr=8),
            Instruction(index=2, opcode=Opcode.FADD, srcs=(0, 1)),
        ])
        assert program.critical_path(60) == 61 + 3
        assert program.serial_time(60) == 61 + 61 + 3

    def test_critical_path_through_memory_dependency(self, rmw_chain):
        # Each iteration adds load(1+md) + fadd(3) + store(1).
        iterations = rmw_chain.stats.stores
        expected = iterations * (61 + 3 + 1) + iterations  # + inductions
        assert rmw_chain.critical_path(60) <= expected
        assert rmw_chain.critical_path(60) >= iterations * (61 + 3 + 1)

    def test_bounds_reject_negative_differential(self, daxpy):
        with pytest.raises(IRValidationError):
            daxpy.serial_time(-1)
        with pytest.raises(IRValidationError):
            daxpy.critical_path(-1)

    def test_critical_path_never_exceeds_serial_time(self, daxpy, feedback):
        for program in (daxpy, feedback):
            for md in (0, 10, 60):
                assert program.critical_path(md) <= program.serial_time(md)


class TestCriticalPaths:
    """The fused two-differential walk behind ``critical_path`` (its
    oracle tests are in ``test_ir_oracles.py``)."""

    def test_fused_walk_hand_computed(self):
        program = _make([
            Instruction(index=0, opcode=Opcode.LOAD, addr=0),
            Instruction(index=1, opcode=Opcode.FADD, srcs=(0,)),
        ])
        assert program._critical_paths(0, 60) == (1 + 3, 61 + 3)

    def test_fused_walk_rejects_negative_differential(self, daxpy):
        for pair in ((-1, 0), (0, -1)):
            with pytest.raises(IRValidationError):
                daxpy._critical_paths(*pair)
