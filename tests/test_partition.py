"""Unit tests for the access/execute partitioner and SWSM lowering."""

from __future__ import annotations

import pytest

from repro import (
    KernelBuilder,
    OpClass,
    PartitionError,
    Unit,
    analyze_decoupling,
    compute_address_slice,
    lower_swsm,
    partition_dm,
)
from repro.ir import Value
from repro.partition import AddressSlice, MemKind
from repro.partition.strategies import partition_with_strategy


def kinds(machine_program, unit):
    return [inst.mem_kind for inst in machine_program.stream(unit)]


class TestAddressSlice:
    def test_affine_addressing_goes_to_au(self, daxpy):
        address_slice = compute_address_slice(daxpy)
        # Every integer op in daxpy is induction or address arithmetic.
        int_ops = [i.index for i in daxpy if i.op_class is OpClass.INT]
        assert set(int_ops) == set(address_slice.au_int)
        assert not address_slice.self_loads

    def test_pointer_chase_marks_self_loads(self, pointer_chase):
        address_slice = compute_address_slice(pointer_chase)
        loads = [i.index for i in pointer_chase
                 if i.op_class is OpClass.LOAD]
        # All but the last load feed a later address.
        assert set(address_slice.self_loads) == set(loads[:-1])

    def test_fp_terminates_the_walk(self, feedback):
        address_slice = compute_address_slice(feedback)
        fp_ops = [i.index for i in feedback if i.op_class is OpClass.FP]
        for index in fp_ops:
            assert index not in address_slice.au_int

    def test_data_only_int_stays_on_du(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 4)
        loaded = builder.load(a, 0)
        builder.iadd(loaded)  # integer data computation, not addressing
        address_slice = compute_address_slice(builder.build())
        assert 2 not in address_slice.au_int  # the iadd
        assert not address_slice.self_loads


class TestPartitionDm:
    def test_load_becomes_issue_plus_receive(self, daxpy):
        compiled = partition_dm(daxpy)
        au_kinds = kinds(compiled, Unit.AU)
        du_kinds = kinds(compiled, Unit.DU)
        assert au_kinds.count(MemKind.LOAD_ISSUE) == daxpy.stats.loads
        assert du_kinds.count(MemKind.RECEIVE) == daxpy.stats.loads

    def test_store_splits_across_units(self, daxpy):
        compiled = partition_dm(daxpy)
        assert kinds(compiled, Unit.AU).count(MemKind.STORE_ADDR) == 16
        assert kinds(compiled, Unit.DU).count(MemKind.STORE_DATA) == 16

    def test_receive_pairs_with_its_issue(self, daxpy):
        compiled = partition_dm(daxpy)
        issues = {i.gid: i for i in compiled.stream(Unit.AU)
                  if i.mem_kind is MemKind.LOAD_ISSUE}
        for receive in compiled.stream(Unit.DU):
            if receive.mem_kind is MemKind.RECEIVE:
                pair = compiled.by_gid[receive.srcs[0]]
                assert pair.mem_kind is MemKind.LOAD_ISSUE
                assert pair.addr == receive.addr

    def test_self_load_has_no_receive(self, pointer_chase):
        compiled = partition_dm(pointer_chase)
        au_kinds = kinds(compiled, Unit.AU)
        assert au_kinds.count(MemKind.SELF_LOAD) == 7
        assert au_kinds.count(MemKind.LOAD_ISSUE) == 1  # the final load
        assert kinds(compiled, Unit.DU).count(MemKind.RECEIVE) == 1

    def test_fp_feedback_inserts_du_to_au_copy(self, feedback):
        compiled = partition_dm(feedback)
        du_kinds = kinds(compiled, Unit.DU)
        # One copy per FP value consumed by the AU-resident cvt.
        assert du_kinds.count(MemKind.COPY) == compiled.meta["copies_du_to_au"]
        assert compiled.meta["copies_du_to_au"] > 0

    def test_memory_dependency_maps_to_both_store_halves(self, rmw_chain):
        compiled = partition_dm(rmw_chain)
        issues = [i for i in compiled.stream(Unit.AU)
                  if i.mem_kind is MemKind.LOAD_ISSUE]
        # Every load after the first store waits on STORE_ADDR and
        # STORE_DATA gids.
        dependent = issues[1:]
        for load in dependent:
            dep_kinds = {compiled.by_gid[g].mem_kind for g in load.srcs}
            assert MemKind.STORE_ADDR in dep_kinds
            assert MemKind.STORE_DATA in dep_kinds

    def test_instruction_count_accounting(self, daxpy):
        compiled = partition_dm(daxpy)
        stats = daxpy.stats
        copies = (compiled.meta["copies_au_to_du"]
                  + compiled.meta["copies_du_to_au"])
        expected = stats.total + stats.loads + stats.stores + copies
        # Self-loads do not get a receive.
        expected -= compiled.meta["self_loads"]
        assert compiled.num_instructions == expected

    def test_validates(self, daxpy, pointer_chase, feedback, rmw_chain):
        for program in (daxpy, pointer_chase, feedback, rmw_chain):
            partition_dm(program).validate()

    def test_multi_operand_store_rejected(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 2)
        v1, v2 = builder.fadd(), builder.fadd()
        addr = builder.address(a, 0)
        builder.emit(
            __import__("repro").Opcode.STORE, srcs=(v1, v2),
            addr_src=addr, addr=a.base,
        )
        with pytest.raises(PartitionError, match="data operands"):
            partition_dm(builder.build())

    def test_store_as_store_data_rejected(self):
        builder, stored = store_reader()
        a = builder.array("b", 1)
        builder.store(a, 0, stored)
        with pytest.raises(
            PartitionError, match=rf"instruction {stored.index} \(a store\) "
            "produces no value"
        ):
            partition_dm(builder.build())

    @pytest.mark.parametrize("unit", ["DU", "AU"])
    def test_value_never_on_reading_unit_rejected(self, unit):
        # An integer op reads a store, which leaves no value on either
        # unit. The default slice puts the reader on the DU; a custom
        # slice moves it to the AU.
        builder, stored = store_reader()
        reader = builder.iadd(stored)
        address_slice = (
            AddressSlice(au_int={reader.index}) if unit == "AU" else None
        )
        with pytest.raises(
            PartitionError,
            match=rf"value %{stored.index} is not available on {unit}; "
            "the partitioner failed to insert a copy",
        ):
            partition_dm(builder.build(), address_slice=address_slice)


class TestLowerSwsm:
    def test_memory_ops_double(self, daxpy):
        compiled = lower_swsm(daxpy)
        stats = daxpy.stats
        assert compiled.num_instructions == stats.total + stats.memory_ops

    def test_load_becomes_prefetch_plus_access(self, daxpy):
        compiled = lower_swsm(daxpy)
        stream_kinds = kinds(compiled, Unit.SINGLE)
        assert stream_kinds.count(MemKind.PREFETCH_LOAD) == stats_loads(daxpy)
        assert stream_kinds.count(MemKind.ACCESS_LOAD) == stats_loads(daxpy)

    def test_access_follows_its_prefetch_immediately(self, daxpy):
        compiled = lower_swsm(daxpy)
        stream = compiled.stream(Unit.SINGLE)
        for position, inst in enumerate(stream):
            if inst.mem_kind is MemKind.ACCESS_LOAD:
                assert stream[position - 1].mem_kind is MemKind.PREFETCH_LOAD
                assert inst.srcs[0] == stream[position - 1].gid

    def test_store_becomes_prefetch_plus_access_store(self, daxpy):
        compiled = lower_swsm(daxpy)
        stream_kinds = kinds(compiled, Unit.SINGLE)
        assert stream_kinds.count(MemKind.PREFETCH_STORE) == 16
        assert stream_kinds.count(MemKind.ACCESS_STORE) == 16

    def test_memory_dependency_maps_to_access_store(self, rmw_chain):
        compiled = lower_swsm(rmw_chain)
        stream = compiled.stream(Unit.SINGLE)
        prefetches = [i for i in stream
                      if i.mem_kind is MemKind.PREFETCH_LOAD]
        for prefetch in prefetches[1:]:
            dep_kinds = {compiled.by_gid[g].mem_kind for g in prefetch.srcs}
            assert MemKind.ACCESS_STORE in dep_kinds

    def test_validates(self, daxpy, pointer_chase, feedback, rmw_chain):
        for program in (daxpy, pointer_chase, feedback, rmw_chain):
            lower_swsm(program).validate()

    def test_value_never_produced_rejected(self):
        builder, stored = store_reader()
        builder.iadd(stored)
        with pytest.raises(
            PartitionError, match=rf"value %{stored.index} was never produced"
        ):
            lower_swsm(builder.build())


def store_reader():
    """A builder whose last instruction is a store, and that store."""
    builder = KernelBuilder("t")
    a = builder.array("a", 1)
    value = builder.fadd()
    builder.store(a, 0, value)
    return builder, Value(len(builder) - 1)


def stats_loads(program):
    return program.stats.loads


class TestDecouplingAnalysis:
    def test_daxpy_decouples_perfectly(self, daxpy):
        report = analyze_decoupling(daxpy)
        assert report.lod_events == 0
        assert report.decouples_well
        assert report.self_loads == 0
        assert report.au_instructions + report.du_instructions == len(daxpy)

    def test_feedback_has_lod_events(self, feedback):
        report = analyze_decoupling(feedback)
        assert report.lod_events > 0
        assert not report.decouples_well

    def test_pointer_chase_counts_self_loads(self, pointer_chase):
        assert analyze_decoupling(pointer_chase).self_loads == 7


class TestStrategies:
    def test_memory_only_moves_int_to_du(self, daxpy):
        compiled = partition_with_strategy(daxpy, "memory-only")
        compiled.validate()
        au_kinds = kinds(compiled, Unit.AU)
        assert MemKind.NONE not in au_kinds  # no arithmetic on the AU
        # Address values now cross DU -> AU.
        du_copies = kinds(compiled, Unit.DU).count(MemKind.COPY)
        assert du_copies > 0

    def test_balanced_grows_the_au(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 64)
        iv = None
        for i in range(32):
            iv = builder.induction(iv)
            v = builder.load(a, i, iv)
            # A long integer data chain the balancer may move.
            w = builder.iadd()
            for _ in range(6):
                w = builder.iadd(w)
            builder.fmul(v, v)
        program = builder.build()
        default = partition_with_strategy(program, "slice")
        balanced = partition_with_strategy(program, "balanced")
        assert (len(balanced.stream(Unit.AU))
                >= len(default.stream(Unit.AU)))
        balanced.validate()

    def test_unknown_strategy_rejected(self, daxpy):
        with pytest.raises(PartitionError, match="unknown"):
            partition_with_strategy(daxpy, "quantum")
