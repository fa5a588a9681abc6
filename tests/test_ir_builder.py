"""Unit tests for the kernel-builder DSL."""

from __future__ import annotations

import pytest

from repro import (
    BuilderError, Instruction, KernelBuilder, OpClass, Opcode, Value,
)


class TestArrays:
    def test_arrays_do_not_overlap(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 100)
        b = builder.array("b", 100)
        assert a.base + a.length <= b.base

    def test_large_array_gets_more_slabs(self):
        builder = KernelBuilder("t")
        big = builder.array("big", 3_000_000)
        after = builder.array("after", 10)
        assert after.base >= big.base + big.length

    def test_element_bounds_check(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 4)
        assert a.element(3) == a.base + 3
        with pytest.raises(BuilderError):
            a.element(4)
        with pytest.raises(BuilderError):
            a.element(-1)

    def test_duplicate_name_rejected(self):
        builder = KernelBuilder("t")
        builder.array("a", 4)
        with pytest.raises(BuilderError):
            builder.array("a", 4)

    def test_empty_array_rejected(self):
        with pytest.raises(BuilderError):
            KernelBuilder("t").array("a", 0)


class TestEmission:
    def test_values_number_sequentially(self):
        builder = KernelBuilder("t")
        v0 = builder.iadd()
        v1 = builder.iadd(v0)
        assert (v0.index, v1.index) == (0, 1)

    def test_rejects_future_value(self):
        builder = KernelBuilder("t")
        with pytest.raises(BuilderError):
            builder.iadd(Value(5))

    def test_rejects_non_value_operand(self):
        builder = KernelBuilder("t")
        with pytest.raises(BuilderError):
            builder.fadd(3)  # type: ignore[arg-type]

    def test_rejects_foreign_value(self):
        other = KernelBuilder("other")
        foreign = [other.iadd() for _ in range(4)][-1]
        builder = KernelBuilder("t")
        builder.iadd()
        with pytest.raises(BuilderError, match="does not exist yet"):
            builder.fadd(foreign)

    @pytest.mark.parametrize(
        "bad",
        [Value(7), 0, "v0", Instruction(index=0, opcode=Opcode.IADD)],
        ids=["future", "int", "str", "instruction"],
    )
    def test_every_emission_path_checks_operands(self, bad):
        """Each public path rejects an unusable operand, in whichever
        operand slot it takes one."""
        builder = KernelBuilder("t")
        a = builder.array("a", 4)
        ok = builder.iadd()
        addr = builder.address(a, 0)
        paths = [
            lambda: builder.emit(Opcode.FADD, srcs=(ok, bad)),
            lambda: builder.emit(Opcode.LOAD, addr_src=bad, addr=a.base),
            lambda: builder.fma(ok, ok, bad),
            lambda: builder.cvt_f2i(bad),
            lambda: builder.fneg(bad),
            lambda: builder._arith(Opcode.IOR, (bad,), ""),
            lambda: builder.address(a, 1, bad),
            lambda: builder.load(a, 1, bad),
            lambda: builder.store(a, 1, bad),
            lambda: builder.store(a, 1, ok, bad),
            lambda: builder.store_at(addr, bad),
            lambda: builder.induction(bad),
        ]
        for path in paths:
            with pytest.raises(BuilderError):
                path()
        builder.build()

    def test_address_bounds_checked_on_every_path(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 4)
        for path in (
            lambda: builder.address(a, 4),
            lambda: builder.load(a, -1),
            lambda: builder.store(a, 4, None),
        ):
            with pytest.raises(BuilderError, match="out of bounds"):
                path()
        assert len(builder) == 0

    def test_arith_rejects_memory_opcode(self):
        builder = KernelBuilder("t")
        with pytest.raises(BuilderError):
            builder._arith(Opcode.LOAD, (), "")

    def test_tags_recorded(self):
        builder = KernelBuilder("t")
        builder.fadd(tag="physics")
        assert builder.build(validate=False)[0].tag == "physics"


class TestAddressing:
    def test_address_records_concrete_location(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 8)
        addr = builder.address(a, 5)
        assert builder.concrete_address(addr) == a.base + 5

    def test_non_address_value_rejected(self):
        builder = KernelBuilder("t")
        v = builder.iadd()
        with pytest.raises(BuilderError):
            builder.concrete_address(v)

    def test_load_emits_address_plus_load(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 8)
        iv = builder.induction(None)
        value = builder.load(a, 2, iv)
        program = builder.build()
        load = program[value.index]
        assert load.op_class is OpClass.LOAD
        assert load.addr == a.base + 2
        address = program[load.addr_src]
        assert address.op_class is OpClass.INT
        assert address.srcs == (iv.index,)

    def test_store_then_load_gets_memory_dependency(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 8)
        data = builder.fadd()
        builder.store(a, 3, data)
        loaded = builder.load(a, 3)
        program = builder.build()
        load = program[loaded.index]
        store = program[load.mem_dep]
        assert store.op_class is OpClass.STORE
        assert store.addr == load.addr

    def test_load_of_untouched_address_has_no_memory_dependency(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 8)
        builder.store(a, 3, None)
        loaded = builder.load(a, 4)
        assert builder.build()[loaded.index].mem_dep is None

    def test_latest_store_wins(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 8)
        builder.store(a, 0, None)
        builder.store(a, 0, None)
        loaded = builder.load(a, 0)
        program = builder.build()
        # The second store is the dependency.
        assert program[loaded.index].mem_dep == program[loaded.index].mem_dep
        store_indices = [i.index for i in program
                         if i.op_class is OpClass.STORE]
        assert program[loaded.index].mem_dep == store_indices[-1]

    def test_store_of_immediate_has_no_data_src(self):
        builder = KernelBuilder("t")
        a = builder.array("a", 2)
        builder.store(a, 0, None)
        store = builder.build()[-1]
        assert store.srcs == ()


class TestReductions:
    def test_fsum_chain_is_serial(self):
        builder = KernelBuilder("t")
        values = [builder.fadd() for _ in range(4)]
        result = builder.fsum_chain(None, values)
        program = builder.build()
        # Chain of 3 adds over 4 leaves: each depends on the previous.
        chain = program[result.index]
        assert chain.op_class is OpClass.FP
        depth = 0
        current = chain
        while current.srcs and program[current.srcs[0]].op_class is OpClass.FP:
            nxt = program[current.srcs[0]]
            if nxt.index in [v.index for v in values]:
                break
            current = nxt
            depth += 1
        assert depth >= 1

    def test_fsum_tree_is_logarithmic(self):
        builder = KernelBuilder("t")
        values = [builder.fadd() for _ in range(8)]
        before = len(builder)
        builder.fsum_tree(values)
        assert len(builder) - before == 7  # n-1 adds
        # Depth: log2(8) = 3 extra levels of dependency.
        program = builder.build(validate=False)
        assert program.critical_path(0) == 3 + 3 * 3

    def test_fsum_chain_requires_input(self):
        with pytest.raises(BuilderError):
            KernelBuilder("t").fsum_chain(None, [])

    def test_fsum_tree_requires_input(self):
        with pytest.raises(BuilderError):
            KernelBuilder("t").fsum_tree([])


class TestBuild:
    def test_build_validates_by_default(self, daxpy):
        daxpy.validate()  # must not raise

    def test_meta_records_seed_and_extras(self):
        builder = KernelBuilder("t", seed=42)
        builder.set_meta(rows=7)
        builder.fadd()
        program = builder.build()
        assert program.meta["seed"] == 42
        assert program.meta["rows"] == 7

    def test_rng_is_seeded(self):
        first = KernelBuilder("t", seed=9).rng.random()
        second = KernelBuilder("t", seed=9).rng.random()
        assert first == second
