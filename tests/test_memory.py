"""Unit tests for the memory-system models and the batched protocol."""

from __future__ import annotations

import pytest

from repro import BypassBuffer, ConfigError, FixedLatencyMemory
from repro.errors import MetricError
from repro.memory import (
    BankedMemory,
    CacheLevelConfig,
    CacheMemory,
    MemorySystem,
    OccupancyStats,
    StreamPrefetcher,
    hierarchy_levels,
    occupancy_from_intervals,
)


class TestFixedLatencyMemory:
    def test_constant_cost(self):
        memory = FixedLatencyMemory(60)
        assert memory.extra_latency(0, 0) == 60
        assert memory.extra_latency(12345, 999) == 60

    def test_zero_differential(self):
        assert FixedLatencyMemory(0).extra_latency(4, 1) == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            FixedLatencyMemory(-1)

    def test_describe(self):
        assert "60" in FixedLatencyMemory(60).describe()


class TestCacheMemory:
    def _small_cache(self) -> CacheMemory:
        level = CacheLevelConfig(
            name="L1", size_bytes=128, line_bytes=16, associativity=2,
            hit_extra=0,
        )
        return CacheMemory(levels=(level,), miss_extra=60)

    def test_miss_then_hit(self):
        cache = self._small_cache()
        assert cache.extra_latency(0, 0) == 60  # cold miss
        assert cache.extra_latency(0, 1) == 0  # now cached
        assert cache.extra_latency(8, 2) == 0  # same 16-byte line

    def test_lru_eviction(self):
        cache = self._small_cache()  # 4 sets x 2 ways
        # Three lines mapping to the same set (stride = sets*line = 64).
        cache.extra_latency(0, 0)
        cache.extra_latency(64, 1)
        cache.extra_latency(128, 2)  # evicts line 0
        assert cache.extra_latency(0, 3) == 60

    def test_lru_refresh_on_hit(self):
        cache = self._small_cache()
        cache.extra_latency(0, 0)
        cache.extra_latency(64, 1)
        cache.extra_latency(0, 2)  # refresh line 0
        cache.extra_latency(128, 3)  # evicts line 64, not line 0
        assert cache.extra_latency(0, 4) == 0
        assert cache.extra_latency(64, 5) == 60

    def test_two_level_fill(self):
        l1 = CacheLevelConfig(name="L1", size_bytes=32, line_bytes=16,
                              associativity=2, hit_extra=0)
        l2 = CacheLevelConfig(name="L2", size_bytes=256, line_bytes=16,
                              associativity=2, hit_extra=6)
        cache = CacheMemory(levels=(l1, l2), miss_extra=60)
        assert cache.extra_latency(0, 0) == 60
        # Evict from tiny L1 (both ways of its single... two sets).
        cache.extra_latency(32, 1)
        cache.extra_latency(64, 2)
        # Line 0 is gone from L1 but still in L2.
        assert cache.extra_latency(0, 3) == 6

    def test_reset_clears_state(self):
        cache = self._small_cache()
        cache.extra_latency(0, 0)
        cache.reset()
        assert cache.extra_latency(0, 1) == 60
        assert cache.levels[0].hits == 0

    def test_hit_rate(self):
        cache = self._small_cache()
        cache.extra_latency(0, 0)
        cache.extra_latency(0, 1)
        assert cache.levels[0].hit_rate == 0.5

    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(name="bad", size_bytes=8, line_bytes=16,
                             associativity=1, hit_extra=0)
        with pytest.raises(ConfigError):
            CacheLevelConfig(name="bad", size_bytes=100, line_bytes=16,
                             associativity=2, hit_extra=0)
        with pytest.raises(ConfigError):
            CacheMemory(levels=(), miss_extra=10)


class TestBypassBuffer:
    def test_hit_after_fetch(self):
        bypass = BypassBuffer(FixedLatencyMemory(60), entries=4, line_bytes=1)
        assert bypass.extra_latency(7, 0) == 60
        assert bypass.extra_latency(7, 1) == 0
        assert bypass.hit_rate == 0.5

    def test_lru_eviction(self):
        bypass = BypassBuffer(FixedLatencyMemory(60), entries=2, line_bytes=1)
        bypass.extra_latency(1, 0)
        bypass.extra_latency(2, 1)
        bypass.extra_latency(3, 2)  # evicts 1
        assert bypass.extra_latency(1, 3) == 60

    def test_line_granularity(self):
        bypass = BypassBuffer(FixedLatencyMemory(60), entries=4, line_bytes=32)
        bypass.extra_latency(0, 0)
        assert bypass.extra_latency(31, 1) == 0  # same line
        assert bypass.extra_latency(32, 2) == 60

    def test_reset_propagates(self):
        backing = FixedLatencyMemory(60)
        bypass = BypassBuffer(backing, entries=2)
        bypass.extra_latency(0, 0)
        bypass.reset()
        assert bypass.hits == 0 and bypass.misses == 0
        assert bypass.extra_latency(0, 1) == 60

    def test_validation(self):
        with pytest.raises(ConfigError):
            BypassBuffer(FixedLatencyMemory(0), entries=0)
        with pytest.raises(ConfigError):
            BypassBuffer(FixedLatencyMemory(0), line_bytes=0)


class TestBatchedProtocol:
    """latencies() must mirror scalar extra_latency access for access."""

    def _models(self):
        yield FixedLatencyMemory(60)
        yield BypassBuffer(FixedLatencyMemory(60), entries=4, line_bytes=8)
        yield CacheMemory(miss_extra=60)
        yield BankedMemory(extra=60, banks=2, interleave_bytes=8, busy=3)
        yield StreamPrefetcher(FixedLatencyMemory(60), line_bytes=8)

    def test_batched_equals_scalar_sequence(self):
        addrs = [0, 8, 16, 8, 64, 0, 24, 32, 40, 48, 0, 8]
        for batched in self._models():
            twin = next(  # a fresh instance of the same model
                m for m in self._models() if type(m) is type(batched)
            )
            chunked = batched.latencies(addrs[:5], 3)
            chunked += batched.latencies(addrs[5:], 9)
            one_by_one = [twin.extra_latency(a, 3) for a in addrs[:5]]
            one_by_one += [twin.extra_latency(a, 9) for a in addrs[5:]]
            assert chunked == one_by_one, type(batched).__name__

    def test_scalar_only_legacy_model_gets_default_batching(self):
        class Legacy(MemorySystem):
            def extra_latency(self, addr, now):
                return (addr % 4) + now

            def reset(self):
                pass

        assert Legacy().latencies([0, 1, 2, 9], 5) == [5, 6, 7, 6]
        assert Legacy().uniform_extra_latency() is None

    def test_capabilities(self):
        # Only the fixed differential is uniform; every other model
        # takes the engine's stateful routes.
        assert FixedLatencyMemory(5).uniform_extra_latency() == 5
        assert CacheMemory().uniform_extra_latency() is None
        assert BypassBuffer(FixedLatencyMemory(5)).uniform_extra_latency() \
            is None
        assert BankedMemory().uniform_extra_latency() is None
        assert StreamPrefetcher(FixedLatencyMemory(5)) \
            .uniform_extra_latency() is None

    def test_time_sensitivity_report(self):
        assert not FixedLatencyMemory(5).time_sensitive()
        assert not CacheMemory().time_sensitive()
        assert not BypassBuffer(FixedLatencyMemory(5)).time_sensitive()
        assert BankedMemory().time_sensitive()
        assert StreamPrefetcher(FixedLatencyMemory(5)).time_sensitive()

    def test_speculation_hints(self):
        assert BypassBuffer(FixedLatencyMemory(5)).speculation_friendly()
        assert not BankedMemory().speculation_friendly()

    def test_typical_extra_latency_propagates(self):
        assert FixedLatencyMemory(42).typical_extra_latency() == 42
        assert BypassBuffer(
            FixedLatencyMemory(42)
        ).typical_extra_latency() == 42
        assert CacheMemory(miss_extra=17).typical_extra_latency() == 17


class TestZeroAccessRates:
    """No accesses must mean rate 0.0 everywhere, never a ZeroDivision."""

    def test_cache_level_hit_rate(self):
        cache = CacheMemory(miss_extra=60)
        assert cache.levels[0].hit_rate == 0.0

    def test_cache_aggregate_hit_rate(self):
        assert CacheMemory(miss_extra=60).hit_rate == 0.0

    def test_bypass_hit_rate(self):
        assert BypassBuffer(FixedLatencyMemory(60)).hit_rate == 0.0

    def test_prefetch_hit_rate(self):
        assert StreamPrefetcher(FixedLatencyMemory(60)).hit_rate == 0.0

    def test_banked_rates(self):
        banked = BankedMemory()
        assert banked.conflict_rate == 0.0
        assert banked.mean_wait == 0.0

    def test_rates_zero_again_after_reset(self):
        cache = CacheMemory(miss_extra=60)
        cache.latencies([0, 0, 64], 0)
        assert cache.hit_rate > 0
        cache.reset()
        assert cache.hit_rate == 0.0


class TestCacheEdgeGeometries:
    def test_direct_mapped(self):
        # assoc=1: two lines in the same set always evict each other.
        level = CacheLevelConfig(name="L1", size_bytes=64, line_bytes=16,
                                 associativity=1, hit_extra=0)
        cache = CacheMemory(levels=(level,), miss_extra=60)
        assert cache.extra_latency(0, 0) == 60
        assert cache.extra_latency(0, 1) == 0
        assert cache.extra_latency(64, 2) == 60  # same set, evicts 0
        assert cache.extra_latency(0, 3) == 60

    def test_fully_associative(self):
        # One set holding every way: no conflict misses, only capacity.
        level = CacheLevelConfig(name="L1", size_bytes=64, line_bytes=16,
                                 associativity=4, hit_extra=0)
        cache = CacheMemory(levels=(level,), miss_extra=60)
        assert level.num_sets == 1
        for i in range(4):
            cache.extra_latency(16 * i, i)
        assert all(cache.extra_latency(16 * i, 9) == 0 for i in range(4))
        cache.extra_latency(1024, 20)  # capacity eviction of LRU (line 0)
        assert cache.extra_latency(0, 21) == 60

    def test_mixed_line_sizes_rejected(self):
        levels = hierarchy_levels(((64, 16, 1, 0), (256, 32, 2, 5)))
        with pytest.raises(ConfigError, match="line_bytes"):
            CacheMemory(levels=levels, miss_extra=60)

    def test_hierarchy_levels_builder(self):
        levels = hierarchy_levels(((64, 16, 1, 0), (256, 16, 2, 5)))
        assert [lv.name for lv in levels] == ["L1", "L2"]
        assert levels[1].hit_extra == 5
        cache = CacheMemory(levels=levels, miss_extra=60)
        assert "L1+L2" in cache.describe()


class TestBankedMemory:
    def test_no_conflict_without_reuse(self):
        banked = BankedMemory(extra=10, banks=4, interleave_bytes=8, busy=4)
        assert banked.latencies([0, 8, 16, 24], 0) == [10, 10, 10, 10]
        assert banked.conflict_rate == 0.0

    def test_same_bank_queues(self):
        banked = BankedMemory(extra=10, banks=4, interleave_bytes=8, busy=4)
        # Three same-cycle accesses to bank 0: waits 0, 4, 8.
        assert banked.latencies([0, 32, 64], 0) == [10, 14, 18]
        assert banked.conflicts == 2
        assert banked.mean_wait == pytest.approx(4.0)

    def test_bank_frees_with_time(self):
        banked = BankedMemory(extra=10, banks=4, interleave_bytes=8, busy=4)
        banked.latencies([0], 0)
        assert banked.latencies([0], 100) == [10]  # long idle: no wait

    def test_zero_busy_is_the_fixed_model(self):
        banked = BankedMemory(extra=60, banks=2, busy=0)
        assert banked.latencies([0, 0, 0], 0) == [60, 60, 60]

    def test_reset(self):
        banked = BankedMemory(extra=10, banks=1, interleave_bytes=8, busy=9)
        banked.latencies([0, 8], 0)
        banked.reset()
        assert banked.latencies([0], 0) == [10]
        assert banked.accesses == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            BankedMemory(banks=0)
        with pytest.raises(ConfigError):
            BankedMemory(busy=-1)
        with pytest.raises(ConfigError):
            BankedMemory(extra=-1)

    def test_describe_and_stats(self):
        banked = BankedMemory(extra=10, banks=4)
        assert "banked(4x" in banked.describe()
        assert "bank_conflict_rate" in banked.stats()


class TestStreamPrefetcher:
    def _prefetcher(self, **kw) -> StreamPrefetcher:
        kw.setdefault("entries", 16)
        kw.setdefault("line_bytes", 8)
        kw.setdefault("streams", 2)
        kw.setdefault("degree", 2)
        return StreamPrefetcher(FixedLatencyMemory(60), **kw)

    def test_confirmed_stride_prefetches_ahead(self):
        pf = self._prefetcher()
        # Misses at lines 0, 1 train stride 1; the miss at line 2
        # confirms it and prefetches lines 3 and 4.
        assert pf.extra_latency(0, 0) == 60
        assert pf.extra_latency(8, 50) == 60
        assert pf.extra_latency(16, 100) == 60
        assert pf.prefetches == 2
        # Lines 3 and 4 arrived at 100 + 60 = 160; at 200 they're free.
        assert pf.extra_latency(24, 200) == 0
        assert pf.extra_latency(32, 201) == 0
        assert pf.hit_rate == pytest.approx(0.4)

    def test_late_prefetch_pays_partial_wait(self):
        pf = self._prefetcher()
        pf.extra_latency(0, 0)
        pf.extra_latency(8, 5)
        pf.extra_latency(16, 10)  # confirm: prefetch line 3, arrival 70
        assert pf.extra_latency(24, 30) == 40  # 70 - 30 still in flight
        assert pf.late_hits == 1

    def test_irregular_stream_never_prefetches(self):
        pf = self._prefetcher()
        for i, addr in enumerate((0, 1000, 4000, 2000, 9000)):
            assert pf.extra_latency(addr, i) == 60
        assert pf.prefetches == 0
        assert pf.hit_rate == 0.0

    def test_two_streams_tracked_independently(self):
        pf = self._prefetcher()
        far = 1 << 20
        for i, addr in enumerate((0, far, 8, far + 8, 16, far + 16)):
            pf.extra_latency(addr, i)
        assert pf.prefetches == 4  # both streams confirmed stride 1

    def test_reset(self):
        pf = self._prefetcher()
        pf.extra_latency(0, 0)
        pf.extra_latency(8, 1)
        pf.reset()
        assert pf.hits == pf.misses == pf.prefetches == 0
        assert pf.extra_latency(16, 2) == 60  # buffer emptied

    def test_validation(self):
        with pytest.raises(ConfigError):
            self._prefetcher(streams=0)
        with pytest.raises(ConfigError):
            self._prefetcher(degree=0)
        with pytest.raises(ConfigError):
            self._prefetcher(entries=0)

    def test_describe_and_stats(self):
        pf = self._prefetcher()
        assert "prefetch(streams=2" in pf.describe()
        assert "prefetch_hit_rate" in pf.stats()


class TestOccupancy:
    def test_empty(self):
        assert occupancy_from_intervals([]) == OccupancyStats.empty()

    def test_non_overlapping(self):
        stats = occupancy_from_intervals([(0, 5), (10, 15)])
        assert stats.peak == 1
        assert stats.items == 2

    def test_overlapping_peak(self):
        stats = occupancy_from_intervals([(0, 10), (2, 8), (4, 6)])
        assert stats.peak == 3

    def test_mean_is_time_weighted(self):
        # One item buffered for 10 cycles over a 10-cycle span.
        stats = occupancy_from_intervals([(0, 10)])
        assert stats.mean == pytest.approx(1.0)

    def test_zero_length_intervals_contribute_nothing(self):
        stats = occupancy_from_intervals([(5, 5), (6, 6)])
        assert stats.peak == 0
        assert stats.items == 2

    def test_rejects_backwards_interval(self):
        with pytest.raises(MetricError):
            occupancy_from_intervals([(5, 3)])
