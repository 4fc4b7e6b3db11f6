"""Cache and hierarchy tests."""

import pytest

from repro.config.machine import CacheConfig, MemoryConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import MemoryHierarchy


def small_cache(size=1024, assoc=2, line=64):
    return SetAssociativeCache(CacheConfig(size, assoc, line, 1))


class TestSetAssociativeCache:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert c.access(0x100) is False
        assert c.access(0x100) is True

    def test_same_line_hits(self):
        c = small_cache(line=64)
        c.access(0x100)
        assert c.access(0x100 + 63) is True
        assert c.access(0x100 + 64) is False

    def test_lru_eviction(self):
        c = small_cache(size=256, assoc=2, line=64)  # 2 sets
        num_sets = 2
        a, b, d = (i * num_sets * 64 for i in range(3))  # same set
        c.access(a)
        c.access(b)
        c.access(a)          # a most-recent
        c.access(d)          # evicts b
        assert c.access(a) is True
        assert c.access(b) is False

    def test_probe_does_not_allocate_or_touch_lru(self):
        c = small_cache()
        assert c.probe(0x100) is False
        assert c.access(0x100) is False  # probe did not allocate
        assert c.probe(0x100) is True
        accesses = c.accesses
        c.probe(0x100)
        assert c.accesses == accesses  # probes not counted

    def test_flush_invalidates_but_keeps_stats(self):
        c = small_cache()
        c.access(0x100)
        c.flush()
        assert c.access(0x100) is False
        assert c.accesses == 2 and c.misses == 2

    def test_miss_and_hit_rate(self):
        c = small_cache()
        c.access(0)
        c.access(0)
        assert c.miss_rate == 0.5
        assert c.hit_rate == 0.5

    def test_direct_mapped(self):
        c = small_cache(size=128, assoc=1, line=64)  # 2 sets, 1 way
        c.access(0)
        c.access(128)  # same set, evicts
        assert c.access(0) is False

    def test_fully_associative_single_set(self):
        c = small_cache(size=256, assoc=4, line=64)  # 1 set
        for i in range(4):
            c.access(i * 64)
        for i in range(4):
            assert c.probe(i * 64)


class TestMemoryHierarchy:
    def _h(self):
        return MemoryHierarchy(MemoryConfig(
            l1i=CacheConfig(1024, 2, 64, 1),
            l1d=CacheConfig(1024, 2, 64, 1),
            l2=CacheConfig(8 * 1024, 4, 128, 10),
            memory_latency=100,
        ))

    def test_cold_data_access_goes_to_memory(self):
        h = self._h()
        res = h.access_data(0x4000)
        assert res.went_to_memory
        assert res.extra_latency == 100

    def test_l1_hit_costs_nothing_extra(self):
        h = self._h()
        h.access_data(0x4000)
        res = h.access_data(0x4000)
        assert res.l1_hit and res.extra_latency == 0

    def test_l2_hit_after_l1_eviction(self):
        h = self._h()
        h.access_data(0)
        # Evict line 0 from tiny L1 by filling its set, L2 keeps it.
        num_sets_l1 = 8
        h.access_data(num_sets_l1 * 64)
        h.access_data(2 * num_sets_l1 * 64)
        res = h.access_data(0)
        assert not res.l1_hit and res.l2_hit
        assert res.extra_latency == 10

    def test_inst_and_data_share_l2(self):
        h = self._h()
        h.access_inst(0x8000)
        res = h.access_data(0x8000)
        assert res.l2_hit  # line brought in by the instruction fetch
        assert not res.l1_hit  # but not in the (separate) L1D

    def test_flush(self):
        h = self._h()
        h.access_data(0)
        h.flush()
        assert h.access_data(0).went_to_memory
