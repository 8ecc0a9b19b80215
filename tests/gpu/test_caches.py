"""Tests for the cache model and coalescer."""

import pytest
from hypothesis import given, strategies as st

from repro.common.config import CacheConfig
from repro.common.events import EventQueue
from repro.gpu.caches import Cache, PerfectMemory
from repro.gpu.coalescer import CoalescedAccess, coalesce, coalescing_ratio
from repro.memory.request import MemRequest, SourceType
from repro.shader.interpreter import MemAccess
from repro.shader.isa import MemSpace

from tests.common.port_helpers import issue


def make_cache(size=1024, ways=2, line=128, mem_latency=100):
    events = EventQueue()
    memory = PerfectMemory(events, latency=mem_latency)
    cache = Cache(events, CacheConfig(size, line_bytes=line, ways=ways),
                  "test", memory)
    return events, cache, memory


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        events, cache, memory = make_cache()
        times = []
        issue(cache, 0, callback=lambda r: times.append(events.now))
        events.run()
        issue(cache, 0, callback=lambda r: times.append(events.now))
        start = events.now
        events.run()
        assert times[0] >= 100                      # went to memory
        assert times[1] - start == cache.config.hit_latency
        assert cache.hit_rate == 0.5
        assert memory.accesses == 1

    def test_different_lines_miss_separately(self):
        events, cache, memory = make_cache()
        issue(cache, 0)
        issue(cache, 128)
        events.run()
        assert memory.accesses == 2

    def test_mshr_merges_secondary_miss(self):
        events, cache, memory = make_cache()
        done = []
        issue(cache, 0, callback=lambda r: done.append("a"))
        issue(cache, 0, callback=lambda r: done.append("b"))
        events.run()
        assert sorted(done) == ["a", "b"]
        assert memory.accesses == 1
        assert cache.stats.counter("mshr_merges").value == 1

    def test_lru_eviction(self):
        # 2-way, line 128, 1024 bytes -> 4 sets. Same set: stride 512.
        events, cache, memory = make_cache(size=1024, ways=2)
        for address in (0, 512, 1024):    # third line evicts the first
            issue(cache, address)
            events.run()
        assert not cache.contains(0)
        assert cache.contains(512)
        assert cache.contains(1024)

    def test_lru_touch_refreshes(self):
        events, cache, memory = make_cache(size=1024, ways=2)
        for address in (0, 512):
            issue(cache, address)
            events.run()
        issue(cache, 0)     # touch 0: now MRU
        events.run()
        issue(cache, 1024)  # evicts 512, not 0
        events.run()
        assert cache.contains(0)
        assert not cache.contains(512)

    def test_dirty_eviction_writes_back(self):
        events, cache, memory = make_cache(size=1024, ways=2)
        issue(cache, 0, write=True)      # dirty line
        events.run()
        reads_before = memory.accesses
        issue(cache, 512)
        issue(cache, 1024)  # evicts dirty line 0
        events.run()
        assert cache.stats.counter("writebacks").value == 1
        # fills for 512 & 1024 plus one writeback
        assert memory.accesses == reads_before + 3

    def test_flush_dirty(self):
        events, cache, memory = make_cache()
        issue(cache, 0, write=True)
        issue(cache, 128, write=True)
        issue(cache, 256)
        events.run()
        before = memory.accesses
        assert cache.flush_dirty() == 2
        events.run()
        assert memory.accesses == before + 2
        assert cache.flush_dirty() == 0       # idempotent

    def test_write_allocate(self):
        events, cache, memory = make_cache()
        issue(cache, 0, write=True)
        events.run()
        assert cache.contains(0)
        assert memory.accesses == 1           # fill on write miss


class TestMSHREdgeCases:
    def test_secondary_write_miss_merges_dirty_into_read_fill(self):
        """A write merging into a read miss's MSHR must dirty the filled
        line, or the write is silently lost at eviction time."""
        events, cache, memory = make_cache(size=1024, ways=2)
        done = []
        issue(cache, 0, callback=lambda r: done.append("read"))
        issue(cache, 0, write=True, callback=lambda r: done.append("write"))
        assert cache._mshrs[0].write        # the merge dirtied the entry
        events.run()
        assert sorted(done) == ["read", "write"]
        assert cache.stats.counter("mshr_merges").value == 1
        # Evict line 0 (2-way set, stride 512): the merged write must
        # surface as a writeback.
        issue(cache, 512)
        issue(cache, 1024)
        events.run()
        assert cache.stats.counter("writebacks").value == 1

    def test_concurrent_fills_racing_eviction_in_one_set(self):
        """Three outstanding misses to a 2-way set: the last fill evicts a
        line installed by an earlier fill of the same burst, and every
        waiter still completes exactly once."""
        events, cache, memory = make_cache(size=1024, ways=2)
        done = []
        for address in (0, 512, 1024):      # all map to set 0
            issue(cache, address, callback=lambda r, a=address: done.append(a))
        assert len(cache._mshrs) == 3       # all in flight at once
        events.run()
        assert sorted(done) == [0, 512, 1024]
        assert cache._mshrs == {}
        assert cache.stats.counter("evictions").value == 1
        resident = [a for a in (0, 512, 1024) if cache.contains(a)]
        assert len(resident) == 2           # ways bound still holds

    def test_mshr_occupancy_histogram_tracks_full_occupancy(self):
        events, cache, memory = make_cache()
        for index in range(8):
            issue(cache, index * 128)
        assert len(cache._mshrs) == 8
        occupancy = cache.stats.histogram("mshr_occupancy")
        assert occupancy.count == 8         # one sample per allocation
        assert occupancy.maximum == 8       # recorded at peak
        events.run()
        assert cache._mshrs == {}           # all fills drained

    def test_mshr_allocation_tick_is_current_time(self):
        events, cache, memory = make_cache()
        issue(cache, 0)
        events.run()
        assert events.now >= 100
        issue(cache, 4096)
        assert cache._mshrs[cache.line_of(4096)].allocated_at == events.now


class TestPerfectMemory:
    def test_answers_through_ingress_after_latency(self):
        events = EventQueue()
        memory = PerfectMemory(events, latency=10)
        done = []
        request = issue(memory, 0, callback=lambda r: done.append(
            (r, events.now)))
        events.run()
        assert done == [(request, 10)]
        assert request.route == []          # response path fully unwound
        assert (memory.accesses, memory.bytes) == (1, 128)

    def test_bare_fire_and_forget_schedules_nothing(self):
        events = EventQueue()
        memory = PerfectMemory(events, latency=10)
        assert memory.ingress._recv(MemRequest(
            address=0, size=64, write=True, source=SourceType.GPU))
        assert events.empty()
        assert (memory.accesses, memory.bytes) == (1, 64)


class TestCoalescer:
    def lane_accesses(self, addresses, space=MemSpace.GLOBAL, size=4,
                      write=False):
        return [MemAccess(space, a, size, write) for a in addresses]

    def test_sequential_warp_coalesces_to_one_line(self):
        accesses = self.lane_accesses([i * 4 for i in range(32)])
        out = coalesce(accesses)
        assert len(out) == 1
        assert out[0].line_address == 0

    def test_strided_warp_spans_lines(self):
        accesses = self.lane_accesses([i * 128 for i in range(32)])
        assert len(coalesce(accesses)) == 32

    def test_spaces_kept_separate(self):
        accesses = (self.lane_accesses([0], MemSpace.TEXTURE)
                    + self.lane_accesses([0], MemSpace.DEPTH))
        out = coalesce(accesses)
        assert len(out) == 2
        assert {a.space for a in out} == {MemSpace.TEXTURE, MemSpace.DEPTH}

    def test_reads_and_writes_distinct(self):
        accesses = (self.lane_accesses([0], write=False)
                    + self.lane_accesses([0], write=True))
        assert len(coalesce(accesses)) == 2

    def test_access_straddling_lines(self):
        accesses = [MemAccess(MemSpace.GLOBAL, 120, 16)]
        out = coalesce(accesses)
        assert {a.line_address for a in out} == {0, 128}

    def test_ratio(self):
        accesses = self.lane_accesses([i * 4 for i in range(32)])
        assert coalescing_ratio(accesses) == 32.0
        assert coalescing_ratio([]) == 0.0

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=64))
    def test_coalesced_lines_unique(self, addresses):
        out = coalesce(self.lane_accesses(addresses))
        keys = [(a.space, a.line_address, a.write) for a in out]
        assert len(keys) == len(set(keys))
        for access in out:
            assert access.line_address % 128 == 0
