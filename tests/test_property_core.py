"""Property-based tests for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BloomFilter,
    SubgraphScheduler,
    WalkQueryCache,
)
from repro.core.buffers import BlockEntry, WalkBatch
from repro.sim import BandwidthLink, FcfsResource, Simulator
from repro.walks import WalkSet

from .test_core_buffers import push_entry


class TestBloomProperties:
    @given(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=200, unique=True)
    )
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives_ever(self, keys):
        bf = BloomFilter.for_capacity(len(keys))
        arr = np.array(keys, dtype=np.int64)
        bf.add(arr)
        assert np.all(bf.contains(arr))

    @given(st.lists(st.integers(0, 2**30), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_adds(self, keys):
        a = BloomFilter(512, 3)
        b = BloomFilter(512, 3)
        arr = np.array(keys, dtype=np.int64)
        a.add(arr)
        b.add(arr)
        b.add(arr)  # adding twice changes nothing
        np.testing.assert_array_equal(a._bits, b._bits)


class TestQueryCacheProperties:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_queries(self, blocks):
        c = WalkQueryCache(8)
        total_h = total_m = 0
        for chunk_start in range(0, len(blocks), 7):
            chunk = np.array(blocks[chunk_start : chunk_start + 7])
            h, m = c.probe_batch(chunk)
            total_h += h
            total_m += m
        assert total_h + total_m == len(blocks)
        assert c.hits == total_h and c.misses == total_m

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_cache_large_enough_never_re_misses(self, blocks):
        c = WalkQueryCache(16)  # more entries than distinct keys
        for b in blocks:
            c.probe(b)
        assert c.misses == len(set(blocks))


class TestSchedulerProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 50)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_pending_conservation(self, inserts):
        s = SubgraphScheduler(
            block_chip=np.arange(16) % 4,
            is_dense_block=np.zeros(16, dtype=bool),
            first_block=0,
            last_block=15,
            n_chips=4,
            alpha=1.2,
            beta=1.5,
            top_n=4,
            update_period_m=4,
        )
        total = 0
        for block, count in inserts:
            s.add_buffered(block, count)
            total += count
        assert s.total_pending == total
        # draining every block empties the scoreboard
        drained = 0
        for chip in range(4):
            while True:
                blk = s.next_subgraph(chip)
                if blk is None:
                    break
                nb, ns = s.take_walks(blk)
                drained += nb + ns
        assert drained == total
        assert s.total_pending == 0

    @given(st.integers(1, 40), st.integers(0, 39))
    @settings(max_examples=40, deadline=None)
    def test_scores_nonnegative(self, buffered, spilled):
        spilled = min(spilled, buffered)
        s = SubgraphScheduler(
            block_chip=np.zeros(4, dtype=np.int64),
            is_dense_block=np.array([False, True, False, True]),
            first_block=0,
            last_block=3,
            n_chips=1,
            alpha=0.4,
            beta=1.5,
            top_n=2,
            update_period_m=2,
        )
        s.add_buffered(0, buffered)
        s.add_spilled(0, spilled)
        assert (s.scores() >= 0).all()


class TestBufferProperties:
    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=20),
        st.integers(1, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_entry_conserves_walks(self, batch_sizes, capacity):
        e = BlockEntry()
        total = 0
        for size in batch_sizes:
            push_entry(e, WalkBatch.of(WalkSet.start(np.arange(size), 6)))
            e.spill_overflow(capacity)
            total += size
        assert e.total == total
        merged, nb, ns = e.drain()
        assert nb + ns == total
        assert len(merged) == total
        assert e.buffered_count <= capacity or ns == 0


class TestResourceProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(0, 2)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fcfs_never_overlaps_more_than_servers(self, reqs):
        # Issue in non-decreasing time order, then verify the busy-time
        # accounting: total busy <= servers * horizon.
        reqs = sorted(reqs)
        r = FcfsResource("r", 2)
        horizon = 0.0
        for now, dur in reqs:
            end = r.acquire_for(now, dur)
            assert end >= now + dur - 1e-12
            horizon = max(horizon, end)
        if horizon > 0:
            assert r.busy_time <= 2 * horizon + 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.integers(0, 10_000)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_link_conserves_bytes(self, reqs):
        reqs = sorted(reqs)
        link = BandwidthLink("l", 1e6)
        last_end = 0.0
        for now, nbytes in reqs:
            end = link.transfer(now, nbytes)
            assert end >= last_end - 1e-12  # FIFO order
            last_end = end
        assert link.bytes_moved == sum(n for _, n in reqs)


class TestSimulatorProperties:
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(times)
        assert sim.events_executed == len(times)
