"""Tests for the three accelerator state/timing classes."""

import numpy as np
import pytest

from repro.common import FlashWalkerConfig, ReproError
from repro.core import (
    AdvanceResult,
    WalkBatch,
    BoardAccelerator,
    ChannelAccelerator,
    ChipAccelerator,
    DenseVertexTable,
    SubgraphMappingTable,
)
from repro.graph import partition_graph, ring_graph
from repro.walks import WalkSet


def chip(slots=4):
    cfg = FlashWalkerConfig()
    return ChipAccelerator(0, 0, 0, cfg.levels.chip, slots, cfg.walk_bytes)


def result(hops=10, guide_ops=20, completed=0, roving=0, bias=0):
    return AdvanceResult(
        completed=WalkBatch.of(WalkSet.start(np.arange(completed), 1)),
        roving=WalkBatch.of(WalkSet.start(np.arange(roving), 1)),
        hops=hops,
        guide_ops=guide_ops,
        bias_steps=bias,
    )


class TestChipAccelerator:
    def test_lru_slots(self):
        c = chip(slots=2)
        assert c.touch_block(1)      # miss -> read
        assert c.touch_block(2)
        assert not c.touch_block(1)  # hit
        assert c.touch_block(3)      # evicts 2
        assert c.touch_block(2)      # miss again
        assert c.reload_hits == 1

    def test_lru_refresh_order(self):
        c = chip(slots=2)
        c.touch_block(1)
        c.touch_block(2)
        c.touch_block(1)  # refresh 1
        c.touch_block(3)  # evicts 2, not 1
        assert not c.touch_block(1)

    def test_batch_time_formula(self):
        c = chip()
        res = result(hops=100, guide_ops=50, bias=10)
        acc = c.cfg
        expected = (
            (100 * acc.updater_ops_per_hop + 10) * acc.updater_cycle
            + 50 * acc.guider_cycle
        )
        assert c.batch_time(res) == pytest.approx(expected)
        assert c.hops == 100 and c.batches == 1

    def test_roving_buffer(self):
        c = chip()
        c.push_roving(WalkBatch.of(WalkSet.start(np.arange(5), 3)))
        c.push_roving(WalkBatch.of(WalkSet.start(np.arange(2), 3)))
        assert c.pending_rove_count == 7
        out = c.take_roving()
        assert out.src == [0, 1, 2, 3, 4, 0, 1]
        assert c.pending_rove_count == 0

    def test_roving_capacity_and_stall(self):
        c = chip()
        cap = c.roving_capacity_walks
        assert cap == c.cfg.roving_buffer_bytes // 12
        c.push_roving(WalkBatch.of(WalkSet.start(np.zeros(cap + 1, dtype=np.int64), 3)))
        assert c.roving_overflow_stall(2e-6) > 0
        c.take_roving()
        assert c.roving_overflow_stall(2e-6) == 0.0

    def test_rejects_zero_slots(self):
        cfg = FlashWalkerConfig()
        with pytest.raises(ReproError):
            ChipAccelerator(0, 0, 0, cfg.levels.chip, 0, 12)


class TestChannelAccelerator:
    def make(self):
        cfg = FlashWalkerConfig()
        return ChannelAccelerator(0, cfg.levels.channel, cfg.walk_bytes)

    def test_batch_time_uses_channel_cycles(self):
        ch = self.make()
        res = result(hops=10, guide_ops=8)
        acc = ch.cfg
        expected = (
            10 * acc.updater_ops_per_hop * acc.updater_cycle / acc.n_updaters
            + 8 * acc.guider_cycle / acc.n_guiders
        )
        assert ch.batch_time(res) == pytest.approx(expected)

    def test_range_query_time(self):
        g = ring_graph(5000)
        part = partition_graph(g, 4096)
        from repro.core import RangeTable

        ch = self.make()
        ch.set_range_table(RangeTable(part, 0, part.num_blocks - 1, 2))
        t = ch.range_query_time(100)
        assert t > 0
        assert ch.range_queries == 100

    def test_range_query_without_table_free(self):
        ch = self.make()
        assert ch.range_query_time(100) == 0.0

    def test_rejects_negative_count(self):
        ch = self.make()
        with pytest.raises(ReproError):
            ch.range_query_time(-1)

    def test_guide_time(self):
        ch = self.make()
        acc = ch.cfg
        assert ch.guide_time(40) == pytest.approx(
            40 * acc.guider_cycle / acc.n_guiders
        )


class TestBoardAccelerator:
    def make(self, wq=True):
        g = ring_graph(5000)
        part = partition_graph(g, 4096)
        cfg = FlashWalkerConfig().with_optimizations(wq=wq, hs=True, ss=True)
        board = BoardAccelerator(cfg, DenseVertexTable(part))
        board.set_mapping(SubgraphMappingTable(part, 0, part.num_blocks - 1))
        return board

    def test_query_costs_less_with_cache_hits(self):
        board = self.make(wq=True)
        blocks = np.zeros(100, dtype=np.int64)
        t1, h1, m1, _ = board.query_and_direct(blocks, scoped=False)
        t2, h2, m2, _ = board.query_and_direct(blocks, scoped=False)
        assert m1 >= 1 and m2 == 0
        assert t2 < t1

    def test_no_cache_all_searches(self):
        board = self.make(wq=False)
        blocks = np.arange(50, dtype=np.int64)
        t, hits, misses, steps = board.query_and_direct(blocks, scoped=False)
        assert hits == 0 and misses == 50
        assert steps == 50 * board.mapping.full_search_steps()

    def test_scoped_search_cheaper(self):
        a = self.make(wq=False)
        b = self.make(wq=False)
        blocks = np.arange(50, dtype=np.int64)
        t_full, *_ = a.query_and_direct(blocks, scoped=False)
        t_scoped, *_ = b.query_and_direct(blocks, scoped=True)
        assert t_scoped <= t_full

    def test_query_requires_mapping(self):
        cfg = FlashWalkerConfig()
        g = ring_graph(100)
        part = partition_graph(g, 4096)
        board = BoardAccelerator(cfg, DenseVertexTable(part))
        with pytest.raises(ReproError):
            board.query_and_direct(np.array([0]), scoped=False)

    def test_completed_sink_flush_threshold(self):
        board = self.make()
        cap_walks = board.cfg.completed_buffer_bytes // board.cfg.walk_bytes
        assert board.add_completed(cap_walks - 1) == 0
        flushed = board.add_completed(2)
        assert flushed > 0
        assert board.completed_pending_bytes == 0

    def test_foreigner_sink_flush_threshold(self):
        board = self.make()
        cap_walks = board.cfg.foreigner_buffer_bytes // board.cfg.walk_bytes
        assert board.add_foreigners(cap_walks + 1) > 0

    def test_drain_sinks(self):
        board = self.make()
        board.add_completed(10)
        board.add_foreigners(5)
        assert board.drain_sinks() == 15 * board.cfg.walk_bytes
        assert board.drain_sinks() == 0

    def test_rejects_negative_counts(self):
        board = self.make()
        with pytest.raises(ReproError):
            board.add_completed(-1)
        with pytest.raises(ReproError):
            board.add_foreigners(-1)

    def test_cache_invalidated_on_new_mapping(self):
        board = self.make(wq=True)
        blocks = np.zeros(10, dtype=np.int64)
        board.query_and_direct(blocks, scoped=False)
        board.set_mapping(board.mapping)  # re-install invalidates
        _, hits, misses, _ = board.query_and_direct(blocks, scoped=False)
        assert misses >= 1
