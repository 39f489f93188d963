"""Tests for walk buffering: WalkBatch, entries, PWB, foreigner store."""

import numpy as np
import pytest

from repro.common import BufferOverflowError, ReproError
from repro.core import BlockEntry, ForeignerStore, PartitionWalkBuffer, WalkBatch
from repro.walks import WalkSet


def walks(n, start=0):
    return WalkSet.start(np.arange(start, start + n), 6)


def batch_of(n, start=0, pre_edge=None):
    """``n`` fresh walks from vertex ``start`` on, as a WalkBatch."""
    return WalkBatch.of(walks(n, start), pre_edge)


def push_entry(entry, batch):
    """Append a WalkBatch to a BlockEntry as one batch."""
    entry.extend(batch.src, batch.cur, batch.hop, batch.pre_edge)


def push(pwb, block, batch):
    """Push a whole batch into one entry; returns the walks it spilled."""
    ((b, n, spilled),) = pwb.push(np.full(len(batch), block), batch)
    assert (b, n) == (block, len(batch))
    return spilled


class TestWalkBatch:
    def test_plain(self):
        b = batch_of(3)
        assert len(b) == 3
        assert b.pre_edge is None
        assert (b.src, b.cur, b.hop) == ([0, 1, 2], [0, 1, 2], [6, 6, 6])

    def test_with_pre_edge(self):
        b = batch_of(2, pre_edge=np.array([5, 7]))
        assert b.pre_edge == [5, 7]

    def test_pre_edge_misaligned(self):
        with pytest.raises(ReproError):
            batch_of(2, pre_edge=np.array([5]))

    def test_fields_misaligned(self):
        with pytest.raises(ReproError):
            WalkBatch([1, 2], [1], [3, 3])

    def test_walkset_round_trip(self):
        w = walks(4, 7)
        back = WalkBatch.of(w).to_walks()
        for field in ("src", "cur", "hop"):
            np.testing.assert_array_equal(getattr(back, field), getattr(w, field))
            assert getattr(back, field).dtype == np.int64
        assert len(WalkBatch.empty().to_walks()) == 0

    def test_split_keeps_order(self):
        yes, no = batch_of(5).split([True, False, True, False, False])
        assert (yes.src, no.src) == ([0, 2], [1, 3, 4])

    def test_merge_plain(self):
        m = WalkBatch.merge([batch_of(2), batch_of(3, 10)])
        assert len(m) == 5
        assert m.pre_edge is None

    def test_merge_mixed_pads_minus_one(self):
        m = WalkBatch.merge([batch_of(2), batch_of(1, 10, np.array([4]))])
        assert m.pre_edge == [-1, -1, 4]

    def test_merge_empty(self):
        m = WalkBatch.merge([])
        assert len(m) == 0


class TestBlockEntry:
    def test_push_and_drain(self):
        e = BlockEntry()
        push_entry(e, batch_of(4))
        push_entry(e, batch_of(2, 10))
        batch, nb, ns = e.drain()
        assert (nb, ns) == (6, 0)
        assert len(batch) == 6
        assert e.total == 0

    def test_spill_overflow_fifo(self):
        e = BlockEntry()
        push_entry(e, batch_of(4))          # oldest
        push_entry(e, batch_of(4, 10))
        spilled = e.spill_overflow(capacity=5)
        assert spilled == 4  # whole oldest batch moves out
        assert e.buffered_count == 4
        assert e.spilled_count == 4

    def test_spill_nothing_under_capacity(self):
        e = BlockEntry()
        push_entry(e, batch_of(3))
        assert e.spill_overflow(10) == 0

    def test_drain_merges_both_sides(self):
        e = BlockEntry()
        push_entry(e, batch_of(4))
        push_entry(e, batch_of(4, 10))
        e.spill_overflow(4)
        batch, nb, ns = e.drain()
        assert (nb, ns) == (4, 4)
        assert len(batch) == 8

    def test_drain_is_push_order_rotated_by_spills(self):
        e = BlockEntry()
        push_entry(e, batch_of(2))                     # src 0, 1
        push_entry(e, batch_of(1, 10, np.array([7])))  # src 10
        push_entry(e, batch_of(2, 20))                 # src 20, 21
        assert e.spill_overflow(3) == 2                 # oldest batch out
        batch, nb, ns = e.drain()
        assert (nb, ns) == (3, 2)
        assert batch.src == [10, 20, 21, 0, 1]
        assert batch.pre_edge == [7, -1, -1, -1, -1]

    def test_drain_without_pre_edges_has_none(self):
        e = BlockEntry()
        push_entry(e, batch_of(2))
        assert e.drain()[0].pre_edge is None
        assert BlockEntry().drain()[0].pre_edge is None

    def test_state_round_trip(self):
        e = BlockEntry()
        push_entry(e, batch_of(3, 0, np.array([1, 2, 3])))
        push_entry(e, batch_of(2, 10))
        e.spill_overflow(2)
        r = BlockEntry.from_state(e.state())
        assert (r.buffered_count, r.spilled_count) == (2, 3)
        assert list(r.batch_lens) == [2]
        a, b = e.drain()[0], r.drain()[0]
        assert a.src == b.src
        assert a.pre_edge == b.pre_edge

    def test_negative_capacity(self):
        with pytest.raises(BufferOverflowError):
            BlockEntry().spill_overflow(-1)


class TestPartitionWalkBuffer:
    def make(self, cap=8, dense_cap=12, n_blocks=10):
        is_dense = np.zeros(n_blocks, dtype=bool)
        is_dense[3] = True
        return PartitionWalkBuffer(0, n_blocks - 1, cap, dense_cap, is_dense)

    def test_push_within_capacity(self):
        pwb = self.make()
        assert push(pwb, 0, batch_of(5)) == 0
        assert pwb.counts(0) == (5, 0)

    def test_push_overflow_spills(self):
        pwb = self.make(cap=8)
        push(pwb, 1, batch_of(6))
        spilled = push(pwb, 1, batch_of(6, 10))
        assert spilled == 6  # oldest batch out
        assert pwb.spill_events == 1
        assert pwb.walks_spilled == 6

    def test_dense_entries_hold_more(self):
        pwb = self.make(cap=8, dense_cap=12)
        assert pwb.capacity_of(3) == 12
        assert pwb.capacity_of(0) == 8
        assert push(pwb, 3, batch_of(11)) == 0

    def test_drain_removes_entry(self):
        pwb = self.make()
        push(pwb, 2, batch_of(4))
        batch, nb, ns = pwb.drain(2)
        assert (nb, ns) == (4, 0)
        assert pwb.counts(2) == (0, 0)
        assert pwb.total_walks == 0

    def test_drain_unknown_block_empty(self):
        pwb = self.make()
        batch, nb, ns = pwb.drain(7)
        assert (nb, ns) == (0, 0)

    def test_blocks_with_walks(self):
        pwb = self.make()
        push(pwb, 0, batch_of(1))
        push(pwb, 5, batch_of(1))
        assert sorted(pwb.blocks_with_walks()) == [0, 5]

    def test_out_of_partition_rejected(self):
        pwb = self.make(n_blocks=4)
        with pytest.raises(BufferOverflowError):
            push(pwb, 10, batch_of(1))

    def test_push_groups_by_ascending_block(self):
        pwb = self.make(cap=8)
        blocks = np.array([5, 0, 5, 2, 0, 5])
        out = pwb.push(blocks, batch_of(6, 0, np.arange(6) + 100))
        assert out == [(0, 2, 0), (2, 1, 0), (5, 3, 0)]
        batch, nb, ns = pwb.drain(5)
        # Arrival order within the block, pre-walked edges alongside.
        assert batch.src == [0, 2, 5]
        assert batch.pre_edge == [100, 102, 105]
        assert (nb, ns) == (3, 0)

    def test_push_reports_spills_per_block(self):
        pwb = self.make(cap=2)
        push(pwb, 1, batch_of(2))
        out = pwb.push(np.array([4, 1, 1]), batch_of(3, 10))
        assert out == [(1, 2, 2), (4, 1, 0)]
        assert pwb.counts(1) == (2, 2)
        assert (pwb.spill_events, pwb.walks_spilled) == (1, 2)

    def test_push_length_mismatch_rejected(self):
        pwb = self.make()
        with pytest.raises(BufferOverflowError):
            pwb.push(np.array([0, 1]), batch_of(3))

    def test_validation(self):
        with pytest.raises(BufferOverflowError):
            PartitionWalkBuffer(0, 3, 0, 1, np.zeros(4, dtype=bool))
        with pytest.raises(BufferOverflowError):
            PartitionWalkBuffer(4, 3, 1, 1, np.zeros(4, dtype=bool))


class TestForeignerStore:
    def test_push_and_drain(self):
        fs = ForeignerStore(3)
        fs.push(1, walks(4))
        fs.push(1, walks(2, 10))
        assert fs.count(1) == 6
        out = fs.drain(1)
        assert len(out) == 6
        assert fs.count(1) == 0

    def test_empty_pushes_ignored(self):
        fs = ForeignerStore(2)
        fs.push(0, WalkSet.empty())
        assert fs.total == 0

    def test_partitions_with_walks(self):
        fs = ForeignerStore(4)
        fs.push(2, walks(1))
        fs.push(0, walks(1))
        np.testing.assert_array_equal(fs.partitions_with_walks(), [0, 2])

    def test_total(self):
        fs = ForeignerStore(2)
        fs.push(0, walks(3))
        fs.push(1, walks(4))
        assert fs.total == 7

    def test_bounds(self):
        fs = ForeignerStore(2)
        with pytest.raises(ReproError):
            fs.push(5, walks(1))
        with pytest.raises(ReproError):
            fs.drain(-1)
        with pytest.raises(BufferOverflowError):
            ForeignerStore(0)


class TestListForms:
    def test_push_takes_block_lists(self):
        is_dense = np.zeros(6, dtype=bool)
        a = PartitionWalkBuffer(0, 5, 8, 12, is_dense)
        b = PartitionWalkBuffer(0, 5, 8, 12, is_dense)
        blocks = [5, 0, 5, 2]
        assert a.push(blocks, batch_of(4)) == b.push(np.array(blocks), batch_of(4))
        assert a.drain(5)[0].src == b.drain(5)[0].src == [0, 2]

    def test_foreigner_store_pools_walk_batches_as_walksets(self):
        fs = ForeignerStore(2)
        fs.push(1, batch_of(3, 5))
        fs.push(1, WalkBatch.empty())
        assert fs.count(1) == 3
        out = fs.drain(1)
        assert isinstance(out, WalkSet)
        np.testing.assert_array_equal(out.src, [5, 6, 7])
