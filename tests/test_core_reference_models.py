"""Differential tests: the flat-list buffer entry and the indexed
scheduler against small reference models of the straightforward
designs they replace.

``RefEntry`` keeps each entry as a list of ``WalkBatch`` objects on a
buffered side and a spilled side and drains by concatenating
``buffered + spilled``.  ``RefScheduler`` finds a chip's blocks and the
chips with work by masking every block of the partition.  Both sides
are driven with the same random operations; every observable output and
report counter must match exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PartitionWalkBuffer, SubgraphScheduler, WalkBatch
from repro.core.buffers import BlockEntry

from .test_core_buffers import push_entry

# ---------------------------------------------------------------- buffers


def ref_merge(batches):
    batches = [b for b in batches if len(b)]
    fields = [[x for b in batches for x in getattr(b, f)] for f in ("src", "cur", "hop")]
    if all(b.pre_edge is None for b in batches):
        return WalkBatch(*fields)
    pre = [
        x
        for b in batches
        for x in (b.pre_edge if b.pre_edge is not None else [-1] * len(b))
    ]
    return WalkBatch(*fields, pre)


class RefEntry:
    def __init__(self):
        self.buffered, self.spilled = [], []
        self.buffered_count = self.spilled_count = 0

    def push(self, batch):
        self.buffered.append(batch)
        self.buffered_count += len(batch)

    def spill_overflow(self, capacity):
        spilled = 0
        while self.buffered_count > capacity and self.buffered:
            batch = self.buffered.pop(0)
            self.buffered_count -= len(batch)
            self.spilled.append(batch)
            self.spilled_count += len(batch)
            spilled += len(batch)
        return spilled

    def drain(self):
        nb, ns = self.buffered_count, self.spilled_count
        merged = ref_merge(self.buffered + self.spilled)
        self.__init__()
        return merged, nb, ns


class RefBuffer:
    """Per-block pushes of the groups a stable sort by block yields."""

    def __init__(self, caps):
        self.caps = caps
        self.entries = {}
        self.spill_events = self.walks_spilled = 0

    def push(self, blocks, batch):
        order = np.argsort(blocks, kind="stable")
        sblocks = blocks[order]
        sfields = [[getattr(batch, f)[i] for i in order] for f in ("src", "cur", "hop")]
        spre = None if batch.pre_edge is None else [batch.pre_edge[i] for i in order]
        bounds = np.flatnonzero(np.diff(sblocks)) + 1
        out = []
        for s, e in zip(
            np.concatenate([[0], bounds]), np.concatenate([bounds, [len(blocks)]])
        ):
            block = int(sblocks[s])
            entry = self.entries.setdefault(block, RefEntry())
            entry.push(WalkBatch(
                *(f[s:e] for f in sfields),
                None if spre is None else spre[s:e],
            ))
            spilled = entry.spill_overflow(self.caps[block])
            if spilled:
                self.spill_events += 1
                self.walks_spilled += spilled
            out.append((block, int(e - s), spilled))
        return out

    def drain(self, block):
        e = self.entries.pop(block, None)
        if e is None:
            return WalkBatch.empty(), 0, 0
        return e.drain()


def assert_same_drain(got, want):
    (gb, gnb, gns), (wb, wnb, wns) = got, want
    assert (gnb, gns) == (wnb, wns)
    if gnb + gns == 0:
        assert len(gb) == len(wb) == 0 and gb.pre_edge is None
        return
    for field in ("src", "cur", "hop", "pre_edge"):
        g, w = getattr(gb, field), getattr(wb, field)
        assert g == w
        assert g is None or all(type(x) is int for x in g)


def draw_batch(data, n, with_pre):
    src = data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    hop = data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    pre = None
    if with_pre:
        pre = data.draw(st.lists(st.integers(0, 500), min_size=n, max_size=n))
    return WalkBatch(src, [s + 7 for s in src], hop, pre)


class TestBufferMatchesReference:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_push_spill_drain(self, data):
        n_blocks = data.draw(st.integers(1, 6), label="blocks")
        cap = data.draw(st.integers(1, 9), label="cap")
        dense_cap = data.draw(st.integers(1, 9), label="dense_cap")
        is_dense = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=n_blocks, max_size=n_blocks))
        )
        first = data.draw(st.integers(0, 3), label="first")
        is_dense_all = np.concatenate([np.zeros(first, dtype=bool), is_dense])
        pwb = PartitionWalkBuffer(first, first + n_blocks - 1, cap, dense_cap, is_dense_all)
        caps = {first + i: dense_cap if d else cap for i, d in enumerate(is_dense)}
        ref = RefBuffer(caps)
        for _ in range(data.draw(st.integers(1, 25), label="ops")):
            if data.draw(st.integers(0, 3)) == 0:
                block = first + data.draw(st.integers(0, n_blocks - 1))
                assert_same_drain(pwb.drain(block), ref.drain(block))
            else:
                n = data.draw(st.integers(1, 12))
                blocks = first + np.asarray(data.draw(st.lists(
                    st.integers(0, n_blocks - 1), min_size=n, max_size=n
                )))
                batch = draw_batch(data, n, data.draw(st.booleans()))
                assert pwb.push(blocks, batch) == ref.push(blocks, batch)
            assert (pwb.spill_events, pwb.walks_spilled) == (
                ref.spill_events, ref.walks_spilled
            )
            for block in caps:
                e = ref.entries.get(block)
                want = (0, 0) if e is None else (e.buffered_count, e.spilled_count)
                assert pwb.counts(block) == want
        for block in caps:
            assert_same_drain(pwb.drain(block), ref.drain(block))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_entry_rotation(self, data):
        """Drain order is push order rotated by the spilled count."""
        e, ref = BlockEntry(), RefEntry()
        for _ in range(data.draw(st.integers(1, 15), label="ops")):
            op = data.draw(st.integers(0, 4))
            if op == 0:
                assert_same_drain(e.drain(), ref.drain())
            elif op == 1:
                cap = data.draw(st.integers(1, 20))
                assert e.spill_overflow(cap) == ref.spill_overflow(cap)
            else:
                n = data.draw(st.integers(1, 6))
                batch = draw_batch(data, n, data.draw(st.booleans()))
                push_entry(e, batch)
                ref.push(batch)
            assert (e.buffered_count, e.spilled_count) == (
                ref.buffered_count, ref.spilled_count
            )
            assert list(e.batch_lens) == [len(b) for b in ref.buffered]
            assert_same_drain(BlockEntry.from_state(e.state()).drain(), (
                ref_merge(ref.buffered + ref.spilled),
                ref.buffered_count,
                ref.spilled_count,
            ))
        assert_same_drain(e.drain(), ref.drain())


# -------------------------------------------------------------- scheduler


class RefScheduler:
    """The Eq. 1 scoreboard with full-partition masks for selection."""

    def __init__(self, block_chip, is_dense, n_chips, alpha, beta, top_n, m,
                 use_scores):
        self.block_chip = block_chip
        self.is_dense = is_dense
        self.n_chips, self.alpha, self.beta = n_chips, alpha, beta
        self.top_n, self.m, self.use_scores = top_n, m, use_scores
        n = len(block_chip)
        self.pwb = np.zeros(n, dtype=np.int64)
        self.fl = np.zeros(n, dtype=np.int64)
        self.inserts = np.zeros(n, dtype=np.int64)
        self.scores_cache = self.counts_cache = None
        self.score_cache_hits = self.topn_refreshes = self.deferred = 0
        self.top = {c: [] for c in range(n_chips)}
        self.dirty = set(range(n_chips))

    def touch(self):
        self.scores_cache = self.counts_cache = None

    def add_buffered(self, b, count):
        self.touch()
        self.pwb[b] += count
        self.inserts[b] += count
        if self.inserts[b] >= self.m:
            self.inserts[b] = 0
            self.dirty.add(int(self.block_chip[b]))
        else:
            self.deferred += 1

    def add_spilled(self, b, count):
        self.touch()
        self.pwb[b] -= count
        self.fl[b] += count
        self.dirty.add(int(self.block_chip[b]))

    def take_walks(self, b):
        out = int(self.pwb[b]), int(self.fl[b])
        self.touch()
        self.pwb[b] = self.fl[b] = self.inserts[b] = 0
        self.dirty.add(int(self.block_chip[b]))
        return out

    def scores(self):
        if self.scores_cache is None:
            base = self.pwb * self.alpha + self.fl
            self.scores_cache = np.where(self.is_dense, base, base * self.beta)
        else:
            self.score_cache_hits += 1
        return self.scores_cache

    def walk_counts(self):
        if self.counts_cache is None:
            self.counts_cache = self.pwb + self.fl
        else:
            self.score_cache_hits += 1
        return self.counts_cache

    def refresh_top(self, chip):
        counts = self.walk_counts()
        cand = np.flatnonzero((self.block_chip == chip) & (counts > 0))
        if cand.size == 0:
            self.top[chip] = []
        else:
            key = self.scores() if self.use_scores else counts
            order = np.argsort(-key[cand], kind="stable")
            self.top[chip] = cand[order][: self.top_n].tolist()
        self.topn_refreshes += 1
        self.dirty.discard(chip)

    def next_subgraph(self, chip, exclude):
        counts = self.walk_counts()
        for _ in range(2):
            if chip in self.dirty or not self.top[chip]:
                self.refresh_top(chip)
            for idx in self.top[chip]:
                if counts[idx] > 0 and idx not in exclude:
                    return idx
            if chip not in self.dirty:
                self.dirty.add(chip)
            else:
                break
        return None

    def reassign_blocks(self, blocks, chips):
        for b, c in zip(blocks, chips):
            old = int(self.block_chip[b])
            if old == c:
                continue
            self.block_chip[b] = c
            self.dirty.add(old)
            self.dirty.add(int(c))

    def chips_with_work(self):
        counts = self.walk_counts()
        return np.unique(self.block_chip[counts > 0])


class TestSchedulerMatchesReference:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_operations(self, data):
        n_blocks = data.draw(st.integers(1, 12), label="blocks")
        n_chips = data.draw(st.integers(1, 4), label="chips")
        owners = data.draw(st.lists(
            st.integers(0, n_chips - 1), min_size=n_blocks, max_size=n_blocks
        ), label="owners")
        is_dense = np.asarray(data.draw(st.lists(
            st.booleans(), min_size=n_blocks, max_size=n_blocks
        )))
        top_n = data.draw(st.integers(1, 4), label="top_n")
        m = data.draw(st.integers(1, 5), label="m")
        use_scores = data.draw(st.booleans(), label="use_scores")
        # Both sides see block_chip through a view of an owner array, the
        # way the engine shares its placement with the scheduler.
        placement = np.asarray(owners, dtype=np.int64)
        ref_placement = placement.copy()
        sc = SubgraphScheduler(
            placement, is_dense, 0, n_blocks - 1, n_chips,
            alpha=1.3, beta=1.5, top_n=top_n, update_period_m=m,
            use_scores=use_scores,
        )
        ref = RefScheduler(
            ref_placement[:], is_dense, n_chips, 1.3, 1.5, top_n, m, use_scores
        )
        for _ in range(data.draw(st.integers(1, 40), label="ops")):
            op = data.draw(st.integers(0, 7))
            b = data.draw(st.integers(0, n_blocks - 1))
            if op <= 1:
                count = data.draw(st.integers(0, 5))
                sc.add_buffered(b, count)
                ref.add_buffered(b, count)
            elif op == 2 and ref.pwb[b]:
                count = data.draw(st.integers(0, int(ref.pwb[b])))
                sc.add_spilled(b, count)
                ref.add_spilled(b, count)
            elif op == 3:
                assert sc.take_walks(b) == ref.take_walks(b)
            elif op == 4:
                blocks = data.draw(st.lists(
                    st.integers(0, n_blocks - 1), max_size=3, unique=True
                ))
                chips = [data.draw(st.integers(0, n_chips - 1)) for _ in blocks]
                if data.draw(st.booleans()):
                    # The caller rewrote the shared array first.
                    placement[blocks] = chips
                    ref_placement[blocks] = chips
                sc.reassign_blocks(blocks, chips)
                ref.reassign_blocks(blocks, chips)
            elif op == 5:
                chip = data.draw(st.integers(0, n_chips - 1))
                exclude = set(data.draw(st.lists(
                    st.integers(0, n_blocks - 1), max_size=2
                )))
                assert sc.next_subgraph(chip, exclude) == ref.next_subgraph(
                    chip, exclude
                )
            elif op == 6:
                got, want = sc.chips_with_work(), ref.chips_with_work()
                np.testing.assert_array_equal(got, want)
            else:
                # The public array reads share the internal reads' cache
                # accounting.
                np.testing.assert_array_equal(sc.scores(), ref.scores())
                np.testing.assert_array_equal(sc.walk_counts(), ref.walk_counts())
            assert sc._top == ref.top
            assert sc._dirty == ref.dirty
            assert (
                sc.score_cache_hits, sc.topn_refreshes, sc.topn_updates_deferred
            ) == (ref.score_cache_hits, ref.topn_refreshes, ref.deferred)
            np.testing.assert_array_equal(sc.block_chip, ref.block_chip)
            # Derived from the per-chip pending counts, not the blocks.
            assert sc.total_pending == int(ref.pwb.sum() + ref.fl.sum())
            assert sc.consistency_errors(_MirrorBuffer(ref)) == []


class _MirrorBuffer:
    """Buffer stand-in holding exactly the reference scoreboard's walks."""

    def __init__(self, ref):
        self.ref = ref

    def blocks_with_walks(self):
        return np.flatnonzero(self.ref.pwb + self.ref.fl).tolist()

    def counts(self, block):
        return int(self.ref.pwb[block]), int(self.ref.fl[block])
