"""Tests for walk query caches and the dense-vertices table + pre-walking."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import ReproError
from repro.core import DenseVertexTable, QueryCacheArray, WalkQueryCache
from repro.graph import partition_graph, star_graph


class TestWalkQueryCache:
    def test_miss_then_hit(self):
        c = WalkQueryCache(4)
        assert not c.probe(7)
        assert c.probe(7)
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction(self):
        c = WalkQueryCache(2)
        c.probe(1)
        c.probe(2)
        c.probe(3)  # evicts 1
        assert not c.probe(1)

    def test_lru_refresh_on_hit(self):
        c = WalkQueryCache(2)
        c.probe(1)
        c.probe(2)
        c.probe(1)  # refresh 1 -> 2 is LRU
        c.probe(3)  # evicts 2
        assert c.probe(1)
        assert not c.probe(2)

    def test_batch_repeats_hit(self):
        c = WalkQueryCache(8)
        hits, misses = c.probe_batch(np.array([5, 5, 5, 6]))
        assert misses == 2  # one per unique block
        assert hits == 2    # the repeats

    def test_batch_empty(self):
        c = WalkQueryCache(8)
        assert c.probe_batch(np.array([], dtype=np.int64)) == (0, 0)

    def test_hit_rate(self):
        c = WalkQueryCache(8)
        c.probe_batch(np.array([1, 1, 1, 1]))
        assert c.hit_rate == pytest.approx(0.75)

    def test_invalidate(self):
        c = WalkQueryCache(8)
        c.probe(3)
        c.invalidate()
        assert not c.probe(3)

    def test_rejects_zero_entries(self):
        with pytest.raises(ReproError):
            WalkQueryCache(0)

    def test_batch_repeat_of_evicted_block_misses(self):
        """Regression: a repeat whose block was evicted mid-batch must
        not be credited as a hit.

        Batch [9, 5, 1, 9] against a 2-entry cache, replayed
        sequentially: 9 miss, 5 miss, 1 miss (evicts 9), 9 miss again.
        The old implementation probed unique blocks in sorted order and
        blanket-credited every repeat, reporting (1, 3) and leaving
        {5, 9} resident instead of {1, 9}.
        """
        c = WalkQueryCache(2)
        hits, misses = c.probe_batch(np.array([9, 5, 1, 9]))
        assert (hits, misses) == (0, 4)
        assert c.entries() == [1, 9]

    def test_batch_first_appearance_order(self):
        """Unique blocks are processed in first-appearance order, not
        sorted order, so eviction picks the true LRU victim."""
        c = WalkQueryCache(2)
        c.probe_batch(np.array([3, 1]))  # LRU order: 3, 1
        # 2 misses and evicts 3 (LRU); sorted-order processing would
        # probe 1 first, refreshing it only by accident of block ID.
        hits, misses = c.probe_batch(np.array([1, 2]))
        assert (hits, misses) == (1, 1)
        assert c.entries() == [1, 2]
        assert 3 not in c

    def test_batch_repeats_refresh_recency(self):
        """A repeated block's recency reflects its *last* appearance."""
        c = WalkQueryCache(2)
        hits, misses = c.probe_batch(np.array([1, 2, 1]))
        assert (hits, misses) == (1, 2)
        # 1 was touched last -> 2 is the LRU victim.
        assert c.entries() == [2, 1]
        c.probe(3)
        assert 1 in c and 2 not in c

    @pytest.mark.parametrize("n_entries", [1, 2, 3, 8])
    def test_batch_equals_sequential_probes(self, n_entries, rng):
        """probe_batch is exactly equivalent to a per-element probe()
        loop: same hit/miss totals and same final cache contents, for
        batches both under and over the cache capacity."""
        for trial in range(40):
            ids = rng.integers(0, 12, size=int(rng.integers(1, 30)))
            batched = WalkQueryCache(n_entries)
            oracle = WalkQueryCache(n_entries)
            # Shared warm-up so batches start from varied cache states.
            warm = rng.integers(0, 12, size=4)
            for b in warm:
                batched.probe(int(b))
                oracle.probe(int(b))
            hits, misses = batched.probe_batch(ids)
            o_hits = sum(oracle.probe(int(b)) for b in ids)
            assert (hits, misses) == (o_hits, ids.size - o_hits)
            assert batched.entries() == oracle.entries()
            assert batched.hits == oracle.hits
            assert batched.misses == oracle.misses


class TestQueryCacheArray:
    def test_sharding_consistent(self):
        arr = QueryCacheArray(4, 8)
        arr.probe_batch(np.array([0, 1, 2, 3]))
        hits, misses = arr.probe_batch(np.array([0, 1, 2, 3]))
        assert hits == 4 and misses == 0

    def test_totals(self):
        arr = QueryCacheArray(2, 4)
        arr.probe_batch(np.array([1, 1, 2]))
        assert arr.hits + arr.misses == 3
        assert 0 < arr.hit_rate < 1

    def test_invalidate_all(self):
        arr = QueryCacheArray(2, 4)
        arr.probe_batch(np.array([1, 2, 3]))
        arr.invalidate()
        _, misses = arr.probe_batch(np.array([1, 2, 3]))
        assert misses == 3

    def test_rejects_zero_caches(self):
        with pytest.raises(ReproError):
            QueryCacheArray(0, 4)

    def test_sharded_batch_equals_sequential(self, rng):
        """Array batch-probe matches per-element probing shard-wise."""
        for _ in range(20):
            ids = rng.integers(0, 40, size=int(rng.integers(1, 60)))
            arr = QueryCacheArray(4, 2)
            oracle = QueryCacheArray(4, 2)
            hits, misses = arr.probe_batch(ids)
            o_hits = o_misses = 0
            for b in ids:
                h, m = oracle.probe_batch(np.array([b]))
                o_hits += h
                o_misses += m
            assert (hits, misses) == (o_hits, o_misses)
            assert arr.hits == oracle.hits and arr.misses == oracle.misses


@pytest.fixture
def dense_part():
    return partition_graph(star_graph(5000), 4096)


class HashingClassify:
    """``DenseVertexTable.classify`` as it was before the table cached
    per-vertex answers: hash every query through the Bloom filter, then
    confirm the positives with a ``searchsorted`` probe."""

    def __init__(self, table):
        self.bloom, self.verts = table.bloom, table._verts
        self.bloom_queries = self.bloom_positives = 0
        self.hash_probes = self.false_positives = 0

    def classify(self, v):
        v = np.asarray(v, dtype=np.int64)
        if v.size == 0:
            return np.zeros(0, dtype=bool)
        self.bloom_queries += v.size
        maybe = np.atleast_1d(self.bloom.contains(v))
        self.bloom_positives += int(maybe.sum())
        confirmed = np.zeros(v.shape, dtype=bool)
        if maybe.any():
            cand = v[maybe]
            self.hash_probes += cand.size
            real = np.zeros(cand.shape, dtype=bool)
            if self.verts.size:
                pos = np.searchsorted(self.verts, cand)
                ok = pos < self.verts.size
                real[ok] = self.verts[pos[ok]] == cand[ok]
            self.false_positives += int((~real).sum())
            confirmed[np.flatnonzero(maybe)[real]] = True
        return confirmed


def counters(t):
    return (t.bloom_queries, t.bloom_positives, t.hash_probes, t.false_positives)


class TestDenseVertexTable:
    def test_classify_exact(self, dense_part, rng):
        t = DenseVertexTable(dense_part)
        vs = np.array([0, 1, 2, 4999])
        mask = t.classify(vs)
        np.testing.assert_array_equal(mask, [True, False, False, False])

    def test_classify_empty(self, dense_part):
        t = DenseVertexTable(dense_part)
        assert t.classify(np.zeros(0, dtype=np.int64)).size == 0

    def test_bloom_false_positives_corrected(self, dense_part, rng):
        # Undersized bloom filter: false positives happen but classify
        # stays exact because the hash table confirms.
        t = DenseVertexTable(dense_part, bits_per_item=2)
        vs = rng.integers(1, 5000, size=5000)
        mask = t.classify(vs)
        assert not mask.any()
        # probes happened for the positives (cost model visible)
        assert t.hash_probes >= t.false_positives

    @given(batches=st.lists(
        st.lists(st.one_of(st.just(0), st.integers(0, 5000)), max_size=40),
        min_size=1, max_size=6,
    ))
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_classify_matches_hashing_classify(self, dense_part, batches):
        # 2 bits per item: the filter answers yes for some sparse vertices.
        t = DenseVertexTable(dense_part, bits_per_item=2)
        ref = HashingClassify(t)
        for batch in batches:
            v = np.asarray(batch, dtype=np.int64)
            np.testing.assert_array_equal(t.classify(v), ref.classify(v))
            assert counters(t) == counters(ref)

    def test_all_vertices_match_hashing_classify(self, dense_part):
        t = DenseVertexTable(dense_part, bits_per_item=2)
        ref = HashingClassify(t)
        v = np.arange(dense_part.graph.num_vertices)
        np.testing.assert_array_equal(t.classify(v), ref.classify(v))
        assert counters(t) == counters(ref)
        assert t.false_positives > 0

    def test_classify_rejects_vertex_outside_graph(self, dense_part):
        t = DenseVertexTable(dense_part)
        with pytest.raises(ReproError):
            t.bloom.contains(np.array([3, -1]))
        for bad in (-1, dense_part.graph.num_vertices):
            with pytest.raises(ReproError):
                t.classify(np.array([3, bad]))
        assert counters(t) == (0, 0, 0, 0)

    def test_no_dense_vertices(self, small_graph):
        part = partition_graph(small_graph, 1 << 16)
        assert part.num_dense_vertices == 0
        t = DenseVertexTable(part)
        assert not t.classify(np.arange(10)).any()

    def test_pre_walk_uniformity(self, dense_part, rng):
        """Pre-walk block choice + in-block offset == one uniform draw."""
        t = DenseVertexTable(dense_part)
        meta = dense_part.dense_meta[0]
        n = 60_000
        pw = t.pre_walk(np.zeros(n, dtype=np.int64), rng)
        # Reconstruct the global edge index.
        global_edge = (
            pw.edge_offset
            + (pw.block - meta.first_block) * meta.edges_per_block
        )
        assert global_edge.min() >= 0
        assert global_edge.max() < meta.out_degree
        # Chi-square-ish check: each decile of edges drawn ~ n/10 times.
        deciles = np.clip(global_edge * 10 // meta.out_degree, 0, 9)
        counts = np.bincount(deciles, minlength=10)
        assert counts.min() > n / 10 * 0.9
        assert counts.max() < n / 10 * 1.1

    def test_pre_walk_block_bounds(self, dense_part, rng):
        t = DenseVertexTable(dense_part)
        meta = dense_part.dense_meta[0]
        pw = t.pre_walk(np.zeros(1000, dtype=np.int64), rng)
        assert pw.block.min() >= meta.first_block
        assert pw.block.max() < meta.first_block + meta.n_blocks
        assert (pw.edge_offset < meta.edges_per_block).all()

    def test_pre_walk_rejects_non_dense(self, dense_part, rng):
        t = DenseVertexTable(dense_part)
        with pytest.raises(ReproError):
            t.pre_walk(np.array([1]), rng)

    def test_pre_walk_empty(self, dense_part, rng):
        t = DenseVertexTable(dense_part)
        pw = t.pre_walk(np.zeros(0, dtype=np.int64), rng)
        assert pw.block.size == 0

    def test_measured_fpr_reported(self, dense_part, rng):
        t = DenseVertexTable(dense_part, bits_per_item=2)
        t.classify(rng.integers(1, 5000, size=2000))
        assert 0.0 <= t.measured_fpr <= 1.0


class TestListForms:
    """The per-walk board pass hands these calls lists: each answers with
    a list equal to its array answer, with the same counters and draws."""

    @given(batches=st.lists(
        st.lists(st.one_of(st.just(0), st.integers(0, 4999)), max_size=40),
        min_size=1, max_size=6,
    ))
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_classify_list_matches_array(self, dense_part, batches):
        a = DenseVertexTable(dense_part, bits_per_item=2)
        b = DenseVertexTable(dense_part, bits_per_item=2)
        for batch in batches:
            got = a.classify(list(batch))
            assert isinstance(got, list)
            assert got == b.classify(np.asarray(batch, dtype=np.int64)).tolist()
            assert counters(a) == counters(b)

    def test_classify_list_rejects_vertex_outside_graph(self, dense_part):
        t = DenseVertexTable(dense_part)
        for bad in (-1, dense_part.graph.num_vertices):
            with pytest.raises(ReproError):
                t.classify([3, bad])
        assert counters(t) == (0, 0, 0, 0)

    def test_pre_walk_list_matches_array(self):
        from repro.graph import powerlaw_graph

        g = powerlaw_graph(2000, 60_000, np.random.default_rng(5), exponent=0.9)
        part = partition_graph(g, 4096)
        assert len(part.dense_meta) > 1
        t = DenseVertexTable(part)
        dense = sorted(part.dense_meta)
        gen = np.random.default_rng(1)
        for n in (0, 1, 7, 50):
            v = gen.choice(dense, size=n).tolist()
            rng_a, rng_b = np.random.default_rng(n), np.random.default_rng(n)
            got = t.pre_walk(v, rng_a)
            want = t.pre_walk(np.asarray(v, dtype=np.int64), rng_b)
            assert got.block == want.block.tolist()
            assert got.edge_offset == want.edge_offset.tolist()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_pre_walk_list_rejects_non_dense_before_drawing(self, dense_part):
        t = DenseVertexTable(dense_part)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ReproError):
            t.pre_walk([0, 1], rng)
        assert rng.bit_generator.state == before

    def test_probe_batch_list_matches_array(self, rng):
        a, b = QueryCacheArray(4, 3), QueryCacheArray(4, 3)
        for _ in range(20):
            ids = rng.integers(0, 30, size=int(rng.integers(0, 12)))
            assert a.probe_batch(ids.tolist()) == b.probe_batch(ids)
        assert [c.entries() for c in a.caches] == [c.entries() for c in b.caches]
