"""Tests for the walk-advancement kernels."""

import numpy as np
import pytest

from repro.common import ReproError
from repro.core import AdvanceContext, WalkBatch, advance_batch
from repro.core.advance import (
    PER_WALK_CROSSOVER,
    advance_per_walk,
    advance_vectorized,
)
from repro.graph import (
    CSRGraph,
    partition_graph,
    path_graph,
    powerlaw_graph,
    ring_graph,
    star_graph,
)
from repro.walks import WalkSet, WalkSpec, make_sampler


def make_ctx(graph, subgraph_bytes=4096, spec=None):
    part = partition_graph(graph, subgraph_bytes)
    spec = spec or WalkSpec(length=6)
    return AdvanceContext.build(graph, part, spec, make_sampler(graph)), part


class TestTermination:
    def test_all_complete_when_everything_loaded(self, rng):
        g = ring_graph(64)
        ctx, part = make_ctx(g)
        batch = WalkBatch.of(WalkSet.start(np.arange(10), 4))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert res.n_completed == 10
        assert len(res.roving) == 0
        assert res.hops == 40
        # each walk advanced 4 hops around the ring
        np.testing.assert_array_equal(res.completed.hop, np.zeros(10))

    def test_dead_ends_complete_early(self, rng):
        g = path_graph(4)
        ctx, part = make_ctx(g)
        batch = WalkBatch.of(WalkSet.start(np.array([0, 3]), 10))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert res.n_completed == 2
        # walk from 0 ends at 3 (3 hops); walk from 3 is an instant dead end
        finals = dict(zip(res.completed.src, res.completed.cur))
        assert finals[0] == 3
        assert finals[3] == 3

    def test_stop_probability_terminates(self, rng):
        g = ring_graph(64)
        spec = WalkSpec(length=50, stop_probability=0.5)
        ctx, part = make_ctx(g, spec=spec)
        batch = WalkBatch.of(WalkSet.start(np.zeros(500, dtype=np.int64), 50))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert res.n_completed == 500
        hops_taken = 50 - np.array(res.completed.hop)
        assert hops_taken.mean() < 5  # geometric with p=.5 -> mean ~2

    def test_empty_batch(self, rng):
        g = ring_graph(8)
        ctx, part = make_ctx(g)
        res = advance_batch(ctx, WalkBatch.empty(), [0], rng)
        assert res.hops == 0
        assert res.n_completed == 0


class TestRoving:
    def test_walks_leave_unloaded_region(self, rng):
        g = ring_graph(4000)  # spans multiple 4 KB blocks
        ctx, part = make_ctx(g)
        assert part.num_blocks >= 2
        batch = WalkBatch.of(WalkSet.start(np.zeros(5, dtype=np.int64), 4000))
        res = advance_batch(ctx, batch, [0], rng)
        # Ring walks march off block 0's end and rove.
        assert len(res.roving) == 5
        assert res.n_completed == 0
        first_foreign = part.block_hi[0] + 1
        np.testing.assert_array_equal(res.roving.cur, np.full(5, first_foreign))
        # Hops consumed so far are recorded in the walk state.
        assert max(res.roving.hop) < 4000

    def test_walk_accounting_exact(self, rng, skewed_graph):
        ctx, part = make_ctx(skewed_graph)
        n = 300
        batch = WalkBatch.of(WalkSet.start(np.arange(n), 6))
        loaded = list(range(0, part.num_blocks, 3))
        res = advance_batch(ctx, batch, loaded, rng)
        assert res.n_completed + len(res.roving) == n

    def test_guide_ops_scale_with_loaded(self, rng, skewed_graph):
        ctx, part = make_ctx(skewed_graph)
        batch1 = WalkBatch.of(WalkSet.start(np.arange(100), 6))
        batch2 = WalkBatch.of(WalkSet.start(np.arange(100), 6))
        few = advance_batch(ctx, batch1, [0], rng)
        many = advance_batch(ctx, batch2, list(range(8)), rng)
        assert many.guide_ops >= few.guide_ops

    def test_dense_landing_roves(self, rng):
        # Star hub is dense: walks arriving at the hub must rove for
        # pre-walking even if hub slices are loaded.
        g = star_graph(5000)
        ctx, part = make_ctx(g)
        leaf_block = part.block_of_vertex(1)
        batch = WalkBatch.of(WalkSet.start(np.array([1, 2, 3]), 6))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        # all walks moved leaf -> hub and stopped there as roving
        assert len(res.roving) == 3
        np.testing.assert_array_equal(res.roving.cur, np.zeros(3))


class TestPreWalkedResolution:
    def test_pre_edge_resolved(self, rng):
        g = star_graph(5000)
        ctx, part = make_ctx(g)
        meta = part.dense_meta[0]
        # Walk at the hub, pre-walked to edge index 42 -> leaf 43.
        ws = WalkSet(np.array([0]), np.array([0]), np.array([3]))
        batch = WalkBatch.of(ws, np.array([42]))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        # The hop resolves to leaf 43 (neighbors are 1..5000 in order),
        # then the walk continues leaf -> hub -> roves (hub is dense).
        assert res.hops >= 1

    def test_pre_edge_first_hop_deterministic(self, rng):
        g = star_graph(3000)
        ctx, part = make_ctx(g)
        ws = WalkSet(np.array([0]), np.array([0]), np.array([1]))
        batch = WalkBatch.of(ws, np.array([7]))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert res.n_completed == 1
        assert res.completed.cur[0] == g.neighbors(0)[7]

    def test_bad_pre_edge_rejected(self, rng):
        g = star_graph(3000)
        ctx, part = make_ctx(g)
        ws = WalkSet(np.array([0]), np.array([0]), np.array([1]))
        batch = WalkBatch.of(ws, np.array([10**9]))
        with pytest.raises(ReproError):
            advance_batch(ctx, batch, list(range(part.num_blocks)), rng)


class TestBiased:
    def test_bias_steps_counted(self, rng, small_graph):
        from repro.graph import add_random_weights

        g = add_random_weights(small_graph, rng)
        part = partition_graph(g, 4096)
        spec = WalkSpec(length=4, biased=True)
        ctx = AdvanceContext.build(g, part, spec, make_sampler(g))
        batch = WalkBatch.of(WalkSet.start(np.arange(50), 4))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert res.bias_steps > 0

    def test_unbiased_has_no_bias_steps(self, rng, small_graph):
        ctx, part = make_ctx(small_graph)
        batch = WalkBatch.of(WalkSet.start(np.arange(50), 4))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert res.bias_steps == 0


class TestKernelsAgree:
    """The per-walk kernel is a host-time twin of the vectorized one:
    same walks out in the same order, same counts, same RNG draws."""

    @pytest.fixture(scope="class")
    def graph(self):
        # Power-law graph with dense vertices under 4 KB blocks, plus
        # every 7th vertex stripped of its out-edges (dead ends).
        g = powerlaw_graph(2000, 60_000, np.random.default_rng(5), exponent=0.9)
        src, dst = g.to_edge_list()
        keep = src % 7 != 3
        return CSRGraph.from_edge_list(src[keep], dst[keep], num_vertices=2000)

    @staticmethod
    def random_batch(g, part, rng, n, length):
        cur = rng.integers(0, g.num_vertices, size=n)
        dense = np.fromiter(part.dense_meta, dtype=np.int64)
        at_dense = rng.random(n) < 0.3
        cur[at_dense] = rng.choice(dense, size=int(at_dense.sum()))
        hop = rng.integers(1, length + 1, size=n)
        walks = WalkSet(rng.integers(0, 10**6, size=n), cur, hop)
        # Pre-walked edges for about half the walks at dense vertices.
        pre = np.full(n, -1, dtype=np.int64)
        degs = g.out_degree(cur)
        pick = at_dense & (rng.random(n) < 0.5)
        pre[pick] = (rng.random(int(pick.sum())) * degs[pick]).astype(np.int64)
        return WalkBatch.of(walks, pre if pick.any() else None)

    @pytest.mark.parametrize("stop_probability", [0.0, 0.3])
    @pytest.mark.parametrize("case", range(12))
    def test_same_walks_counts_and_draws(self, graph, case, stop_probability):
        part = partition_graph(graph, 4096)
        assert part.dense_meta and (graph.out_degrees() == 0).any()
        spec = WalkSpec(length=8, stop_probability=stop_probability)
        ctx = AdvanceContext.build(graph, part, spec, make_sampler(graph))
        assert ctx.uniform
        gen = np.random.default_rng([case, int(stop_probability * 10)])
        for n in gen.integers(1, 2 * PER_WALK_CROSSOVER + 1, size=6).tolist():
            batch = self.random_batch(graph, part, gen, n, spec.length)
            n_loaded = int(gen.integers(1, part.num_blocks + 1))
            loaded = gen.choice(part.num_blocks, size=n_loaded, replace=False)
            seed = int(gen.integers(2**32))
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            a = advance_per_walk(ctx, batch, loaded, rng_a)
            b = advance_vectorized(ctx, batch, loaded, rng_b)
            for got, want in ((a.completed, b.completed), (a.roving, b.roving)):
                for field in ("src", "cur", "hop"):
                    assert getattr(got, field) == getattr(want, field)
                    assert all(type(x) is int for x in getattr(got, field))
                    assert all(type(x) is int for x in getattr(want, field))
                assert got.pre_edge is None and want.pre_edge is None
            assert (a.hops, a.guide_ops, a.bias_steps) == (
                b.hops,
                b.guide_ops,
                b.bias_steps,
            )
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_bad_pre_edge_rejected_before_any_draw(self, graph):
        part = partition_graph(graph, 4096)
        ctx = AdvanceContext.build(graph, part, WalkSpec(length=4), make_sampler(graph))
        v = int(next(iter(part.dense_meta)))
        walks = WalkSet(np.array([0, 1]), np.array([5, v]), np.array([4, 4]))
        batch = WalkBatch.of(walks, np.array([-1, graph.out_degree(v)]))
        for kernel in (advance_per_walk, advance_vectorized):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            with pytest.raises(ReproError):
                kernel(ctx, batch, list(range(part.num_blocks)), rng)
            assert rng.bit_generator.state == before

    def test_weighted_graphs_stay_vectorized(self, rng, small_graph):
        """The alias sampler draws twice per walk, so small batches on a
        weighted graph must not take the uniform per-walk kernel."""
        from repro.graph import add_random_weights

        g = add_random_weights(small_graph, rng)
        part = partition_graph(g, 4096)
        ctx = AdvanceContext.build(g, part, WalkSpec(length=4), make_sampler(g))
        assert not ctx.uniform
        batch = WalkBatch.of(WalkSet.start(np.arange(8), 4))
        loaded = list(range(part.num_blocks))
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        a = advance_batch(ctx, batch, loaded, rng_a)
        b = advance_vectorized(ctx, batch, loaded, rng_b)
        np.testing.assert_array_equal(a.completed.cur, b.completed.cur)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
