"""Property-based tests for walk semantics and the advancement kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import RngRegistry
from repro.core import AdvanceContext, WalkBatch, advance_batch
from repro.graph import CSRGraph, partition_graph
from repro.walks import WalkSet, WalkSpec, make_sampler, reference_walks


@st.composite
def graphs_without_dead_ends(draw, max_vertices=40):
    """Random graph where every vertex has at least one out-edge."""
    n = draw(st.integers(2, max_vertices))
    extra = draw(st.integers(0, 3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    # guarantee out-degree >= 1 with a functional edge per vertex
    src = np.concatenate(
        [np.arange(n), rng.integers(0, n, size=extra)]
    ).astype(np.int64)
    dst = rng.integers(0, n, size=n + extra).astype(np.int64)
    return CSRGraph.from_edge_list(src, dst, num_vertices=n)


class TestWalkSemantics:
    @given(graphs_without_dead_ends(), st.integers(1, 8), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_reference_walks_take_full_length(self, g, length, n_walks):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, g.num_vertices, size=n_walks)
        res = reference_walks(g, starts, WalkSpec(length=length), rng)
        # No dead ends exist, so every walk takes exactly `length` hops.
        np.testing.assert_array_equal(res["hops"], np.full(n_walks, length))
        assert res["visits"].sum() == n_walks * (length + 1)

    @given(graphs_without_dead_ends(), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_every_hop_follows_an_edge(self, g, length):
        rng = np.random.default_rng(1)
        starts = np.zeros(10, dtype=np.int64)
        res = reference_walks(
            g, starts, WalkSpec(length=length), rng, record_trajectories=True
        )
        edge_set = set(zip(*[a.tolist() for a in g.to_edge_list()]))
        for row in res["trajectories"]:
            for a, b in zip(row[:-1], row[1:]):
                if a >= 0 and b >= 0:
                    assert (int(a), int(b)) in edge_set


class TestAdvanceProperties:
    @given(
        graphs_without_dead_ends(max_vertices=60),
        st.integers(1, 6),
        st.integers(1, 60),
        st.integers(0, 2**20),
    )
    @settings(max_examples=40, deadline=None)
    def test_walk_conservation(self, g, length, n_walks, seed):
        """completed + roving == input, for any loaded-block subset."""
        part = partition_graph(g, 512)
        spec = WalkSpec(length=length)
        ctx = AdvanceContext.build(g, part, spec, make_sampler(g))
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, g.num_vertices, size=n_walks)
        batch = WalkBatch.of(WalkSet.start(starts.astype(np.int64), length))
        loaded = list(range(0, part.num_blocks, 2))  # every other block
        res = advance_batch(ctx, batch, loaded, rng)
        assert res.n_completed + len(res.roving) == n_walks
        # hop budgets never go negative, roving walks have hops left
        if len(res.roving):
            assert min(res.roving.hop) >= 1
        if len(res.completed):
            assert min(res.completed.hop) >= 0

    @given(graphs_without_dead_ends(max_vertices=60), st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_all_blocks_loaded_completes_everything(self, g, seed):
        part = partition_graph(g, 512)
        if part.dense_meta:
            return  # dense landings rove by design
        spec = WalkSpec(length=4)
        ctx = AdvanceContext.build(g, part, spec, make_sampler(g))
        rng = np.random.default_rng(seed)
        batch = WalkBatch.of(WalkSet.start(np.arange(min(20, g.num_vertices)), 4))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert len(res.roving) == 0
        assert res.n_completed == len(batch)

    @given(graphs_without_dead_ends(max_vertices=40))
    @settings(max_examples=20, deadline=None)
    def test_hops_bounded(self, g):
        part = partition_graph(g, 512)
        spec = WalkSpec(length=5)
        ctx = AdvanceContext.build(g, part, spec, make_sampler(g))
        rng = np.random.default_rng(3)
        n = 30
        batch = WalkBatch.of(WalkSet.start(np.zeros(n, dtype=np.int64), 5))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert res.hops <= n * 5


class TestEngineConservation:
    @given(st.integers(0, 2**20), st.integers(50, 300))
    @settings(max_examples=8, deadline=None)
    def test_flashwalker_completes_exactly(self, seed, n_walks):
        from repro.core import FlashWalker
        from repro.graph import rmat

        g = rmat(9, 8, RngRegistry(123).fresh("g"))
        fw = FlashWalker(g, seed=seed)
        res = fw.run(num_walks=n_walks, spec=WalkSpec(length=4))
        assert int(res.counters["walks_completed"]) == n_walks
        assert res.hops <= n_walks * 4
        assert fw.in_transit == 0
