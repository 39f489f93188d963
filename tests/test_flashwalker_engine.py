"""Integration tests for the FlashWalker engine."""

import numpy as np
import pytest

from repro.common import FlashWalkerConfig, RngRegistry, SimulationError, WalkError
from repro.core import FlashWalker
from repro.graph import powerlaw_graph, ring_graph, rmat, star_graph
from repro.graph.generators import add_random_weights
from repro.walks import WalkSet, WalkSpec


@pytest.fixture(scope="module")
def medium_graph():
    return rmat(11, 8, RngRegistry(77).fresh("g"))  # 2048 verts, 16k edges


@pytest.fixture(scope="module")
def medium_run(medium_graph):
    fw = FlashWalker(medium_graph, seed=9)
    res = fw.run(num_walks=3000, spec=WalkSpec(length=6))
    return fw, res


class TestCompletion:
    def test_all_walks_complete(self, medium_run):
        fw, res = medium_run
        assert res.total_walks == 3000
        assert int(res.counters["walks_completed"]) == 3000
        assert fw.completed_walks == 3000

    def test_elapsed_positive_and_bounded(self, medium_run):
        _, res = medium_run
        assert 0 < res.elapsed < 1.0  # simulated seconds

    def test_hop_count_bounded_by_length(self, medium_run):
        _, res = medium_run
        assert 0 < res.hops <= 3000 * 6

    def test_in_transit_drained(self, medium_run):
        fw, _ = medium_run
        assert fw.in_transit == 0
        assert fw.foreign.total == 0
        assert fw.scheduler.total_pending == 0

    def test_traffic_recorded(self, medium_run):
        _, res = medium_run
        assert res.flash_read_bytes > 0
        assert res.channel_bytes > 0
        assert res.flash_read_bandwidth > 0

    def test_progress_sums_to_total(self, medium_run):
        _, res = medium_run
        assert res.metrics.progress.total == 3000


class TestDeterminism:
    def test_same_seed_same_result(self, medium_graph):
        r1 = FlashWalker(medium_graph, seed=4).run(num_walks=500)
        r2 = FlashWalker(medium_graph, seed=4).run(num_walks=500)
        assert r1.elapsed == r2.elapsed
        assert r1.flash_read_bytes == r2.flash_read_bytes
        assert r1.hops == r2.hops

    def test_different_seed_differs(self, medium_graph):
        r1 = FlashWalker(medium_graph, seed=4).run(num_walks=500)
        r2 = FlashWalker(medium_graph, seed=5).run(num_walks=500)
        assert r1.hops != r2.hops or r1.elapsed != r2.elapsed


class TestWorkloads:
    def test_explicit_starts(self, medium_graph):
        fw = FlashWalker(medium_graph, seed=1)
        starts = np.arange(100, dtype=np.int64)
        res = fw.run(starts=starts, spec=WalkSpec(length=3))
        assert res.total_walks == 100

    def test_stop_probability(self, medium_graph):
        fw = FlashWalker(medium_graph, seed=1)
        res = fw.run(num_walks=800, spec=WalkSpec(length=30, stop_probability=0.5))
        assert res.hops < 800 * 10  # geometric termination

    def test_biased_walks(self, medium_graph):
        g = add_random_weights(medium_graph, RngRegistry(3).fresh("w"))
        fw = FlashWalker(g, seed=1)
        res = fw.run(num_walks=500, spec=WalkSpec(length=4, biased=True))
        assert int(res.counters["walks_completed"]) == 500

    def test_rejects_no_walks(self, medium_graph):
        with pytest.raises(SimulationError):
            FlashWalker(medium_graph, seed=1).run()

    def test_rejects_empty_starts(self, medium_graph):
        with pytest.raises(SimulationError):
            FlashWalker(medium_graph, seed=1).run(starts=np.array([], dtype=int))

    def test_rerun_same_instance(self, medium_graph):
        fw = FlashWalker(medium_graph, seed=1)
        r1 = fw.run(num_walks=200)
        r2 = fw.run(num_walks=200)
        assert r1.total_walks == r2.total_walks == 200


class TestVisitSemantics:
    def test_ring_walks_march_forward(self):
        g = ring_graph(3000)
        fw = FlashWalker(g, seed=2)
        starts = np.zeros(50, dtype=np.int64)
        res = fw.run(starts=starts, spec=WalkSpec(length=5))
        # Ring walks are deterministic: every hop advances by one.
        assert res.hops == 250

    def test_visit_distribution_matches_reference(self):
        """Engine and reference walker agree statistically (hub share)."""
        g = powerlaw_graph(800, 16000, RngRegistry(11).fresh("g"), exponent=0.8)
        in_deg = g.in_degrees()
        hubs = np.argsort(in_deg)[-20:]
        fw = FlashWalker(g, seed=3)
        n = 4000
        res = fw.run(num_walks=n, spec=WalkSpec(length=1))
        # With length-1 walks, final positions are one uniform-neighbor
        # hop from a uniform start; hub share should approximate the
        # in-degree share of hubs among all edges.
        from repro.walks import reference_walks, start_vertices

        rng = RngRegistry(3).fresh("ref")
        starts = start_vertices(g, n, rng)
        ref = reference_walks(g, starts, WalkSpec(length=1), rng)
        ref_share = np.isin(ref["final"], hubs).mean()
        # The engine doesn't expose finals; compare the structural
        # expectation instead: hub in-degree share.
        edge_share = in_deg[hubs].sum() / g.num_edges
        assert abs(ref_share - edge_share) < 0.1


class TestDenseHandling:
    def test_star_graph_runs(self):
        g = star_graph(8000)  # one huge dense hub
        fw = FlashWalker(g, seed=6)
        res = fw.run(num_walks=400, spec=WalkSpec(length=4))
        assert int(res.counters["walks_completed"]) == 400
        # Hub is a hot dense vertex: pre-walks resolve at the board.
        assert res.counters["hot_subgraph_hits_board"] > 0

    def test_pre_walk_counted_when_hub_not_hot(self):
        g = star_graph(8000)
        cfg = FlashWalkerConfig().replace(board_hot_dense_vertices=0)
        fw = FlashWalker(g, cfg, seed=6)
        res = fw.run(num_walks=200, spec=WalkSpec(length=4))
        assert res.counters["pre_walks"] > 0
        assert int(res.counters["walks_completed"]) == 200


class TestPartitions:
    def test_multi_partition_execution(self):
        g = rmat(12, 8, RngRegistry(5).fresh("g"))  # ~40 blocks
        cfg = FlashWalkerConfig().replace(partition_subgraphs=8)
        fw = FlashWalker(g, cfg, seed=8)
        assert fw.n_partitions > 2
        res = fw.run(num_walks=1500, spec=WalkSpec(length=5))
        assert int(res.counters["walks_completed"]) == 1500
        assert res.counters["partition_switches"] > 0
        assert res.counters["foreigner_walks"] > 0

    def test_single_partition_no_foreigners(self, medium_run):
        fw, res = medium_run
        if fw.n_partitions == 1:
            assert res.counters.get("foreigner_walks", 0) == 0


class TestOptimizationToggles:
    @pytest.fixture(scope="class")
    def toggle_results(self):
        # A graph with enough blocks that hot subgraphs stay a small
        # fraction (the regime the paper's Fig. 9 operates in).
        g = rmat(13, 16, RngRegistry(21).fresh("g"))
        out = {}
        for label, (wq, hs, ss) in {
            "none": (False, False, False),
            "all": (True, True, True),
        }.items():
            cfg = FlashWalkerConfig().replace(
                board_hot_subgraphs=8, channel_hot_subgraphs=1
            ).with_optimizations(wq=wq, hs=hs, ss=ss)
            fw = FlashWalker(g, cfg, seed=12)
            out[label] = fw.run(num_walks=8000, spec=WalkSpec(length=6))
        return out

    def test_all_opts_not_slower(self, toggle_results):
        assert toggle_results["all"].elapsed <= toggle_results["none"].elapsed * 1.15

    def test_cache_only_active_with_wq(self, toggle_results):
        assert toggle_results["none"].counters["query_cache_hits"] == 0
        assert toggle_results["all"].counters["query_cache_hits"] > 0

    def test_hot_hits_only_with_hs(self, medium_graph):
        cfg = FlashWalkerConfig().with_optimizations(wq=True, hs=False, ss=True)
        fw = FlashWalker(medium_graph, cfg, seed=12)
        res = fw.run(num_walks=500)
        assert res.counters["hot_subgraph_hits_channel"] == 0


class TestBandwidthSeries:
    def test_series_shapes(self, medium_run):
        _, res = medium_run
        series = res.bandwidth_series(rebins=20)
        for name in ("flash_read", "flash_write", "channel", "progress"):
            t, v = series[name]
            assert t.shape == v.shape
        # progression ends at ~100%
        _, frac = series["progress"]
        assert frac[-1] == pytest.approx(1.0, abs=1e-9)

    def test_read_bandwidth_below_theoretical_max(self, medium_run):
        fw, res = medium_run
        t, bw = res.bandwidth_series(rebins=20)["flash_read"]
        assert bw.max() <= fw.cfg.ssd.aggregate_flash_read_bytes_per_sec * 1.01


class TestBoundaryValidation:
    """Walks are checked where they enter the engine, before anything is
    scheduled; its internal paths trust them from then on."""

    @pytest.mark.parametrize("bad", [-1, 2048])
    def test_run_rejects_out_of_range_start(self, medium_graph, bad):
        fw = FlashWalker(medium_graph, seed=1)
        with pytest.raises(WalkError):
            fw.run(spec=WalkSpec(length=4), starts=np.array([0, bad, 5]))
        assert fw.sim.pending_events == 0

    @pytest.mark.parametrize(
        "cur, hop",
        [
            ([0, -1], [4, 4]),  # position below the graph
            ([0, 2048], [4, 4]),  # position past the last vertex
            ([0, 1], [4, -1]),  # negative hops
            ([0, 1], [4, 0]),  # nothing left to walk
            ([0, 1], [4, 5]),  # longer than the session's spec
        ],
    )
    def test_inject_rejects_bad_walks(self, medium_graph, cur, hop):
        fw = FlashWalker(medium_graph, seed=1)
        fw.start_session(WalkSpec(length=4), expected_walks=8)
        pending = fw.sim.pending_events
        # trusted(): the public constructor would already refuse the
        # negative hop; inject_walks must not rely on that.
        walks = WalkSet.trusted(
            np.array([7, 8]), np.array(cur, dtype=np.int64), np.array(hop, dtype=np.int64)
        )
        with pytest.raises(WalkError):
            fw.inject_walks(walks)
        assert fw.sim.pending_events == pending
        assert fw.total_walks == 0


class TestBoardPathGolden:
    """A board-heavy run must replay its recorded report and finals.

    The benchmark workloads rarely pre-walk and never resolve a walk at
    a hot dense vertex under a stop probability.  This run does all of
    it: a symmetric power-law graph puts walks on dense vertices often,
    a third of the starts sit on dense vertices, two of them are
    board-hot, five partitions make foreigners (plain and pre-walked),
    and ``stop_probability`` draws on the board stream.  Both the
    vectorized board pass (the start batch) and the per-walk one (small
    collected batches) run.  The finals digest pins completion order.
    """

    REPORT_SHA = "86a9dbbb209fa82c083768383a87c372ffb21167e3ca761ca72c33badb721393"
    FINALS_SHA = "ffacc6f73ffbacd25dd552a135257d78abcb10c0a743be89982c6356480d5e3e"

    def test_report_and_finals_match_golden(self):
        import hashlib
        import json

        from repro.graph import CSRGraph

        g0 = powerlaw_graph(2000, 30_000, np.random.default_rng(3), exponent=0.9)
        src, dst = g0.to_edge_list()
        graph = CSRGraph.from_edge_list(
            np.concatenate([src, dst]), np.concatenate([dst, src]), num_vertices=2000
        )
        cfg = FlashWalkerConfig().replace(
            partition_subgraphs=16,
            board_hot_subgraphs=2,
            channel_hot_subgraphs=1,
            board_hot_dense_vertices=2,
        )
        fw = FlashWalker(graph, cfg, seed=11)
        assert fw.n_partitions > 1 and fw._hot_dense_verts.size == 2
        gen = np.random.default_rng(8)
        dense = np.array(sorted(fw.part.dense_meta))
        starts = np.concatenate(
            [gen.integers(0, graph.num_vertices, 2000), gen.choice(dense, 1000)]
        )
        gen.shuffle(starts)
        res = fw.run(
            starts=starts,
            spec=WalkSpec(length=8, stop_probability=0.3),
            record_finals=True,
        )
        c = res.counters
        assert c["pre_walks"] > 0 and c["foreigner_walks"] > 0
        assert c["finals_recorded"] == 3000
        blob = json.dumps(res.to_report(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == self.REPORT_SHA
        h = hashlib.sha256()
        for field in (res.finals.src, res.finals.cur, res.finals.hop):
            h.update(np.ascontiguousarray(field, dtype=np.int64).tobytes())
        assert h.hexdigest() == self.FINALS_SHA


class TestBoardPassesAgree:
    """The per-walk board pass is a host-time twin of the vectorized one.

    Two engines get the same small batches; one runs every board pass
    (and channel hot-block test) vectorized.  After each batch and each
    stretch of simulated time, every piece of state either pass touches
    must be equal, down to the RNG streams.
    """

    CFG = FlashWalkerConfig().replace(
        partition_subgraphs=16,
        board_hot_subgraphs=2,
        channel_hot_subgraphs=1,
        board_hot_dense_vertices=2,
    )

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graph import CSRGraph

        g0 = powerlaw_graph(2000, 30_000, np.random.default_rng(3), exponent=0.9)
        src, dst = g0.to_edge_list()
        return CSRGraph.from_edge_list(
            np.concatenate([src, dst]), np.concatenate([dst, src]), num_vertices=2000
        )

    @staticmethod
    def state(fw, log):
        sc = fw.scheduler
        caches = fw.board.caches.caches if fw.board.caches is not None else []
        return {
            "pwb": {
                b: tuple(
                    x.tolist() if isinstance(x, np.ndarray) else x for x in e.state()
                )
                for b, e in sorted(fw.pwb._entries.items())
            },
            "sched": (
                sc.walk_counts()[0].tolist(),
                sc.walk_counts()[1].tolist(),
                sc.consistency_errors(fw.pwb),
            ),
            "foreign": [
                [(w.src.tolist(), w.cur.tolist(), w.hop.tolist()) for w in pool]
                for pool in fw.foreign._pools
            ],
            "dense": (
                fw.dense_table.bloom_queries,
                fw.dense_table.bloom_positives,
                fw.dense_table.false_positives,
                fw.dense_table.hash_probes,
            ),
            "mapping": (fw.mapping.lookups, fw.mapping.search_steps_total),
            "caches": [(c.entries(), c.hits, c.misses) for c in caches],
            "metrics": {
                n: (c.total, c.events) for n, c in fw.metrics.stats.counters.items()
            },
            "pipe": list(fw._board_pipe._free_at),
            "walks": (fw.total_walks, fw.completed_walks, fw.in_transit),
            "completed": list(log),
            "rng": {n: g.bit_generator.state for n, g in fw.rngs._streams.items()},
        }

    @staticmethod
    def batches(fw, graph, gen, n_batches):
        """Small batches mixing uniform starts, dense and hot-dense
        vertices, and vertices of board-hot blocks."""
        from repro.core.advance import PER_WALK_CROSSOVER

        part = fw.part
        dense = np.array(sorted(part.dense_meta))
        hot_dense = fw._hot_dense_verts
        hot = np.concatenate([
            np.arange(part.block_lo[b], part.block_hi[b] + 1)
            for b in fw.board.hot_blocks
        ])
        pools = [np.arange(graph.num_vertices), dense, hot_dense, hot]
        next_id = 0
        for _ in range(n_batches):
            n = int(gen.integers(1, PER_WALK_CROSSOVER))
            kind = gen.integers(0, len(pools), size=n)
            cur = [int(gen.choice(pools[k])) for k in kind.tolist()]
            hop = gen.integers(1, 9, size=n).tolist()
            yield list(range(next_id, next_id + n)), cur, hop
            next_id += n

    @pytest.mark.parametrize("scoped", [False, True])
    @pytest.mark.parametrize("stop_probability", [0.0, 0.3])
    def test_same_state_calls_and_draws(
        self, graph, stop_probability, scoped, monkeypatch
    ):
        import repro.core.flashwalker as engine_module
        from repro.core import WalkBatch

        spec = WalkSpec(length=8, stop_probability=stop_probability)
        engines = [FlashWalker(graph, self.CFG, seed=3) for _ in range(2)]
        logs = [[], []]
        for fw, log in zip(engines, logs):
            fw.start_session(spec, expected_walks=2000)
            fw._on_completed = lambda t, w, log=log: log.append(
                (t, list(w.src), list(w.cur), list(w.hop))
            )

        def on_both(action):
            for i, fw in enumerate(engines):
                with monkeypatch.context() as mp:
                    if i:
                        mp.setattr(engine_module, "PER_WALK_CROSSOVER", 0)
                    action(fw)
            assert self.state(engines[0], logs[0]) == self.state(engines[1], logs[1])

        gen = np.random.default_rng([7, int(scoped), int(stop_probability * 10)])
        for _ in range(6):
            for src, cur, hop in self.batches(engines[0], graph, gen, 3):
                def board(fw, src=src, cur=cur, hop=hop):
                    fw.total_walks += len(src)
                    fw.in_transit += len(src)
                    fw._board_direct(
                        WalkBatch(list(src), list(cur), list(hop)), scoped=scoped
                    )

                on_both(board)
            on_both(lambda fw: fw.sim.run(until=fw.sim.now + 5e-6))
        on_both(lambda fw: fw.sim.run())
        reports = [fw._finalize_run().to_report() for fw in engines]
        assert reports[0] == reports[1]
        assert reports[0]["counters"]["pre_walks"] > 0
        assert reports[0]["counters"]["foreigner_walks"] > 0
        assert reports[0]["counters"]["hot_subgraph_hits_board"] > 0
