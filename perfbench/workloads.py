"""The benchmark's workloads.

Each workload builds its graph, its engine or service, and its inputs
(start vertices, request schedules) from the benchmark's seed, drives
the program through one public entry point (``FlashWalker.run``,
``WalkQueryService.run`` or ``ClusterService.run``), checks the output,
and reduces it to the simulated figures the metrics need.

Why these four, and why ``cluster-tt`` is not in ``BENCHMARK.json``,
is recorded in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.campaign import DEFAULT_KILLS, cluster_config, cluster_shard_config
from repro.cluster.cluster import ClusterService
from repro.common import RngRegistry
from repro.core import FlashWalker
from repro.experiments.harness import ExperimentContext
from repro.graph import dataset
from repro.service.config import ServiceConfig
from repro.service.request import QueryRequest
from repro.service.service import WalkQueryService
from repro.walks import WalkSpec

__all__ = ["WORKLOADS", "Workload", "Outcome"]

#: Seed of the dataset analogs: the graph is the dataset, fixed across
#: benchmark seeds; the seed varies starts, arrivals and engine RNG.
GRAPH_SEED = 3
#: Graph scale of the repo's quick experiments (TT: V~10k, E~356k).
QUICK = 0.5
WALK_LENGTH = 6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" | "serve" | "cluster"
    dataset: str
    #: Sizes per scale: "full" is measured, "tiny" is for the tests.
    sizes: dict = field(repr=False)


WORKLOADS = {
    w.name: w
    for w in (
        # Paper default shape: one partition, the query cache absorbs most
        # lookups, so host time sits in the per-hop kernel.
        Workload(
            "batch-tt", "batch", "TT",
            {"full": dict(size_factor=QUICK, walks=24_414),
             "tiny": dict(size_factor=0.05, walks=600)},
        ),
        # Graph larger than device DRAM: partition switches, subgraph
        # loads, foreigner walks and dense pre-walks do the work.
        Workload(
            "batch-r8b", "batch", "R8B",
            {"full": dict(size_factor=QUICK, walks=24_414),
             "tiny": dict(size_factor=0.05, walks=600)},
        ),
        # Open-loop Poisson queries feed the engine tiny batches, so
        # event-queue and front-end costs dominate.
        Workload(
            "serve-tt", "serve", "TT",
            {"full": dict(size_factor=QUICK, queries=256, walks_per_query=64,
                          rate_qps=400e3, deadline=2e-3),
             "tiny": dict(size_factor=0.05, queries=8, walks_per_query=16,
                          rate_qps=400e3, deadline=2e-3)},
        ),
        # 4-shard chaos cluster: router, barrier, epoch checkpoints,
        # failover replay, link retransmits and read retries.  Too chaotic
        # from seed to seed to gate; measured per layer only.
        Workload(
            "cluster-tt", "cluster", "TT",
            {"full": dict(size_factor=QUICK, queries=128, walks_per_query=64,
                          rate_qps=20e3, deadline=20e-3),
             "tiny": dict(size_factor=0.05, queries=12, walks_per_query=16,
                          rate_qps=20e3, deadline=20e-3)},
        ),
    )
}


def build_graph(wl: Workload, scale: str):
    size_factor = wl.sizes[scale]["size_factor"]
    rng = RngRegistry(GRAPH_SEED).fresh(f"dataset:{wl.dataset}:{size_factor}")
    return dataset(wl.dataset).build(rng, size_factor=size_factor)


def _context(wl: Workload, scale: str) -> ExperimentContext:
    # Only used for per-dataset engine configs (subgraph multiplier).
    return ExperimentContext(seed=GRAPH_SEED, size_factor=wl.sizes[scale]["size_factor"])


def make_inputs(wl: Workload, graph, seed: int, scale: str):
    """Start vertices (batch) or the request list (serve, cluster)."""
    p = wl.sizes[scale]
    rng = np.random.default_rng([seed, zlib.crc32(wl.name.encode())])
    nv = graph.num_vertices
    if wl.kind == "batch":
        return rng.integers(0, nv, size=p["walks"], dtype=np.int64)
    arrivals = np.cumsum(rng.exponential(1.0 / p["rate_qps"], size=p["queries"]))
    return [
        QueryRequest(
            query_id=i,
            arrival=float(arrivals[i]),
            num_walks=p["walks_per_query"],
            length=WALK_LENGTH,
            deadline=p["deadline"],
            starts=rng.integers(0, nv, size=p["walks_per_query"], dtype=np.int64),
        )
        for i in range(p["queries"])
    ]


def make_target(wl: Workload, graph, seed: int, scale: str):
    """A fresh engine, service or cluster: query caches start empty."""
    ctx = _context(wl, scale)
    if wl.kind == "cluster":
        ccfg = cluster_config(
            n_shards=4, kills=DEFAULT_KILLS, loss=0.05,
            walks_per_query=wl.sizes[scale]["walks_per_query"], length=WALK_LENGTH,
        )
        shard_cfg = cluster_shard_config(ctx, wl.dataset, chaos=True)
        return ClusterService(graph, shard_cfg, ccfg, seed=seed, jobs=1)
    fw = FlashWalker(graph, ctx.flashwalker_config(wl.dataset), seed=seed)
    if wl.kind == "serve":
        return WalkQueryService(
            fw, ServiceConfig(admission_policy="reject", queue_capacity=64)
        )
    return fw


def execute(wl: Workload, target, inputs):
    """The one public entry call the benchmark times."""
    if wl.kind == "batch":
        return target.run(spec=WalkSpec(length=WALK_LENGTH), starts=inputs)
    return target.run(inputs)


@dataclass
class Outcome:
    """What a run produced, reduced to simulated figures."""

    #: Operations (walks of a batch, or queries) that did not complete.
    failed: int
    errors: list[str]
    hops: int
    #: Walks of answered queries (all completed walks for a batch).
    ok_walks: int
    #: Simulated seconds the run spanned.
    sim_span: float
    #: Simulated latencies in seconds: one per answered query, or for a
    #: batch one completion time per walk (all walks start at time 0).
    latencies: np.ndarray
    #: Engine-level run reports (one per shard for the cluster).
    engine_reports: list[dict]
    #: The "service" and "cluster" report sections, when the run has them.
    service: dict | None
    cluster: dict | None
    #: Simulated report the digest is taken over.
    report: dict

    @property
    def sim_walks_per_s(self) -> float:
        return self.ok_walks / self.sim_span

    def latency(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) if self.latencies.size else 0.0

    @property
    def digest(self) -> str:
        blob = json.dumps(self.report, sort_keys=True, separators=(",", ":"), default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


def _completion_times(series) -> np.ndarray:
    """One completion time per walk from a bucketed completion series,
    spread evenly inside each bucket (the series' resolution)."""
    starts, sums = series.buckets()
    counts = np.rint(sums).astype(np.int64)
    idx = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(idx.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts[idx] + series.bucket * (rank + 0.5) / counts[idx]


def summarize(wl: Workload, out, inputs) -> Outcome:
    """Check the output and reduce it; a failed check is recorded in
    ``errors`` and makes the whole run count as failed."""
    errors: list[str] = []
    if wl.kind == "batch":
        res = out
        started = int(len(inputs))
        done = int(res.counters.get("walks_completed", 0))
        if done != started or res.total_walks != started:
            errors.append(f"completed {done} of {started} started walks")
        if res.hops > started * WALK_LENGTH:
            errors.append(f"{res.hops} hops exceed {started} walks x {WALK_LENGTH}")
        report = res.to_report()
        return Outcome(
            failed=started - min(done, started), errors=errors, hops=int(res.hops), ok_walks=done, sim_span=res.elapsed,
            latencies=_completion_times(res.metrics.progress),
            engine_reports=[report], service=None, cluster=None, report=report,
        )

    if wl.kind == "serve":
        res = out.result
        engine = res.to_report()
        svc = res.service
        responses = [
            {k: getattr(r, k) for k in ("query_id", "status", "walks_requested",
                                         "walks_completed", "finish_time", "latency",
                                         "shed_reason")}
            for r in out.responses
        ]
        report = {"engine": engine, "responses": responses}
        created = int(svc["walks"]["injected"])
        done = int(res.counters.get("walks_completed", 0))
        if created != done:
            errors.append(f"service created {created} walks, engine finished {done}")
        if svc["audit"]["violations"]:
            errors.append(f"{svc['audit']['violations']} service audit violations")
        span = res.elapsed
        shards, cluster = [engine], None
    else:
        report = dict(out.report)
        report.pop("jobs", None)  # deployment setting, not simulated output
        svc = report["service"]
        cluster = report["cluster"]
        responses = report["responses"]
        created, done = int(svc["walks"]["created"]), int(svc["walks"]["done"])
        if created != done:
            errors.append(f"cluster created {created} walks, finished {done}")
        if cluster["audit"]["violations"]:
            errors.append(f"{cluster['audit']['violations']} cluster auditor violations")
        n_kills = len(DEFAULT_KILLS)
        if cluster["rto"]["count"] != n_kills:
            errors.append(f"rto.count {cluster['rto']['count']} != {n_kills} kills")
        if cluster["kills_unfired"]:
            errors.append(f"unfired kills {cluster['kills_unfired']}")
        span = cluster["barrier_time"] - report["t0"]
        shards = report["shards"]

    asked = sorted(r.query_id for r in inputs)
    answered = sorted(r["query_id"] for r in responses)
    if answered != asked:
        errors.append(f"{len(answered)} responses for {len(asked)} queries, "
                      "not exactly one each")
    ok = [r for r in responses if r["status"] == "ok"]
    return Outcome(
        failed=len(inputs) - len(ok), errors=errors, hops=int(sum(r["hops"] for r in shards)),
        ok_walks=sum(r["walks_completed"] for r in ok), sim_span=span,
        latencies=np.array([r["latency"] for r in ok], dtype=float),
        engine_reports=shards, service=svc, cluster=cluster, report=report,
    )
