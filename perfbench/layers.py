"""Per-layer metrics: which calls are timed, and what they add up to.

Layers are named after the repo's modules.  Host self times come from
the spans of a traced run (``spans.py``); counts of simulated work come
from the run's reports, which a traced run reproduces exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TARGETS", "PER_LAYER", "layer_metrics"]


def _n1(args):
    return len(args[1])


def _n2(args):
    return len(args[2])


#: (module, attribute, span name, size_of).  Span names are
#: ``<layer>.<part>``; the layer is the prefix before the first dot.
TARGETS = [
    # repro.sim: event-queue overhead around the callbacks.
    ("repro.sim.engine", "Simulator.run", "sim.run", None),
    ("repro.sim.engine", "Simulator.step", "sim.step", None),
    ("repro.sim.engine", "Simulator.at", "sim.at", None),
    ("repro.sim.engine", "Simulator.after", "sim.at", None),
    # repro.walks: walk containers and the sampling kernel.
    ("repro.walks.state", "WalkSet.__init__", "walks.walkset", None),
    ("repro.walks.state", "WalkSet.start", "walks.walkset_op", None),
    ("repro.walks.state", "WalkSet.empty", "walks.walkset_op", None),
    ("repro.walks.state", "WalkSet.concat", "walks.walkset_op", None),
    ("repro.walks.state", "WalkSet.select", "walks.walkset_op", None),
    ("repro.walks.state", "WalkSet.split", "walks.walkset_op", None),
    ("repro.walks.state", "WalkSet.copy", "walks.walkset_op", None),
    ("repro.walks.sampling", "uniform_next", "walks.sample", _n1),
    ("repro.walks.sampling", "AliasSampler.next_vertices", "walks.sample", _n1),
    # repro.core.advance: the per-hop kernel every walk type shares.
    ("repro.core.advance", "advance_batch", "advance.batch", _n1),
    # repro.core.query_cache and repro.core.mapping.
    ("repro.core.query_cache", "QueryCacheArray.probe_batch", "query_cache.probe", None),
    ("repro.core.query_cache", "WalkQueryCache.probe_batch", "query_cache.probe", None),
    ("repro.core.query_cache", "WalkQueryCache.probe", "query_cache.probe", None),
    ("repro.core.mapping", "SubgraphMappingTable.lookup", "mapping.lookup", _n1),
    ("repro.core.mapping", "SubgraphMappingTable.contains_vertices", "mapping.lookup", _n1),
    ("repro.core.mapping", "RangeTable.query", "mapping.lookup", _n1),
    # repro.core.scheduler.
    ("repro.core.scheduler", "SubgraphScheduler.next_subgraph", "scheduler.next", None),
    ("repro.core.scheduler", "SubgraphScheduler.add_buffered", "scheduler.op", None),
    ("repro.core.scheduler", "SubgraphScheduler.add_spilled", "scheduler.op", None),
    ("repro.core.scheduler", "SubgraphScheduler.take_walks", "scheduler.op", None),
    ("repro.core.scheduler", "SubgraphScheduler.reassign_blocks", "scheduler.op", None),
    # repro.core.buffers and repro.core.dense.
    ("repro.core.buffers", "PartitionWalkBuffer.push", "buffers.push", _n2),
    ("repro.core.buffers", "PartitionWalkBuffer.drain", "buffers.op", None),
    ("repro.core.buffers", "ForeignerStore.push", "buffers.push", _n2),
    ("repro.core.buffers", "ForeignerStore.drain", "buffers.op", None),
    ("repro.core.buffers", "WalkBatch.merge", "buffers.op", None),
    ("repro.core.buffers", "BlockEntry.spill_overflow", "buffers.op", None),
    ("repro.core.dense", "DenseVertexTable.classify", "dense.call", None),
    ("repro.core.dense", "DenseVertexTable.pre_walk", "dense.call", None),
    # repro.flash: NAND, channel bus and DRAM timing models.
    ("repro.flash.nand", "FlashChip.read_page", "flash.op", None),
    ("repro.flash.nand", "FlashChip.internal_read_page", "flash.op", None),
    ("repro.flash.nand", "FlashChip.program_page", "flash.op", None),
    ("repro.flash.channel", "FlashChannel.transfer_data", "flash.op", None),
    ("repro.flash.channel", "FlashChannel.transfer_meta", "flash.op", None),
    ("repro.flash.dram", "DRAM.read", "flash.op", None),
    ("repro.flash.dram", "DRAM.write", "flash.op", None),
    # repro.faults.checkpoint and repro.durability.
    ("repro.faults.checkpoint", "capture_checkpoint", "checkpoint.capture", None),
    ("repro.faults.checkpoint", "restore_checkpoint", "checkpoint.restore", None),
    ("repro.durability.journal", "WalkJournal.append", "journal.append", None),
    # repro.service: admission, audits, and the completion hook the
    # engine calls back (event callbacks are timed as cb:* spans).
    ("repro.service.audit", "ServiceAuditor.audit", "service.audit", None),
    ("repro.service.queue", "AdmissionQueue.offer", "service.queue", None),
    ("repro.service.queue", "AdmissionQueue.pop", "service.queue", None),
    ("repro.service.service", "WalkQueryService._on_completed", "service.completion", None),
    # repro.cluster: shard steps (engines inside), audits, link, health.
    ("repro.cluster.pool", "ShardHosts.step", "cluster.step", None),
    ("repro.cluster.pool", "ShardHosts.finalize", "engine.finalize", None),
    ("repro.cluster.audit", "ClusterAuditor.audit", "cluster.audit", None),
    ("repro.cluster.link", "NetworkLink.transmit", "cluster.link", None),
    ("repro.cluster.health", "HealthBoard.poll", "cluster.health", None),
    ("repro.cluster.health", "HealthBoard.update", "cluster.health", None),
    # Set-up: graph partitioning and engine/service construction.
    ("repro.graph.partition", "partition_graph", "graph.partition", None),
    ("repro.core.flashwalker", "FlashWalker.__init__", "engine.ctor", None),
    ("repro.core.flashwalker", "FlashWalker.start_session", "engine.session", None),
    ("repro.service.service", "WalkQueryService.__init__", "engine.ctor", None),
    ("repro.cluster.cluster", "ClusterService.__init__", "engine.ctor", None),
    ("repro.cluster.pool", "ShardHosts.__init__", "engine.ctor", None),
]

#: Every per-layer metric: (name, unit).  The order is the print order.
PER_LAYER = [
    ("sim.events", "count"), ("sim.events_per_hop", "ratio"),
    ("sim.self_us_per_event", "us"),
    ("walks.walkset_builds", "count"), ("walks.walkset_self_us", "us"),
    ("walks.sample_calls", "count"), ("walks.sample_ns_per_walk", "ns"),
    ("advance.calls", "count"), ("advance.batch_p50", "walks"),
    ("advance.batch_p90", "walks"), ("advance.self_ns_per_walk", "ns"),
    ("query_cache.probes", "count"), ("query_cache.hit_ratio", "ratio"),
    ("query_cache.self_ns_per_probe", "ns"),
    ("mapping.lookups", "count"), ("mapping.self_ns_per_vertex", "ns"),
    ("scheduler.calls", "count"), ("scheduler.self_us_per_call", "us"),
    ("scheduler.score_cache_hit_ratio", "ratio"),
    ("buffers.walks_pushed", "count"), ("buffers.self_ns_per_walk", "ns"),
    ("buffers.foreigner_walks", "count"), ("buffers.spilled_walks", "count"),
    ("dense.pre_walks", "count"), ("dense.self_us_per_call", "us"),
    ("flash.ops", "count"), ("flash.self_us_per_op", "us"),
    ("flash.subgraph_loads", "count"), ("flash.read_bytes", "bytes"),
    ("flash.write_bytes", "bytes"), ("flash.channel_bytes", "bytes"),
    ("flash.chip_util", "ratio"), ("flash.channel_util", "ratio"),
    ("accel.chip_busy_s", "s"), ("accel.board_busy_s", "s"),
    ("accel.chip_stall_s", "s"), ("faults.read_retries", "count"),
    ("checkpoint.captures", "count"), ("checkpoint.self_ms_per_capture", "ms"),
    ("checkpoint.restores", "count"), ("checkpoint.self_ms_per_restore", "ms"),
    ("journal.appends", "count"),
    ("service.admitted", "count"), ("service.shed", "count"),
    ("service.queue_peak_depth", "count"), ("service.audits", "count"),
    ("service.audit_self_us", "us"), ("service.self_us_per_query", "us"),
    ("cluster.epochs", "count"), ("cluster.router_self_ms_per_epoch", "ms"),
    ("cluster.shard_step_ms_per_epoch", "ms"),
    ("cluster.audit_self_ms_per_epoch", "ms"),
    ("cluster.link_messages", "count"), ("cluster.link_retransmit_ratio", "ratio"),
    ("cluster.migrations_per_hop", "ratio"), ("cluster.barrier_time_us", "us"),
    ("cluster.rto_ms", "ms"),
    ("graph.build_s", "s"), ("graph.partition_s", "s"), ("engine.ctor_s", "s"),
    ("engine.self_us_per_hop", "us"), ("latency.samples", "count"),
    ("trace.spans", "count"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.layers_self_s", "s"),
    ("trace.unattributed_s", "s"),
]


def _callback_layer(site: str) -> str:
    """Layer of an event callback, by the class that scheduled it.  A
    shard's walk injections (``ShardRuntime``) are engine work."""
    if site.startswith("WalkQueryService."):
        return "service"
    if site.startswith("ClusterService."):
        return "cluster"
    return "engine"


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(log, *, entry: int, t_first: float, t_end: float, kind: str,
                  outcome, engines, untraced_wall: float) -> dict[str, float]:
    """Reduce one traced run to the :data:`PER_LAYER` metrics.

    ``entry`` is the span around the public entry call.  Spans that
    start at or after ``t_first`` (the first simulated event) belong to
    the measured run, earlier ones to set-up.
    """
    a = log.arrays()
    self_t = log.self_times()
    nid = a["name"]
    run = a["start"] >= t_first
    run[entry] = False
    wall = t_end - t_first
    # The entry's own code inside the run: what no span covers.
    top = run & (a["parent"] == entry)
    entry_self = wall - float((a["end"][top] - a["start"][top]).sum())
    entry_layer = {"batch": "engine", "serve": "service", "cluster": "cluster"}[kind]
    layer_ids: dict[str, list[int]] = {}
    for i, n in enumerate(log.names):
        lname = _callback_layer(n[3:]) if n.startswith("cb:") else n.split(".")[0]
        layer_ids.setdefault(lname, []).append(i)
    cb_ids = [i for i, n in enumerate(log.names) if n.startswith("cb:")]

    def mask(ids, window=True):
        m = np.isin(nid, ids)
        return m & run if window else m

    def ids(*span_names):
        return [i for i, n in enumerate(log.names) if n in span_names]

    def self_of(*span_names, window=True) -> float:
        return float(self_t[mask(ids(*span_names), window)].sum())

    def count(name: str) -> int:
        return int(mask(ids(name)).sum())

    def sizes(name: str) -> np.ndarray:
        return a["size"][mask(ids(name))]

    def layer_self(lname: str) -> float:
        s = float(self_t[mask(layer_ids.get(lname, []))].sum())
        return s + (entry_self if lname == entry_layer else 0.0)

    counters: dict[str, float] = {}
    for rep in outcome.engine_reports:
        for k, v in rep["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
    traffic = {
        k: sum(r["traffic"][k] for r in outcome.engine_reports)
        for k in ("flash_read_bytes", "flash_write_bytes", "channel_bytes")
    }
    hops = outcome.hops
    events = int(mask(cb_ids).sum())
    adv = sizes("advance.batch")
    sampled = sizes("walks.sample").sum()
    probes = counters.get("query_cache_hits", 0) + counters.get("query_cache_misses", 0)
    next_calls = count("scheduler.next")
    sched_hits = counters.get("sched_score_cache_hits", 0.0)
    pushed = int(sizes("buffers.push").sum())
    captures, restores = count("checkpoint.capture"), count("checkpoint.restore")

    svc = outcome.service or {"requests": {}, "queue": {}, "audit": {}}
    cl = outcome.cluster or {"link": {}, "migrations": {}, "rto": {}}
    epochs = cl.get("epochs", 0)
    messages = cl["link"].get("messages", 0)
    arrivals = svc["requests"].get("arrivals", 0)
    steps = mask(ids("cluster.step"))
    step_total = float((a["end"][steps] - a["start"][steps]).sum())

    chip_util = [c.utilization(fw.sim.now) for fw in engines for ch in fw.ssd.channels for c in ch.chips]
    chan_util = [ch.utilization(fw.sim.now) for fw in engines for ch in fw.ssd.channels]
    layers_self = float(self_t[run].sum())

    m = {
        "sim.events": events,
        "sim.events_per_hop": _div(events, hops),
        "sim.self_us_per_event": _div(layer_self("sim"), events) * 1e6,
        "walks.walkset_builds": count("walks.walkset"),
        "walks.walkset_self_us": self_of("walks.walkset", "walks.walkset_op") * 1e6,
        "walks.sample_calls": count("walks.sample"),
        "walks.sample_ns_per_walk": _div(self_of("walks.sample"), sampled) * 1e9,
        "advance.calls": int(adv.size),
        "advance.batch_p50": float(np.percentile(adv, 50)) if adv.size else 0.0,
        "advance.batch_p90": float(np.percentile(adv, 90)) if adv.size else 0.0,
        "advance.self_ns_per_walk": _div(self_of("advance.batch"), adv.sum()) * 1e9,
        "query_cache.probes": probes,
        "query_cache.hit_ratio": _div(counters.get("query_cache_hits", 0), probes),
        "query_cache.self_ns_per_probe": _div(layer_self("query_cache"), probes) * 1e9,
        "mapping.lookups": count("mapping.lookup"),
        "mapping.self_ns_per_vertex": _div(layer_self("mapping"), sizes("mapping.lookup").sum()) * 1e9,
        "scheduler.calls": next_calls,
        "scheduler.self_us_per_call": _div(layer_self("scheduler"), next_calls) * 1e6,
        "scheduler.score_cache_hit_ratio": _div(
            sched_hits, sched_hits + counters.get("sched_topn_refreshes", 0.0)),
        "buffers.walks_pushed": pushed,
        "buffers.self_ns_per_walk": _div(layer_self("buffers"), pushed) * 1e9,
        "buffers.foreigner_walks": counters.get("foreigner_walks", 0.0),
        "buffers.spilled_walks": counters.get("spilled_walks", 0.0),
        "dense.pre_walks": counters.get("pre_walks", 0.0),
        "dense.self_us_per_call": _div(layer_self("dense"), count("dense.call")) * 1e6,
        "flash.ops": count("flash.op"),
        "flash.self_us_per_op": _div(layer_self("flash"), count("flash.op")) * 1e6,
        "flash.subgraph_loads": counters.get("subgraph_loads", 0.0),
        "flash.read_bytes": traffic["flash_read_bytes"],
        "flash.write_bytes": traffic["flash_write_bytes"],
        "flash.channel_bytes": traffic["channel_bytes"],
        "flash.chip_util": float(np.mean(chip_util)) if chip_util else 0.0,
        "flash.channel_util": float(np.mean(chan_util)) if chan_util else 0.0,
        "accel.chip_busy_s": counters.get("chip_busy_time", 0.0),
        "accel.board_busy_s": counters.get("board_accel_busy_time", 0.0),
        "accel.chip_stall_s": counters.get("chip_stall_time", 0.0),
        "faults.read_retries": counters.get("fault_read_retries", 0.0),
        "checkpoint.captures": captures,
        "checkpoint.self_ms_per_capture": _div(self_of("checkpoint.capture"), captures) * 1e3,
        "checkpoint.restores": restores,
        "checkpoint.self_ms_per_restore": _div(self_of("checkpoint.restore"), restores) * 1e3,
        "journal.appends": count("journal.append"),
        "service.admitted": svc["queue"].get("admitted", 0),
        "service.shed": svc["requests"].get("shed", 0),
        "service.queue_peak_depth": svc["queue"].get("peak_depth", 0),
        "service.audits": svc.get("audit", {}).get("audits", 0),
        "service.audit_self_us": self_of("service.audit") * 1e6,
        "service.self_us_per_query": (
            _div(layer_self("service"), arrivals) * 1e6 if kind == "serve" else 0.0),
        "cluster.epochs": epochs,
        "cluster.router_self_ms_per_epoch": (
            _div(layer_self("cluster") - self_of("cluster.step", "cluster.audit"),
                 epochs) * 1e3),
        "cluster.shard_step_ms_per_epoch": _div(step_total, epochs) * 1e3,
        "cluster.audit_self_ms_per_epoch": _div(self_of("cluster.audit"), epochs) * 1e3,
        "cluster.link_messages": messages,
        "cluster.link_retransmit_ratio": _div(cl["link"].get("retransmits", 0), messages),
        "cluster.migrations_per_hop": _div(cl["migrations"].get("total", 0), hops),
        "cluster.barrier_time_us": _div(cl.get("barrier_time", 0.0), epochs) * 1e6,
        "cluster.rto_ms": cl["rto"].get("mean", 0.0) * 1e3,
        "graph.build_s": self_of("graph.build", window=False),
        "graph.partition_s": self_of("graph.partition", window=False),
        "engine.ctor_s": self_of("engine.ctor", "engine.session", window=False),
        "engine.self_us_per_hop": _div(layer_self("engine"), hops) * 1e6,
        "latency.samples": outcome.latencies.size,
        "trace.spans": len(log),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.layers_self_s": layers_self,
        "trace.unattributed_s": wall - layers_self,
    }
    return {k: float(v) for k, v in m.items()}
