"""Checkpoint/resume for FlashWalker campaigns.

A checkpoint is a *quiescent-state* snapshot: the engine drains its
pipelines (no walk mid-flight through a chip, channel, or the board
pipe) and everything that determines the rest of the run is copied out —
walk buffers, RNG stream states, hardware occupancy horizons, metric
accumulators.  Resuming restores that state into a fresh event queue and
drives the simulation to completion; because every source of
nondeterminism is part of the snapshot, the merged result is *exactly*
the uninterrupted run's.

The FTL's logical-to-physical map is not copied wholesale — that would
dwarf the rest of the checkpoint.  Instead the snapshot records the
FTL's append-only *remap log* (the sequence of ``retire_active_block``
calls), and restore rebuilds a pristine FTL and replays the log: victim
selection is deterministic given the call sequence, so the rebuilt map
routes pages exactly as the captured one did.  This matters once the
durability layer's parity-group quarantine retires blocks mid-run —
post-recovery page routing must match the crashed timeline's.
Pre-durability snapshots (no log recorded) restore as before, skipping
the FTL entirely.

Core modules are imported lazily inside the capture/restore functions:
``repro.core.flashwalker`` imports this package, so module-level imports
the other way would be circular.
"""

from __future__ import annotations

import copy
import heapq
from collections import OrderedDict
from dataclasses import dataclass, field


from ..walks.state import WalkSet

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "capture_checkpoint",
    "restore_checkpoint",
]


@dataclass
class Checkpoint:
    """One quiescent snapshot of a running campaign."""

    time: float
    data: dict = field(repr=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Checkpoint(t={self.time:.6f}, "
            f"completed={self.data.get('completed_walks')})"
        )


class CheckpointManager:
    """Holds the snapshots of one campaign, newest last.

    ``keep_last`` caps retention: saving beyond the cap evicts the
    oldest snapshots, so long journaled campaigns don't grow memory
    linearly with checkpoint count.  0 (the default) keeps every
    snapshot — the pre-durability behavior.  Recovery only ever needs
    the latest snapshot, so any cap >= 1 is safe for resume.
    """

    def __init__(self, keep_last: int = 0):
        if keep_last < 0:
            raise ValueError(f"keep_last must be >= 0, got {keep_last}")
        self.keep_last = int(keep_last)
        self.evicted = 0
        self._checkpoints: list[Checkpoint] = []

    @property
    def latest(self) -> Checkpoint | None:
        return self._checkpoints[-1] if self._checkpoints else None

    def save(self, ckpt: Checkpoint) -> None:
        self._checkpoints.append(ckpt)
        if self.keep_last and len(self._checkpoints) > self.keep_last:
            drop = len(self._checkpoints) - self.keep_last
            del self._checkpoints[:drop]
            self.evicted += drop

    def all(self) -> list[Checkpoint]:
        return list(self._checkpoints)

    def clear(self) -> None:
        self._checkpoints = []

    def __len__(self) -> int:
        return len(self._checkpoints)


# --------------------------------------------------------------- pack helpers


def _pack_walks(ws: WalkSet) -> tuple:
    return (ws.src.copy(), ws.cur.copy(), ws.hop.copy())


def _unpack_walks(data: tuple) -> WalkSet:
    src, cur, hop = data
    return WalkSet(src.copy(), cur.copy(), hop.copy())


def _link_state(link) -> tuple:
    return (link._busy_until, link.bytes_moved, link.busy_time, link.transfers)


def _set_link(link, s: tuple) -> None:
    link._busy_until, link.bytes_moved, link.busy_time, link.transfers = s


def _fcfs_state(res) -> tuple:
    return (list(res._free_at), res.busy_time, res.requests, res.queued_time)


def _set_fcfs(res, s: tuple) -> None:
    free_at, busy, requests, queued = s
    res._free_at = list(free_at)
    heapq.heapify(res._free_at)
    res.busy_time = busy
    res.requests = requests
    res.queued_time = queued


def _chip_hw_state(chip) -> dict:
    return {
        "ops": _fcfs_state(chip._op_slots),
        "reads": chip.reads,
        "programs": chip.programs,
        "erases": chip.erases,
        "bytes_read": chip.bytes_read,
        "bytes_programmed": chip.bytes_programmed,
        "prog_cursor": chip._prog_cursor,
        "planes": [
            (
                pl.busy_until,
                pl.reads,
                pl.programs,
                pl.erases,
                pl.bytes_read,
                pl.bytes_programmed,
                pl.busy_time,
            )
            for die in chip.dies
            for pl in die.planes
        ],
    }


def _set_chip_hw(chip, s: dict) -> None:
    _set_fcfs(chip._op_slots, s["ops"])
    chip.reads = s["reads"]
    chip.programs = s["programs"]
    chip.erases = s["erases"]
    chip.bytes_read = s["bytes_read"]
    chip.bytes_programmed = s["bytes_programmed"]
    chip._prog_cursor = s["prog_cursor"]
    planes = [pl for die in chip.dies for pl in die.planes]
    for pl, ps in zip(planes, s["planes"]):
        (
            pl.busy_until,
            pl.reads,
            pl.programs,
            pl.erases,
            pl.bytes_read,
            pl.bytes_programmed,
            pl.busy_time,
        ) = ps


def _metrics_state(metrics) -> dict:
    return {
        "counters": {
            name: (c.total, c.events)
            for name, c in metrics.stats.counters.items()
        },
        "series": {
            name: (s.bucket, dict(s._sums), s.total, s.events, s.last_time)
            for name, s in metrics.stats.series.items()
        },
    }


def _set_metrics(metrics, state: dict) -> None:
    for name, (total, events) in state["counters"].items():
        c = metrics.stats.counter(name)
        c.total = total
        c.events = events
    for name, (bucket, sums, total, events, last_time) in state["series"].items():
        s = metrics.stats.timeseries(name, bucket)
        s._sums = dict(sums)
        s.total = total
        s.events = events
        s.last_time = last_time


# ------------------------------------------------------------------- capture


def capture_checkpoint(fw, t: float) -> Checkpoint:
    """Snapshot a quiescent :class:`~repro.core.flashwalker.FlashWalker`."""
    from ..obs.report import config_fingerprint

    fm = fw.fault_model
    data = {
        # provenance: restore refuses a snapshot from a different config
        "config_fingerprint": config_fingerprint(fw.cfg),
        # walk accounting
        "spec": fw.spec,
        "total_walks": fw.total_walks,
        "completed_walks": fw.completed_walks,
        "current_partition": fw.current_partition,
        "entry_capacity": fw.entry_capacity,
        "dense_entry_capacity": fw.dense_entry_capacity,
        "flush_cursor": fw._flush_cursor,
        "next_checkpoint": fw._next_checkpoint,
        "block_chip": fw.block_chip.copy(),
        "rebuilding_blocks": set(fw._rebuilding_blocks),
        "finals": (
            None
            if fw._finals is None
            else (list(fw._finals.src), list(fw._finals.cur), list(fw._finals.hop))
        ),
        # stochastic state
        "rng": {
            name: copy.deepcopy(gen.bit_generator.state)
            for name, gen in fw.rngs._streams.items()
        },
        # metrics
        "metrics": _metrics_state(fw.metrics),
        # scheduler scoreboard
        "scheduler": None,
        # partition walk buffer
        "pwb_entries": None,
        "pwb_spills": None,
        # foreigner pools
        "foreign": {
            int(pid): [_pack_walks(w) for w in pool]
            for pid, pool in enumerate(fw.foreign._pools)
            if pool
        },
        # board accelerator
        "board": {
            "completed_pending_bytes": fw.board.completed_pending_bytes,
            "foreigner_pending_bytes": fw.board.foreigner_pending_bytes,
            "batches": fw.board.batches,
            "hops": fw.board.hops,
            "directed_walks": fw.board.directed_walks,
            "completed_flushes": fw.board.completed_flushes,
            "foreigner_flushes": fw.board.foreigner_flushes,
            "caches": (
                None
                if fw.board.caches is None
                else [
                    (list(c._lru.keys()), c.hits, c.misses)
                    for c in fw.board.caches.caches
                ]
            ),
        },
        "dense": (
            fw.dense_table.bloom_queries,
            fw.dense_table.bloom_positives,
            fw.dense_table.false_positives,
            fw.dense_table.hash_probes,
        ),
        # accelerators
        "chips": [
            {
                "loaded": list(c.loaded),
                "failed": c.failed,
                "pending_completed": c.pending_completed,
                "batches": c.batches,
                "hops": c.hops,
                "loads": c.loads,
                "reload_hits": c.reload_hits,
            }
            for c in fw.chips
        ],
        "channel_accels": [
            (ch.batches, ch.hops, ch.range_queries) for ch in fw.channels
        ],
        # hardware occupancy + byte counters
        "chip_hw": [
            _chip_hw_state(fw.ssd.chip_flat(i))
            for i in range(fw.cfg.ssd.total_chips)
        ],
        "channel_buses": [_link_state(ch.bus) for ch in fw.ssd.channels],
        "dram_bus": _link_state(fw.ssd.dram.bus),
        "board_pipe": _fcfs_state(fw._board_pipe),
        # FTL remap history (replayed against a pristine FTL on restore)
        "ftl_remap_log": list(fw.ssd.ftl.remap_log),
        # DFTL-enabled runs: background GC makes the FTL's state
        # time-dependent (no longer derivable by replaying placement +
        # remap log), so the full mapping/allocation state — and the
        # CMT/translation counters — are snapshotted explicitly.
        "ftl_state": None if fw.ssd.dftl is None else fw.ssd.ftl.state(),
        "dftl_state": None if fw.ssd.dftl is None else fw.ssd.dftl.state(),
        "next_ftl_gc": fw._next_ftl_gc,
        "ftlgc_armed": "ftlgc" in fw._dur_events,
        # durability layer: journal/integrity state + the recurring
        # events' next absolute fire times (the negative durability
        # event priorities guarantee these are strictly > ckpt.time)
        "durability": (
            None
            if not fw.cfg.durability.enabled
            else {
                "next_journal_flush": fw._next_journal_flush,
                "next_scrub": fw._next_scrub,
                "next_corruption": fw._next_corruption,
                # Which recurring events were actually armed at capture:
                # a drained engine (cluster epoch boundary) has none, and
                # the resumed run must re-arm lazily at its next
                # injection — exactly as the uninterrupted run does — or
                # the journal-flush phase diverges.
                "armed": sorted(
                    k for k in fw._dur_events if not k.startswith("powerloss")
                ),
                "journal": (
                    None if fw.journal is None else fw.journal.state()
                ),
                "integrity": (
                    None if fw.integrity is None else fw.integrity.state()
                ),
            }
        ),
        # opaque extra state from layers above the engine (query service)
        "extra": (
            fw._checkpoint_extra() if fw._checkpoint_extra is not None else None
        ),
        # fault model
        "faults": (
            None
            if fm is None
            else {
                "failed_chips": set(fm.failed_chips),
                "read_faults": fm.read_faults,
                "read_retries": fm.read_retries,
                "reads_exhausted": fm.reads_exhausted,
                "bad_block_remaps": fm.bad_block_remaps,
                "crc_errors": fm.crc_errors,
                "crc_retries": fm.crc_retries,
                "crc_resets": fm.crc_resets,
                "chip_failures": fm.chip_failures,
            }
        ),
        # slow-fault model: windows are a pure function of (seed, config)
        # so only the counters need carrying across a restore.
        "slow_faults": (
            None if fw.slow_model is None else fw.slow_model.snapshot()
        ),
    }
    if fw.scheduler is not None:
        sc = fw.scheduler
        data["scheduler"] = {
            "pwb": list(sc.pwb),
            "fl": list(sc.fl),
            "inserts": list(sc._inserts_since_update),
            "block_chip": sc.block_chip.copy(),
            "top": {c: list(v) for c, v in sc._top.items()},
            "dirty": set(sc._dirty),
            "refreshes": sc.topn_refreshes,
            "deferred": sc.topn_updates_deferred,
            "score_hits": sc.score_cache_hits,
            # Cache warmth matters for replay parity: a restored-cold
            # cache would miss where the original timeline hit.
            "scores_warm": sc._scores_warm,
            "counts_warm": sc._counts_warm,
        }
    if fw.pwb is not None:
        data["pwb_entries"] = {
            int(block): e.state() for block, e in fw.pwb._entries.items()
        }
        data["pwb_spills"] = (fw.pwb.spill_events, fw.pwb.walks_spilled)
    return Checkpoint(time=t, data=data)


# ------------------------------------------------------------------- restore


def restore_checkpoint(fw, ckpt: Checkpoint) -> None:
    """Rebuild ``fw``'s run state from ``ckpt``; the caller re-arms the
    event loop (kick chips + barrier check) and calls ``sim.run()``."""
    from ..core.advance import AdvanceContext
    from ..core.buffers import BlockEntry, PartitionWalkBuffer, WalkBatch
    from ..core.mapping import RangeTable, SubgraphMappingTable
    from ..core.scheduler import SubgraphScheduler
    from ..obs.report import config_fingerprint
    from ..walks.sampling import make_sampler

    d = ckpt.data
    # A snapshot only replays correctly into the exact configuration
    # that produced it (capacities, timings, fault schedule are all
    # baked into the captured state).  Pre-fingerprint checkpoints
    # (no field recorded) restore as before.
    recorded = d.get("config_fingerprint")
    if recorded is not None:
        own = config_fingerprint(fw.cfg)
        if recorded != own:
            from ..common.errors import ConfigError

            raise ConfigError(
                "checkpoint does not match this engine's configuration: "
                f"checkpoint {recorded}, engine {own}"
            )
    fw.spec = d["spec"]
    fw._reset_run_state()
    # RNG streams become exactly the snapshot's set: streams first created
    # after the checkpoint in the crashed run must not leak advanced state
    # into the resumed run.
    fw.rngs._streams = {}
    for name, state in d["rng"].items():
        fw.rngs.stream(name).bit_generator.state = copy.deepcopy(state)
    if fw.fault_model is not None:
        fw.fault_model.rng = fw.rngs.stream("faults")
        fs = d["faults"]
        fm = fw.fault_model
        fm.failed_chips = set(fs["failed_chips"])
        fm.read_faults = fs["read_faults"]
        fm.read_retries = fs["read_retries"]
        fm.reads_exhausted = fs["reads_exhausted"]
        fm.bad_block_remaps = fs["bad_block_remaps"]
        fm.crc_errors = fs["crc_errors"]
        fm.crc_retries = fs["crc_retries"]
        fm.crc_resets = fs["crc_resets"]
        fm.chip_failures = fs["chip_failures"]
    if fw.slow_model is not None and d.get("slow_faults") is not None:
        fw.slow_model.restore(d["slow_faults"])
    # clock + walk accounting (quiescent: nothing in transit)
    fw.sim.now = ckpt.time
    fw.total_walks = d["total_walks"]
    fw.completed_walks = d["completed_walks"]
    fw.in_transit = 0
    fw.entry_capacity = d["entry_capacity"]
    fw.dense_entry_capacity = d["dense_entry_capacity"]
    fw._flush_cursor = d["flush_cursor"]
    fw._next_checkpoint = d["next_checkpoint"]
    fw.block_chip[:] = d["block_chip"]
    fw._rebuilding_blocks = set(d["rebuilding_blocks"])
    fw._finals = (
        None
        if d["finals"] is None
        else WalkBatch(*(list(f) for f in d["finals"]))
    )
    # advance context (deterministic rebuild from graph + spec)
    sampler = make_sampler(fw.graph)
    fw.ctx = AdvanceContext.build(fw.graph, fw.part, fw.spec, sampler)
    # metrics
    _set_metrics(fw.metrics, d["metrics"])
    # partition structures — rebuilt without re-charging the DRAM mapping
    # stream (that traffic is already inside the restored metrics)
    pid = d["current_partition"]
    fw.current_partition = pid
    first, last = fw.part.partition_block_range(
        pid, fw.cfg.partition_subgraphs
    )
    fw.mapping = SubgraphMappingTable(fw.part, first, last)
    fw.board.set_mapping(fw.mapping)
    if fw.cfg.opt_walk_query:
        table = RangeTable(fw.part, first, last, fw.cfg.range_subgraphs)
        for ch in fw.channels:
            ch.set_range_table(table)
    else:
        for ch in fw.channels:
            ch.set_range_table(None)
    sd = d["scheduler"]
    if sd is not None:
        fw.scheduler = SubgraphScheduler(
            block_chip=fw.block_chip,
            is_dense_block=fw.part.is_dense_block,
            first_block=first,
            last_block=last,
            n_chips=len(fw.chips),
            alpha=fw.cfg.alpha,
            beta=fw.cfg.beta,
            top_n=fw.cfg.top_n,
            update_period_m=fw.cfg.score_update_period_m,
            use_scores=fw.cfg.opt_subgraph_scheduling,
        )
        fw.scheduler.tracer = fw.tracer
        sc = fw.scheduler
        sc.pwb = list(sd["pwb"])
        sc.fl = list(sd["fl"])
        sc._inserts_since_update = list(sd["inserts"])
        sc.block_chip[:] = sd["block_chip"]
        sc._top = {c: list(v) for c, v in sd["top"].items()}
        sc._dirty = set(sd["dirty"])
        sc.topn_refreshes = sd["refreshes"]
        sc.topn_updates_deferred = sd["deferred"]
        sc.score_cache_hits = sd.get("score_hits", 0)
        # Re-warm what the snapshot saw as warm: the first post-restore
        # scores()/walk_counts() read then hits or misses exactly as the
        # original timeline did.
        sc._scores_warm = bool(sd.get("scores_warm"))
        sc._counts_warm = bool(sd.get("counts_warm"))
        # block_chip and the scoreboard were overwritten above.
        sc.reindex_chips()
    if d["pwb_entries"] is not None:
        fw.pwb = PartitionWalkBuffer(
            first,
            last,
            fw.entry_capacity,
            fw.dense_entry_capacity,
            fw.part.is_dense_block,
        )
        for block, state in d["pwb_entries"].items():
            fw.pwb._entries[int(block)] = BlockEntry.from_state(state)
        fw.pwb.spill_events, fw.pwb.walks_spilled = d["pwb_spills"]
    # foreigner pools
    for pid_i, pool in d["foreign"].items():
        ws_list = [_unpack_walks(w) for w in pool]
        fw.foreign._pools[int(pid_i)] = ws_list
        fw.foreign._counts[int(pid_i)] = sum(len(w) for w in ws_list)
    # board accelerator (set_mapping above invalidated the caches; refill)
    b = d["board"]
    fw.board.completed_pending_bytes = b["completed_pending_bytes"]
    fw.board.foreigner_pending_bytes = b["foreigner_pending_bytes"]
    fw.board.batches = b["batches"]
    fw.board.hops = b["hops"]
    fw.board.directed_walks = b["directed_walks"]
    fw.board.completed_flushes = b["completed_flushes"]
    fw.board.foreigner_flushes = b["foreigner_flushes"]
    if fw.board.caches is not None and b["caches"] is not None:
        for cache, (keys, hits, misses) in zip(
            fw.board.caches.caches, b["caches"]
        ):
            cache._lru = OrderedDict((k, None) for k in keys)
            cache.hits = hits
            cache.misses = misses
    (
        fw.dense_table.bloom_queries,
        fw.dense_table.bloom_positives,
        fw.dense_table.false_positives,
        fw.dense_table.hash_probes,
    ) = d["dense"]
    # accelerators
    for chip, cs in zip(fw.chips, d["chips"]):
        chip.loaded = list(cs["loaded"])
        chip.failed = cs["failed"]
        chip.busy = False
        chip.pending_rove = WalkBatch.empty()
        chip.pending_completed = cs["pending_completed"]
        chip.batches = cs["batches"]
        chip.hops = cs["hops"]
        chip.loads = cs["loads"]
        chip.reload_hits = cs["reload_hits"]
    for ch, (batches, hops, range_queries) in zip(
        fw.channels, d["channel_accels"]
    ):
        ch.batches = batches
        ch.hops = hops
        ch.range_queries = range_queries
        ch.collect_scheduled = False
    # hardware occupancy horizons + byte counters
    for i, hw in enumerate(d["chip_hw"]):
        _set_chip_hw(fw.ssd.chip_flat(i), hw)
    for ch_hw, bus_state in zip(fw.ssd.channels, d["channel_buses"]):
        _set_link(ch_hw.bus, bus_state)
    _set_link(fw.ssd.dram.bus, d["dram_bus"])
    _set_fcfs(fw._board_pipe, d["board_pipe"])
    # FTL: rebuild pristine placement and replay the remap log so
    # post-recovery page routing matches the crashed timeline's.
    # DFTL-enabled snapshots carry the full FTL state instead (replay
    # can't reproduce background GC's block shuffling); legacy
    # snapshots (no log recorded) skip the FTL as before.
    ftl_state = d.get("ftl_state")
    remap = d.get("ftl_remap_log")
    if ftl_state is not None:
        from ..flash.ftl import FTL

        ftl = FTL(fw.cfg.ssd)
        ftl.restore_state(ftl_state)
        fw.ssd.ftl = ftl
        if fw.ssd.dftl is not None and d.get("dftl_state") is not None:
            fw.ssd.dftl.restore_state(d["dftl_state"])
    elif remap is not None:
        from ..flash.ftl import FTL

        ftl = FTL(fw.cfg.ssd)
        ftl.place_striped(fw.part.num_blocks, fw.cfg.subgraph_pages())
        for flat in remap:
            ftl.retire_active_block(int(flat))
        fw.ssd.ftl = ftl
    fw._next_ftl_gc = d.get("next_ftl_gc")
    fw._restored_ftlgc_armed = d.get("ftlgc_armed")
    # Durability layer: journal/integrity contents + next fire times
    # (the caller's _arm_durability re-schedules from these).
    dur = d.get("durability")
    if dur is not None:
        fw._next_journal_flush = dur["next_journal_flush"]
        fw._next_scrub = dur["next_scrub"]
        fw._next_corruption = dur["next_corruption"]
        # Legacy snapshots (no "armed" recorded) arm everything, the
        # pre-cluster behavior; restore_for_resume consumes this.
        fw._restored_dur_armed = (
            None if "armed" not in dur else set(dur["armed"])
        )
        if fw.journal is not None and dur["journal"] is not None:
            fw.journal.restore(dur["journal"])
        if fw.integrity is not None and dur["integrity"] is not None:
            fw.integrity.restore(dur["integrity"])
    fw._restored_extra = d.get("extra")
