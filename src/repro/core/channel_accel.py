"""Channel-level accelerator state (Section III-C).

Sits at the flash channel controller.  Holds the K hottest subgraphs (by
in-degree) among the blocks stored on this channel's chips, updates
roving walks that land in them, performs the approximate walk search
(range query) for the rest, and forwards commands/data between the board
and chip accelerators.
"""

from __future__ import annotations

import numpy as np

from ..common.config import AcceleratorConfig
from ..common.errors import ReproError
from .advance import AdvanceResult
from .mapping import RangeTable

__all__ = ["ChannelAccelerator"]


class ChannelAccelerator:
    """State of one channel-level accelerator."""

    def __init__(self, channel_id: int, cfg: AcceleratorConfig, walk_bytes: int):
        self.channel_id = channel_id
        self.cfg = cfg
        self.walk_bytes = walk_bytes
        #: Hot (top in-degree) blocks resident here; set per run.
        self.hot_blocks: list[int] = []
        #: Sorted copy for binary-search membership on the collect path,
        #: and a set for the per-walk test of small collections.
        self.hot_blocks_sorted = np.zeros(0, dtype=np.int64)
        self.hot_block_set: frozenset[int] = frozenset()
        #: The partition's subgraph-range table (set at partition start).
        self.range_table: RangeTable | None = None
        self.collect_scheduled = False
        #: Optional :class:`~repro.obs.Tracer`; None = no recording.
        self.tracer = None
        # statistics
        self.batches = 0
        self.hops = 0
        self.range_queries = 0

    def set_hot_blocks(self, blocks: list[int]) -> None:
        self.hot_blocks = list(blocks)
        self.hot_blocks_sorted = np.sort(np.asarray(self.hot_blocks, dtype=np.int64))
        self.hot_block_set = frozenset(self.hot_blocks)

    def set_range_table(self, table: RangeTable | None) -> None:
        self.range_table = table

    # -- timing -----------------------------------------------------------------

    def batch_time(self, result: AdvanceResult) -> float:
        """Updater + guider time to advance walks in the hot subgraphs."""
        upd = (
            (result.hops * self.cfg.updater_ops_per_hop + result.bias_steps)
            * self.cfg.updater_cycle
            / self.cfg.n_updaters
        )
        gid = result.guide_ops * self.cfg.guider_cycle / self.cfg.n_guiders
        self.batches += 1
        self.hops += result.hops
        t = upd + gid
        tr = self.tracer
        if tr is not None:
            tr.latency("channel_batch", t)
        return t

    def range_query_time(self, n_walks: int) -> float:
        """Approximate walk search time for ``n_walks`` roving walks."""
        if n_walks < 0:
            raise ReproError(f"negative walk count {n_walks}")
        if self.range_table is None or n_walks == 0:
            return 0.0
        steps = self.range_table.search_steps()
        self.range_queries += n_walks
        t = n_walks * steps * self.cfg.guider_cycle / self.cfg.n_guiders
        tr = self.tracer
        if tr is not None:
            tr.latency("range_query", t)
        return t

    def guide_time(self, n_ops: int) -> float:
        """Plain guider operations (membership compares, moves)."""
        return n_ops * self.cfg.guider_cycle / self.cfg.n_guiders

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChannelAccelerator(ch={self.channel_id}, "
            f"hot={self.hot_blocks}, batches={self.batches})"
        )
