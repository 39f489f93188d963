"""Chip-level accelerator state (Section III-B, Fig. 3).

Each flash chip hosts one accelerator with a subgraph buffer (a few
slots), walk queues, one walk updater, one walk guider, and a roving
walk buffer.  The accelerator reads subgraphs from *this chip's planes*
directly — never over the channel bus — which is FlashWalker's central
data-path shortcut.

This class owns per-chip state and timing math; the engine drives it via
events.  Subgraph slots are managed LRU so a reloaded-but-resident block
skips the flash read.
"""

from __future__ import annotations

from ..common.config import AcceleratorConfig
from ..common.errors import ReproError
from .advance import AdvanceResult
from .buffers import WalkBatch

__all__ = ["ChipAccelerator"]


class ChipAccelerator:
    """State of one chip-level accelerator."""

    def __init__(
        self,
        index: int,
        channel_id: int,
        chip_in_channel: int,
        cfg: AcceleratorConfig,
        slots: int,
        walk_bytes: int,
    ):
        if slots < 1:
            raise ReproError(f"chip {index}: need >= 1 subgraph slot")
        self.index = index
        self.channel_id = channel_id
        self.chip_in_channel = chip_in_channel
        self.cfg = cfg
        self.slots = slots
        self.walk_bytes = walk_bytes
        #: Blocks resident in the subgraph buffer, most recent last.
        self.loaded: list[int] = []
        self.busy = False
        #: Set when the underlying flash chip is declared dead: the
        #: scheduler stops targeting it and in-flight walks are rerouted.
        self.failed = False
        #: Roving walks awaiting the channel accelerator's collection.
        self.pending_rove = WalkBatch.empty()
        #: Completed walks awaiting write-back (count only: the record
        #: content no longer matters, just the flush traffic).
        self.pending_completed = 0
        #: Optional :class:`~repro.obs.Tracer`; None = no recording.
        self.tracer = None
        # statistics
        self.batches = 0
        self.hops = 0
        self.loads = 0
        self.reload_hits = 0

    # -- subgraph buffer -------------------------------------------------------

    def touch_block(self, block_id: int) -> bool:
        """LRU-load ``block_id``; True if a flash read is needed."""
        if block_id in self.loaded:
            self.loaded.remove(block_id)
            self.loaded.append(block_id)
            self.reload_hits += 1
            return False
        self.loaded.append(block_id)
        if len(self.loaded) > self.slots:
            self.loaded.pop(0)
        self.loads += 1
        return True

    # -- roving buffer ------------------------------------------------------------

    @property
    def pending_rove_count(self) -> int:
        return len(self.pending_rove)

    def push_roving(self, walks: WalkBatch) -> None:
        if len(walks):
            self.pending_rove.extend(walks)
            tr = self.tracer
            if tr is not None:
                tr.highwater(
                    "buf.roving_bytes", self.pending_rove_count * self.walk_bytes
                )

    def take_roving(self) -> WalkBatch:
        walks = self.pending_rove
        self.pending_rove = WalkBatch.empty()
        return walks

    def take_completed(self) -> int:
        n = self.pending_completed
        self.pending_completed = 0
        return n

    @property
    def roving_capacity_walks(self) -> int:
        return max(1, self.cfg.roving_buffer_bytes // self.walk_bytes)

    def roving_overflow_stall(self, interval: float) -> float:
        """Stall time when a batch overfills the roving buffer.

        The channel accelerator drains the buffer every ``interval``;
        each extra buffer-full of walks waits one more period ("before
        stalling the chip-level accelerator's execution", Section III-B).
        """
        cap = self.roving_capacity_walks
        if self.pending_rove_count <= cap:
            return 0.0
        extra_fills = (self.pending_rove_count - 1) // cap
        return extra_fills * interval

    # -- timing ----------------------------------------------------------------------

    def batch_time(self, result: AdvanceResult) -> float:
        """Wall time the updater + guider pipeline needs for a batch."""
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
            tr.latency("chip_batch", t)
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChipAccelerator(#{self.index}, loaded={self.loaded}, "
            f"busy={self.busy}, rove={self.pending_rove_count})"
        )
