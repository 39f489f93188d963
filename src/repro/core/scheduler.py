"""Subgraph scheduling (Section III-D, Eq. 1).

The scoreboard tracks, per subgraph of the current partition, how many
walks wait in the partition walk buffer (``pwb``) and how many were
spilled to flash (``fl``).  Eq. 1's critical degree::

    score_i = (pwb * alpha + fl) * beta    if subgraph i is non-dense
    score_i =  pwb * alpha + fl            if subgraph i is dense

``alpha`` weighs buffered walks (overflow-prone) over spilled ones;
``beta`` discounts dense subgraphs, whose walks pack denser (no ``cur``
stored) and so overflow later.

To avoid sorting all subgraphs, a per-chip **topN list** caches the N
highest-scoring subgraphs on that chip; it is refreshed from the dirty
set only every M walk-insertions per subgraph (Section III-D's
amortization).  With scheduling disabled (Fig. 9 baseline) the scheduler
degrades to most-buffered-walks order, GraphWalker's policy.

Per-chip indexes (each chip's owned blocks in ascending order and its
pending-walk total) keep a refresh and the chips-with-work query from
scanning every block of the partition.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import SchedulingError
from ..obs.tracer import PID_BOARD as _PID_BOARD

__all__ = ["SubgraphScheduler"]


class SubgraphScheduler:
    """Scoreboard + per-chip topN lists over one graph partition."""

    def __init__(
        self,
        block_chip: np.ndarray,
        is_dense_block: np.ndarray,
        first_block: int,
        last_block: int,
        n_chips: int,
        alpha: float,
        beta: float,
        top_n: int,
        update_period_m: int,
        use_scores: bool = True,
    ):
        if not 0 <= first_block <= last_block:
            raise SchedulingError(f"bad block range [{first_block}, {last_block}]")
        if alpha <= 0 or beta <= 0:
            raise SchedulingError(f"alpha/beta must be positive ({alpha}, {beta})")
        if top_n < 1 or update_period_m < 1:
            raise SchedulingError("top_n and update_period_m must be >= 1")
        self.first_block = first_block
        self.last_block = last_block
        self.n_blocks = last_block - first_block + 1
        # May be a view of the engine's placement array: a chip failover
        # rewrites it in place, then calls reassign_blocks().
        self.block_chip = np.asarray(
            block_chip[first_block : last_block + 1], dtype=np.int64
        )
        if self.block_chip.size and not (
            0 <= self.block_chip.min() and self.block_chip.max() < n_chips
        ):
            raise SchedulingError(f"block owners outside [0, {n_chips})")
        self.is_dense = np.asarray(
            is_dense_block[first_block : last_block + 1], dtype=bool
        )
        self.n_chips = n_chips
        self.alpha = alpha
        self.beta = beta
        self.top_n = top_n
        self.update_period_m = update_period_m
        self.use_scores = use_scores
        # Per-block state (local indices 0..n_blocks-1).
        self.pwb = np.zeros(self.n_blocks, dtype=np.int64)
        self.fl = np.zeros(self.n_blocks, dtype=np.int64)
        self._inserts_since_update = np.zeros(self.n_blocks, dtype=np.int64)
        # scores()/walk_counts() are recomputed only after a scoreboard
        # mutation; next_subgraph() and _refresh_top() otherwise share
        # the cached arrays (event-loop hotspot per the obs profiler).
        self._scores_cache: np.ndarray | None = None
        self._counts_cache: np.ndarray | None = None
        # Scores were read since the last mutation, so the next read is
        # a cache hit.  A topN refresh reads only its candidates' scores,
        # so the full array may not be built yet.
        self._scores_warm = False
        #: Times scores()/walk_counts() served the cached array.
        self.score_cache_hits = 0
        # Per-chip topN caches: local block indices, lazily refreshed.
        self._top: dict[int, list[int]] = {c: [] for c in range(n_chips)}
        self._dirty: set[int] = set(range(n_chips))
        self.topn_refreshes = 0
        self.topn_updates_deferred = 0
        # Per-chip indexes over block_chip and the scoreboard.
        self._chip_blocks: list[np.ndarray] = []
        self._chip_pending = np.zeros(n_chips, dtype=np.int64)
        self.reindex_chips()
        #: Optional :class:`~repro.obs.Tracer` (with a bound clock, since
        #: the scheduler itself is timeless); None = no recording.
        self.tracer = None

    # -- index helpers ------------------------------------------------------------

    def _local(self, block_id: int) -> int:
        idx = block_id - self.first_block
        if not 0 <= idx < self.n_blocks:
            raise SchedulingError(
                f"block {block_id} outside partition "
                f"[{self.first_block}, {self.last_block}]"
            )
        return idx

    def reindex_chips(self) -> None:
        """Rebuild the per-chip indexes from ``block_chip`` and the
        scoreboard (after a reassignment or a checkpoint restore)."""
        order = np.argsort(self.block_chip, kind="stable")
        edges = np.searchsorted(
            self.block_chip[order], np.arange(self.n_chips + 1)
        )
        self._chip_blocks = [
            order[edges[c] : edges[c + 1]] for c in range(self.n_chips)
        ]
        self._chip_pending = self._pending_by_chip()

    def _pending_by_chip(self) -> np.ndarray:
        pending = np.zeros(self.n_chips, dtype=np.int64)
        np.add.at(pending, self.block_chip, self.pwb + self.fl)
        return pending

    # -- scoreboard updates ---------------------------------------------------------

    def _touch(self) -> None:
        """Invalidate derived-array caches after a scoreboard mutation."""
        self._scores_cache = None
        self._scores_warm = False
        self._counts_cache = None

    def add_buffered(self, block_id: int, count: int = 1) -> None:
        """Walks inserted into the partition walk buffer for ``block_id``."""
        if count < 0:
            raise SchedulingError(f"negative count {count}")
        idx = self._local(block_id)
        self._touch()
        self.pwb[idx] += count
        chip = int(self.block_chip[idx])
        self._chip_pending[chip] += count
        self._inserts_since_update[idx] += count
        # Amortized topN maintenance: only mark dirty every M insertions.
        if self._inserts_since_update[idx] >= self.update_period_m:
            self._inserts_since_update[idx] = 0
            self._dirty.add(chip)
        else:
            self.topn_updates_deferred += 1

    def add_spilled(self, block_id: int, count: int = 1) -> None:
        """Walks spilled from the buffer entry to flash."""
        if count < 0:
            raise SchedulingError(f"negative count {count}")
        idx = self._local(block_id)
        if count > self.pwb[idx]:
            raise SchedulingError(
                f"spilling {count} walks but only {self.pwb[idx]} buffered"
            )
        self._touch()
        self.pwb[idx] -= count
        self.fl[idx] += count
        self._dirty.add(int(self.block_chip[idx]))

    def take_walks(self, block_id: int) -> tuple[int, int]:
        """Claim all of a block's walks for loading; returns (pwb, fl)."""
        idx = self._local(block_id)
        pwb, fl = int(self.pwb[idx]), int(self.fl[idx])
        self._touch()
        self.pwb[idx] = 0
        self.fl[idx] = 0
        self._inserts_since_update[idx] = 0
        chip = int(self.block_chip[idx])
        self._chip_pending[chip] -= pwb + fl
        self._dirty.add(chip)
        return pwb, fl

    # -- scores ---------------------------------------------------------------------

    def scores(self) -> np.ndarray:
        """Eq. 1 over all blocks of the partition (vectorized).

        The returned array is cached until the next scoreboard mutation;
        callers must treat it as read-only.
        """
        self._read_scores()
        if self._scores_cache is None:
            self._scores_cache = self._eq1(slice(None))
        return self._scores_cache

    def _read_scores(self) -> None:
        if self._scores_warm:
            self.score_cache_hits += 1
        else:
            self._scores_warm = True

    def _eq1(self, idx) -> np.ndarray:
        base = self.pwb[idx] * self.alpha + self.fl[idx]
        return np.where(self.is_dense[idx], base, base * self.beta)

    def walk_counts(self) -> np.ndarray:
        """Pending walks per block (cached; treat as read-only)."""
        if self._counts_cache is None:
            self._counts_cache = self.pwb + self.fl
        else:
            self.score_cache_hits += 1
        return self._counts_cache

    @property
    def total_pending(self) -> int:
        return int(self.pwb.sum() + self.fl.sum())

    # -- selection ----------------------------------------------------------------------

    def _refresh_top(self, chip: int) -> None:
        counts = self.walk_counts()
        blocks = self._chip_blocks[chip]
        candidates = blocks[counts[blocks] > 0]
        if candidates.size == 0:
            self._top[chip] = []
        else:
            if self.use_scores:
                # Counts as one scores() read; Eq. 1 over just the
                # candidates gives the same values.
                self._read_scores()
                key = self._eq1(candidates)
            else:
                key = counts[candidates]
            # Stable sort on the negated key: descending by score, ties
            # broken by *lowest* local block ID.  (A reversed ascending
            # stable sort would break ties by highest index, making topN
            # order depend on candidate layout rather than block ID.)
            order = np.argsort(-key, kind="stable")
            self._top[chip] = candidates[order][: self.top_n].tolist()
        self.topn_refreshes += 1
        self._dirty.discard(chip)
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "sched", _PID_BOARD, chip, "topn_refresh",
                args={"entries": len(self._top[chip])},
            )

    def next_subgraph(self, chip: int, exclude: set[int] | None = None) -> int | None:
        """Best block for ``chip`` to load next (global ID), or None.

        ``exclude`` holds block IDs currently loading elsewhere on the
        chip.  Entries with no walks left are skipped and the list is
        refreshed when it runs dry or the chip is dirty.
        """
        if not 0 <= chip < self.n_chips:
            raise SchedulingError(f"chip {chip} out of range [0, {self.n_chips})")
        exclude = exclude or set()
        counts = self.walk_counts()
        for _ in range(2):
            if chip in self._dirty or not self._top[chip]:
                self._refresh_top(chip)
            for idx in self._top[chip]:
                if counts[idx] > 0 and (idx + self.first_block) not in exclude:
                    return idx + self.first_block
            # topN stale (all consumed): force one refresh, then give up.
            if chip not in self._dirty:
                self._dirty.add(chip)
            else:
                break
        return None

    def reassign_blocks(self, block_ids, new_chips) -> None:
        """Move blocks to new owning chips (degraded mode).

        Used when a chip fails and its subgraphs are relocated onto the
        survivors: both the old and new owners' topN caches are marked
        dirty so future :meth:`next_subgraph` calls rebuild them.
        """
        for bid, chip in zip(block_ids, new_chips):
            if not 0 <= chip < self.n_chips:
                raise SchedulingError(
                    f"chip {chip} out of range [0, {self.n_chips})"
                )
            idx = self._local(int(bid))
            old = int(self.block_chip[idx])
            if old == chip:
                # Also the case for every block when block_chip is a
                # view the caller already rewrote.
                continue
            self.block_chip[idx] = chip
            self._dirty.add(old)
            self._dirty.add(int(chip))
            tr = self.tracer
            if tr is not None:
                tr.instant(
                    "sched", _PID_BOARD, int(chip), "block_reassigned",
                    args={"block": int(bid), "from_chip": old},
                )
        self.reindex_chips()

    def chips_with_work(self) -> list[int]:
        """Chip indices (ascending) that own blocks with pending walks."""
        # walk_counts() is read for its score_cache_hits accounting (a
        # report counter): one cached read per call.
        self.walk_counts()
        return np.flatnonzero(self._chip_pending).tolist()

    def consistency_errors(self, pwb_buffer) -> list[str]:
        """Scoreboard-vs-buffer divergences, one message per bad block.

        The scoreboard's per-block (pwb, fl) counts must mirror the
        :class:`~repro.core.buffers.PartitionWalkBuffer` exactly at
        every event boundary (``_start_load`` enforces the same on the
        drain path).  Used by the service layer's invariant auditor.
        """
        errors = []
        if int(self.pwb.min(initial=0)) < 0 or int(self.fl.min(initial=0)) < 0:
            errors.append("scheduler scoreboard has negative counts")
        nonzero = np.flatnonzero((self.pwb != 0) | (self.fl != 0))
        blocks = set((nonzero + self.first_block).tolist())
        blocks.update(pwb_buffer.blocks_with_walks())
        for block in sorted(blocks):
            idx = block - self.first_block
            sb, sf = int(self.pwb[idx]), int(self.fl[idx])
            bb, bf = pwb_buffer.counts(block)
            if (sb, sf) != (bb, bf):
                errors.append(
                    f"block {block}: scheduler ({sb},{sf}) vs buffer ({bb},{bf})"
                )
        # The per-chip lists, concatenated in chip order, must be the
        # stable sort of block_chip, split at its per-chip counts.
        sizes = np.bincount(self.block_chip, minlength=self.n_chips)
        owned = np.concatenate(self._chip_blocks)
        if [blocks.size for blocks in self._chip_blocks] != sizes.tolist() or (
            not np.array_equal(owned, np.argsort(self.block_chip, kind="stable"))
        ):
            errors.append("scheduler per-chip block lists diverge from block_chip")
        expect = self._pending_by_chip()
        for chip in np.flatnonzero(expect != self._chip_pending).tolist():
            errors.append(
                f"chip {chip}: scheduler pending {int(self._chip_pending[chip])} "
                f"vs per-block sum {int(expect[chip])}"
            )
        return errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubgraphScheduler(blocks={self.n_blocks}, pending="
            f"{self.total_pending}, refreshes={self.topn_refreshes})"
        )
