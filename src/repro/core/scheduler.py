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
scanning every block of the partition.  A refresh ranks a handful of
blocks, so the scoreboard and the indexes are plain Python lists; only
the public :meth:`SubgraphScheduler.scores` and
:meth:`SubgraphScheduler.walk_counts` build arrays.
"""

from __future__ import annotations

from itertools import compress

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
        ).tolist()
        self.n_chips = n_chips
        self.alpha = alpha
        self.beta = beta
        self.top_n = top_n
        self.update_period_m = update_period_m
        self.use_scores = use_scores
        # Per-block state (local indices 0..n_blocks-1).
        self.pwb = [0] * self.n_blocks
        self.fl = [0] * self.n_blocks
        self._inserts_since_update = [0] * self.n_blocks
        # scores()/walk_counts() build their arrays only after a
        # scoreboard mutation.  A warm flag means that kind of read
        # happened since the last mutation, so the next one is a cache
        # hit; internal reads go through the flags without building the
        # arrays.
        self._scores_cache: np.ndarray | None = None
        self._counts_cache: np.ndarray | None = None
        self._scores_warm = False
        self._counts_warm = False
        #: Times a scores()/walk_counts() read hit the cache.
        self.score_cache_hits = 0
        # Per-chip topN caches: local block indices, lazily refreshed.
        self._top: dict[int, list[int]] = {c: [] for c in range(n_chips)}
        self._dirty: set[int] = set(range(n_chips))
        self.topn_refreshes = 0
        self.topn_updates_deferred = 0
        # Per-chip indexes over block_chip and the scoreboard.
        self._block_chip: list[int] = []
        self._chip_blocks: list[list[int]] = []
        self._chip_pending: list[int] = []
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
        self._block_chip = self.block_chip.tolist()
        self._chip_blocks = self._blocks_by_chip(self._block_chip)
        self._chip_pending = self._pending_by_chip(self._block_chip)

    def _blocks_by_chip(self, block_chip: list[int]) -> list[list[int]]:
        blocks: list[list[int]] = [[] for _ in range(self.n_chips)]
        for idx, chip in enumerate(block_chip):
            blocks[chip].append(idx)
        return blocks

    def _pending_by_chip(self, block_chip: list[int]) -> list[int]:
        pending = [0] * self.n_chips
        for chip, pwb, fl in zip(block_chip, self.pwb, self.fl):
            pending[chip] += pwb + fl
        return pending

    # -- scoreboard updates ---------------------------------------------------------

    def _touch(self) -> None:
        """Invalidate derived-array caches after a scoreboard mutation."""
        self._scores_cache = self._counts_cache = None
        self._scores_warm = self._counts_warm = False

    def add_buffered(self, block_id: int, count: int = 1) -> None:
        """Walks inserted into the partition walk buffer for ``block_id``."""
        if count < 0:
            raise SchedulingError(f"negative count {count}")
        idx = self._local(block_id)
        self._touch()
        self.pwb[idx] += count
        chip = self._block_chip[idx]
        self._chip_pending[chip] += count
        inserts = self._inserts_since_update[idx] + count
        # Amortized topN maintenance: only mark dirty every M insertions.
        if inserts >= self.update_period_m:
            self._inserts_since_update[idx] = 0
            self._dirty.add(chip)
        else:
            self._inserts_since_update[idx] = inserts
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
        self._dirty.add(self._block_chip[idx])

    def take_walks(self, block_id: int) -> tuple[int, int]:
        """Claim all of a block's walks for loading; returns (pwb, fl)."""
        idx = self._local(block_id)
        pwb, fl = self.pwb[idx], self.fl[idx]
        self._touch()
        self.pwb[idx] = self.fl[idx] = self._inserts_since_update[idx] = 0
        chip = self._block_chip[idx]
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
            base = np.array(self.pwb, dtype=np.int64) * self.alpha + np.array(
                self.fl, dtype=np.int64
            )
            self._scores_cache = np.where(self.is_dense, base, base * self.beta)
        return self._scores_cache

    def walk_counts(self) -> np.ndarray:
        """Pending walks per block (cached; treat as read-only)."""
        self._read_counts()
        if self._counts_cache is None:
            self._counts_cache = np.array(self.pwb, dtype=np.int64) + np.array(
                self.fl, dtype=np.int64
            )
        return self._counts_cache

    def _read_scores(self) -> None:
        if self._scores_warm:
            self.score_cache_hits += 1
        else:
            self._scores_warm = True

    def _read_counts(self) -> None:
        if self._counts_warm:
            self.score_cache_hits += 1
        else:
            self._counts_warm = True

    @property
    def total_pending(self) -> int:
        return sum(self._chip_pending)

    # -- selection ----------------------------------------------------------------------

    def _refresh_top(self, chip: int) -> None:
        self._read_counts()
        pwb, fl = self.pwb, self.fl
        candidates = [b for b in self._chip_blocks[chip] if pwb[b] or fl[b]]
        if candidates:
            if self.use_scores:
                # Counts as one scores() read.  Eq. 1 in Python floats
                # rounds exactly as the vectorized scores() does.
                self._read_scores()
                alpha, beta, dense = self.alpha, self.beta, self.is_dense

                def key(b: int) -> float:
                    base = pwb[b] * alpha + fl[b]
                    return -base if dense[b] else -(base * beta)
            else:

                def key(b: int) -> float:
                    return -(pwb[b] + fl[b])

            # Stable sort of the ascending candidates on the negated key:
            # descending by score, ties broken by *lowest* local block ID.
            candidates = sorted(candidates, key=key)[: self.top_n]
        self._top[chip] = candidates
        self.topn_refreshes += 1
        self._dirty.discard(chip)
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "sched", _PID_BOARD, chip, "topn_refresh",
                args={"entries": len(candidates)},
            )

    def next_subgraph(self, chip: int, exclude: set[int] | None = None) -> int | None:
        """Best block for ``chip`` to load next (global ID), or None.

        ``exclude`` holds block IDs currently loading elsewhere on the
        chip.  Entries with no walks left are skipped and the list is
        refreshed when it runs dry or the chip is dirty.
        """
        if not 0 <= chip < self.n_chips:
            raise SchedulingError(f"chip {chip} out of range [0, {self.n_chips})")
        exclude = exclude or ()
        self._read_counts()
        pwb, fl, first = self.pwb, self.fl, self.first_block
        for _ in range(2):
            if chip in self._dirty or not self._top[chip]:
                self._refresh_top(chip)
            for idx in self._top[chip]:
                if (pwb[idx] or fl[idx]) and (idx + first) not in exclude:
                    return idx + first
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
            # Read the shared array, not the list index: when block_chip
            # is a view the caller already rewrote, every block matches.
            old = int(self.block_chip[idx])
            if old == chip:
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
        # Counts as one walk_counts() read (score_cache_hits is a report
        # counter).
        self._read_counts()
        return list(compress(range(self.n_chips), self._chip_pending))

    def consistency_errors(self, pwb_buffer) -> list[str]:
        """Scoreboard-vs-buffer divergences, one message per bad block.

        The scoreboard's per-block (pwb, fl) counts must mirror the
        :class:`~repro.core.buffers.PartitionWalkBuffer` exactly at
        every event boundary (``_start_load`` enforces the same on the
        drain path).  Used by the service layer's invariant auditor.
        """
        errors = []
        if min(self.pwb, default=0) < 0 or min(self.fl, default=0) < 0:
            errors.append("scheduler scoreboard has negative counts")
        first = self.first_block
        blocks = {
            idx + first
            for idx, (pwb, fl) in enumerate(zip(self.pwb, self.fl))
            if pwb or fl
        }
        blocks.update(pwb_buffer.blocks_with_walks())
        for block in sorted(blocks):
            idx = block - first
            sb, sf = self.pwb[idx], self.fl[idx]
            bb, bf = pwb_buffer.counts(block)
            if (sb, sf) != (bb, bf):
                errors.append(
                    f"block {block}: scheduler ({sb},{sf}) vs buffer ({bb},{bf})"
                )
        # Every index must be what reindex_chips() builds from block_chip.
        owners = self.block_chip.tolist()
        if self._block_chip != owners or self._chip_blocks != self._blocks_by_chip(
            owners
        ):
            errors.append("scheduler per-chip block lists diverge from block_chip")
        expect = self._pending_by_chip(owners)
        for chip, (have, want) in enumerate(zip(self._chip_pending, expect)):
            if have != want:
                errors.append(
                    f"chip {chip}: scheduler pending {have} vs per-block sum {want}"
                )
        return errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubgraphScheduler(blocks={self.n_blocks}, pending="
            f"{self.total_pending}, refreshes={self.topn_refreshes})"
        )
