"""Walk query caches (Section III-D).

Small caches of hot subgraph-mapping entries shared by groups of board
guiders (the paper provisions 32 caches, one per 4 guiders, 4 KB each).
A hit resolves a walk query in one cache probe; a miss pays the full
binary search and installs the entry.  Two locality sources make this
work: upper-level binary-search-tree nodes recur, and power-law graphs
concentrate walks in few hot subgraphs.

The cache is modeled at *entry granularity with LRU replacement*: keys
are subgraph (block) IDs.  Batched queries probe each element in
arrival order with :meth:`WalkQueryCache.probe`, so hit/miss counts,
evictions and final recency are those of the sequential oracle by
construction.  Batches are a handful of walks in practice, where a
plain loop beats any NumPy de-duplication.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..common.errors import ReproError

__all__ = ["WalkQueryCache", "QueryCacheArray"]

#: Sentinel distinguishing "absent" from a stored None payload.
_MISSING = object()


class WalkQueryCache:
    """One LRU cache of subgraph mapping entries."""

    def __init__(self, n_entries: int):
        if n_entries < 1:
            raise ReproError(f"cache needs >= 1 entry, got {n_entries}")
        self.n_entries = n_entries
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def probe(self, block_id: int) -> bool:
        """Single query; returns True on hit.  Installs on miss."""
        if block_id in self._lru:
            self._lru.move_to_end(block_id)
            self.hits += 1
            return True
        self.misses += 1
        self._lru[block_id] = None
        if len(self._lru) > self.n_entries:
            self._lru.popitem(last=False)
        return False

    def probe_batch(self, block_ids: np.ndarray) -> tuple[int, int]:
        """Query a batch in arrival order; returns (hits, misses).

        Exactly ``for b in block_ids: self.probe(b)``.
        """
        ids = np.asarray(block_ids, dtype=np.int64).tolist()
        probe = self.probe
        hits = 0
        for b in ids:
            if probe(b):
                hits += 1
        return hits, len(ids) - hits

    def __contains__(self, block_id: int) -> bool:
        """Non-mutating residency check (no LRU refresh, no counters)."""
        return block_id in self._lru

    def entries(self) -> list[int]:
        """Resident block IDs in LRU-to-MRU order (for tests/debugging)."""
        return list(self._lru)

    def invalidate(self) -> None:
        self._lru.clear()

    def invalidate_blocks(self, block_ids) -> int:
        """Evict specific blocks (no counters); returns how many were
        resident.  Used on chip failover: a failed chip's remapped
        blocks must not serve stale mapping entries."""
        removed = 0
        for b in np.asarray(block_ids, dtype=np.int64).tolist():
            if self._lru.pop(b, _MISSING) is not _MISSING:
                removed += 1
        return removed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WalkQueryCache(entries={self.n_entries}, "
            f"hit_rate={self.hit_rate:.2%})"
        )


class QueryCacheArray:
    """The board's bank of walk query caches.

    Walks are distributed over caches by guider group (we shard on block
    ID, matching how guiders pull walks from the guide buffer).
    """

    def __init__(self, n_caches: int, entries_per_cache: int):
        if n_caches < 1:
            raise ReproError(f"need >= 1 cache, got {n_caches}")
        self.caches = [WalkQueryCache(entries_per_cache) for _ in range(n_caches)]

    def probe_batch(self, block_ids: list[int] | np.ndarray) -> tuple[int, int]:
        """Probe each block, in arrival order, against its shard's cache;
        returns (hits, misses)."""
        ids = (
            block_ids
            if isinstance(block_ids, list)
            else np.asarray(block_ids, dtype=np.int64).tolist()
        )
        caches = self.caches
        n_caches = len(caches)
        hits = 0
        for b in ids:
            if caches[b % n_caches].probe(b):
                hits += 1
        return hits, len(ids) - hits

    def invalidate(self) -> None:
        """Drop all entries (partition switch: table contents change)."""
        for cache in self.caches:
            cache.invalidate()

    def invalidate_blocks(self, block_ids) -> int:
        """Evict specific blocks from their owning shards; returns the
        number of entries actually removed."""
        block_ids = np.asarray(block_ids, dtype=np.int64)
        if block_ids.size == 0:
            return 0
        shard = block_ids % len(self.caches)
        removed = 0
        for i in np.unique(shard).tolist():
            removed += self.caches[i].invalidate_blocks(block_ids[shard == i])
        return removed

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.caches)

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.caches)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
