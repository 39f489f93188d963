"""Subgraph mapping table, range table, and walk-query cost model.

Section III-D: the subgraph mapping table maps a vertex ID to its
subgraph via binary search over entries sorted by low-end vertex; each
entry holds the two end vertices, the flash address, and the subgraph's
summed out-degree.  Section III-C adds the *subgraph range mapping
table* in channel-level accelerators: an approximate search that only
returns which range of ``range_subgraphs`` consecutive subgraphs a walk
lands in, shrinking the board-level search scope by that factor.

Semantically both searches are a ``searchsorted``; what matters for the
simulation is the **step count** each query costs, which feeds the
guider timing model.  Lookups are vectorized over walk batches; the
subgraph mapping table also answers a list of vertices with a list, for
the engine's per-walk board pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from ..common.errors import ReproError
from ..graph.partition import GraphPartitioning

__all__ = ["SubgraphMappingTable", "RangeTable", "binary_search_steps"]


def binary_search_steps(n_entries: int) -> int:
    """Comparisons a binary search over ``n_entries`` performs (>= 1)."""
    if n_entries < 1:
        raise ReproError(f"binary search over {n_entries} entries")
    return max(1, math.ceil(math.log2(n_entries + 1)))


class SubgraphMappingTable:
    """Sorted subgraph mapping entries for one graph partition.

    Only the current partition's entries are resident (Section III-D:
    "only the required subgraph mapping entries are stored in the
    accelerator"); vertices outside the partition's vertex span are
    *foreigners*.
    """

    def __init__(self, partitioning: GraphPartitioning, first_block: int, last_block: int):
        if not 0 <= first_block <= last_block < partitioning.num_blocks:
            raise ReproError(
                f"bad block range [{first_block}, {last_block}] for "
                f"{partitioning.num_blocks} blocks"
            )
        self.partitioning = partitioning
        self.first_block = first_block
        self.last_block = last_block
        self.lo = partitioning.block_lo[first_block : last_block + 1]
        self.hi = partitioning.block_hi[first_block : last_block + 1]
        self.vertex_lo = int(self.lo[0])
        self.vertex_hi = int(self.hi[-1])
        # Plain-Python copies for list lookups: each entry's low vertex,
        # and the global block a hit on each entry resolves to.
        self._lo_list = self.lo.tolist()
        first = partitioning._dense_first_block
        self._block_list = (
            list(range(first_block, last_block + 1))
            if first is None
            else first[first_block : last_block + 1].tolist()
        )
        self.lookups = 0
        self.search_steps_total = 0

    @property
    def n_entries(self) -> int:
        return int(self.lo.size)

    def full_search_steps(self) -> int:
        """Steps of an unrestricted binary search over this table."""
        return binary_search_steps(self.n_entries)

    def contains_vertices(self, v: np.ndarray | list[int]) -> np.ndarray | list[bool]:
        """Mask: vertex inside this partition's span (False = foreigner)."""
        lo, hi = self.vertex_lo, self.vertex_hi
        if isinstance(v, list):
            return [lo <= x <= hi for x in v]
        v = np.asarray(v, dtype=np.int64)
        return (v >= lo) & (v <= hi)

    def lookup(
        self, v: np.ndarray | list[int], scope_entries: int | None = None
    ) -> tuple[np.ndarray | list[int], int]:
        """Resolve vertices to *global* block IDs.

        ``scope_entries`` narrows the modeled search scope (the
        approximate walk search tags walks with a range, so the board
        guider only searches ``range_subgraphs`` entries).  Returns
        (block_ids, per-walk search step count).  Callers must ensure all
        ``v`` are within the partition (check :meth:`contains_vertices`).
        """
        if isinstance(v, list):
            if not v:
                return [], 0
            if min(v) < self.vertex_lo or max(v) > self.vertex_hi:
                raise ReproError("lookup of vertex outside partition span")
            lo, block = self._lo_list, self._block_list
            blocks = [block[bisect_right(lo, x) - 1] for x in v]
            n = len(v)
        else:
            v = np.asarray(v, dtype=np.int64)
            if v.size == 0:
                return np.zeros(0, dtype=np.int64), 0
            if (v < self.vertex_lo).any() or (v > self.vertex_hi).any():
                raise ReproError("lookup of vertex outside partition span")
            idx = np.searchsorted(self.lo, v, side="right") - 1
            blocks = idx + self.first_block
            first = self.partitioning._dense_first_block
            if first is not None:
                blocks = first[blocks]
            n = v.size
        # Clamp the modeled scope to [1, n_entries]: a range tag can name
        # an empty scope (0 subgraphs beyond the first), but the guider
        # still performs at least one comparison to confirm the entry.
        scope = self.n_entries if scope_entries is None else max(
            1, min(scope_entries, self.n_entries)
        )
        steps = binary_search_steps(scope)
        self.lookups += n
        self.search_steps_total += steps * n
        return blocks, steps


class RangeTable:
    """Subgraph-range mapping table of a channel-level accelerator.

    One entry per ``range_subgraphs`` consecutive subgraphs, storing the
    range's low/high end vertices.  Also answers "is this walk in the
    current partition?" — walks outside are foreigners (Section III-C).
    """

    def __init__(
        self,
        partitioning: GraphPartitioning,
        first_block: int,
        last_block: int,
        range_subgraphs: int,
    ):
        if range_subgraphs < 1:
            raise ReproError(f"range_subgraphs must be >= 1, got {range_subgraphs}")
        self.range_subgraphs = range_subgraphs
        self.first_block = first_block
        n_blocks = last_block - first_block + 1
        self.n_ranges = -(-n_blocks // range_subgraphs)
        blo = partitioning.block_lo[first_block : last_block + 1]
        bhi = partitioning.block_hi[first_block : last_block + 1]
        self.range_lo = blo[::range_subgraphs][: self.n_ranges].copy()
        hi_idx = np.minimum(
            np.arange(1, self.n_ranges + 1) * range_subgraphs - 1, n_blocks - 1
        )
        self.range_hi = bhi[hi_idx].copy()
        self.vertex_lo = int(self.range_lo[0])
        self.vertex_hi = int(self.range_hi[-1])
        self.queries = 0

    def search_steps(self) -> int:
        return binary_search_steps(self.n_ranges)

    def query(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Approximate walk search.

        Returns (range_id, in_partition mask, search steps per walk).
        Foreigners get range_id -1.
        """
        v = np.asarray(v, dtype=np.int64)
        if v.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), 0
        inside = (v >= self.vertex_lo) & (v <= self.vertex_hi)
        rid = np.full(v.shape, -1, dtype=np.int64)
        if inside.any():
            rid[inside] = (
                np.searchsorted(self.range_lo, v[inside], side="right") - 1
            )
        self.queries += v.size
        return rid, inside, self.search_steps()

    def range_entry_scope(self) -> int:
        """Entries the board guider must search after a range tag."""
        return self.range_subgraphs
