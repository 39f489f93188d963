"""Dense vertices mapping table and pre-walking (Section III-D).

A dense vertex's out-edges span several graph blocks, which can never be
co-resident under the accelerator buffer budget.  *Pre-walking* chooses
the graph block of the walk's next stop **before** sampling the stop:
for an unbiased walk, draw ``rnd`` in [0, outDegree) and route the walk
to block ``first + rnd // edges_per_block``; the in-block offset
``rnd % edges_per_block`` resolves later when that block is loaded.
The two-stage draw is distributionally identical to a single uniform
draw over all out-edges (tests verify this).

The table itself is a Bloom filter (membership) plus a hash map (the
metadata); the guider consults it *before* the subgraph mapping table,
and a false positive only costs a wasted hash probe.  The filter's
answer for a vertex never changes, so the table asks it once per vertex
at construction and :meth:`DenseVertexTable.classify` gathers the
answers; the counters are those of querying the filter per walk.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ReproError
from ..graph.partition import DenseVertexMeta, GraphPartitioning
from .bloom import BloomFilter

__all__ = ["DenseVertexTable", "PreWalkResult"]

#: Vertices per Bloom query while building the per-vertex answers
#: (bounds the (chunk, n_hashes) position matrix).
_CHUNK = 1 << 15


class PreWalkResult:
    """Outcome of pre-walking a batch: target block + in-block edge offset."""

    __slots__ = ("block", "edge_offset")

    def __init__(self, block: np.ndarray, edge_offset: np.ndarray):
        self.block = block
        self.edge_offset = edge_offset


class DenseVertexTable:
    """Bloom filter + hash table over dense vertices."""

    def __init__(self, partitioning: GraphPartitioning, bits_per_item: int = 10):
        self.partitioning = partitioning
        n = max(1, partitioning.num_dense_vertices)
        self.bloom = BloomFilter.for_capacity(n, bits_per_item)
        self.meta: dict[int, DenseVertexMeta] = dict(partitioning.dense_meta)
        if self.meta:
            self.bloom.add(np.fromiter(self.meta, dtype=np.int64, count=len(self.meta)))
        # Vectorized views of the metadata for batch pre-walking.
        if self.meta:
            verts = np.array(sorted(self.meta), dtype=np.int64)
            self._verts = verts
            self._first = np.array(
                [self.meta[int(v)].first_block for v in verts], dtype=np.int64
            )
            self._degree = np.array(
                [self.meta[int(v)].out_degree for v in verts], dtype=np.int64
            )
            self._per_block = np.array(
                [self.meta[int(v)].edges_per_block for v in verts], dtype=np.int64
            )
        else:
            self._verts = np.zeros(0, dtype=np.int64)
            self._first = np.zeros(0, dtype=np.int64)
            self._degree = np.zeros(0, dtype=np.int64)
            self._per_block = np.zeros(0, dtype=np.int64)
        # Per-vertex Bloom answer and hash-table answer.
        n_vertices = partitioning.graph.num_vertices
        self._maybe = np.zeros(n_vertices, dtype=bool)
        for lo in range(0, n_vertices, _CHUNK):
            hi = min(lo + _CHUNK, n_vertices)
            self._maybe[lo:hi] = self.bloom.contains(np.arange(lo, hi))
        self._is_dense = np.zeros(n_vertices, dtype=bool)
        self._is_dense[self._verts] = True
        self.bloom_queries = 0
        self.bloom_positives = 0
        self.false_positives = 0
        self.hash_probes = 0

    @property
    def num_dense(self) -> int:
        return len(self.meta)

    def classify(self, v: np.ndarray) -> np.ndarray:
        """Mask of vertices that are dense, via bloom + hash confirm.

        Bloom false positives are counted (they cost a hash probe) but
        corrected by the hash-table miss, so the result is exact.
        """
        v = np.asarray(v, dtype=np.int64)
        if v.size == 0:
            return np.zeros(0, dtype=bool)
        if v.min() < 0 or v.max() >= self._maybe.size:
            raise ReproError(f"classify: vertex outside [0, {self._maybe.size})")
        maybe = self._maybe[v]
        confirmed = self._is_dense[v]
        positives = int(np.count_nonzero(maybe))
        self.bloom_queries += v.size
        self.bloom_positives += positives
        self.hash_probes += positives
        # Every dense vertex is in the filter, so it is a positive too.
        self.false_positives += positives - int(np.count_nonzero(confirmed))
        return confirmed

    def pre_walk(self, v: np.ndarray, rng: np.random.Generator) -> PreWalkResult:
        """Pre-walk a batch of dense walks sitting at dense vertices ``v``.

        Draws the uniform edge index now and splits it into (target
        block, in-block offset).  All ``v`` must be dense.
        """
        v = np.asarray(v, dtype=np.int64)
        if v.size == 0:
            return PreWalkResult(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
            )
        pos = np.searchsorted(self._verts, v)
        if (
            self._verts.size == 0
            or (pos >= self._verts.size).any()
            or (self._verts[np.minimum(pos, self._verts.size - 1)] != v).any()
        ):
            raise ReproError("pre_walk called with a non-dense vertex")
        deg = self._degree[pos]
        rnd = (rng.random(v.size) * deg).astype(np.int64)
        np.minimum(rnd, deg - 1, out=rnd)
        block = self._first[pos] + rnd // self._per_block[pos]
        return PreWalkResult(block, rnd % self._per_block[pos])

    @property
    def measured_fpr(self) -> float:
        neg = self.bloom_queries - (self.bloom_positives - self.false_positives)
        return self.false_positives / neg if neg else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DenseVertexTable(n={self.num_dense}, "
            f"queries={self.bloom_queries}, fpr={self.measured_fpr:.3%})"
        )
