"""Vectorized walk advancement within a set of loaded subgraphs.

The inner loop of every accelerator level (Section III-B steps 2-7):
fetch a walk, sample its next stop, decrement hops, then guide it — into
another loaded subgraph's queue (keep advancing), the completed buffer,
or the roving buffer.  We count hops / guide operations / ITS search
steps so the caller can charge accurate updater and guider time
(DESIGN.md Section 4: behaviorally exact trajectories, request-accurate
timing).

Two kernels implement the step.  :func:`advance_vectorized` advances
the whole batch per iteration with NumPy; :func:`advance_per_walk` loops
over the walks in Python, which is cheaper for the few-walk batches the
engine mostly runs (its per-call NumPy overhead is gone).  The per-walk
kernel makes the same RNG draws in the same order and returns the same
walks in the same order, so :func:`advance_batch` picks between them by
batch size alone (DESIGN.md Section 8, "host hot path").  Both take and
return list-backed walk batches (:class:`~repro.core.buffers.WalkBatch`);
only the vectorized kernel converts to arrays, at its entry and exit.

Dense-vertex rules (Section III-D): a walk *landing on* a dense vertex
always exits as roving — it needs board-level pre-walking.  A walk
*arriving with* a pre-walked edge index resolves that edge directly when
its dense block is loaded.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..common.errors import ReproError
from ..graph.csr import CSRGraph
from ..graph.partition import GraphPartitioning
from ..walks.sampling import its_search_steps
from ..walks.spec import WalkSpec
from .buffers import WalkBatch

__all__ = [
    "AdvanceContext",
    "AdvanceResult",
    "PER_WALK_CROSSOVER",
    "advance_batch",
    "advance_per_walk",
    "advance_vectorized",
    "in_sorted",
]

#: Batches smaller than this run the per-walk kernel, and the engine's
#: board pass runs one walk at a time: about the batch size at which
#: either pair of paths took the same host time per call on batches
#: recorded from the benchmark workloads (DESIGN.md Section 8, "host
#: hot path"; ``benchmarks/bench_crossovers.py`` re-measures both).
PER_WALK_CROSSOVER = 64


def in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership test against a *sorted* array via binary search.

    Equivalent to ``np.isin(values, sorted_arr)`` but O(n log m) with no
    per-call sort or broadcast temporaries — the guider membership check
    is on the advancement hot path.
    """
    if sorted_arr.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    np.minimum(idx, sorted_arr.size - 1, out=idx)
    return sorted_arr[idx] == values


@dataclass
class AdvanceContext:
    """Static inputs of the advancement kernel, shared by all levels."""

    graph: CSRGraph
    partitioning: GraphPartitioning
    spec: WalkSpec
    sampler: object  # (cur, rng) -> next vertices, -1 at dead ends
    is_dense_vertex: np.ndarray  # bool per vertex
    #: Each block's first vertex as Python ints (O(blocks)): the copy of
    #: the mapping table that per-walk code bisects for a non-dense
    #: vertex's block.
    block_lo: list[int]

    @classmethod
    def build(cls, graph, partitioning, spec, sampler) -> "AdvanceContext":
        dense = np.zeros(graph.num_vertices, dtype=bool)
        if partitioning.dense_meta:
            dense[np.fromiter(partitioning.dense_meta, dtype=np.int64)] = True
        return cls(
            graph, partitioning, spec, sampler, dense, partitioning.block_lo.tolist()
        )

    @property
    def uniform(self) -> bool:
        """Unbiased walks on an unweighted graph: the sampler is
        :func:`~repro.walks.sampling.uniform_next`, which the per-walk
        kernel reproduces."""
        return self.graph.weights is None and not self.spec.biased


@dataclass
class AdvanceResult:
    """Outcome of draining one batch against a loaded subgraph set.
    ``completed`` and ``roving`` carry no pre-walked edges."""

    completed: WalkBatch
    roving: WalkBatch
    hops: int
    guide_ops: int
    bias_steps: int

    @property
    def n_completed(self) -> int:
        return len(self.completed)


def advance_batch(
    ctx: AdvanceContext,
    batch: WalkBatch,
    loaded_blocks: list[int] | np.ndarray,
    rng: np.random.Generator,
) -> AdvanceResult:
    """Advance walks until each terminates or leaves ``loaded_blocks``.

    ``batch.pre_edge`` entries >= 0 are resolved on the first iteration
    (their dense block must be in ``loaded_blocks``).  Returns completed
    and roving walk batches plus the operation counts for timing.  Batches
    of fewer than :data:`PER_WALK_CROSSOVER` uniform walks take the
    per-walk kernel; the result and the RNG state afterwards are the
    same either way.
    """
    if len(batch) < PER_WALK_CROSSOVER and ctx.uniform:
        return advance_per_walk(ctx, batch, loaded_blocks, rng)
    return advance_vectorized(ctx, batch, loaded_blocks, rng)


def advance_per_walk(
    ctx: AdvanceContext,
    batch: WalkBatch,
    loaded_blocks: list[int] | np.ndarray,
    rng: np.random.Generator,
) -> AdvanceResult:
    """:func:`advance_vectorized` for uniform walks, one walk at a time.

    Each iteration draws ``rng.random(k)`` for the ``k`` active walks
    with out-edges, in active order, exactly as
    :func:`~repro.walks.sampling.uniform_next` does, then
    ``rng.random(m)`` for the ``m`` walks a stop probability may end.
    Walk positions must be valid vertices: Python lists wrap negative
    indices, so nothing here would catch one.
    """
    src = batch.src
    cur = list(batch.cur)
    hop = list(batch.hop)
    pre = batch.pre_edge
    loaded = {int(b) for b in loaded_blocks}
    n_cmp = max(1, len(loaded))  # guider compares against each loaded range
    offset = ctx.graph.offsets.item
    edge = ctx.graph.edges.item
    is_dense = ctx.is_dense_vertex.item
    block_lo = ctx.block_lo
    stop_p = ctx.spec.stop_probability
    random = rng.random

    done_src: list[int] = []
    done_cur: list[int] = []
    done_hop: list[int] = []
    rove_src: list[int] = []
    rove_cur: list[int] = []
    rove_hop: list[int] = []
    hops = 0
    guide_ops = 0
    nxt = [-1] * len(src)
    active = list(range(len(src)))
    while active:
        # Fetch + sample.  Pre-walked dense hops exist only on the first
        # iteration; the rest share one draw per walk with out-edges.
        draws = []
        for i in active:
            v = cur[i]
            lo = offset(v)
            deg = offset(v + 1) - lo
            if pre is not None and pre[i] >= 0:
                if pre[i] >= deg:
                    raise ReproError("pre-walked edge index beyond vertex degree")
                nxt[i] = edge(lo + pre[i])
            elif deg:
                draws.append((i, lo, deg))
            else:
                nxt[i] = -1
        pre = None
        if draws:
            for (i, lo, deg), r in zip(draws, random(len(draws)).tolist()):
                k = int(r * deg)
                # guard the pathological rng.random() == 1.0 edge
                nxt[i] = edge(lo + (k if k < deg else deg - 1))

        # Decrement; dead ends and exhausted walks complete.
        ended = set()
        still = []
        for i in active:
            w = nxt[i]
            if w < 0:
                ended.add(i)
                continue
            hops += 1
            cur[i] = w
            hop[i] -= 1
            if hop[i]:
                still.append(i)
            else:
                ended.add(i)
        if stop_p > 0 and still:
            for i, r in zip(still, random(len(still)).tolist()):
                if r < stop_p:
                    ended.add(i)
        guide_ops += len(active) * n_cmp

        # Guiding: stay if the new vertex is not dense (dense landings
        # need board pre-walking) and its block is loaded here.  Blocks
        # of a dense vertex hold no other vertex, so a non-dense vertex's
        # block is the last one starting at or before it.
        staying = []
        for i in active:
            v = cur[i]
            if i in ended:
                done_src.append(src[i])
                done_cur.append(v)
                done_hop.append(hop[i])
                continue
            if not is_dense(v) and bisect_right(block_lo, v) - 1 in loaded:
                staying.append(i)
            else:
                rove_src.append(src[i])
                rove_cur.append(v)
                rove_hop.append(hop[i])
        active = staying

    return AdvanceResult(
        completed=WalkBatch(done_src, done_cur, done_hop),
        roving=WalkBatch(rove_src, rove_cur, rove_hop),
        hops=hops,
        guide_ops=guide_ops,
        bias_steps=0,
    )


def _gather(parts: list[tuple]) -> WalkBatch:
    """One batch from (src, cur, hop) array triples, in order."""
    if not parts:
        return WalkBatch.empty()
    return WalkBatch(*(np.concatenate(f).tolist() for f in zip(*parts)))


def advance_vectorized(
    ctx: AdvanceContext,
    batch: WalkBatch,
    loaded_blocks: list[int] | np.ndarray,
    rng: np.random.Generator,
) -> AdvanceResult:
    """The batch-at-a-time kernel: every iteration advances all active
    walks with NumPy.  Serves any sampler."""
    loaded = np.asarray(sorted(set(int(b) for b in loaded_blocks)), dtype=np.int64)
    n = len(batch)
    if n == 0:
        return AdvanceResult(WalkBatch.empty(), WalkBatch.empty(), 0, 0, 0)

    graph = ctx.graph
    part = ctx.partitioning
    offsets = graph.offsets
    edges = graph.edges

    src = np.array(batch.src, dtype=np.int64)
    cur = np.array(batch.cur, dtype=np.int64)
    hop = np.array(batch.hop, dtype=np.int64)
    pre = (
        np.array(batch.pre_edge, dtype=np.int64)
        if batch.pre_edge is not None
        else np.full(n, -1, dtype=np.int64)
    )

    # (src, cur, hop) array triples of finished / roving walks, in order.
    completed_parts: list[tuple] = []
    roving_parts: list[tuple] = []
    hops = 0
    guide_ops = 0
    bias_steps = 0
    n_cmp = max(1, loaded.size)  # guider compares against each loaded range

    biased = ctx.spec.biased
    sampler = ctx.sampler
    active = np.arange(n, dtype=np.int64)
    first_iteration = True
    while active.size:
        acur = cur[active]
        # Pre-walked dense hops exist only on the first iteration; the
        # common later iterations sample directly with no mask/temporary
        # allocations (this loop dominates chip-batch host time).
        if first_iteration and (pre[active] >= 0).any():
            has_pre = pre[active] >= 0
            nxt = np.empty(active.size, dtype=np.int64)
            pa = active[has_pre]
            eidx = offsets[cur[pa]] + pre[pa]
            if (pre[pa] >= (offsets[cur[pa] + 1] - offsets[cur[pa]])).any():
                raise ReproError("pre-walked edge index beyond vertex degree")
            nxt[has_pre] = edges[eidx]
            plain = ~has_pre
            if plain.any():
                pcur = acur[plain]
                nxt[plain] = sampler(pcur, rng)
                if biased:
                    degs = offsets[pcur + 1] - offsets[pcur]
                    bias_steps += int(
                        np.sum(its_search_steps(np.maximum(degs, 1)))
                    )
        else:
            nxt = sampler(acur, rng)
            if biased:
                degs = offsets[acur + 1] - offsets[acur]
                bias_steps += int(np.sum(its_search_steps(np.maximum(degs, 1))))
        first_iteration = False

        dead = nxt < 0
        moved = ~dead
        hops += int(moved.sum())
        guide_ops += active.size * n_cmp

        # Apply the move.
        midx = active[moved]
        cur[midx] = nxt[moved]
        hop[midx] -= 1
        pre[midx] = -1

        done = dead.copy()
        done[moved] = hop[midx] == 0
        if ctx.spec.stop_probability > 0:
            still = moved & ~done
            if still.any():
                stop = ctx.spec.apply_stop_probability(
                    hop[active[still]], rng
                )
                tmp = np.zeros(active.size, dtype=bool)
                tmp[np.flatnonzero(still)[stop]] = True
                done |= tmp
        done_idx = active[done]
        if done_idx.size:
            completed_parts.append((src[done_idx], cur[done_idx], hop[done_idx]))
        cont = active[~done]
        if cont.size == 0:
            break
        # Guiding: stay if the new vertex's block is loaded here and the
        # vertex is not dense (dense landings need board pre-walking).
        v = cur[cont]
        blocks = part.block_of_vertex(v)
        stays = in_sorted(loaded, blocks) & ~ctx.is_dense_vertex[v]
        rove_idx = cont[~stays]
        if rove_idx.size:
            roving_parts.append((src[rove_idx], cur[rove_idx], hop[rove_idx]))
        active = cont[stays]

    return AdvanceResult(
        completed=_gather(completed_parts),
        roving=_gather(roving_parts),
        hops=hops,
        guide_ops=guide_ops,
        bias_steps=bias_steps,
    )
