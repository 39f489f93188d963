"""Walk buffering: partition walk buffer, spill pools, sinks.

The board-level accelerator organizes waiting walks by destination
subgraph: one *partition walk buffer* entry per subgraph of the current
partition, in on-board DRAM (Section III-D).  An entry that fills up is
moved to the chip's walk-overflow buffer and flushed to flash; those
walks come back from flash when the subgraph is scheduled.  Dense-walk
entries pack more walks per byte because ``cur`` is implicit in the
block (the beta asymmetry of Eq. 1).

Semantically, walks are never lost: this module tracks exactly which
walks wait where (DRAM vs flash) per block, while the engine charges the
corresponding traffic and latencies.  Pre-walked dense walks carry their
chosen edge index (``pre_edge``), resolved when the block loads.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..common.errors import BufferOverflowError, ReproError
from ..walks.state import WalkSet

__all__ = ["WalkBatch", "BlockEntry", "PartitionWalkBuffer", "ForeignerStore"]


class WalkBatch:
    """Walks in flight, as aligned per-field Python lists.

    ``src``, ``cur`` and ``hop`` are the walk records; ``pre_edge`` is
    None or holds each walk's pre-walked edge index (-1 where none).
    Between a buffer drain and the next buffer push walks stay in this
    form, so the few-walk batches the engine mostly moves pay no NumPy
    conversion; :class:`~repro.walks.state.WalkSet` stays at the edges
    (run starts, injections, foreigner pools, checkpoints, results).
    """

    __slots__ = ("src", "cur", "hop", "pre_edge")

    def __init__(self, src: list, cur: list, hop: list, pre_edge: list | None = None):
        n = len(src)
        if len(cur) != n or len(hop) != n or (
            pre_edge is not None and len(pre_edge) != n
        ):
            raise ReproError("walk batch fields must align")
        self.src = src
        self.cur = cur
        self.hop = hop
        self.pre_edge = pre_edge

    @classmethod
    def empty(cls) -> "WalkBatch":
        return cls([], [], [])

    @classmethod
    def of(cls, walks: WalkSet, pre_edge: np.ndarray | None = None) -> "WalkBatch":
        """From a :class:`WalkSet` (and optional pre-edge array)."""
        return cls(
            walks.src.tolist(), walks.cur.tolist(), walks.hop.tolist(),
            None if pre_edge is None else np.asarray(pre_edge).tolist(),
        )

    def to_walks(self) -> WalkSet:
        """The walk records as a :class:`WalkSet` (pre-edges dropped)."""
        if not self.src:
            return WalkSet.empty()
        rows = np.array([self.src, self.cur, self.hop], dtype=np.int64)
        return WalkSet.trusted(rows[0], rows[1], rows[2])

    def __len__(self) -> int:
        return len(self.src)

    def split(self, flags: list) -> tuple["WalkBatch", "WalkBatch"]:
        """(walks where ``flags``, the rest), each in batch order.
        Pre-walked edges are dropped."""
        yes = ([], [], [])
        no = ([], [], [])
        for f, s, c, h in zip(flags, self.src, self.cur, self.hop):
            out = yes if f else no
            out[0].append(s)
            out[1].append(c)
            out[2].append(h)
        return WalkBatch(*yes), WalkBatch(*no)

    def extend(self, other: "WalkBatch") -> None:
        """Append ``other``'s walks; pre_edge becomes -1 where a side
        had none (as in :meth:`BlockEntry.extend`)."""
        n = len(other.src)
        if not n:
            return
        if other.pre_edge is not None:
            if self.pre_edge is None:
                self.pre_edge = [-1] * len(self.src)
            self.pre_edge.extend(other.pre_edge)
        elif self.pre_edge is not None:
            self.pre_edge.extend([-1] * n)
        self.src.extend(other.src)
        self.cur.extend(other.cur)
        self.hop.extend(other.hop)

    @staticmethod
    def merge(batches: list["WalkBatch"]) -> "WalkBatch":
        """Concatenate into a new batch (see :meth:`extend`)."""
        out = WalkBatch.empty()
        for b in batches:
            out.extend(b)
        return out


class BlockEntry:
    """One partition-walk-buffer entry: buffered (DRAM) + spilled (flash).

    Walks are kept as flat per-field lists in push order.  Spills move
    whole batches out of the oldest end, so the spilled walks are always
    the first ``spilled_count`` walks in push order; ``batch_lens`` holds
    the lengths of the batches still buffered, oldest first.
    """

    __slots__ = (
        "src", "cur", "hop", "pre_edge", "batch_lens",
        "buffered_count", "spilled_count",
    )

    def __init__(self):
        self.src: list[int] = []
        self.cur: list[int] = []
        self.hop: list[int] = []
        #: Pre-walked edge per walk, -1 where none; None until a batch
        #: with pre-walked edges arrives.
        self.pre_edge: list[int] | None = None
        self.batch_lens: deque[int] = deque()
        self.buffered_count = 0
        self.spilled_count = 0

    @property
    def total(self) -> int:
        return self.buffered_count + self.spilled_count

    def extend(self, src: list, cur: list, hop: list, pre_edge: list | None) -> None:
        """Append one batch given as aligned per-field lists."""
        n = len(src)
        if not n:
            return
        # Inline rather than shared with WalkBatch.extend: this runs once
        # per block group of every push.
        if pre_edge is not None:
            if self.pre_edge is None:
                self.pre_edge = [-1] * len(self.src)
            self.pre_edge.extend(pre_edge)
        elif self.pre_edge is not None:
            self.pre_edge.extend([-1] * n)
        self.src.extend(src)
        self.cur.extend(cur)
        self.hop.extend(hop)
        self.batch_lens.append(n)
        self.buffered_count += n

    def spill_overflow(self, capacity: int) -> int:
        """Move buffered walks beyond ``capacity`` to the spilled side.

        Returns the number of walks spilled.  Spills whole batches from
        the oldest end (FIFO), matching "this entry is moved to the
        walk-overflow buffer ... then flushed to the flash memory".
        """
        if capacity < 0:
            raise BufferOverflowError(
                f"negative entry capacity {capacity}",
                capacity=capacity,
                occupancy=self.buffered_count,
            )
        spilled = 0
        lens = self.batch_lens
        while self.buffered_count > capacity and lens:
            n = lens.popleft()
            self.buffered_count -= n
            spilled += n
        self.spilled_count += spilled
        return spilled

    def drain(self) -> tuple[WalkBatch, int, int]:
        """Take everything; returns (batch, n_buffered, n_spilled).

        The batch holds the buffered walks, then the spilled ones, each
        in push order: push order rotated left by ``spilled_count``.
        ``pre_edge`` is None unless some walk had a pre-walked edge.
        """
        nb, ns = self.buffered_count, self.spilled_count
        fields = [self.src, self.cur, self.hop]
        has_pre = self.pre_edge is not None
        if has_pre:
            fields.append(self.pre_edge)
        self.src, self.cur, self.hop, self.pre_edge = [], [], [], None
        self.batch_lens.clear()
        self.buffered_count = self.spilled_count = 0
        if ns and nb:
            fields = [xs[ns:] + xs[:ns] for xs in fields]
        return WalkBatch(*fields), nb, ns

    def state(self) -> tuple:
        """Copy for a checkpoint: ``(src, cur, hop, pre_edge or None,
        buffered batch lengths, spilled_count)``, fields as int64 arrays."""
        def arr(xs):
            return np.array(xs, dtype=np.int64)

        return (
            arr(self.src), arr(self.cur), arr(self.hop),
            None if self.pre_edge is None else arr(self.pre_edge),
            list(self.batch_lens), self.spilled_count,
        )

    @classmethod
    def from_state(cls, state: tuple) -> "BlockEntry":
        """Inverse of :meth:`state`."""
        src, cur, hop, pre, lens, ns = state
        e = cls()
        e.extend(
            src.tolist(), cur.tolist(), hop.tolist(),
            None if pre is None else pre.tolist(),
        )
        e.batch_lens = deque(lens)
        e.buffered_count = sum(lens)
        e.spilled_count = ns
        return e


class PartitionWalkBuffer:
    """All walk-buffer entries of the current partition."""

    def __init__(self, first_block: int, last_block: int, entry_capacity: int,
                 dense_entry_capacity: int, is_dense_block: np.ndarray):
        if not 0 <= first_block <= last_block:
            raise BufferOverflowError(
                f"bad block range [{first_block}, {last_block}]"
            )
        if entry_capacity < 1 or dense_entry_capacity < 1:
            raise BufferOverflowError("entry capacities must be >= 1")
        self.first_block = first_block
        self.last_block = last_block
        self.entry_capacity = entry_capacity
        self.dense_entry_capacity = dense_entry_capacity
        # Entry capacity per block of the partition (local index).
        self._caps = [
            dense_entry_capacity if d else entry_capacity
            for d in is_dense_block[first_block : last_block + 1].tolist()
        ]
        self._entries: dict[int, BlockEntry] = {}
        self.spill_events = 0
        self.walks_spilled = 0

    def _check_range(self, lo: int, hi: int) -> None:
        """Raise unless blocks ``lo..hi`` lie inside the partition."""
        bad = lo if lo < self.first_block else hi
        if not self.first_block <= bad <= self.last_block:
            raise BufferOverflowError(
                f"block {bad} outside partition "
                f"[{self.first_block}, {self.last_block}]",
                block=bad,
            )

    def capacity_of(self, block_id: int) -> int:
        self._check_range(block_id, block_id)
        return self._caps[block_id - self.first_block]

    def push(
        self, blocks: list[int] | np.ndarray, batch: WalkBatch
    ) -> list[tuple[int, int, int]]:
        """Insert a directed batch: walk ``i`` waits for ``blocks[i]``.

        Entries are visited in ascending block ID; each receives its
        walks in arrival order as one batch, then spills any overflow.
        Returns ``(block, n_walks, n_spilled)`` per visited entry, in
        the same order.
        """
        keys = blocks if isinstance(blocks, list) else np.asarray(blocks).tolist()
        if len(keys) != len(batch):
            raise BufferOverflowError(
                f"{len(keys)} block IDs for a batch of {len(batch)} walks"
            )
        if not keys:
            return []
        pre = batch.pre_edge
        # Per block: (src, cur, hop, pre_edge or None) lists, arrival order.
        groups: dict[int, tuple] = {}
        if pre is None:
            for b, s, c, h in zip(keys, batch.src, batch.cur, batch.hop):
                g = groups.get(b)
                if g is None:
                    groups[b] = ([s], [c], [h], None)
                else:
                    g[0].append(s)
                    g[1].append(c)
                    g[2].append(h)
        else:
            for b, s, c, h, p in zip(keys, batch.src, batch.cur, batch.hop, pre):
                g = groups.get(b)
                if g is None:
                    groups[b] = ([s], [c], [h], [p])
                else:
                    g[0].append(s)
                    g[1].append(c)
                    g[2].append(h)
                    g[3].append(p)
        order = sorted(groups)
        self._check_range(order[0], order[-1])
        entries, caps, first = self._entries, self._caps, self.first_block
        out = []
        for b in order:
            src, cur, hop, pe = groups[b]
            e = entries.get(b)
            if e is None:
                e = entries[b] = BlockEntry()
            e.extend(src, cur, hop, pe)
            cap = caps[b - first]
            spilled = e.spill_overflow(cap) if e.buffered_count > cap else 0
            if spilled:
                self.spill_events += 1
                self.walks_spilled += spilled
            out.append((b, len(src), spilled))
        return out

    def drain(self, block_id: int) -> tuple[WalkBatch, int, int]:
        """Take all walks waiting for ``block_id``."""
        e = self._entries.pop(block_id, None)
        if e is None:
            return WalkBatch.empty(), 0, 0
        return e.drain()

    def counts(self, block_id: int) -> tuple[int, int]:
        e = self._entries.get(block_id)
        if e is None:
            return 0, 0
        return e.buffered_count, e.spilled_count

    @property
    def total_walks(self) -> int:
        return sum(e.total for e in self._entries.values())

    def blocks_with_walks(self) -> list[int]:
        return [b for b, e in self._entries.items() if e.total > 0]

    def occupancy_errors(self) -> list[str]:
        """Declared-capacity violations, one message per bad entry.

        ``push`` spills past-capacity batches immediately, so any entry
        whose buffered side exceeds its capacity (or with a negative
        count) indicates corrupted accounting.  Used by the service
        layer's online invariant auditor.
        """
        errors = []
        for block, e in self._entries.items():
            cap = self.capacity_of(block)
            if e.buffered_count > cap:
                errors.append(
                    f"pwb entry {block}: buffered {e.buffered_count} "
                    f"exceeds capacity {cap}"
                )
            if e.buffered_count < 0 or e.spilled_count < 0:
                errors.append(
                    f"pwb entry {block}: negative counts "
                    f"({e.buffered_count}, {e.spilled_count})"
                )
        return errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionWalkBuffer([{self.first_block},{self.last_block}], "
            f"walks={self.total_walks}, spills={self.spill_events})"
        )


class ForeignerStore:
    """Per-partition pools of foreigner walks flushed to flash.

    Walks whose destination lies beyond the current partition cannot be
    resolved by the resident mapping table; they are buffered and
    flushed, then re-read when their partition becomes current.
    """

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise BufferOverflowError(f"need >= 1 partition, got {n_partitions}")
        self.n_partitions = n_partitions
        self._pools: list[list[WalkSet]] = [[] for _ in range(n_partitions)]
        self._counts = np.zeros(n_partitions, dtype=np.int64)

    def push(self, partition_id: int, walks: WalkSet | WalkBatch) -> None:
        """Pool ``walks`` for ``partition_id``; a :class:`WalkBatch` is
        stored as a :class:`WalkSet`."""
        if not 0 <= partition_id < self.n_partitions:
            raise ReproError(
                f"partition {partition_id} out of range [0, {self.n_partitions})"
            )
        if len(walks):
            if isinstance(walks, WalkBatch):
                walks = walks.to_walks()
            self._pools[partition_id].append(walks)
            self._counts[partition_id] += len(walks)

    def drain(self, partition_id: int) -> WalkSet:
        if not 0 <= partition_id < self.n_partitions:
            raise ReproError(
                f"partition {partition_id} out of range [0, {self.n_partitions})"
            )
        walks = WalkSet.concat(self._pools[partition_id])
        self._pools[partition_id] = []
        self._counts[partition_id] = 0
        return walks

    def count(self, partition_id: int) -> int:
        return int(self._counts[partition_id])

    @property
    def total(self) -> int:
        return int(self._counts.sum())

    def partitions_with_walks(self) -> np.ndarray:
        return np.flatnonzero(self._counts > 0)
