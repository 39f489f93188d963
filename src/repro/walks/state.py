"""Walk state in structure-of-arrays layout.

A walk record is exactly the paper's (Section III-B): ``src`` (origin
vertex), ``cur`` (current vertex), ``hop`` (remaining hops).  Batches of
walks are a :class:`WalkSet` of three parallel NumPy arrays, so the
engines advance thousands of walks per vectorized operation instead of
object-per-walk (hpc-parallel guide: SoA + vectorize the hot loop).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import WalkError

__all__ = ["WalkSet"]


class WalkSet:
    """A batch of walk records (SoA: ``src``, ``cur``, ``hop``)."""

    __slots__ = ("src", "cur", "hop")

    def __init__(self, src: np.ndarray, cur: np.ndarray, hop: np.ndarray):
        src = np.asarray(src, dtype=np.int64)
        cur = np.asarray(cur, dtype=np.int64)
        hop = np.asarray(hop, dtype=np.int64)
        if not (src.shape == cur.shape == hop.shape) or src.ndim != 1:
            raise WalkError(
                f"walk arrays must be 1-D and aligned, got shapes "
                f"{src.shape}/{cur.shape}/{hop.shape}"
            )
        if hop.size and hop.min() < 0:
            raise WalkError("negative remaining hop count")
        self.src = src
        self.cur = cur
        self.hop = hop

    # -- constructors -----------------------------------------------------------

    @classmethod
    def trusted(cls, src: np.ndarray, cur: np.ndarray, hop: np.ndarray) -> "WalkSet":
        """Wrap arrays without validation or conversion.

        For internal builds whose inputs are already aligned 1-D int64
        arrays with non-negative hops (subsets and concatenations of
        valid sets, kernel outputs).  Outside input goes through
        ``WalkSet(...)`` or :meth:`start`, which validate.
        """
        ws = cls.__new__(cls)
        ws.src = src
        ws.cur = cur
        ws.hop = hop
        return ws

    @classmethod
    def empty(cls) -> "WalkSet":
        z = np.zeros(0, dtype=np.int64)
        return cls.trusted(z, z.copy(), z.copy())

    @classmethod
    def start(cls, starts: np.ndarray, length: int) -> "WalkSet":
        """Fresh walks at ``starts`` with ``length`` hops to go."""
        starts = np.asarray(starts, dtype=np.int64)
        if length < 0:
            raise WalkError(f"negative walk length {length}")
        return cls(
            starts.copy(),
            starts.copy(),
            np.full(starts.shape, length, dtype=np.int64),
        )

    @classmethod
    def concat(cls, sets: list["WalkSet"]) -> "WalkSet":
        """Concatenate walk sets (empty-safe)."""
        sets = [s for s in sets if len(s)]
        if not sets:
            return cls.empty()
        if len(sets) == 1:
            return sets[0]
        return cls.trusted(
            np.concatenate([s.src for s in sets]),
            np.concatenate([s.cur for s in sets]),
            np.concatenate([s.hop for s in sets]),
        )

    # -- basics ---------------------------------------------------------------------

    def __len__(self) -> int:
        return self.src.size

    def select(self, mask_or_idx: np.ndarray) -> "WalkSet":
        """Subset by boolean mask or index array (copies)."""
        return WalkSet.trusted(
            self.src[mask_or_idx], self.cur[mask_or_idx], self.hop[mask_or_idx]
        )

    def split(self, mask: np.ndarray) -> tuple["WalkSet", "WalkSet"]:
        """(walks where mask, walks where ~mask)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.src.shape:
            raise WalkError(
                f"mask shape {mask.shape} != walk count {self.src.shape}"
            )
        return self.select(mask), self.select(~mask)

    def copy(self) -> "WalkSet":
        return WalkSet.trusted(self.src.copy(), self.cur.copy(), self.hop.copy())

    def nbytes(self, walk_bytes: int) -> int:
        """Buffer footprint at ``walk_bytes`` per record."""
        if walk_bytes <= 0:
            raise WalkError(f"walk_bytes must be positive, got {walk_bytes}")
        return len(self) * walk_bytes

    @property
    def finished(self) -> np.ndarray:
        """Mask of walks with no hops remaining."""
        return self.hop == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalkSet(n={len(self)})"
