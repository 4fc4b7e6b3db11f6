"""Free list of physical registers (one per register class)."""

from __future__ import annotations

from collections import deque


class FreeList:
    """FIFO free list over a contiguous range of physical registers."""

    __slots__ = ("_free", "_base", "_limit")

    def __init__(self, base: int, count: int) -> None:
        if count <= 0:
            raise ValueError(f"free list needs at least one register, got {count}")
        self._base = base
        self._limit = base + count
        self._free: deque[int] = deque(range(base, base + count))

    def __len__(self) -> int:
        return len(self._free)

    @property
    def capacity(self) -> int:
        """Total registers managed (free + allocated)."""
        return self._limit - self._base

    def allocate(self) -> int:
        """Pop a free physical register; raises ``IndexError`` when empty."""
        return self._free.popleft()
