"""Per-thread reorder buffer (96 entries per thread in the paper)."""

from __future__ import annotations

from collections import deque

from repro.pipeline.dynamic import DynInstr


class ReorderBuffer:
    """In-order retirement window of one SMT thread.

    The core's rename stage appends to :attr:`_entries` and its commit
    stage pops completed instructions off the head.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ROB capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: deque[DynInstr] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when no rename slot is available."""
        return len(self._entries) >= self.capacity

    @property
    def head(self) -> DynInstr | None:
        """Oldest in-flight instruction, or None when empty."""
        return self._entries[0] if self._entries else None

    def first_order_violation(self) -> DynInstr | None:
        """First entry breaking per-thread program (tseq) order, if any.

        Used by the pipeline sanitizer: ROB allocation must happen in
        program order even when dispatch is out of order (paper §4).
        """
        prev = -1
        for instr in self._entries:
            if instr.tseq <= prev:
                return instr
            prev = instr.tseq
        return None

    def clear(self) -> None:
        """Drop all entries (watchdog flush)."""
        self._entries.clear()

    def __iter__(self):
        return iter(self._entries)
