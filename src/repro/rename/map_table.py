"""Per-thread rename map table (logical -> physical register)."""

from __future__ import annotations

from repro.isa.registers import NUM_LOGICAL_REGS, is_zero_reg

#: Physical-register id meaning "no dependence" (zero registers,
#: immediates). Always ready.
NO_PREG = -1


class RenameMapTable:
    """Architectural-to-physical mapping for one SMT thread.

    Zero registers are pinned to :data:`NO_PREG` and may not be remapped.
    The core's rename loop relies on that pinning — and on ``NO_REG``
    (-1) indexing the last entry, the FP zero register — to look up
    source operands with a single unconditional ``_map[src]``.
    """

    __slots__ = ("_map",)

    def __init__(self) -> None:
        self._map: list[int] = [NO_PREG] * NUM_LOGICAL_REGS

    def remap(self, logical: int, phys: int) -> int:
        """Point ``logical`` at ``phys``; returns the previous mapping."""
        if is_zero_reg(logical):
            raise ValueError(f"cannot remap zero register {logical}")
        old = self._map[logical]
        self._map[logical] = phys
        return old

    def mappings(self) -> list[int]:
        """Snapshot of the full table (for tests and flush logic)."""
        return list(self._map)
