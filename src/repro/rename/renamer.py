"""The rename unit: shared physical register file + per-thread tables.

Matches the paper's SMT model: "the threads share ... the pool of
physical registers ... but have separate rename tables". Renaming is
always in program order within a thread — the paper's out-of-order
*dispatch* explicitly keeps renaming in order, which is what makes it
deadlock-safe for dependences.
"""

from __future__ import annotations

from repro.config.machine import MachineConfig
from repro.isa.registers import FP_BASE, is_zero_reg
from repro.rename.free_list import FreeList
from repro.rename.map_table import RenameMapTable


class RenameUnit:
    """Allocates physical registers and tracks operand readiness.

    The ready scoreboard is shared with the issue queue: entry ``p`` of
    :attr:`ready` is 1 when physical register ``p`` holds its final
    value. ``NO_PREG`` sources are ready by definition. The core's
    rename, writeback and commit stages operate on the map tables,
    free lists and scoreboard directly.
    """

    __slots__ = ("cfg", "num_threads", "int_free", "fp_free", "maps", "ready")

    def __init__(self, cfg: MachineConfig, num_threads: int) -> None:
        self.cfg = cfg
        self.num_threads = num_threads
        total = cfg.int_phys_regs + cfg.fp_phys_regs
        self.int_free = FreeList(0, cfg.int_phys_regs)
        self.fp_free = FreeList(cfg.int_phys_regs, cfg.fp_phys_regs)
        self.ready = bytearray(total)
        self.maps = [RenameMapTable() for _ in range(num_threads)]
        self._install_initial_mappings()

    def _install_initial_mappings(self) -> None:
        """Give every writable logical register an initial (ready) mapping."""
        from repro.isa.registers import NUM_LOGICAL_REGS

        needed_int = sum(
            1 for r in range(FP_BASE) if not is_zero_reg(r)
        ) * self.num_threads
        needed_fp = sum(
            1 for r in range(FP_BASE, NUM_LOGICAL_REGS) if not is_zero_reg(r)
        ) * self.num_threads
        if needed_int >= self.cfg.int_phys_regs:
            raise ValueError(
                f"{self.cfg.int_phys_regs} integer physical registers cannot "
                f"back {self.num_threads} threads ({needed_int} architectural "
                "mappings, plus in-flight headroom)"
            )
        if needed_fp >= self.cfg.fp_phys_regs:
            raise ValueError(
                f"{self.cfg.fp_phys_regs} FP physical registers cannot back "
                f"{self.num_threads} threads ({needed_fp} architectural "
                "mappings, plus in-flight headroom)"
            )
        for table in self.maps:
            for logical in range(NUM_LOGICAL_REGS):
                if is_zero_reg(logical):
                    continue
                pool = self.fp_free if logical >= FP_BASE else self.int_free
                phys = pool.allocate()
                table.remap(logical, phys)
                self.ready[phys] = 1

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reinitialise all state (used by the watchdog pipeline flush).

        The ready scoreboard is cleared in place: the issue queue and
        the 2OP dispatch policies hold the same bytearray.
        """
        self.int_free = FreeList(0, self.cfg.int_phys_regs)
        self.fp_free = FreeList(self.cfg.int_phys_regs, self.cfg.fp_phys_regs)
        ready = self.ready
        ready[:] = bytes(len(ready))
        self.maps = [RenameMapTable() for _ in range(self.num_threads)]
        self._install_initial_mappings()
