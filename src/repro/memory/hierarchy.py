"""Two-level cache hierarchy with main memory (paper Table 1).

Latency model: the functional-unit latency of a load (2 cycles, Table 1)
covers an L1 hit. ``AccessResult.extra_latency`` is the *additional*
delay: the L2 hit time (10) for an L1 miss that hits in L2, or the memory
latency (150) for an L2 miss. Caches are shared by all SMT threads, as in
the paper's SMT model.

The model is deliberately MSHR-free: misses to the same line from
different instructions each pay the full penalty. This overestimates
memory stalls slightly but does so identically for every scheduler
design, preserving relative results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.machine import MemoryConfig
from repro.memory.cache import SetAssociativeCache


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of a data-side access."""

    l1_hit: bool
    l2_hit: bool
    extra_latency: int

    @property
    def went_to_memory(self) -> bool:
        """True when the access missed all caches."""
        return not self.l1_hit and not self.l2_hit


class MemoryHierarchy:
    """L1I + L1D + unified L2 + main memory."""

    __slots__ = ("cfg", "l1i", "l1d", "l2", "_res_hit", "_res_l2", "_res_mem")

    def __init__(self, cfg: MemoryConfig) -> None:
        self.cfg = cfg
        self.l1i = SetAssociativeCache(cfg.l1i)
        self.l1d = SetAssociativeCache(cfg.l1d)
        self.l2 = SetAssociativeCache(cfg.l2)
        # An access outcome is fully determined by the level that hit and
        # the (fixed) config latencies, so the three possible results are
        # shared frozen instances instead of a fresh allocation per call.
        self._res_hit = AccessResult(True, True, 0)
        self._res_l2 = AccessResult(False, True, cfg.l2.hit_latency)
        self._res_mem = AccessResult(False, False, cfg.memory_latency)

    # ------------------------------------------------------------------
    def access_data(self, addr: int) -> AccessResult:  # repro: hot
        """Data-side access (loads at execute, stores at commit).

        The L1 lookup is ``SetAssociativeCache.access`` inlined — the L1
        hit path is the overwhelmingly common case and pays for no
        second call.
        """
        l1 = self.l1d
        l1.accesses += 1
        block = addr >> l1._line_bits
        ways = l1._sets[block & l1._set_mask]
        tag = block >> l1._tag_shift
        if tag in ways:
            if ways[0] != tag:
                ways.insert(0, ways.pop(ways.index(tag)))
            return self._res_hit
        l1.misses += 1
        ways.insert(0, tag)
        if len(ways) > l1._assoc:
            ways.pop()
        if self.l2.access(addr):
            return self._res_l2
        return self._res_mem

    def access_inst(self, pc: int) -> AccessResult:  # repro: hot
        """Instruction-side access (fetch); L1I lookup inlined as above."""
        l1 = self.l1i
        l1.accesses += 1
        block = pc >> l1._line_bits
        ways = l1._sets[block & l1._set_mask]
        tag = block >> l1._tag_shift
        if tag in ways:
            if ways[0] != tag:
                ways.insert(0, ways.pop(ways.index(tag)))
            return self._res_hit
        l1.misses += 1
        ways.insert(0, tag)
        if len(ways) > l1._assoc:
            ways.pop()
        if self.l2.access(pc):
            return self._res_l2
        return self._res_mem

    def warm_data(self, addrs) -> None:
        """Install data lines (L1D, then L2 on an L1D miss) without
        touching the access counters; tag-store state afterwards is
        identical to calling :meth:`access_data` per address."""
        l1_fill = self.l1d.fill
        l2_fill = self.l2.fill
        for addr in addrs:
            if not l1_fill(addr):
                l2_fill(addr)

    def warm_inst(self, pcs) -> None:
        """Instruction-side counterpart of :meth:`warm_data`."""
        l1_fill = self.l1i.fill
        l2_fill = self.l2.fill
        for pc in pcs:
            if not l1_fill(pc):
                l2_fill(pc)

    def flush(self) -> None:
        """Invalidate all levels."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
