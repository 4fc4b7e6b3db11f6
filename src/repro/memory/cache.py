"""Set-associative cache with true-LRU replacement.

The model tracks tags only (the simulator is trace driven; data values
are never needed). Writes allocate, matching the write-allocate,
write-back policy of SimpleScalar's default caches.
"""

from __future__ import annotations

from repro.config.machine import CacheConfig


class SetAssociativeCache:
    """Tag store of one cache level.

    Each set is a Python list ordered MRU-first; with the small
    associativities of Table 1 (2–8 ways) list rotation is faster than an
    ``OrderedDict`` and allocation free in steady state.
    """

    __slots__ = (
        "cfg",
        "_sets",
        "_line_bits",
        "_set_mask",
        "_tag_shift",
        "_assoc",
        "accesses",
        "misses",
    )

    def __init__(self, cfg: CacheConfig) -> None:
        self.cfg = cfg
        self._sets: list[list[int]] = [[] for _ in range(cfg.num_sets)]
        self._line_bits = cfg.line_bytes.bit_length() - 1
        self._set_mask = cfg.num_sets - 1
        self._tag_shift = self._set_mask.bit_length()
        self._assoc = cfg.assoc
        self.accesses = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def access(self, addr: int) -> bool:  # repro: hot
        """Access the line containing ``addr``; returns True on hit.

        Misses allocate the line (evicting true-LRU if the set is full).
        The miss path uses a membership test rather than ``index`` inside
        ``try/except`` — exception raising costs roughly a microsecond
        and misses dominate residency installation and cold regions.
        """
        self.accesses += 1
        block = addr >> self._line_bits
        ways = self._sets[block & self._set_mask]
        tag = block >> self._tag_shift
        if tag in ways:
            if ways[0] != tag:
                ways.insert(0, ways.pop(ways.index(tag)))
            return True
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self._assoc:
            ways.pop()
        return False

    def fill(self, addr: int) -> bool:  # repro: hot
        """:meth:`access` minus the statistics counters.

        Bulk warm-up path: the tag store evolves exactly as under
        :meth:`access` (same LRU updates, same allocations) but the
        access/miss counters stay untouched. Used for residency
        installation, which builds warm state whose counters are never
        read.
        """
        block = addr >> self._line_bits
        ways = self._sets[block & self._set_mask]
        tag = block >> self._tag_shift
        if tag in ways:
            i = ways.index(tag)
            if i:
                ways.insert(0, ways.pop(i))
            return True
        ways.insert(0, tag)
        if len(ways) > self._assoc:
            ways.pop()
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or allocating."""
        block = addr >> self._line_bits
        ways = self._sets[block & self._set_mask]
        tag = block >> self._tag_shift
        return tag in ways

    def flush(self) -> None:
        """Invalidate every line (statistics are preserved)."""
        for ways in self._sets:
            ways.clear()

    # ------------------------------------------------------------------
    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed so far."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit so far."""
        return 1.0 - self.miss_rate if self.accesses else 0.0
