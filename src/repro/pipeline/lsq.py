"""Per-thread load/store queue (48 entries per thread in the paper).

Trace-driven simplifications (identical across all scheduler designs, so
relative comparisons are unaffected):

* effective addresses are known at rename (the trace carries them), so a
  store becomes visible to forwarding as soon as it is renamed;
* disambiguation is perfect — loads never wait for unknown store
  addresses and never replay;
* a load forwards when an *older* in-flight store of the same thread
  matches its address exactly, taking the L1-hit path with no cache
  access.
"""

from __future__ import annotations


class LoadStoreQueue:
    """Occupancy tracking plus store-to-load forwarding for one thread.

    The core's stages operate on it directly: rename allocates entries
    (in program order), issue probes :attr:`_stores` for an older store
    to forward from, and commit releases entries.
    """

    __slots__ = ("capacity", "count", "_stores", "forwards",
                 "last_alloc_tseq", "alloc_order_ok")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"LSQ capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.count = 0
        #: address -> per-address FIFO of store tseqs still in flight.
        self._stores: dict[int, list[int]] = {}
        self.forwards = 0
        #: program-order watermark + flag read by the pipeline sanitizer
        #: (allocation must stay in program order even under OOO dispatch).
        self.last_alloc_tseq = -1
        self.alloc_order_ok = True

    def reset(self) -> None:
        """Drop all state (watchdog flush)."""
        self.count = 0
        self._stores.clear()
        self.last_alloc_tseq = -1
        self.alloc_order_ok = True
