"""Issue queue: wakeup/select with a per-entry comparator budget.

Entries watch at most ``comparators_per_entry`` distinct non-ready source
tags. The traditional design has 2 comparators per entry; the 2OP_*
designs have 1 (their dispatch policies guarantee no instruction needs
more). The queue enforces the budget with an assertion so a buggy policy
fails loudly instead of silently modelling impossible hardware.

Wakeup is index based (producer tag → list of waiting instructions)
instead of scanning every entry each cycle — the behavioural result is
identical to a CAM broadcast, and it keeps the Python inner loop off the
profile (DESIGN.md §6). The core's writeback stage
(``SMTProcessor._apply_events``) broadcasts wakeups through
:attr:`IssueQueue.waiting`; its issue stage (``SMTProcessor._issue``)
selects from :attr:`IssueQueue.ready_heap`.
"""

from __future__ import annotations

from heapq import heappush

from repro.pipeline.dynamic import DynInstr


class IssueQueue:
    """Shared SMT issue queue holding instructions until they issue."""

    __slots__ = (
        "capacity",
        "comparators_per_entry",
        "_ready_bits",
        "occupancy",
        "ready_heap",
        "waiting",
        "occupancy_integral",
    )

    def __init__(self, capacity: int, comparators_per_entry: int,
                 ready_bits: bytearray) -> None:
        if capacity <= 0:
            raise ValueError(f"IQ capacity must be positive, got {capacity}")
        if comparators_per_entry not in (1, 2):
            raise ValueError(
                f"comparators_per_entry must be 1 or 2, got "
                f"{comparators_per_entry}"
            )
        self.capacity = capacity
        self.comparators_per_entry = comparators_per_entry
        self._ready_bits = ready_bits
        self.occupancy = 0
        #: min-heap of (global seq, instr) over ready, unissued entries.
        self.ready_heap: list[tuple[int, DynInstr]] = []
        #: producer physical register -> instructions waiting on it.
        self.waiting: dict[int, list[DynInstr]] = {}
        #: sum of occupancy over cycles (average occupancy statistic).
        self.occupancy_integral = 0

    # ------------------------------------------------------------------
    @property
    def free_slots(self) -> int:
        """Entries currently available for dispatch."""
        return self.capacity - self.occupancy

    def nonready_sources(self, instr: DynInstr) -> list[int]:
        """Distinct non-ready source tags of ``instr`` right now.

        Two identical non-ready sources need a single comparator, hence
        count once (the paper's "two non-ready source operands" means two
        distinct outstanding tags).
        """
        bits = self._ready_bits
        s1, s2 = instr.src1_p, instr.src2_p
        out: list[int] = []
        if s1 >= 0 and not bits[s1]:
            out.append(s1)
        if s2 >= 0 and s2 != s1 and not bits[s2]:
            out.append(s2)
        return out

    def nonready_count(self, instr: DynInstr) -> int:  # repro: hot
        """``len(nonready_sources(instr))`` without building the list.

        The dispatch policies and the HDI sampler only need the count;
        they call this once (or more) per buffered instruction per cycle,
        so the allocation-free form matters.
        """
        bits = self._ready_bits
        s1, s2 = instr.src1_p, instr.src2_p
        n = 1 if s1 >= 0 and not bits[s1] else 0
        if s2 >= 0 and s2 != s1 and not bits[s2]:
            n += 1
        return n

    # ------------------------------------------------------------------
    def insert(self, instr: DynInstr, cycle: int) -> None:  # repro: hot
        """Dispatch ``instr`` into the queue.

        The caller must have verified :attr:`free_slots` and — for
        reduced-comparator queues — that the instruction is dispatchable.
        """
        if self.occupancy >= self.capacity:
            raise RuntimeError("issue queue overflow (dispatch policy bug)")
        # Inlined nonready_sources: runs once per dispatched instruction,
        # so the pending tags are tested without building a list.
        bits = self._ready_bits
        s1, s2 = instr.src1_p, instr.src2_p
        wait1 = s1 >= 0 and not bits[s1]
        wait2 = s2 >= 0 and s2 != s1 and not bits[s2]
        count = wait1 + wait2
        if count > self.comparators_per_entry:
            raise RuntimeError(
                f"instruction needs {count} comparators but entries "
                f"have {self.comparators_per_entry} (dispatch policy bug)"
            )
        instr.in_iq = True
        instr.dispatch_cycle = cycle
        instr.num_waiting = count
        if count:
            waiting = self.waiting
            if wait1:
                waiters = waiting.get(s1)
                if waiters is None:
                    waiting[s1] = [instr]  # repro: noqa[RPR008] — waiter-bucket birth
                else:
                    waiters.append(instr)
            if wait2:
                waiters = waiting.get(s2)
                if waiters is None:
                    waiting[s2] = [instr]  # repro: noqa[RPR008] — waiter-bucket birth
                else:
                    waiters.append(instr)
        else:
            heappush(self.ready_heap, (instr.seq, instr))
        self.occupancy += 1

    def insert_slice(self, buf, count: int, cycle: int) -> None:  # repro: hot
        """Insert ``buf[:count]`` in one call (bulk form of :meth:`insert`).

        The caller's dispatch policy has already admission-checked the
        slice; readiness is still re-derived here because it decides
        which wakeup lists each entry joins.
        """
        if self.occupancy + count > self.capacity:
            raise RuntimeError("issue queue overflow (dispatch policy bug)")
        bits = self._ready_bits
        waiting = self.waiting
        heap = self.ready_heap
        budget = self.comparators_per_entry
        for i in range(count):
            instr = buf[i]
            s1, s2 = instr.src1_p, instr.src2_p
            wait1 = s1 >= 0 and not bits[s1]
            wait2 = s2 >= 0 and s2 != s1 and not bits[s2]
            pending = wait1 + wait2
            if pending > budget:
                raise RuntimeError(
                    f"instruction needs {pending} comparators but entries "
                    f"have {budget} (dispatch policy bug)"
                )
            instr.in_iq = True
            instr.dispatch_cycle = cycle
            instr.num_waiting = pending
            if pending:
                if wait1:
                    waiters = waiting.get(s1)
                    if waiters is None:
                        waiting[s1] = [instr]  # repro: noqa[RPR008] — bucket birth
                    else:
                        waiters.append(instr)
                if wait2:
                    waiters = waiting.get(s2)
                    if waiters is None:
                        waiting[s2] = [instr]  # repro: noqa[RPR008] — bucket birth
                    else:
                        waiters.append(instr)
            else:
                heappush(heap, (instr.seq, instr))
        self.occupancy += count

    def waiting_census(self) -> dict[int, int]:
        """``id(instr) -> live wakeup registrations`` over all tags.

        Used by the pipeline sanitizer to cross-check each entry's
        ``num_waiting`` against the index the core's writeback stage
        consults on wakeup; a mismatch means a wakeup can be missed.
        """
        census: dict[int, int] = {}
        for waiters in self.waiting.values():
            for instr in waiters:
                key = id(instr)
                census[key] = census.get(key, 0) + 1
        return census

    def reset(self) -> None:
        """Empty the queue (watchdog pipeline flush)."""
        self.ready_heap.clear()
        self.waiting.clear()
        self.occupancy = 0
