"""Issue queue tests: insert, wakeup, readiness, comparator budget.

Wakeup and select run in the core's writeback and issue stages, so
those behaviours are driven through a core's own queue.
"""

import pytest

from repro.config.presets import small_machine
from repro.core.iq import IssueQueue
from repro.isa.opcodes import OpClass
from repro.pipeline.dynamic import DynInstr
from tests.trace_builder import idle_core, wake

#: Physical registers that are free, hence not ready, in a fresh
#: small_machine core (the architectural mappings take the lowest ids).
T3, T4, T9 = 40, 41, 45


def instr(seq, src1=-1, src2=-1, dest=-1, tid=0):
    di = DynInstr(tid=tid, seq=seq, tseq=seq, op=int(OpClass.IALU), pc=0,
                  addr=0, taken=False, target=0, dest_l=-1, src1_l=-1,
                  src2_l=-1, fetch_cycle=0)
    di.src1_p = src1
    di.src2_p = src2
    di.dest_p = dest
    return di


@pytest.fixture
def ready_bits():
    return bytearray(16)


def make_iq(ready_bits, capacity=4, comparators=2):
    return IssueQueue(capacity, comparators, ready_bits)


def core_iq(capacity=4):
    core = idle_core(small_machine(iq_size=capacity))
    assert not any(core.renamer.ready[t] for t in (T3, T4, T9))
    return core, core.iq


def ready_entries(iq):
    """Live entries of the ready heap, oldest first."""
    return [instr for _, instr in sorted(iq.ready_heap) if instr.in_iq]


class TestNonreadySources:
    def test_no_sources(self, ready_bits):
        iq = make_iq(ready_bits)
        assert iq.nonready_sources(instr(0)) == []

    def test_ready_sources_not_counted(self, ready_bits):
        ready_bits[3] = 1
        iq = make_iq(ready_bits)
        assert iq.nonready_sources(instr(0, src1=3)) == []

    def test_two_distinct_nonready(self, ready_bits):
        iq = make_iq(ready_bits)
        assert iq.nonready_sources(instr(0, src1=3, src2=4)) == [3, 4]

    def test_duplicate_tag_counts_once(self, ready_bits):
        """Two identical non-ready sources need one comparator (the
        paper's NDI definition is two *distinct* outstanding tags)."""
        iq = make_iq(ready_bits)
        assert iq.nonready_sources(instr(0, src1=3, src2=3)) == [3]


class TestInsertAndWakeup:
    def test_ready_instr_immediately_selectable(self, ready_bits):
        iq = make_iq(ready_bits)
        i = instr(0)
        iq.insert(i, cycle=5)
        assert i.in_iq and i.dispatch_cycle == 5
        assert ready_entries(iq) == [i]

    def test_waiting_instr_not_ready_until_wakeup(self):
        core, iq = core_iq()
        i = instr(0, src1=T3)
        iq.insert(i, 0)
        assert ready_entries(iq) == []
        wake(core, T3)
        assert core.renamer.ready[T3] == 1
        assert ready_entries(iq) == [i]

    def test_two_source_wakeup_order_irrelevant(self):
        core, iq = core_iq()
        i = instr(0, src1=T3, src2=T4)
        iq.insert(i, 0)
        wake(core, T4)
        assert ready_entries(iq) == []
        wake(core, T3, cycle=1)
        assert ready_entries(iq) == [i]

    def test_wakeup_of_unwatched_tag_is_noop(self):
        core, iq = core_iq()
        wake(core, T9)  # no waiters registered
        assert ready_entries(iq) == [] and not iq.waiting

    def test_ready_order_is_oldest_first(self, ready_bits):
        iq = make_iq(ready_bits)
        a, b = instr(2), instr(1)
        iq.insert(a, 0)
        iq.insert(b, 0)
        assert [i.seq for i in ready_entries(iq)] == [1, 2]

    def test_shared_producer_wakes_all_waiters(self):
        core, iq = core_iq()
        a, b = instr(0, src1=T3), instr(1, src1=T3)
        iq.insert(a, 0)
        iq.insert(b, 0)
        wake(core, T3)
        assert set(ready_entries(iq)) == {a, b}

    def test_occupancy_and_free_slots(self):
        core, iq = core_iq(capacity=2)
        waiter = instr(0, src1=T3)
        iq.insert(waiter, 0)
        assert iq.occupancy == 1 and iq.free_slots == 1
        i = instr(1)
        iq.insert(i, 0)
        assert iq.free_slots == 0
        core._issue(1)  # selects the ready entry, frees its slot
        assert iq.occupancy == 1 and not i.in_iq and i.issued
        assert waiter.in_iq

    def test_overflow_rejected(self, ready_bits):
        iq = make_iq(ready_bits, capacity=1)
        iq.insert(instr(0), 0)
        with pytest.raises(RuntimeError, match="overflow"):
            iq.insert(instr(1), 0)


class TestComparatorBudget:
    def test_reduced_queue_rejects_two_nonready(self, ready_bits):
        iq = make_iq(ready_bits, comparators=1)
        with pytest.raises(RuntimeError, match="comparators"):
            iq.insert(instr(0, src1=3, src2=4), 0)

    def test_reduced_queue_accepts_one_nonready(self, ready_bits):
        iq = make_iq(ready_bits, comparators=1)
        iq.insert(instr(0, src1=3), 0)

    def test_reduced_queue_accepts_duplicate_tag(self, ready_bits):
        iq = make_iq(ready_bits, comparators=1)
        iq.insert(instr(0, src1=3, src2=3), 0)

    def test_full_queue_accepts_two_nonready(self, ready_bits):
        iq = make_iq(ready_bits, comparators=2)
        iq.insert(instr(0, src1=3, src2=4), 0)

    def test_invalid_comparator_count(self, ready_bits):
        with pytest.raises(ValueError):
            IssueQueue(4, 3, ready_bits)
        with pytest.raises(ValueError):
            IssueQueue(0, 2, ready_bits)


class TestStatsAndReset:
    def test_tick_accumulates_occupancy(self):
        """Every core cycle adds the current occupancy to the integral."""
        core, iq = core_iq()
        iq.insert(instr(0, src1=T3), 0)
        core.step()
        core.step()
        assert iq.occupancy_integral == 2

    def test_reset_clears_state(self, ready_bits):
        iq = make_iq(ready_bits)
        iq.insert(instr(0, src1=3), 0)
        iq.reset()
        assert iq.occupancy == 0
        assert not iq.waiting
        assert ready_entries(iq) == []
