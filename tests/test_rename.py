"""Register renaming tests: free lists, map tables, rename unit.

The core's rename, writeback and commit stages operate on the map
tables, free lists and ready scoreboard directly, so renaming behaviour
is pinned through those stages.
"""

import pytest

from repro.config.presets import small_machine, tiny_machine
from repro.isa.registers import FP_BASE, NO_REG, REG_INT_ZERO
from repro.rename.free_list import FreeList
from repro.rename.map_table import NO_PREG, RenameMapTable
from repro.rename.renamer import RenameUnit
from tests.trace_builder import hand_instr, idle_core, rename_through, wake


def is_ready(core, phys):
    """Scoreboard view: ``NO_PREG`` is ready by definition."""
    return phys < 0 or bool(core.renamer.ready[phys])


def rename(core, dest, src1=NO_REG, src2=NO_REG, tid=0, cycle=0):
    """Rename one instruction through the core; returns it (its
    ``rename_cycle`` stays -1 if rename stalled)."""
    ts = core.threads[tid]
    instr = hand_instr(core._seq, tid=tid, tseq=len(ts.rob) + len(ts.pipe),
                       dest_l=dest, src1_l=src1, src2_l=src2)
    core._seq += 1
    rename_through(core, instr, cycle=cycle)
    # Stand-in for dispatch: keep the dispatch buffer from filling.
    ts.dispatch_buffer.clear()
    return instr


def retire_oldest(core, tid=0, cycle=0):
    """Complete thread ``tid``'s ROB head and run the commit stage."""
    core.threads[tid].rob.head.completed = True
    core._commit(cycle)


class TestFreeList:
    def test_allocate_release_roundtrip(self):
        """Registers leave the free list at rename and come back at the
        commit of the next writer of the same logical register, in
        FIFO order."""
        fl = FreeList(0, 4)
        regs = [fl.allocate() for _ in range(4)]
        assert sorted(regs) == [0, 1, 2, 3]
        assert len(fl) == 0
        with pytest.raises(IndexError):
            fl.allocate()
        core = idle_core(small_machine())
        free = core.renamer.int_free
        before = len(free)
        first = rename(core, 3)
        second = rename(core, 3)
        assert len(free) == before - 2
        retire_oldest(core)
        retire_oldest(core)
        assert len(free) == before
        # The two retired mappings went to the tail of the FIFO.
        assert list(free._free)[-2:] == [first.old_dest_p,
                                         second.old_dest_p]

    def test_owns(self):
        """Commit returns each retired mapping to the pool that owns
        it: FP registers sit at or above the FP pool's base."""
        core = idle_core(small_machine())
        renamer = core.renamer
        int_before, fp_before = len(renamer.int_free), len(renamer.fp_free)
        old_int = rename(core, 3).old_dest_p
        old_fp = rename(core, FP_BASE + 3).old_dest_p
        assert old_int < renamer.fp_free._base <= old_fp
        retire_oldest(core)
        retire_oldest(core)
        assert old_int in renamer.int_free._free
        assert old_fp in renamer.fp_free._free
        assert len(renamer.int_free) == int_before
        assert len(renamer.fp_free) == fp_before

    def test_capacity(self):
        assert FreeList(5, 7).capacity == 7

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            FreeList(0, 0)


class TestMapTable:
    def test_initial_mappings_empty(self):
        """The rename stage looks sources up unconditionally: zero
        registers and ``NO_REG`` (-1, the last entry) map to NO_PREG."""
        t = RenameMapTable()
        assert t._map[0] == NO_PREG
        assert t._map[NO_REG] == NO_PREG

    def test_remap_returns_old(self):
        t = RenameMapTable()
        assert t.remap(3, 100) == NO_PREG
        assert t.remap(3, 101) == 100
        assert t._map[3] == 101

    def test_zero_register_pinned(self):
        t = RenameMapTable()
        with pytest.raises(ValueError):
            t.remap(REG_INT_ZERO, 5)

    def test_mappings_snapshot_is_copy(self):
        t = RenameMapTable()
        snap = t.mappings()
        snap[0] = 42
        assert t._map[0] == NO_PREG


class TestRenameUnit:
    def _core(self, threads=1):
        return idle_core(small_machine(), threads)

    def test_initial_mappings_are_ready(self):
        core = self._core()
        table = core.renamer.maps[0]._map
        for logical in (0, 5, FP_BASE, FP_BASE + 3):
            assert is_ready(core, table[logical])

    def test_rename_allocates_not_ready_dest(self):
        core = self._core()
        i = rename(core, 3, 1, 2)
        assert i.rename_cycle == 0
        assert i.dest_p >= 0 and not is_ready(core, i.dest_p)
        assert i.old_dest_p >= 0  # initial mapping existed
        assert is_ready(core, i.src1_p) and is_ready(core, i.src2_p)
        assert core.renamer.maps[0]._map[3] == i.dest_p

    def test_dependence_through_renamed_register(self):
        core = self._core()
        producer = rename(core, 3)
        consumer = rename(core, 4, 3)
        assert consumer.src1_p == producer.dest_p
        assert not is_ready(core, consumer.src1_p)
        wake(core, producer.dest_p)
        assert is_ready(core, consumer.src1_p)

    def test_zero_register_sources_and_dests(self):
        core = self._core()
        i = rename(core, REG_INT_ZERO, REG_INT_ZERO)
        assert i.dest_p == NO_PREG and i.old_dest_p == NO_PREG
        assert i.src1_p == NO_PREG and is_ready(core, i.src1_p)

    def test_threads_have_independent_maps(self):
        core = self._core(threads=2)
        d0 = rename(core, 3, tid=0).dest_p
        d1 = rename(core, 3, tid=1).dest_p
        assert d0 != d1
        assert core.renamer.maps[0]._map[3] == d0
        assert core.renamer.maps[1]._map[3] == d1

    def test_fp_and_int_pools_separate(self):
        core = self._core()
        fp_base = core.renamer.fp_free._base
        assert rename(core, 3).dest_p < fp_base
        assert rename(core, FP_BASE + 3).dest_p >= fp_base

    def test_release_returns_register(self):
        core = self._core()
        free = core.renamer.int_free
        before = len(free)
        rename(core, 3)
        assert len(free) == before - 1
        retire_oldest(core)
        assert len(free) == before

    def test_can_rename_tracks_exhaustion(self):
        """An empty free list stalls rename of a destination of its
        class only: no-destination and other-class renames proceed."""
        core = self._core(threads=2)
        core.renamer.int_free._free.clear()
        assert rename(core, NO_REG, tid=0).rename_cycle == 0
        assert rename(core, FP_BASE + 1, tid=0).rename_cycle == 0
        stalled = rename(core, 3, tid=1)
        assert stalled.rename_cycle == -1
        assert core.threads[1].pipe[0][1] is stalled

    def test_too_many_threads_rejected(self):
        cfg = tiny_machine()  # 48 phys regs: one thread needs 31
        with pytest.raises(ValueError, match="cannot"):
            RenameUnit(cfg, 4)

    def test_reset_restores_initial_state(self):
        core = self._core()
        u = core.renamer
        rename(core, 3)
        free_after_rename = len(u.int_free)
        u.reset()
        assert len(u.int_free) == free_after_rename + 1
        assert is_ready(core, u.maps[0]._map[3])

    def test_reset_clears_the_shared_scoreboard_in_place(self):
        core = self._core()
        u = core.renamer
        scoreboard = u.ready
        rename(core, 3)
        u.reset()
        assert u.ready is scoreboard is core.iq._ready_bits
        # Only the reinstalled architectural mappings are ready.
        live = {p for table in u.maps for p in table._map if p >= 0}
        assert {p for p, bit in enumerate(scoreboard) if bit} == live
