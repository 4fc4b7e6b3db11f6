"""Issue-stage selection on hand-built state, driven through
``SMTProcessor._issue`` — the code every simulation runs.

These pin the select corners the pinned simulation scenarios never
reach: more ready deadlock-avoidance-buffer (DAB) entries than the
issue width, and a ready heap deeper than the select scan limit.
"""

from __future__ import annotations

from repro.config.presets import small_machine
from repro.isa.opcodes import OP_INTERVAL, FUClass, OpClass
from repro.pipeline.smt_core import _SELECT_SCAN_LIMIT
from tests.trace_builder import hand_instr, idle_core


def make_core(**overrides):
    return idle_core(small_machine(scheduler="2op_ooo").replace(**overrides))


def buffer_in_dab(core, instrs, cycle=0):
    for instr in instrs:
        core.dab.insert(instr, cycle)


def busy_dividers(core, until):
    units = core.fu._units[FUClass.INT_MULDIV]
    units[:] = [until] * len(units)


class TestDabSelect:
    def test_issue_width_caps_dab_issues(self):
        """Six ready DAB entries on a 4-wide machine: exactly four issue,
        the two youngest stay buffered in order."""
        core = make_core(deadlock_buffer_size=6)
        width = core.cfg.issue_width
        entries = [hand_instr(i) for i in range(width + 2)]
        buffer_in_dab(core, entries)
        core._issue(1)
        assert [d.issued for d in entries] == [True] * width + [False] * 2
        assert core.dab.entries == entries[width:]
        assert all(d.in_dab for d in entries[width:])
        assert core.stats.dab_issues == width
        assert core.stats.issued == width
        # DAB issues are not IQ residency samples.
        assert core.stats.iq_residency_count == 0

    def test_exactly_width_dab_entries_all_issue(self):
        core = make_core(deadlock_buffer_size=4)
        entries = [hand_instr(i) for i in range(core.cfg.issue_width)]
        buffer_in_dab(core, entries)
        core._issue(1)
        assert all(d.issued and not d.in_dab for d in entries)
        assert core.dab.entries == []
        assert core.stats.dab_issues == len(entries)

    def test_leftover_dab_entries_block_iq_select(self):
        """DAB entries take precedence (§4): when they use up the issue
        width, the IQ selects nothing this cycle."""
        core = make_core(deadlock_buffer_size=6)
        width = core.cfg.issue_width
        buffer_in_dab(core, [hand_instr(i) for i in range(width + 1)])
        queued = hand_instr(100)
        core.iq.insert(queued, 0)
        core._issue(1)
        assert not queued.issued and queued.in_iq
        assert core.stats.issued == width

    def test_fu_blocked_dab_entry_stays_and_blocks_iq(self):
        """A DAB entry whose FU class is busy is kept in place while
        younger DAB entries issue past it; exclusive arbitration (the
        paper's simple §4 scheme) then leaves the IQ idle."""
        core = make_core(deadlock_buffer_size=2, dab_exclusive=True)
        busy_dividers(core, until=50)
        div = hand_instr(0, op=OpClass.IDIV)
        alu = hand_instr(1)
        buffer_in_dab(core, [div, alu])
        queued = hand_instr(2)
        core.iq.insert(queued, 0)
        core._issue(1)
        assert alu.issued and not div.issued
        assert core.dab.entries == [div]
        assert not queued.issued
        assert core.stats.dab_issues == 1

    def test_non_exclusive_arbitration_fills_width_from_the_iq(self):
        core = make_core(deadlock_buffer_size=2)
        assert not core.cfg.dab_exclusive
        busy_dividers(core, until=50)
        div = hand_instr(0, op=OpClass.IDIV)
        buffer_in_dab(core, [div])
        queued = [hand_instr(10 + i) for i in range(5)]
        for instr in queued:
            core.iq.insert(instr, 0)
        core._issue(1)
        assert not div.issued and core.dab.entries == [div]
        width = core.cfg.issue_width
        assert [d.issued for d in queued] == [True] * width + [False]
        assert core.stats.issued == width
        assert core.stats.iq_residency_count == width
        assert core.stats.iq_residency_sum == width  # dispatched at 0


class TestSelectScanLimit:
    def _heap_behind_blocked_divides(self, blocked):
        core = make_core(iq_size=blocked + 1)
        busy_dividers(core, until=50)
        divs = [hand_instr(i, op=OpClass.IDIV) for i in range(blocked)]
        alu = hand_instr(blocked)
        for instr in divs + [alu]:
            core.iq.insert(instr, 0)
        core._issue(1)
        return core, divs, alu

    def test_scan_stops_after_the_limit(self):
        """64 FU-blocked ready entries ahead of one free one: select
        examines exactly ``_SELECT_SCAN_LIMIT`` entries, so the free one
        waits, and every blocked entry goes back on the heap."""
        core, divs, alu = self._heap_behind_blocked_divides(
            _SELECT_SCAN_LIMIT
        )
        assert not alu.issued and alu.in_iq
        assert not any(d.issued for d in divs)
        assert len(core.iq.ready_heap) == _SELECT_SCAN_LIMIT + 1
        assert core.stats.issued == 0

    def test_entry_inside_the_limit_issues(self):
        core, divs, alu = self._heap_behind_blocked_divides(
            _SELECT_SCAN_LIMIT - 1
        )
        assert alu.issued and alu.issue_cycle == 1
        assert not any(d.issued for d in divs)
        assert len(core.iq.ready_heap) == _SELECT_SCAN_LIMIT - 1


class TestFuClaim:
    def test_claimed_unit_frees_exactly_at_its_interval(self):
        """Every divider claimed at cycle 0 is busy through
        ``OP_INTERVAL - 1`` and accepts another divide *at* the
        interval."""
        core = make_core()
        op = int(OpClass.IDIV)
        units = core.cfg.fu_int_muldiv
        assert units <= core.cfg.issue_width
        first = [hand_instr(i, op=OpClass.IDIV) for i in range(units)]
        for instr in first:
            core.iq.insert(instr, 0)
        core._issue(0)
        assert all(d.issued for d in first)
        late = hand_instr(units, op=OpClass.IDIV)
        core.iq.insert(late, 0)
        free_at = OP_INTERVAL[op]
        core._issue(free_at - 1)
        assert not late.issued
        core._issue(free_at)
        assert late.issue_cycle == free_at
        assert core.fu.issued_per_class[FUClass.INT_MULDIV] == units + 1
