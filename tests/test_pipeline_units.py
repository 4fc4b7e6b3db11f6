"""ROB, LSQ, functional-unit pool and thread-state tests.

The ROB, LSQ and FU pool are plain state holders: the core's rename,
issue and commit stages allocate, probe and release their entries
directly. Their behaviour is therefore pinned through those stages on
hand-built state.
"""

import pytest

from repro.config.presets import small_machine
from repro.isa.opcodes import FUClass, OpClass
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.thread import ThreadState
from repro.trace.generator import generate_trace
from tests.trace_builder import hand_instr, idle_core, rename_through


def commit_head(core, cycle=0):
    """Complete thread 0's ROB head and run the commit stage."""
    core.threads[0].rob.head.completed = True
    core._commit(cycle)


def issue_load(core, seq, tseq, addr, cycle=1):
    load = hand_instr(seq, op=OpClass.LOAD, tseq=tseq, addr=addr)
    core.iq.insert(load, 0)
    core._issue(cycle)
    assert load.issued
    return load


class TestReorderBuffer:
    def test_fifo_order(self):
        core = idle_core(small_machine())
        a, b = hand_instr(0), hand_instr(1)
        rename_through(core, a, b)
        rob = core.threads[0].rob
        assert rob.head is a
        commit_head(core)
        assert rob.head is b

    def test_capacity(self):
        core = idle_core(small_machine().replace(rob_size=2))
        rob = core.threads[0].rob
        rename_through(core, hand_instr(0))
        assert not rob.full
        rename_through(core, hand_instr(1), hand_instr(2))
        assert rob.full
        # Rename stalls at a full ROB: the third stays in the pipe.
        assert [d.seq for d in rob] == [0, 1]
        assert [d.seq for _, d in core.threads[0].pipe] == [2]

    def test_empty_head_is_none(self):
        assert ReorderBuffer(2).head is None

    def test_clear(self):
        core = idle_core(small_machine())
        rename_through(core, hand_instr(0))
        rob = core.threads[0].rob
        rob.clear()
        assert len(rob) == 0 and rob.head is None

    def test_iteration_in_order(self):
        core = idle_core(small_machine())
        rename_through(core, *(hand_instr(i) for i in range(3)))
        assert [x.seq for x in core.threads[0].rob] == [0, 1, 2]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)


class TestLoadStoreQueue:
    def test_occupancy(self):
        core = idle_core(small_machine().replace(lsq_size=2))
        lsq = core.threads[0].lsq
        a = hand_instr(0, OpClass.LOAD, addr=64)
        rename_through(core, a)
        assert lsq.count == 1
        rename_through(core, hand_instr(1, OpClass.STORE, addr=128),
                       hand_instr(2, OpClass.LOAD, addr=0))
        # Rename stalls the third memory op at a full LSQ.
        assert lsq.count == 2
        assert len(core.threads[0].pipe) == 1
        commit_head(core)
        assert lsq.count == 1

    def test_store_forwarding_requires_older_store(self):
        core = idle_core(small_machine())
        rename_through(core, hand_instr(5, OpClass.STORE, addr=64, tseq=5))
        young_load = issue_load(core, seq=7, tseq=7, addr=64)
        old_load = issue_load(core, seq=3, tseq=3, addr=64, cycle=2)
        assert young_load.forwarded is True
        assert old_load.forwarded is False

    def test_no_forwarding_for_different_address(self):
        core = idle_core(small_machine())
        rename_through(core, hand_instr(0, OpClass.STORE, addr=64))
        assert not issue_load(core, seq=1, tseq=1, addr=128).forwarded

    def test_forwarding_stops_after_store_commits(self):
        core = idle_core(small_machine())
        rename_through(core, hand_instr(0, OpClass.STORE, addr=64, tseq=0))
        commit_head(core)
        assert not issue_load(core, seq=1, tseq=1, addr=64).forwarded

    def test_forward_counter(self):
        core = idle_core(small_machine())
        rename_through(core, hand_instr(0, OpClass.STORE, addr=64, tseq=0))
        issue_load(core, seq=1, tseq=1, addr=64)
        assert core.threads[0].lsq.forwards == 1

    def test_reset(self):
        core = idle_core(small_machine())
        rename_through(core, hand_instr(0, OpClass.STORE, addr=64))
        lsq = core.threads[0].lsq
        lsq.reset()
        assert lsq.count == 0
        assert not issue_load(core, seq=1, tseq=1, addr=64).forwarded


class TestFunctionalUnitPool:
    """Claims happen in the issue stage; small_machine has 8 integer
    ALUs and 4 multiply/divide units behind a 4-wide issue."""

    def _issue_at(self, core, cycle, *ops, seq0=0):
        instrs = [hand_instr(seq0 + i, op=op) for i, op in enumerate(ops)]
        for d in instrs:
            core.iq.insert(d, 0)
        core._issue(cycle)
        return instrs

    def test_pipelined_unit_accepts_every_cycle(self):
        core = idle_core(small_machine())
        alus = self._issue_at(core, 0, *[OpClass.IALU] * 4)
        alus += self._issue_at(core, 0, *[OpClass.IALU] * 4, seq0=4)
        assert all(d.issued for d in alus)
        # Pipelined: every ALU is free again on the next cycle.
        again = self._issue_at(core, 1, *[OpClass.IALU] * 4, seq0=8)
        assert all(d.issued for d in again)

    def test_divider_blocks_its_unit(self):
        core = idle_core(small_machine())
        divs = self._issue_at(core, 0, *[OpClass.IDIV] * 4)
        assert all(d.issued for d in divs)
        (fifth,) = self._issue_at(core, 0, OpClass.IDIV, seq0=4)
        assert not fifth.issued
        # IDIV issue interval is 19: still busy at cycle 10 ...
        core._issue(10)
        assert not fifth.issued
        # ... free again at 19.
        core._issue(19)
        assert fifth.issue_cycle == 19

    def test_mul_and_div_share_units(self):
        core = idle_core(small_machine())
        self._issue_at(core, 0, *[OpClass.IDIV] * 4)
        (mul,) = self._issue_at(core, 0, OpClass.IMUL, seq0=4)
        assert not mul.issued

    def test_available_does_not_claim(self):
        """A select that finds its FU class busy claims nothing: the
        entry stays queued and issues once a unit frees."""
        core = idle_core(small_machine())
        self._issue_at(core, 0, *[OpClass.IALU] * 4)
        self._issue_at(core, 0, *[OpClass.IALU] * 4, seq0=4)
        (ninth,) = self._issue_at(core, 0, OpClass.IALU, seq0=8)
        assert not ninth.issued and ninth.in_iq
        assert core.fu.issued_per_class[FUClass.INT_ALU] == 8
        core._issue(1)
        assert ninth.issue_cycle == 1
        assert core.fu.issued_per_class[FUClass.INT_ALU] == 9

    def test_reset(self):
        core = idle_core(small_machine())
        self._issue_at(core, 0, *[OpClass.IDIV] * 4)
        core.fu.reset()
        (div,) = self._issue_at(core, 0, OpClass.IDIV, seq0=4)
        assert div.issued


class TestThreadState:
    def _thread(self):
        cfg = small_machine()
        trace = generate_trace("gzip", 2000, 3)
        return ThreadState(0, trace, cfg), cfg

    def test_initial_state(self):
        ts, cfg = self._thread()
        assert ts.fetch_idx == 0
        assert not ts.exhausted
        assert not ts.drained
        assert ts.pipe_capacity == cfg.frontend_depth * cfg.fetch_width

    def test_exhausted_and_drained(self):
        ts, _ = self._thread()
        ts.fetch_idx = ts.trace_len
        assert ts.exhausted and ts.drained
        ts.rob._entries.append(hand_instr(0))
        assert not ts.drained

    def test_flush_resumes_from_oldest_in_flight(self):
        ts, _ = self._thread()
        ts.fetch_idx = 100
        oldest = hand_instr(50, tseq=50)
        ts.rob._entries.append(oldest)
        ts.dispatch_buffer.append(hand_instr(60, tseq=60))
        ts.pipe.append((0, hand_instr(70, tseq=70)))
        ts.icount = 3
        resume = ts.flush_inflight(resume_cycle=123)
        assert resume == 50
        assert ts.fetch_idx == 50
        assert ts.icount == 0
        assert len(ts.rob) == 0 and not ts.pipe and not ts.dispatch_buffer
        assert ts.stalled_until == 123

    def test_flush_with_empty_rob_uses_pipe(self):
        ts, _ = self._thread()
        ts.fetch_idx = 80
        ts.pipe.append((0, hand_instr(75, tseq=75)))
        assert ts.flush_inflight(1) == 75
