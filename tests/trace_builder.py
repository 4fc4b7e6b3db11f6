"""Hand-built traces for precise pipeline behaviour tests, and an
observer that records the dynamic instructions a core fetches."""

from __future__ import annotations

from repro.isa.opcodes import OpClass
from repro.isa.registers import NO_REG
from repro.pipeline.dynamic import DynInstr
from repro.pipeline.smt_core import SMTProcessor
from repro.rename.map_table import NO_PREG
from repro.trace.generator import Trace


class TraceBuilder:
    """Builds a :class:`Trace` instruction by instruction.

    PCs auto-increment by 4 unless given explicitly, so icache behaviour
    is sequential and branch-free by default.
    """

    def __init__(self, name: str = "hand") -> None:
        self.name = name
        self.rows: list[dict] = []

    def add(self, op: OpClass, dest: int = NO_REG, src1: int = NO_REG,
            src2: int = NO_REG, addr: int = 0, taken: bool = False,
            target: int = 0, pc: int | None = None) -> "TraceBuilder":
        self.rows.append(dict(
            op=int(op), dest=dest, src1=src1, src2=src2, addr=addr,
            taken=taken, target=target,
            pc=pc if pc is not None else len(self.rows) * 4,
        ))
        return self

    def ialu(self, dest=NO_REG, src1=NO_REG, src2=NO_REG, pc=None):
        return self.add(OpClass.IALU, dest=dest, src1=src1, src2=src2, pc=pc)

    def load(self, dest, src1=NO_REG, addr=0):
        return self.add(OpClass.LOAD, dest=dest, src1=src1, addr=addr)

    def store(self, src1, src2=NO_REG, addr=0):
        return self.add(OpClass.STORE, src1=src1, src2=src2, addr=addr)

    def branch(self, src1=NO_REG, taken=False, target=0, pc=None):
        return self.add(OpClass.BRANCH, src1=src1, taken=taken,
                        target=target, pc=pc)

    def nops(self, count: int) -> "TraceBuilder":
        for _ in range(count):
            self.ialu()
        return self

    def build(self, warm_addrs: list[int] | None = None,
              warm_code: bool = True) -> Trace:
        pcs = [r["pc"] for r in self.rows]
        warm_pcs: list[int] = []
        if warm_code and pcs:
            warm_pcs = list(range(0, max(pcs) + 64, 64))
        return Trace(
            name=self.name,
            seed=0,
            op=[r["op"] for r in self.rows],
            dest=[r["dest"] for r in self.rows],
            src1=[r["src1"] for r in self.rows],
            src2=[r["src2"] for r in self.rows],
            pc=pcs,
            addr=[r["addr"] for r in self.rows],
            taken=[r["taken"] for r in self.rows],
            target=[r["target"] for r in self.rows],
            warm_addrs=warm_addrs or [],
            warm_pcs=warm_pcs,
        )


def hand_instr(seq: int, op: OpClass = OpClass.IALU, tid: int = 0,
               tseq: int | None = None, addr: int = 0,
               src1_p: int = NO_PREG, src2_p: int = NO_PREG,
               dest_p: int = NO_PREG, dest_l: int = NO_REG,
               src1_l: int = NO_REG, src2_l: int = NO_REG) -> DynInstr:
    """An instruction for hand-built pipeline state: ``seq`` is its
    global age, ``tseq`` (default ``seq``) its program position. The
    ``*_p`` operands stand in for rename; the ``*_l`` ones feed it."""
    instr = DynInstr(tid=tid, seq=seq, tseq=seq if tseq is None else tseq,
                     op=int(op), pc=0, addr=addr, taken=False, target=0,
                     dest_l=dest_l, src1_l=src1_l, src2_l=src2_l,
                     fetch_cycle=0)
    instr.src1_p = src1_p
    instr.src2_p = src2_p
    instr.dest_p = dest_p
    return instr


def idle_core(cfg, threads: int = 1) -> SMTProcessor:
    """A core whose traces are already fully fetched, so its stages
    only move the hand-built state a test puts in."""
    core = SMTProcessor(cfg, [TraceBuilder().nops(1).build()
                              for _ in range(threads)])
    for ts in core.threads:
        ts.fetch_idx = ts.trace_len
    return core


def rename_through(core, *instrs: DynInstr, cycle: int = 0) -> None:
    """Queue ``instrs`` (in program order) at their threads' front-end
    pipe exits and run the core's rename stage once."""
    for instr in instrs:
        core.threads[instr.tid].pipe.append((cycle, instr))
    core._rename(cycle)


def wake(core, *tags: int, cycle: int = 0) -> None:
    """Broadcast physical registers ``tags`` through the core's
    writeback stage at ``cycle``."""
    core._wake_events[cycle] = list(tags)
    core._apply_events(cycle)


def record_fetches(core) -> list:
    """Record every ``DynInstr`` the core's fetch stage creates.

    Wraps the core's cached fetch-stage callable (``core._fetch_cycle``,
    the seam the perf stage timers and the sanitizer's contract checks
    wrap too) and collects the entries each fetch cycle appends to the
    tail of a thread's front-end pipe. Returns the list, which fills as
    the core steps, in creation (global ``seq``) order. What happened to
    an instruction later (issue cycle, forwarding, long miss, ...) is
    read from the recorded instruction's own fields.
    """
    instrs: list = []
    fetch = core._fetch_cycle
    threads = core.threads

    def recording(c, cycle):
        before = [len(ts.pipe) for ts in threads]
        n = fetch(c, cycle)
        if n:
            new = [
                ts.pipe[j][1]
                for ts, k in zip(threads, before)
                for j in range(k, len(ts.pipe))
            ]
            new.sort(key=lambda d: d.seq)
            instrs.extend(new)
        return n

    core._fetch_cycle = recording
    return instrs
