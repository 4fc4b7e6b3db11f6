"""Runtime microarchitectural sanitizer for the SMT pipeline.

The paper's correctness argument (§4) is that out-of-order *dispatch* is
safe because renaming and ROB/LSQ allocation stay in program order, the
reduced issue queue never holds an entry waiting on two tags, and the
deadlock-avoidance buffer guarantees forward progress. This module turns
those prose invariants into machine checks that run *inside* the cycle
loop, the way an address/thread sanitizer rides along a compiled
program: enable with ``MachineConfig.sanitize=True`` and every
``sanitize_interval`` cycles the whole in-flight window is re-validated.

Unlike :meth:`repro.pipeline.smt_core.SMTProcessor.validate` (a
test-only helper), the sanitizer is stateful across checks — it tracks
commit watermarks and detects *starvation*, not just instantaneous
inconsistency — and it raises a structured :class:`SanitizerViolation`
naming the invariant, cycle, thread and instruction, so fault-injection
tests and triage scripts can key on the failure precisely.

With ``sanitize=False`` (the default) the core holds no sanitizer object
and pays one ``is None`` test per cycle; ``bench_sanitizer_overhead``
records that this is unmeasurable against ``bench_sim_speed``.
"""

from __future__ import annotations

from repro.analysis.contracts import STAGE_CALLABLES, STAGE_CONTRACTS
from repro.pipeline.dynamic import DynInstr

#: Invariant identifiers a :class:`SanitizerViolation` may carry.
INVARIANTS = (
    "rob-program-order",
    "rename-program-order",
    "lsq-alloc-order",
    "iq-capacity",
    "iq-scoreboard",
    "iq-one-comparator",
    "iq-dab-exclusion",
    "wakeup-consistency",
    "issue-starvation",
    "commit-monotonicity",
    "stage-contract",
)

#: Resource -> cheap fingerprint of its mutable state. The contract
#: shadow checks (see :meth:`PipelineSanitizer.install_contract_checks`)
#: fingerprint every resource a stage's ``@stage_contract`` does *not*
#: declare, before and after the stage runs; any difference is a
#: contract breach. ``stats`` (every stage counts), ``instr`` (walking
#: all in-flight instructions per stage would swamp the interval
#: amortisation) and ``config`` (frozen) are left to the static pass.
_RESOURCE_PROBES = {
    "iq": lambda core: (
        core.iq.occupancy, len(core.iq.ready_heap), len(core.iq.waiting),
        core.iq.occupancy_integral,
    ),
    "ready": lambda core: bytes(core.renamer.ready),
    "rob": lambda core: tuple(
        (len(ts.rob._entries),
         ts.rob._entries[0].tseq if ts.rob._entries else -1)
        for ts in core.threads
    ),
    "lsq": lambda core: tuple(
        (ts.lsq.count, ts.lsq.last_alloc_tseq, len(ts.lsq._stores))
        for ts in core.threads
    ),
    "map_table": lambda core: tuple(
        tuple(m._map) for m in core.renamer.maps
    ),
    "free_list": lambda core: (
        tuple(core.renamer.int_free._free),
        tuple(core.renamer.fp_free._free),
    ),
    "fu": lambda core: (
        tuple(map(tuple, core.fu._units)),
        tuple(core.fu.issued_per_class),
    ),
    "dab": lambda core: (
        None if core.dab is None
        else (len(core.dab.entries), core.dab.inserts)
    ),
    "watchdog": lambda core: (
        None if core.watchdog is None
        else (core.watchdog.remaining, core.watchdog.expiries)
    ),
    "events": lambda core: (
        tuple(sorted(core._wake_events)),
        tuple(sorted(core._done_events)),
        sum(map(len, core._wake_events.values())),
        sum(map(len, core._done_events.values())),
    ),
    "thread": lambda core: tuple(
        (ts.fetch_idx, len(ts.pipe), len(ts.dispatch_buffer), ts.icount,
         ts.stalled_until, ts.committed, ts.blocked_2op)
        for ts in core.threads
    ),
    "predictor": lambda core: tuple(
        (ts.predictor.branches, ts.predictor.mispredicts)
        for ts in core.threads
    ),
    "memory": lambda core: (
        core.hierarchy.l1d.accesses, core.hierarchy.l1d.misses,
        core.hierarchy.l1i.accesses, core.hierarchy.l2.accesses,
    ),
    "core": lambda core: (
        core._seq, core._last_commit_cycle, core._events_fired,
    ),
}


class SanitizerViolation(Exception):
    """A microarchitectural invariant failed during simulation.

    Attributes:
        invariant: one of :data:`INVARIANTS`.
        cycle: simulation cycle at which the check ran.
        tid: offending hardware thread, or None for global structures.
        instr: offending :class:`DynInstr`, or None.
        detail: human-readable elaboration.
    """

    def __init__(self, invariant: str, cycle: int, tid: int | None = None,
                 instr: DynInstr | None = None, detail: str = "") -> None:
        if invariant not in INVARIANTS:
            raise ValueError(f"unknown invariant {invariant!r}")
        self.invariant = invariant
        self.cycle = cycle
        self.tid = tid
        self.instr = instr
        self.detail = detail
        parts = [f"[{invariant}] at cycle {cycle}"]
        if tid is not None:
            parts.append(f"thread {tid}")
        if instr is not None:
            parts.append(repr(instr))
        if detail:
            parts.append(detail)
        super().__init__(": ".join((parts[0], "; ".join(parts[1:])))
                         if len(parts) > 1 else parts[0])


class PipelineSanitizer:
    """Periodic whole-window invariant checker for one ``SMTProcessor``.

    The core constructs one of these when ``cfg.sanitize`` is set and
    calls :meth:`check` from ``step()`` every ``cfg.sanitize_interval``
    cycles. Each check is O(in-flight window); with the default interval
    the amortised cost stays a small fraction of simulation time.
    """

    __slots__ = (
        "core",
        "interval",
        "starvation_bound",
        "contract_checks",
        "_prev_cycles",
        "_prev_committed_total",
        "_prev_committed",
        "_prev_head_tseq",
    )

    def __init__(self, core) -> None:
        cfg = core.cfg
        self.core = core
        self.interval = cfg.sanitize_interval
        self.starvation_bound = cfg.sanitize_starvation_bound
        #: Stage-contract shadow checks performed. Kept here, not in
        #: PipelineStats: the sanitizer must not perturb the stats block
        #: it is checking.
        self.contract_checks = 0
        self._prev_cycles = 0
        self._prev_committed_total = 0
        self._prev_committed = [0] * core.num_threads
        self._prev_head_tseq = [-1] * core.num_threads

    # ------------------------------------------------------------------
    def install_contract_checks(self) -> None:
        """Wrap the core's cached stage callables with shadow checks of
        the ``@stage_contract`` declarations.

        Uses the same instance-dict interception as the ``repro.perf``
        stage timers: the class methods stay untouched, each per-core
        cached callable is replaced by a closure. On sanitizer-gated
        cycles (``cycle % interval == 0``) the closure fingerprints every
        resource the stage's contract does *not* declare, runs the stage,
        and raises ``SanitizerViolation("stage-contract", ...)`` if any
        undeclared resource changed. A watchdog recovery flush inside the
        stage legitimately rewrites everything, so a check observing a
        flush (``stats.watchdog_flushes`` moved) is abandoned.

        Must be called after the core has cached the stage callables in
        its instance dict (the ``SMTProcessor.__init__`` caching loop).
        """
        core = self.core
        for attr, stage in STAGE_CALLABLES.items():
            contract = STAGE_CONTRACTS.get(stage)
            if contract is None:
                continue
            probes = tuple(
                (res, _RESOURCE_PROBES[res])
                for res in contract.undeclared()
                if res in _RESOURCE_PROBES
            )
            if not probes:
                continue
            inner = getattr(core, attr)

            def checked(*args, _inner=inner, _probes=probes, _stage=stage,
                        _self=self, _core=core):
                cycle = args[-1]
                if cycle % _self.interval:
                    return _inner(*args)
                before = [probe(_core) for _res, probe in _probes]
                flushes = _core.stats.watchdog_flushes
                result = _inner(*args)
                if _core.stats.watchdog_flushes == flushes:
                    for (res, probe), prior in zip(_probes, before):
                        if probe(_core) != prior:
                            raise SanitizerViolation(
                                "stage-contract", cycle,
                                detail=f"stage '{_stage}' mutated "
                                       f"undeclared resource '{res}'",
                            )
                _self.contract_checks += 1
                return result

            setattr(core, attr, checked)

    # ------------------------------------------------------------------
    def check(self, cycle: int) -> None:
        """Validate every invariant; raises :class:`SanitizerViolation`."""
        self._check_program_order(cycle)
        self._check_lsq_alloc_order(cycle)
        self._check_iq(cycle)
        self._check_dab(cycle)
        self._check_commit_monotonicity(cycle)
        self.core.stats.sanitizer_checks += 1

    # ------------------------------------------------------------------
    def _check_program_order(self, cycle: int) -> None:
        """ROB entries and their rename stamps follow program order."""
        for ts in self.core.threads:
            bad = ts.rob.first_order_violation()
            if bad is not None:
                raise SanitizerViolation(
                    "rob-program-order", cycle, tid=ts.tid, instr=bad,
                    detail="ROB allocation left program order",
                )
            prev_rename = -1
            for instr in ts.rob:
                if 0 <= instr.rename_cycle < prev_rename:
                    raise SanitizerViolation(
                        "rename-program-order", cycle, tid=ts.tid,
                        instr=instr,
                        detail=f"renamed at {instr.rename_cycle} after a "
                               f"younger-renamed predecessor ({prev_rename})",
                    )
                prev_rename = max(prev_rename, instr.rename_cycle)

    def _check_lsq_alloc_order(self, cycle: int) -> None:
        """LSQ allocation happened in program order within bounds."""
        for ts in self.core.threads:
            lsq = ts.lsq
            if not lsq.alloc_order_ok:
                raise SanitizerViolation(
                    "lsq-alloc-order", cycle, tid=ts.tid,
                    detail=f"out-of-order LSQ allocation observed "
                           f"(last tseq {lsq.last_alloc_tseq})",
                )
            if not 0 <= lsq.count <= lsq.capacity:
                raise SanitizerViolation(
                    "lsq-alloc-order", cycle, tid=ts.tid,
                    detail=f"LSQ occupancy {lsq.count} outside "
                           f"[0, {lsq.capacity}]",
                )

    def _check_iq(self, cycle: int) -> None:
        """IQ scoreboard, occupancy, comparator budget, wakeup state and
        starvation."""
        core = self.core
        iq = core.iq
        if iq._ready_bits is not core.renamer.ready:
            # The IQ (and the 2OP dispatch policies reading it) must see
            # the renamer's live scoreboard, e.g. after a watchdog flush.
            raise SanitizerViolation(
                "iq-scoreboard", cycle,
                detail="issue queue reads a ready scoreboard that is not "
                       "the renamer's",
            )
        if not 0 <= iq.occupancy <= iq.capacity:
            raise SanitizerViolation(
                "iq-capacity", cycle,
                detail=f"IQ occupancy {iq.occupancy} outside "
                       f"[0, {iq.capacity}]",
            )
        comparators = min(
            iq.comparators_per_entry, core.policy.max_nonready_sources
        )
        census = iq.waiting_census()
        resident = 0
        bound = self.starvation_bound
        for ts in core.threads:
            for instr in ts.rob:
                if not instr.in_iq:
                    continue
                resident += 1
                pending = len(iq.nonready_sources(instr))
                if instr.num_waiting > comparators or pending > comparators:
                    raise SanitizerViolation(
                        "iq-one-comparator", cycle, tid=ts.tid, instr=instr,
                        detail=f"entry tracks {max(instr.num_waiting, pending)}"
                               f" non-ready tags but has {comparators} "
                               "comparator(s)",
                    )
                registered = census.get(id(instr), 0)
                if instr.num_waiting < 0 or (
                    instr.num_waiting != registered
                ):
                    raise SanitizerViolation(
                        "wakeup-consistency", cycle, tid=ts.tid, instr=instr,
                        detail=f"num_waiting={instr.num_waiting} but "
                               f"{registered} wakeup registration(s)",
                    )
                if instr.num_waiting > 0 and pending == 0:
                    raise SanitizerViolation(
                        "wakeup-consistency", cycle, tid=ts.tid, instr=instr,
                        detail="waiting on tag(s) that are already ready "
                               "(missed wakeup broadcast)",
                    )
                if (
                    instr.num_waiting == 0
                    and not instr.issued
                    and instr.dispatch_cycle >= 0
                    and cycle - instr.dispatch_cycle > bound
                ):
                    raise SanitizerViolation(
                        "issue-starvation", cycle, tid=ts.tid, instr=instr,
                        detail=f"ready since dispatch at cycle "
                               f"{instr.dispatch_cycle}, unissued for more "
                               f"than {bound} cycles",
                    )
        if resident != iq.occupancy:
            raise SanitizerViolation(
                "iq-capacity", cycle,
                detail=f"IQ occupancy counter {iq.occupancy} != {resident} "
                       "resident in-flight entries",
            )

    def _check_dab(self, cycle: int) -> None:
        """DAB bounds, IQ/DAB exclusion and the ROB-oldest readiness."""
        core = self.core
        for ts in core.threads:
            for instr in ts.rob:
                if instr.in_iq and instr.in_dab:
                    raise SanitizerViolation(
                        "iq-dab-exclusion", cycle, tid=ts.tid, instr=instr,
                        detail="resident in the IQ and the deadlock-"
                               "avoidance buffer simultaneously",
                    )
        dab = core.dab
        if dab is None:
            return
        if len(dab.entries) > dab.size:
            raise SanitizerViolation(
                "iq-dab-exclusion", cycle,
                detail=f"DAB holds {len(dab.entries)} entries but has "
                       f"{dab.size} slot(s)",
            )
        bad = dab.first_invalid_entry(core.renamer.ready)
        if bad is not None:
            raise SanitizerViolation(
                "iq-dab-exclusion", cycle, tid=bad.tid, instr=bad,
                detail="DAB entry is not a flagged, unissued instruction "
                       "with all sources ready (ROB-oldest property)",
            )

    def _check_commit_monotonicity(self, cycle: int) -> None:
        """Committed counts and retirement watermarks never regress."""
        core = self.core
        stats = core.stats
        if stats.cycles < self._prev_cycles:
            raise SanitizerViolation(
                "commit-monotonicity", cycle,
                detail=f"cycle counter regressed "
                       f"{self._prev_cycles} -> {stats.cycles}",
            )
        if stats.committed_total < self._prev_committed_total:
            raise SanitizerViolation(
                "commit-monotonicity", cycle,
                detail=f"committed_total regressed "
                       f"{self._prev_committed_total} -> "
                       f"{stats.committed_total}",
            )
        if sum(stats.committed) != stats.committed_total:
            raise SanitizerViolation(
                "commit-monotonicity", cycle,
                detail=f"per-thread commits {stats.committed} do not sum "
                       f"to committed_total {stats.committed_total}",
            )
        self._prev_cycles = stats.cycles
        self._prev_committed_total = stats.committed_total
        for ts in core.threads:
            tid = ts.tid
            if stats.committed[tid] < self._prev_committed[tid]:
                raise SanitizerViolation(
                    "commit-monotonicity", cycle, tid=tid,
                    detail=f"per-thread commit count regressed "
                           f"{self._prev_committed[tid]} -> "
                           f"{stats.committed[tid]}",
                )
            self._prev_committed[tid] = stats.committed[tid]
            head = ts.rob.head
            if head is not None:
                if head.tseq < self._prev_head_tseq[tid]:
                    raise SanitizerViolation(
                        "commit-monotonicity", cycle, tid=tid, instr=head,
                        detail=f"ROB head tseq regressed below watermark "
                               f"{self._prev_head_tseq[tid]}",
                    )
                self._prev_head_tseq[tid] = head.tseq
