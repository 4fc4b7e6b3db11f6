"""Fault-injection tests for the runtime pipeline sanitizer.

Each test corrupts one microarchitectural structure mid-run and asserts
the sanitizer raises a :class:`SanitizerViolation` naming exactly the
invariant that was broken. A clean run under every scheduler must pass
all checks and leave the simulation results bit-identical to an
unsanitized run.
"""

from __future__ import annotations

import pytest

from repro.analysis.contracts import RESOURCES, STAGE_CALLABLES
from repro.analysis.sanitizer import (
    _RESOURCE_PROBES,
    INVARIANTS,
    PipelineSanitizer,
    SanitizerViolation,
)
from repro.config.machine import SCHEDULER_KINDS
from repro.config.presets import small_machine
from repro.experiments.cli import build_parser
from repro.isa.opcodes import OpClass
from repro.pipeline.dynamic import DynInstr
from repro.pipeline.smt_core import SMTProcessor
from tests.trace_builder import TraceBuilder, hand_instr, idle_core, rename_through


def serial_trace(n: int = 400):
    """A fully serial single-cycle chain: keeps ROB and IQ populated."""
    tb = TraceBuilder()
    for i in range(n):
        tb.ialu(dest=1 + (i % 8), src1=1 + ((i - 1) % 8) if i else -1)
    return tb.build()


def make_core(scheduler: str = "2op_ooo", **overrides) -> SMTProcessor:
    overrides = {"sanitize": True, "sanitize_interval": 8, **overrides}
    cfg = small_machine(scheduler=scheduler).replace(**overrides)
    return SMTProcessor(cfg, [serial_trace(), serial_trace()])


def step_until(core: SMTProcessor, pred, limit: int = 3000) -> None:
    for _ in range(limit):
        core.step()
        if pred(core):
            return
    raise AssertionError("pipeline never reached the required state")


def iq_resident(core: SMTProcessor) -> list[DynInstr]:
    return [i for ts in core.threads for i in ts.rob if i.in_iq]


def iq_waiting(core: SMTProcessor) -> list[DynInstr]:
    return [i for i in iq_resident(core) if i.num_waiting > 0]


def fake_instr(tseq: int = 10 ** 6) -> DynInstr:
    return DynInstr(
        tid=0, seq=tseq, tseq=tseq, op=int(OpClass.IALU), pc=0, addr=0,
        taken=False, target=0, dest_l=1, src1_l=2, src2_l=-1, fetch_cycle=0,
    )


def expect_violation(core: SMTProcessor, invariant: str) -> SanitizerViolation:
    with pytest.raises(SanitizerViolation) as excinfo:
        core.sanitizer.check(core.cycle)
    violation = excinfo.value
    assert violation.invariant == invariant
    assert violation.cycle == core.cycle
    return violation


# ----------------------------------------------------------------------
# clean runs
# ----------------------------------------------------------------------
class TestCleanRuns:
    @pytest.mark.parametrize("scheduler", SCHEDULER_KINDS)
    def test_every_scheduler_passes_sanitized(self, scheduler):
        core = make_core(scheduler=scheduler)
        stats = core.run(300)
        assert stats.committed_total >= 300
        assert stats.sanitizer_checks > 0

    def test_watchdog_mode_passes_sanitized(self):
        core = SMTProcessor(
            small_machine(scheduler="2op_ooo").replace(
                sanitize=True, sanitize_interval=8,
                deadlock_mode="watchdog",
            ),
            [serial_trace()],
        )
        stats = core.run(300)
        assert stats.sanitizer_checks > 0

    def test_sanitizer_does_not_perturb_results(self):
        plain = SMTProcessor(small_machine(), [serial_trace(),
                                               serial_trace()]).run(300)
        checked = make_core().run(300)
        plain_d = plain.as_dict()
        checked_d = checked.as_dict()
        assert plain_d.pop("sanitizer_checks") == 0
        assert checked_d.pop("sanitizer_checks") > 0
        assert plain_d == checked_d

    def test_disabled_config_builds_no_sanitizer(self):
        core = SMTProcessor(small_machine(), [serial_trace()])
        assert core.sanitizer is None
        assert core.run(100).sanitizer_checks == 0

    def test_interval_respected(self):
        core = make_core(sanitize_interval=16)
        stats = core.run(300)
        assert 0 < stats.sanitizer_checks <= stats.cycles // 16 + 1


# ----------------------------------------------------------------------
# the violation object
# ----------------------------------------------------------------------
class TestViolationObject:
    def test_structured_fields_and_message(self):
        instr = fake_instr()
        v = SanitizerViolation("iq-capacity", cycle=42, tid=1, instr=instr,
                               detail="broke it")
        assert v.invariant == "iq-capacity"
        assert v.cycle == 42
        assert v.tid == 1
        assert v.instr is instr
        text = str(v)
        assert "iq-capacity" in text and "42" in text and "broke it" in text

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError):
            SanitizerViolation("made-up", cycle=0)

    def test_all_invariants_constructible(self):
        for name in INVARIANTS:
            assert SanitizerViolation(name, cycle=1).invariant == name


# ----------------------------------------------------------------------
# fault injection — one test per invariant
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_rob_program_order(self):
        core = make_core()
        step_until(core, lambda c: len(c.threads[0].rob) >= 2)
        rob = core.threads[0].rob
        entries = rob._entries
        entries[0], entries[1] = entries[1], entries[0]
        expect_violation(core, "rob-program-order")

    def test_rename_program_order(self):
        core = make_core()
        step_until(core, lambda c: len(c.threads[0].rob) >= 2)
        entries = list(core.threads[0].rob)
        entries[1].rename_cycle = max(entries[0].rename_cycle - 1, 0)
        entries[0].rename_cycle = entries[1].rename_cycle + 5
        v = expect_violation(core, "rename-program-order")
        assert v.tid == 0

    def test_lsq_alloc_order_flag(self):
        core = make_core()
        core.step()
        core.threads[1].lsq.alloc_order_ok = False
        v = expect_violation(core, "lsq-alloc-order")
        assert v.tid == 1

    def test_lsq_occupancy_bounds(self):
        core = make_core()
        core.step()
        core.threads[0].lsq.count = core.threads[0].lsq.capacity + 3
        expect_violation(core, "lsq-alloc-order")

    def test_lsq_tracks_out_of_order_allocation(self):
        """The rename stage flags an LSQ allocation that goes back in
        program order; a reset clears the flag."""
        core = idle_core(small_machine())
        lsq = core.threads[0].lsq
        younger = hand_instr(0, op=OpClass.LOAD, tseq=7)
        older = hand_instr(1, op=OpClass.STORE, tseq=3)
        rename_through(core, younger)
        assert lsq.alloc_order_ok
        rename_through(core, older)
        assert not lsq.alloc_order_ok
        lsq.reset()
        assert lsq.alloc_order_ok

    def test_iq_capacity_overflow(self):
        core = make_core()
        step_until(core, lambda c: c.iq.occupancy > 0)
        core.iq.occupancy = core.iq.capacity + 1
        expect_violation(core, "iq-capacity")

    def test_iq_occupancy_counter_mismatch(self):
        core = make_core()
        step_until(core, lambda c: c.iq.occupancy > 1)
        core.iq.occupancy -= 1
        expect_violation(core, "iq-capacity")

    def test_iq_scoreboard_alias(self):
        core = make_core()
        core.step()
        core.iq._ready_bits = bytearray(core.renamer.ready)
        expect_violation(core, "iq-scoreboard")

    def test_watchdog_flush_keeps_the_iq_scoreboard(self):
        """Sanitized watchdog run with flushes: the reset scoreboard is
        still the one the IQ reads."""
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x10000)
        tb.load(dest=2, addr=0x20000)
        for i in range(10):
            tb.ialu(dest=3 + (i % 4), src1=1, src2=2)  # all NDIs
        core = SMTProcessor(
            small_machine(scheduler="2op_ooo").replace(
                sanitize=True, sanitize_interval=1,
                deadlock_mode="watchdog", watchdog_cycles=20,
            ),
            [tb.build()],
        )
        stats = core.run(300)
        assert stats.committed_total == 12
        assert stats.watchdog_flushes >= 1
        assert stats.sanitizer_checks > 0

    def test_iq_one_comparator(self):
        core = make_core(scheduler="2op_ooo")
        step_until(core, lambda c: bool(iq_resident(c)))
        instr = iq_resident(core)[0]
        instr.num_waiting = 2
        v = expect_violation(core, "iq-one-comparator")
        assert v.instr is instr

    def test_iq_dab_exclusion_dual_residency(self):
        core = make_core()
        step_until(core, lambda c: bool(iq_resident(c)))
        instr = iq_resident(core)[0]
        instr.in_dab = True
        v = expect_violation(core, "iq-dab-exclusion")
        assert v.instr is instr

    def test_dab_overflow(self):
        core = make_core()
        core.step()
        for tseq in (10 ** 6, 10 ** 6 + 1):
            bogus = fake_instr(tseq)
            bogus.in_dab = True
            core.dab.entries.append(bogus)
        expect_violation(core, "iq-dab-exclusion")

    def test_dab_entry_with_unready_source(self):
        core = make_core(deadlock_buffer_size=4)
        step_until(core, lambda c: bool(iq_waiting(c)))
        pending_tag = core.iq.nonready_sources(iq_waiting(core)[0])[0]
        bogus = fake_instr()
        bogus.in_dab = True
        bogus.src1_p = pending_tag
        core.dab.entries.append(bogus)
        v = expect_violation(core, "iq-dab-exclusion")
        assert v.instr is bogus

    def test_wakeup_registration_mismatch(self):
        core = make_core()
        step_until(core, lambda c: bool(iq_waiting(c)))
        instr = iq_waiting(core)[0]
        for tag, waiters in list(core.iq.waiting.items()):
            core.iq.waiting[tag] = [w for w in waiters if w is not instr]
        v = expect_violation(core, "wakeup-consistency")
        assert v.instr is instr

    def test_waiting_on_ready_tag(self):
        core = make_core()
        step_until(core, lambda c: bool(iq_waiting(c)))
        instr = iq_waiting(core)[0]
        for tag in core.iq.nonready_sources(instr):
            core.renamer.ready[tag] = 1
        v = expect_violation(core, "wakeup-consistency")
        assert v.invariant == "wakeup-consistency"

    def test_issue_starvation(self):
        core = make_core(sanitize_starvation_bound=1)
        step_until(core, lambda c: bool(iq_waiting(c)) and c.cycle > 10)
        instr = iq_waiting(core)[0]
        for tag, waiters in list(core.iq.waiting.items()):
            core.iq.waiting[tag] = [w for w in waiters if w is not instr]
        instr.num_waiting = 0
        instr.dispatch_cycle = 0
        v = expect_violation(core, "issue-starvation")
        assert v.instr is instr

    def test_commit_total_regression(self):
        core = make_core()
        step_until(core, lambda c: c.stats.committed_total > 2)
        core.sanitizer.check(core.cycle)  # records the commit watermark
        core.stats.committed_total -= 2
        core.stats.committed[0] -= 2
        expect_violation(core, "commit-monotonicity")

    def test_commit_sum_mismatch(self):
        core = make_core()
        step_until(core, lambda c: c.stats.committed_total > 0)
        core.stats.committed[0] += 3
        expect_violation(core, "commit-monotonicity")

    def test_per_thread_commit_regression(self):
        core = make_core()
        step_until(core, lambda c: min(c.stats.committed) > 1)
        core.sanitizer.check(core.cycle)
        core.stats.committed[1] -= 1
        core.stats.committed_total -= 1
        expect_violation(core, "commit-monotonicity")

    def test_violation_raised_from_step(self):
        core = make_core(sanitize_interval=1)
        step_until(core, lambda c: len(c.threads[0].rob) >= 2)
        entries = core.threads[0].rob._entries
        entries[0], entries[1] = entries[1], entries[0]
        with pytest.raises(SanitizerViolation):
            for _ in range(4):
                core.step()


# ----------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------
class TestWiring:
    def test_cli_exposes_sanitize_flag(self):
        args = build_parser().parse_args(
            ["mix", "parser", "vortex", "--sanitize"]
        )
        assert args.sanitize is True
        args = build_parser().parse_args(["mix", "parser"])
        assert args.sanitize is False

    def test_sanitizer_constructed_from_config(self):
        core = make_core()
        assert isinstance(core.sanitizer, PipelineSanitizer)
        assert core.sanitizer.interval == 8


# ----------------------------------------------------------------------
# stage-contract shadow checks
# ----------------------------------------------------------------------
class TestStageContracts:
    def test_wrappers_installed_on_every_stage_callable(self):
        core = make_core()
        for attr in STAGE_CALLABLES:
            assert getattr(core, attr).__name__ == "checked", attr

    def test_clean_run_performs_contract_checks(self):
        core = make_core()
        stats = core.run(300)
        assert core.sanitizer.contract_checks > 0
        # The counter lives on the sanitizer, not in PipelineStats: the
        # sanitizer must not perturb the stats block it is checking.
        assert "contract_checks" not in stats.as_dict()

    def test_probes_cover_every_dynamic_resource(self):
        # stats (every stage counts), instr (too wide per interval) and
        # config (frozen) are left to the static pass; everything else
        # must have a fingerprint probe.
        assert set(_RESOURCE_PROBES) == (
            set(RESOURCES) - {"stats", "instr", "config"}
        )

    def _core_with_rogue_stage(self, attr: str, mutate) -> SMTProcessor:
        """A core whose ``attr`` stage callable also runs ``mutate``,
        wrapped by manually installed contract checks (same order as
        ``SMTProcessor.__init__``: cache, corrupt, then install)."""
        core = SMTProcessor(
            small_machine(scheduler="2op_ooo").replace(sanitize_interval=8),
            [serial_trace(), serial_trace()],
        )
        inner = getattr(core, attr)

        def rogue(*args):
            result = inner(*args)
            mutate(core)
            return result

        setattr(core, attr, rogue)
        sanitizer = PipelineSanitizer(core)
        sanitizer.install_contract_checks()
        return core

    def _expect_contract_violation(self, core: SMTProcessor,
                                   stage: str, resource: str) -> None:
        with pytest.raises(SanitizerViolation) as excinfo:
            for _ in range(16):
                core.step()
        violation = excinfo.value
        assert violation.invariant == "stage-contract"
        assert f"stage '{stage}'" in violation.detail
        assert f"'{resource}'" in violation.detail

    def test_commit_mutating_iq_is_caught(self):
        core = self._core_with_rogue_stage(
            "_commit",
            lambda c: c.iq.ready_heap.append((1 << 30, 1 << 30, 0)),
        )
        self._expect_contract_violation(core, "commit", "iq")

    def test_rename_mutating_fu_is_caught(self):
        def bump_fu(c):
            c.fu.issued_per_class[0] += 1

        core = self._core_with_rogue_stage("_rename", bump_fu)
        self._expect_contract_violation(core, "rename", "fu")

    def test_dispatch_mutating_free_list_is_caught(self):
        core = self._core_with_rogue_stage(
            "_dispatch",
            lambda c: c.renamer.int_free._free.append(0),
        )
        self._expect_contract_violation(core, "dispatch", "free_list")
