"""Warm-state snapshots: restore equals a fresh warm, and the store.

Every core copies its post-warmup caches and predictors from a
:class:`repro.pipeline.warm.WarmState`. A snapshot taken from the store
was built for an earlier core, possibly one with another scheduler or
IQ size that has since run; restoring it must give a core whose
``PipelineStats`` are byte-identical to one warmed from scratch. These
tests enforce that over drawn configurations, check that neither a core
nor the store aliases snapshot state, and pin the store's key, bound
and clearing.
"""

from dataclasses import asdict, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.presets import paper_machine, small_machine
from repro.exec import ExecutorConfig, execute_jobs, jobs_for_grid
from repro.experiments.runner import (
    clear_slot_trace_cache,
    clear_solo_cache,
    thread_traces,
)
from repro.pipeline import warm
from repro.pipeline.smt_core import SMTProcessor
from repro.trace.generator import clear_trace_cache
from repro.util.encoding import stable_dumps
from repro.util.rng import derive_seed
from repro.workloads.mixes import TWO_THREAD_MIXES

from tests.trace_builder import TraceBuilder

SCHEDULERS = ("traditional", "2op_block", "2op_ooo", "2op_ooo_filtered")
BENCHES = ["gzip", "mcf", "parser", "vortex", "ammp", "art"]


def _stats_bytes(core, insns):
    return stable_dumps(asdict(core.run(insns, 100_000)))


def _snapshot_of(core):
    return warm.snapshot(core.hierarchy,
                         [ts.predictor for ts in core.threads],
                         core.threads[0].fetch_idx)


def _keyless(traces):
    """Content-equal copies without a content key: always warmed fresh."""
    return [replace(t) for t in traces]


@pytest.fixture(autouse=True)
def _empty_store():
    warm.STORE.clear()
    yield
    warm.STORE.clear()


class TestRestoreEqualsFresh:
    @given(
        mix=st.lists(st.sampled_from(BENCHES), min_size=1, max_size=4)
        .filter(lambda m: len(m) != 3),
        iq_size=st.sampled_from([8, 16, 32]),
        scheduler=st.sampled_from(SCHEDULERS),
        seed=st.integers(min_value=0, max_value=3),
        warmup=st.sampled_from([0, 150, 700]),
        fast_forward=st.booleans(),
        watchdog=st.booleans(),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_restored_core_matches_a_fresh_one(self, mix, iq_size,
                                               scheduler, seed, warmup,
                                               fast_forward, watchdog):
        # 192 + 192 registers back four threads' architectural state.
        cfg = small_machine(iq_size=iq_size, scheduler=scheduler).replace(
            int_phys_regs=192, fp_phys_regs=192,
            sanitize=True, sanitize_interval=16,
            deadlock_mode="watchdog" if watchdog else "buffer",
            watchdog_cycles=16,
        )
        insns = 400
        traces = thread_traces(mix, insns, seed=seed, warmup=warmup)
        warm.STORE.clear()
        # The snapshot's first user has another scheduler and IQ size
        # and runs to completion before the snapshot is reused.
        other = cfg.replace(
            scheduler="traditional" if scheduler != "traditional"
            else "2op_ooo",
            iq_size=64,
        )
        first = SMTProcessor(other, traces, warmup=warmup)
        first.run(insns, 100_000)
        hits = warm.STORE.hits
        restored = SMTProcessor(cfg, traces, warmup=warmup,
                                fast_forward=fast_forward)
        assert warm.STORE.hits == hits + 1
        # Restore is the exact inverse of the snapshot it copied.
        (state,) = warm.STORE._states.values()
        assert _snapshot_of(restored) == state
        builds = warm.STORE.builds
        fresh = SMTProcessor(cfg, _keyless(traces), warmup=warmup,
                             fast_forward=fast_forward)
        assert warm.STORE.builds == builds + 1
        assert _stats_bytes(restored, insns) == _stats_bytes(fresh, insns)


class TestNoAliasing:
    def test_two_restored_cores_in_a_row_match(self):
        cfg = paper_machine(scheduler="2op_ooo")
        traces = thread_traces(["parser", "vortex"], 800, seed=0,
                               warmup=500)
        runs = []
        for _ in range(3):
            core = SMTProcessor(cfg, traces, warmup=500)
            runs.append(_stats_bytes(core, 800))
        assert (warm.STORE.builds, warm.STORE.hits) == (1, 2)
        assert runs[0] == runs[1] == runs[2]

    def test_snapshot_is_unchanged_after_a_core_runs(self):
        cfg = small_machine(scheduler="2op_ooo")
        traces = thread_traces(["gzip", "mcf"], 800, seed=1, warmup=500)
        SMTProcessor(cfg, traces, warmup=500)
        (state,) = warm.STORE._states.values()
        core = SMTProcessor(cfg, traces, warmup=500)
        core.run(800, 100_000)
        # The core mutated every structure it restored; the stored
        # snapshot still equals a fresh build of the same key.
        assert core.hierarchy.l1d.accesses > 0
        assert state == warm.build(cfg, traces, 500)

    def test_restore_copies_every_mutable_container(self):
        cfg = small_machine()
        traces = thread_traces(["parser", "art"], 400, seed=0, warmup=300)
        a = SMTProcessor(cfg, traces, warmup=300)
        b = SMTProcessor(cfg, traces, warmup=300)
        assert warm.STORE.hits == 1
        (state,) = warm.STORE._states.values()
        assert _snapshot_of(a) == _snapshot_of(b) == state
        for level in ("l1i", "l1d", "l2"):
            sets_a = getattr(a.hierarchy, level)._sets
            sets_b = getattr(b.hierarchy, level)._sets
            assert sets_a == sets_b
            assert all(x is not y for x, y in zip(sets_a, sets_b))
        for ta, tb in zip(a.threads, b.threads):
            assert ta.predictor.gshare._table is not tb.predictor.gshare._table
            assert ta.predictor.gshare._table == tb.predictor.gshare._table
            assert all(x is not y for x, y in
                       zip(ta.predictor.btb._sets, tb.predictor.btb._sets))
            assert ta.fetch_idx == tb.fetch_idx == 300


class TestStoreKey:
    def test_keyless_traces_never_enter_the_store(self):
        tb = TraceBuilder()
        for i in range(40):
            tb.ialu(dest=1 + i % 8)
        trace = tb.build()
        assert trace.key is None
        builds = warm.STORE.builds
        for _ in range(3):
            SMTProcessor(small_machine(), [trace]).run(30)
        assert len(warm.STORE) == 0
        assert warm.STORE.builds == builds + 3
        assert warm.STORE.hits == 0

    def test_replace_drops_the_content_key(self):
        (trace,) = thread_traces(["parser"], 300, seed=0, warmup=100)
        assert trace.key is not None
        assert replace(trace).key is None
        SMTProcessor(small_machine(), _keyless([trace]), warmup=100)
        assert len(warm.STORE) == 0

    def test_key_ignores_core_parameters_but_not_memory_or_warmup(self):
        traces = thread_traces(["gzip"], 300, seed=0, warmup=200)
        base = small_machine()
        builds = warm.STORE.builds
        for cfg in (base, base.replace(scheduler="2op_ooo", iq_size=64)):
            SMTProcessor(cfg, traces, warmup=200)
        assert warm.STORE.builds == builds + 1
        assert (warm.STORE.hits, len(warm.STORE)) == (1, 1)
        SMTProcessor(base, traces, warmup=100)
        SMTProcessor(paper_machine(), traces, warmup=200)
        assert len(warm.STORE) == 3
        assert warm.STORE.hits == 1


def _clear_memos():
    clear_trace_cache()
    clear_slot_trace_cache()
    clear_solo_cache()


class TestStore:
    def test_cold_fairness_grid_builds_each_distinct_state_once(self):
        mix = next(m for m in TWO_THREAD_MIXES
                   if len(set(m.benchmarks)) == 2)
        jobs = [job for _, job in jobs_for_grid(
            [mix], paper_machine(),
            ("traditional", "2op_block", "2op_ooo"), (32, 64), 300, 0,
            with_fairness=True,
        )]
        # One mix state plus one single-thread state per benchmark: the
        # solo baselines at IQ 32 and 64 share theirs.
        for _ in range(2):
            _clear_memos()
            assert len(warm.STORE) == 0
            builds, hits = warm.STORE.builds, warm.STORE.hits
            results, report = execute_jobs(jobs, ExecutorConfig(jobs=1))
            assert report.simulated == len(jobs) == 6
            assert warm.STORE.builds - builds == 3
            assert warm.STORE.hits - hits == 7
        _clear_memos()

    def test_fresh_single_thread_points_stay_within_the_bound(self):
        cfg = paper_machine(scheduler="2op_ooo")
        benches = ["parser", "vortex", "gzip", "mcf"]
        last = None
        for i in range(150):
            seed = derive_seed(0, "fresh", i)
            traces = thread_traces([benches[i % 4]], 100, seed=seed,
                                   warmup=200)
            SMTProcessor(cfg, traces, warmup=200)
            assert len(warm.STORE) <= warm.STORE_BOUND
            last = traces
        assert len(warm.STORE) == warm.STORE_BOUND
        assert warm.STORE.hits == 0
        # FIFO: the newest state is still stored.
        SMTProcessor(cfg, last, warmup=200)
        assert warm.STORE.hits == 1
        _clear_memos()

    def test_clear_trace_cache_drops_every_snapshot(self):
        traces = thread_traces(["ammp"], 300, seed=0, warmup=100)
        SMTProcessor(small_machine(), traces, warmup=100)
        assert len(warm.STORE) == 1
        clear_trace_cache()
        assert len(warm.STORE) == 0
