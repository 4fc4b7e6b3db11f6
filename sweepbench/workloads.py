"""The benchmark's four workloads and the checks on their outputs.

Each workload drives the program only through its public entry points
(``jobs_for_grid``, ``execute_jobs``, ``LocalCluster``,
``execute_remote``) and follows one protocol: ``setup`` (timed, and
repeated for the set-up metric), then a window of ``sweep`` calls (each
timed; ``reset`` runs untimed before each and ``after`` untimed after
each), then ``verify`` and ``teardown``. ``sweepbench/README.md``
explains why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import resource
import shutil
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import repro.exec as rexec
from repro.config.presets import paper_machine
from repro.exec import ChaosConfig, ExecReport, ExecutorConfig, SimJob
from repro.exec.cache import ResultCache, encode_job_result
from repro.experiments import runner
from repro.serve import client
from repro.serve.cluster import LocalCluster
from repro.trace.generator import clear_trace_cache
from repro.util.encoding import stable_dumps
from repro.util.rng import derive_seed
from repro.workloads.mixes import FOUR_THREAD_MIXES, TWO_THREAD_MIXES

from hostspeed import HostClock

SCHEDULERS = ("traditional", "2op_block", "2op_ooo")

#: serve-resubmit sends this many requests per second of ``--seconds``
#: (150 for 15 s), sized so they take 15 to 25 s on a 2-CPU host.
SERVE_REQUESTS_PER_S = 10


@dataclass(frozen=True)
class Scale:
    """Grid sizes and budgets; ``tiny`` exists for the self-test."""

    grid_mixes: int
    grid_iqs: tuple[int, ...]
    grid_insns: int
    long_mixes: int
    long_insns: int
    serve_mixes: int
    serve_insns: int
    fresh_insns: int
    fresh_warmup: int
    setup_reps: int


SCALES = {
    "full": Scale(grid_mixes=1, grid_iqs=(32, 64), grid_insns=2000,
                  long_mixes=1, long_insns=20000, serve_mixes=6,
                  serve_insns=500, fresh_insns=300, fresh_warmup=1000,
                  setup_reps=3),
    "tiny": Scale(grid_mixes=1, grid_iqs=(32,), grid_insns=300,
                  long_mixes=1, long_insns=300, serve_mixes=1,
                  serve_insns=300, fresh_insns=100, fresh_warmup=500,
                  setup_reps=1),
}


def encode(result) -> str:
    """Canonical bytes of one job result (``None`` for a failed job)."""
    return "" if result is None else stable_dumps(encode_job_result(result))


def digest(results) -> str:
    """SHA-256 over the canonical encoding of ``results`` in order."""
    body = stable_dumps([encode_job_result(r) for r in results])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def clear_memos() -> None:
    """Drop the trace, slot-trace and single-thread-baseline memos."""
    clear_trace_cache()
    runner.clear_slot_trace_cache()
    runner.clear_solo_cache()


def committed(result) -> int:
    return 0 if result is None else sum(result.result.committed)


@dataclass
class Outcome:
    """One timed sweep (request) of a window."""

    jobs: list
    results: list
    report: ExecReport
    t0: float
    t1: float
    #: Host-speed factor for this sweep (see ``hostspeed``).
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


class Workload:
    """Protocol shared by every workload; see the module docstring."""

    name = ""
    #: CPUs a sweep keeps busy; the host-speed kernel runs on as many.
    cpus = 1

    def __init__(self, scale: Scale, seed: int, workdir: Path,
                 chaos: ChaosConfig | None, tracer=None) -> None:
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.chaos = chaos
        self.tracer = tracer
        self.problems: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self, i: int) -> None:
        """Untimed preparation before sweep ``i``."""

    def sweep(self, i: int) -> tuple[list, list, ExecReport]:
        raise NotImplementedError

    def after(self, i: int, out: Outcome) -> None:
        """Untimed checks right after sweep ``i``."""

    def simulated_insns(self, out: Outcome) -> int:
        raise NotImplementedError

    def request_count(self, seconds: float) -> int | None:
        """A fixed number of sweeps for a ``seconds`` window, or ``None``
        to sweep until ``seconds`` of sweep time have passed."""
        return None

    def verify(self, outs: list[Outcome]) -> str | None:
        """Whole-window checks; returns the default-seed digest, or
        ``None`` when a failed job leaves nothing to digest."""
        raise NotImplementedError

    def window_counts(self, t0: float) -> None:
        """Record counts that span the whole window (traced runs)."""

    def teardown(self) -> None:
        """Release what ``setup`` acquired."""

    def fail(self, message: str) -> None:
        self.problems.append(message)


class GridWorkload(Workload):
    """A grid executed with ``execute_jobs`` once per sweep."""

    def __init__(self, *args, mixes, iqs, insns: int, fairness: bool,
                 jobs: int, cold: bool, schedulers=SCHEDULERS,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mixes = mixes
        self.iqs = iqs
        self.insns = insns
        self.fairness = fairness
        self.jobs = jobs
        #: Cold sweeps start with cleared memos and a fresh empty result
        #: cache; warm ones reuse the traces set-up made and use no cache.
        self.cold = cold
        self.schedulers = schedulers
        self.cache_dir: Path | None = None
        self.cpus = jobs

    def grid(self) -> list[SimJob]:
        grid = rexec.jobs_for_grid(
            self.mixes, paper_machine(), self.schedulers, self.iqs,
            self.insns, self.seed, with_fairness=self.fairness,
        )
        return [job for _, job in grid]

    def setup(self) -> None:
        clear_memos()
        if not self.cold:
            warmup = runner.default_warmup(self.insns)
            for mix in self.mixes:
                runner.thread_traces(mix.benchmarks, self.insns, self.seed,
                                     warmup)

    def reset(self, i: int) -> None:
        if self.cold:
            clear_memos()
            if self.cache_dir is not None:
                shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = self.workdir / f"cache-{i}"

    def teardown(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def executor(self, jobs: int, cache_dir: Path | None) -> ExecutorConfig:
        # Failed jobs are tolerated (and counted) only under injected
        # chaos; otherwise a failing job fails the run.
        return ExecutorConfig(jobs=jobs, cache_dir=cache_dir,
                              chaos=self.chaos,
                              tolerate_failures=self.chaos is not None)

    def sweep(self, i: int):
        jobs = self.grid()
        results, report = rexec.execute_jobs(
            jobs, self.executor(self.jobs, self.cache_dir))
        return jobs, results, report

    def after(self, i: int, out: Outcome) -> None:
        if out.report.cached or out.report.resumed:
            self.fail(f"sweep {i} was not cold: {out.report.as_dict()}")
        if self.cache_dir is None:
            return
        # A warm read returns the bytes the sweep wrote.
        cache = ResultCache(self.cache_dir)
        for job, result in zip(out.jobs, out.results):
            if result is not None and encode(cache.get(job)) != encode(
                    result):
                self.fail(f"warm read of {job.describe()} differs from "
                          f"the result written in sweep {i}")

    def simulated_insns(self, out: Outcome) -> int:
        return sum(committed(r) for r in out.results)

    def verify(self, outs: list[Outcome]) -> str | None:
        reference = [encode(r) for r in outs[0].results]
        if self.jobs > 1:
            # The forked pool must agree byte for byte with the serial
            # in-process path on the same grid.
            clear_memos()
            serial, _ = rexec.execute_jobs(self.grid(),
                                           self.executor(1, None))
            reference = [encode(r) for r in serial]
        for i, out in enumerate(outs):
            for job, want, got in zip(out.jobs, reference, out.results):
                if want and got is not None and encode(got) != want:
                    self.fail(f"sweep {i}: {job.describe()} differs from "
                              "the reference result")
        if any(r is None for r in outs[0].results):
            return None
        return digest(outs[0].results)


class ServeWorkload(Workload):
    """One closed-loop client resubmitting a cached grid plus one fresh
    point to a ``LocalCluster``."""

    #: The client and the server thread share this process; the worker
    #: agent is another.
    cpus = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mixes = TWO_THREAD_MIXES[:self.scale.serve_mixes]
        self.cluster: LocalCluster | None = None
        self.generation = 0

    def setup(self) -> None:
        clear_memos()
        self.generation += 1
        root = self.workdir / f"serve-{self.generation}"
        self.cache_dir = root / "cache"
        self.journal_dir = root / "journal"
        grid = rexec.jobs_for_grid(
            self.mixes, paper_machine(), SCHEDULERS, (32, 64),
            self.scale.serve_insns, self.seed,
        )
        self.grid = [job for _, job in grid]
        results, _ = rexec.execute_jobs(
            self.grid, ExecutorConfig(jobs=1, cache_dir=self.cache_dir))
        # The local in-process results, kept to check what the cluster
        # serves back.
        self.reference = [encode(r) for r in results]
        self.cluster = LocalCluster(
            workers=1, slots=1, cache_dir=self.cache_dir,
            journal_dir=self.journal_dir,
        )
        self.cluster.__enter__()

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.__exit__(None, None, None)
            self.cluster = None

    def fresh_job(self, i: int) -> SimJob:
        # Single-thread, so the simulator's share of a request stays
        # small next to the cache, journal and transport work.
        benchmarks = [b for mix in self.mixes for b in mix.benchmarks]
        return SimJob(
            benchmarks=(benchmarks[i % len(benchmarks)],),
            config=paper_machine(scheduler="2op_ooo"),
            max_insns=self.scale.fresh_insns,
            seed=derive_seed(self.seed, "fresh", i),
            warmup=self.scale.fresh_warmup,
        )

    def reset(self, i: int) -> None:
        self.next_fresh = self.fresh_job(i)
        if self.tracer is not None:
            self.tracer.fresh_hash = self.next_fresh.content_hash()

    def sweep(self, i: int):
        jobs = self.grid + [self.next_fresh]
        results, report = client.execute_remote(jobs, self.cluster.url)
        return jobs, results, report

    def after(self, i: int, out: Outcome) -> None:
        report = out.report
        if report.cached != len(self.grid) or (
                report.simulated + report.failed != 1):
            self.fail(f"request {i}: expected {len(self.grid)} cached "
                      f"and 1 fresh point, got {report.as_dict()}")
        for job, want, got in zip(self.grid, self.reference, out.results):
            if got is not None and encode(got) != want:
                self.fail(f"request {i}: served {job.describe()} differs "
                          "from the local result")
        # The fresh point: the cluster's answer, the bytes it wrote to the
        # cache and a local in-process run must all agree. Checking it
        # here, between requests, also spreads the window's requests over
        # more of the host's time: the host's speed swings over seconds.
        served = encode(out.results[-1])
        if not served:
            return
        local, _ = rexec.execute_jobs([self.next_fresh],
                                      ExecutorConfig(jobs=1))
        # The server thread shares this process: keep its heap free of
        # the local run's traces.
        clear_memos()
        if served != encode(local[0]):
            self.fail(f"request {i}: fresh point differs from the local "
                      "result")
        if encode(ResultCache(self.cache_dir).get(self.next_fresh)) != served:
            self.fail(f"request {i}: warm read of the fresh point differs "
                      "from the served result")

    def simulated_insns(self, out: Outcome) -> int:
        return committed(out.results[-1])

    def request_count(self, seconds: float) -> int:
        # Fixed, not timed: the agent's memory and the journal grow with
        # every fresh point, so peak RSS and the late-vs-early latency
        # are only comparable between versions over the same requests.
        return max(1, round(seconds * SERVE_REQUESTS_PER_S))

    def window_counts(self, t0: float) -> None:
        # The journal directory is created empty by ``setup``, so its
        # size is what the window's requests journalled.
        size = sum(p.stat().st_size for p in self.journal_dir.iterdir())
        self.tracer.count("exec.journal_bytes", size, at=t0)

    def verify(self, outs: list[Outcome]) -> str | None:
        first = outs[0].results
        if any(r is None for r in first):
            return None
        return digest(first)


def make_workload(name: str, scale: Scale, seed: int, workdir: Path,
                  chaos: ChaosConfig | None, tracer=None) -> Workload:
    """Build the named workload."""
    args = (scale, seed, workdir, chaos, tracer)
    if name in ("cold-grid", "cold-grid-pool"):
        wl: Workload = GridWorkload(
            *args, mixes=TWO_THREAD_MIXES[:scale.grid_mixes],
            iqs=scale.grid_iqs, insns=scale.grid_insns, fairness=True,
            jobs=2 if name == "cold-grid-pool" else 1, cold=True,
        )
    elif name == "long-4t":
        wl = GridWorkload(
            *args, mixes=FOUR_THREAD_MIXES[:scale.long_mixes], iqs=(64,),
            insns=scale.long_insns, fairness=False, jobs=1, cold=False,
            schedulers=("2op_block", "2op_ooo"),
        )
    elif name == "serve-resubmit":
        wl = ServeWorkload(*args)
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.name = name
    return wl


def run_window(wl: Workload, seconds: float, setup_reps: int,
               pre_setup: Callable[[], float] | None = None) -> dict:
    """Set up ``setup_reps`` times, then sweep until ``seconds`` of
    sweep time have passed (or the workload's fixed request count is
    reached); returns the measurements. Each set-up first adds the
    seconds ``pre_setup`` returns. The host-speed kernel runs before and
    after every set-up and next to the sweeps, and every set-up and
    sweep carries the scale it gives."""
    clock = HostClock(min(wl.cpus, os.cpu_count() or 1))
    setups = []
    outs: list[Outcome] = []
    tracer = wl.tracer
    count = wl.request_count(seconds)
    try:
        for rep in range(setup_reps):
            if rep:
                wl.teardown()
            clock.sample()
            extra = pre_setup() if pre_setup is not None else 0.0
            t0 = perf_counter()
            wl.setup()
            t1 = perf_counter()
            clock.sample()
            setups.append((extra + t1 - t0) * clock.scale(t0, t1))
        window = 0.0
        while not outs or (len(outs) < count if count else window < seconds):
            i = len(outs)
            wl.reset(i)
            if tracer is not None:
                tracer.request = i
            if clock.due():
                clock.sample()
            t0 = perf_counter()
            with tracer.span("bench.sweep") if tracer else nullcontext():
                jobs, results, report = wl.sweep(i)
            t1 = perf_counter()
            out = Outcome(jobs, results, report, t0, t1)
            window += out.seconds
            outs.append(out)
            wl.after(i, out)
            if wl.chaos is None and report.failed:
                wl.fail(f"sweep {i}: {report.failed} jobs failed with no "
                        "REPRO_CHAOS set")
        clock.sample()
        for out in outs:
            out.scale = clock.scale(out.t0, out.t1)
        if tracer is not None:
            wl.window_counts(outs[0].t0)
        # Taken before ``verify``, whose reference runs are not part of
        # the workload.
        rss_mb = peak_rss_mb()
        digest_hex = wl.verify(outs)
    finally:
        wl.teardown()
        clock.close()
    return {"setups": setups, "outs": outs, "digest": digest_hex,
            "peak_rss_mb": rss_mb, "clock": clock}


def peak_rss_mb() -> float:
    """Peak RSS of this process, its reaped children and its live ones."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue  # exited meanwhile; its peak is in RUSAGE_CHILDREN
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]))
    return max(peaks) / 1024.0
