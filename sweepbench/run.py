"""Layered sweep benchmark for the SMT dispatch simulator.

Run from the root of a source checkout::

    python3 sweepbench/run.py --workload cold-grid --seed 0 --seconds 15 --trace 0

It builds nothing: the program is imported from ``src/`` of the
checkout. Set-up runs first, then sweeps repeat until ``--seconds`` of
sweep time have passed, then the outputs are checked. Every end-to-end
time is scaled to a reference host speed (see ``hostspeed.py``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``; with ``--trace 1`` an untraced
window followed by a traced one, reporting the per-layer metrics.
Exits 1 when a check fails and 2 when the source tree is missing.

``--scale tiny`` shrinks every grid for ``sweepbench/selftest.py``.
Set ``REPRO_CHAOS`` (see ``repro.exec.chaos``) to inject failures into
the ``execute_jobs`` workloads; failed jobs are then counted, not
raised. Without it, any failed job fails the run.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "sweepbench"

#: The seed whose output digests are recorded in ``digests.json``.
DEFAULT_SEED = 0

WORKLOADS = ("cold-grid", "cold-grid-pool", "long-4t", "serve-resubmit")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds(src: Path) -> float:
    """Seconds a fresh interpreter takes to import the program (through
    the benchmark's workloads module)."""
    code = ("import time; t = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def end_to_end(raw: dict, wl) -> dict[str, float]:
    """Every time is scaled to the reference host speed (``hostspeed``).
    Throughputs are totals over the window's sweeps; latencies are
    percentiles of the sweeps."""
    outs = raw["outs"]
    seconds = [out.scaled_seconds for out in outs]
    p90 = (statistics.quantiles(seconds, n=10, method="inclusive")[-1]
           if len(seconds) > 1 else seconds[0])
    window = sum(seconds)
    return {
        "setup_s": statistics.median(raw["setups"]),
        "points_per_s": sum(len(o.jobs) - o.report.failed
                            for o in outs) / window,
        "sim_insns_per_s": sum(wl.simulated_insns(o) for o in outs) / window,
        "sweep_p50_s": statistics.median(seconds),
        "sweep_p90_s": p90,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def counts(raw: dict) -> tuple[int, int]:
    outs = raw["outs"]
    return (sum(len(out.jobs) for out in outs),
            sum(out.report.failed for out in outs))


def check_digest(args, wl, raw: dict) -> None:
    if args.seed != DEFAULT_SEED or args.scale != "full":
        return
    if raw["digest"] is None and wl.chaos is not None:
        return  # a chaos-killed job is counted in ``failed`` instead
    recorded = json.loads((HERE / "digests.json").read_text())
    if recorded.get(args.workload) != raw["digest"]:
        wl.fail(f"output digest {raw['digest']} differs from the one "
                f"recorded for seed {DEFAULT_SEED}")


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(names - set(values))}, undeclared "
            f"{sorted(set(values) - names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {src}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    (workdir / "spans").mkdir()
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    sys.path.insert(0, str(src))

    import hostspeed
    import tracing
    import workloads
    from repro.exec import ChaosConfig

    scale = workloads.SCALES[args.scale]
    chaos = ChaosConfig.from_env()

    def make(tag: str, tracer=None):
        # Each window gets its own directory, so no cache or journal
        # entry carries over from one window to the next.
        return workloads.make_workload(args.workload, scale, args.seed,
                                       workdir / tag, chaos, tracer)

    try:
        if args.trace:
            plain = make("plain")
            base = workloads.run_window(plain, args.seconds, 1)
            check_digest(args, plain, base)
            attempted, _ = counts(base)
            s_per_point = sum(o.seconds for o in base["outs"]) / attempted
            tracer = tracing.Tracer(workdir / "spans")
            restore = tracing.install(tracer)
            try:
                wl = make("traced", tracer)
                raw = workloads.run_window(wl, args.seconds, 1)
            finally:
                restore()
            check_digest(args, wl, raw)
            attempted, failed = counts(raw)
            metrics = tracing.rollup(
                tracer, [(o.t0, o.t1) for o in raw["outs"]], attempted,
                failed, s_per_point)
            tracer.write(WORK / f"spans-{args.workload}.jsonl")
            problems = plain.problems + wl.problems
            declared = spec["per_layer"]
        else:
            # Set-up is timed several times and reported as a median:
            # each repetition imports the program in a fresh interpreter
            # and then sets the workload up from cold.
            wl = make("timed")
            raw = workloads.run_window(wl, args.seconds, scale.setup_reps,
                                       lambda: import_seconds(src))
            check_digest(args, wl, raw)
            attempted, failed = counts(raw)
            metrics = end_to_end(raw, wl)
            problems = wl.problems
            declared = spec["end_to_end"]
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        shutil.rmtree(workdir, ignore_errors=True)

    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    outs = raw["outs"]
    print(f"{args.workload}: {len(outs)} sweeps of {len(outs[0].jobs)} "
          f"points, digest {raw['digest']}", file=sys.stderr)
    print(f"host-speed kernel {raw['clock'].median_s():.4f} s (reference "
          f"{hostspeed.REFERENCE_S} s); unscaled sweep median "
          f"{statistics.median(o.seconds for o in outs):.4f} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(metrics, declared),
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
