"""Self-test of the benchmark at tiny scale.

Run from the root of a source checkout::

    python3 sweepbench/selftest.py

It drives ``sweepbench/run.py`` the way a caller does, on every
workload with ``--scale tiny`` and a seed other than the default, and
checks that:

* every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) declared in ``BENCHMARK.json`` is printed, with its
  declared unit, and the output cross-checks pass;
* on the in-process workloads (cold-grid, long-4t), the named layers'
  self times plus ``bench.unattributed_s`` account for the traced
  window, the unattributed part stays under 5% of it, and the wrapped
  pipeline constructor and ``run`` see every simulation;
* ``failed_ratio`` counts jobs that really failed: ``REPRO_CHAOS`` kills
  every attempt and the executor's ``tolerate_failures`` reports them;
* without the source tree, the benchmark exits non-zero and prints no
  result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracing import LAYER_SPANS  # noqa: E402

#: Not ``run.DEFAULT_SEED``: the held-out seed later claims are checked on.
SEED = 7
SECONDS = "0.5"
#: Largest share of a traced window allowed outside the named layers on
#: the in-process workloads (it reads well under 1%).
UNATTRIBUTED_MAX = 0.05


def bench(workload: str, trace: int, env: dict | None = None,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "sweepbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(out: dict, declared: list[dict], what: str) -> None:
    assert out["correct"], f"{what}: output checks failed"
    assert out["attempted"] >= 1 and out["failed"] == 0, what
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == units, f"{what}: metrics {sorted(got)} != {sorted(units)}"
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name}"


def check_accounting(metrics: dict, what: str) -> None:
    """Single-thread span trees add up by construction, so the sum is
    only a consistency check. What can fail: the named layers must cover
    almost all of the window, and the wrapped constructor and ``run``
    must see every simulation the sweeps made (one per point, plus one
    per missed single-thread baseline)."""
    value = {name: m["value"] for name, m in metrics.items()}
    window = value["bench.window_s"]
    accounted = sum(value[name] for name in LAYER_SPANS)
    accounted += value["bench.unattributed_s"]
    assert abs(accounted - window) <= 0.01 * window, (
        f"{what}: layers account for {accounted:.4f} s of a "
        f"{window:.4f} s window")
    share = value["bench.unattributed_s"] / window
    assert share < UNATTRIBUTED_MAX, (
        f"{what}: {share:.1%} of the window is outside the named layers")
    solo_misses = round(value["experiments.solo_memo_lookups"]
                        * (1 - value["experiments.solo_memo_hit_ratio"]))
    simulations = value["exec.jobs"] + solo_misses
    for name in ("pipeline.construct_calls", "pipeline.run_calls"):
        assert value[name] == simulations, (
            f"{what}: {name} is {value[name]}, expected {simulations}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        check_metrics(result(bench(workload, 0)), spec["end_to_end"],
                      f"{workload} --trace 0")
        traced = result(bench(workload, 1))
        check_metrics(traced, spec["per_layer"], f"{workload} --trace 1")
        if workload in ("cold-grid", "long-4t"):
            check_accounting(traced["metrics"], workload)
        print(f"ok  {workload}")

    env = dict(os.environ, REPRO_CHAOS="kill=1.0")
    chaotic = result(bench("cold-grid", 1, env=env))
    assert chaotic["failed"] == chaotic["attempted"] >= 1, chaotic
    ratio = chaotic["metrics"]["failed_ratio"]["value"]
    assert ratio == 1.0, f"failed_ratio {ratio} under REPRO_CHAOS kill=1.0"
    print("ok  failed_ratio counts chaos-killed jobs")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "sweepbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("cold-grid", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare)
    print("ok  no source tree: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
