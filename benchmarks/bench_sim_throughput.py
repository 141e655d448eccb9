"""Guard: the fast dispatch kernel actually is fast.

Four arms, all simulating Table-4 case E (spreading + prediction, no
folding — the heaviest EU-side case):

* **reference** — :mod:`repro.sim.reference`, the retained pre-PR
  kernel: per-access property re-derivation, per-fetch latch
  allocation, unconditional probe updates;
* **fast** — the production kernel on a disabled bus (the
  un-instrumented path sweeps and tables use);
* **instrumented** — the production kernel on a default live bus;
* **blockspec** — the block-specializing trace tier
  (:mod:`repro.sim.blockspec`): hot steady-state loops JIT-compiled to
  generated Python, deopting to the fast kernel everywhere else.

A fifth measurement leaves case E: the **miss-heavy** arm runs
``dhry_like`` at the default config, where a third of the cycles miss
the 32-entry decoded cache and PDU decodes dominate host time. It
times the fast and reference kernels with a fresh machine per
repetition and empties the process's decode tables before each one
(outside the timed region), so the fast kernel starts every repetition
with no decode recorded (distinct work, not a replay). Its bar is
``fast >= 3 x reference``.

The acceptance bars are ``fast >= 2.5 x reference`` and ``blockspec >=
2.0 x fast`` in cycles/sec. The parallel runner has a
further bar — ``--jobs 4`` sweep wall-clock at least 2x the serial
path — which only makes sense on a multi-core host and is skipped
elsewhere; its *correctness* half (byte-identical Table-4 JSON) runs
everywhere.

``BENCH_SMOKE=1`` (the CI setting) trims repetitions so the whole file
finishes in seconds; thresholds are unchanged.

Run as a script to (re)record the committed throughput baseline::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py \
        --write BENCH_throughput.json
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time

import pytest

from repro.eval.table4 import CASE_DEFINITIONS, case_program_config
from repro.obs.events import EventBus
from repro.sim.cpu import run_cycle_accurate
from repro.sim.progcache import default_cache
from repro.sim.reference import run_reference
from repro.workloads import get_workload

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
REPETITIONS = 2 if SMOKE else 3
MIN_KERNEL_SPEEDUP = 2.5
MIN_BLOCKSPEC_SPEEDUP = 2.0
MIN_PARALLEL_SPEEDUP = 2.0
MIN_MISS_HEAVY_SPEEDUP = 3.0
MISS_HEAVY_WORKLOAD = "dhry_like"
PARALLEL_JOBS = 4

CASE_E = next(case for case in CASE_DEFINITIONS if case.name == "E")


def _case_e():
    return case_program_config(CASE_E)


def _cycles_per_sec(run, repetitions: int = REPETITIONS) -> float:
    """Best-of-N throughput of ``run()`` (returns a finished cpu)."""
    best = float("inf")
    cycles = 0
    for _ in range(repetitions):
        start = time.perf_counter()
        cpu = run()
        elapsed = time.perf_counter() - start
        cycles = cpu.stats.cycles
        best = min(best, elapsed)
    return cycles / best


def measure_throughput() -> dict[str, float]:
    """cycles/sec for the four arms on Table-4 case E."""
    program, config = _case_e()
    bconfig = dataclasses.replace(config, engine="blockspec")
    arms = {
        "reference": lambda: run_reference(program, config),
        "fast": lambda: run_cycle_accurate(
            program, config, obs=EventBus(enabled=False)),
        "instrumented": lambda: run_cycle_accurate(program, config),
        "blockspec": lambda: run_cycle_accurate(
            program, bconfig, obs=EventBus(enabled=False)),
    }
    for run in arms.values():  # warm every arm once (incl. trace JIT)
        run()
    return {name: _cycles_per_sec(run) for name, run in arms.items()}


def measure_miss_heavy() -> dict[str, float]:
    """cycles/sec of the fast and reference kernels on ``dhry_like``.

    Each repetition builds a new machine after emptying the process's
    decode tables, which machines share, so every repetition decodes
    from scratch; the last runs' stats must agree bit for bit.
    """
    program = get_workload(MISS_HEAVY_WORKLOAD).compiled()
    arms = {
        "reference": lambda: run_reference(program),
        "fast": lambda: run_cycle_accurate(program,
                                           obs=EventBus(enabled=False)),
    }
    results, stats = {}, {}
    for name, run in arms.items():
        best = float("inf")
        for _ in range(REPETITIONS):
            default_cache().clear()
            start = time.perf_counter()
            cpu = run()
            best = min(best, time.perf_counter() - start)
        results[name] = cpu.stats.cycles / best
        stats[name] = cpu.stats.as_dict()
    assert stats["fast"] == stats["reference"]
    return results


def host_fingerprint() -> dict:
    """Where the numbers were taken: interpreter, cores, platform and
    a fixed pure-Python loop's best-of-5 iterations per second."""
    loops, best = 200_000, float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return {"python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "calibration_loops_per_s": round(loops / best)}


def _print_results(results: dict[str, float]) -> None:
    for name, value in results.items():
        print(f"  {name:<13} {value:>12,.0f} cyc/s")


def test_fast_kernel_speedup():
    results = measure_throughput()
    speedup = results["fast"] / results["reference"]
    print()
    _print_results(results)
    print(f"  speedup       {speedup:>12.2f}x  "
          f"(floor {MIN_KERNEL_SPEEDUP:.1f}x)")
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"fast kernel is only {speedup:.2f}x the reference "
        f"(floor {MIN_KERNEL_SPEEDUP:.1f}x)")


def test_blockspec_tier_speedup():
    """The trace tier must be worth its complexity: >= 2x the fast
    kernel on the steady-state-heavy case E, with identical stats."""
    program, config = _case_e()
    bconfig = dataclasses.replace(config, engine="blockspec")
    fast = run_cycle_accurate(program, config,
                              obs=EventBus(enabled=False))
    blockspec = run_cycle_accurate(program, bconfig,
                                   obs=EventBus(enabled=False))
    assert blockspec.stats.as_dict() == fast.stats.as_dict()

    results = measure_throughput()
    speedup = results["blockspec"] / results["fast"]
    print()
    _print_results(results)
    print(f"  speedup       {speedup:>12.2f}x  "
          f"(floor {MIN_BLOCKSPEC_SPEEDUP:.1f}x)")
    assert speedup >= MIN_BLOCKSPEC_SPEEDUP, (
        f"blockspec tier is only {speedup:.2f}x the fast kernel "
        f"(floor {MIN_BLOCKSPEC_SPEEDUP:.1f}x)")


def test_miss_heavy_decode_memo_speedup():
    """Where PDU decodes dominate, the fast kernel's decode memo must
    leave the re-decoding reference kernel >= 3x behind."""
    results = measure_miss_heavy()
    speedup = results["fast"] / results["reference"]
    print()
    _print_results(results)
    print(f"  speedup       {speedup:>12.2f}x  "
          f"(floor {MIN_MISS_HEAVY_SPEEDUP:.1f}x)")
    assert speedup >= MIN_MISS_HEAVY_SPEEDUP, (
        f"fast kernel is only {speedup:.2f}x the reference on "
        f"{MISS_HEAVY_WORKLOAD} (floor {MIN_MISS_HEAVY_SPEEDUP:.1f}x)")


def test_parallel_output_byte_identical():
    """--jobs N must be invisible in the Table-4 JSON document."""
    from repro.eval.jsonout import table4_json
    jobs = 2 if SMOKE else PARALLEL_JOBS
    serial = json.dumps(table4_json(), sort_keys=True)
    parallel = json.dumps(table4_json(jobs=jobs), sort_keys=True)
    assert serial == parallel


@pytest.mark.skipif((os.cpu_count() or 1) < PARALLEL_JOBS,
                    reason=f"needs >= {PARALLEL_JOBS} cores for a "
                           f"meaningful wall-clock comparison")
def test_parallel_sweep_wall_clock():
    """On a multi-core host, --jobs 4 halves sweep wall-clock."""
    from repro.eval.sweeps import fold_policy_sweep
    workloads = ["sieve", "sort", "fib", "collatz", "strings", "matrix"]
    fold_policy_sweep(workloads)  # warm compiles so both arms run hot

    start = time.perf_counter()
    serial = fold_policy_sweep(workloads)
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    parallel = fold_policy_sweep(workloads, jobs=PARALLEL_JOBS)
    parallel_time = time.perf_counter() - start

    speedup = serial_time / parallel_time
    print(f"\n  serial    {serial_time * 1000:8.1f} ms")
    print(f"  --jobs {PARALLEL_JOBS} {parallel_time * 1000:8.1f} ms")
    print(f"  speedup   {speedup:8.2f}x (floor {MIN_PARALLEL_SPEEDUP:.1f}x)")
    assert serial.cycles_table() == parallel.cycles_table()
    assert speedup >= MIN_PARALLEL_SPEEDUP, (
        f"--jobs {PARALLEL_JOBS} speedup {speedup:.2f}x under the "
        f"{MIN_PARALLEL_SPEEDUP:.1f}x floor")


def test_progcache_serves_repeat_compiles():
    """The compile cache turns the 5-case table into 3 compiles."""
    cache = default_cache()
    cache.clear()
    for case in CASE_DEFINITIONS:
        case_program_config(case)
    stats = cache.stats()
    assert stats["misses"] == 3  # A/B share options; D/E share options
    assert stats["hits"] == 2
    for case in CASE_DEFINITIONS:
        case_program_config(case)
    assert cache.stats()["misses"] == 3


# ---- committed baseline ----------------------------------------------------


def baseline_document() -> dict:
    """The ``BENCH_throughput.json`` document (crisp-bench-baseline
    shape, so ``crisp-obs diff`` pairs entries across revisions and
    future gates can adopt throughput metrics)."""
    from repro.obs.manifest import SCHEMA_VERSION, git_sha

    results = measure_throughput()
    cases = [{
        "workload": f"table4/case_E/{arm}",
        "extra": {"case": f"throughput_{arm}", "bench": "sim_throughput"},
        "metrics": {"cycles_per_sec": round(value, 1)},
    } for arm, value in results.items()]
    cases.append({
        "workload": "table4/case_E/kernel_speedup",
        "extra": {"case": "throughput_speedup", "bench": "sim_throughput"},
        "metrics": {"speedup": round(
            results["fast"] / results["reference"], 3)},
    })
    cases.append({
        "workload": "table4/case_E/blockspec_speedup",
        "extra": {"case": "throughput_blockspec_speedup",
                  "bench": "sim_throughput"},
        "metrics": {"speedup": round(
            results["blockspec"] / results["fast"], 3)},
    })
    miss_heavy = measure_miss_heavy()
    cases += [{
        "workload": f"{MISS_HEAVY_WORKLOAD}/{arm}",
        "extra": {"case": f"miss_heavy_{arm}", "bench": "sim_throughput"},
        "metrics": {"cycles_per_sec": round(value, 1)},
    } for arm, value in miss_heavy.items()]
    cases.append({
        "workload": f"{MISS_HEAVY_WORKLOAD}/kernel_speedup",
        "extra": {"case": "miss_heavy_speedup", "bench": "sim_throughput"},
        "metrics": {"speedup": round(
            miss_heavy["fast"] / miss_heavy["reference"], 3)},
    })
    return {
        "schema": SCHEMA_VERSION,
        "kind": "crisp-bench-baseline",
        "bench": "sim_throughput",
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "cases": cases,
    }


def main(argv: list[str] | None = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Measure case-E and miss-heavy throughput; optionally "
                    "record the committed baseline.")
    parser.add_argument("--write", metavar="PATH",
                        help="write the baseline document here")
    args = parser.parse_args(argv)
    document = baseline_document()
    print(json.dumps(document, indent=2, sort_keys=True))
    if args.write:
        with open(args.write, "w", encoding="utf-8") as stream:
            json.dump(document, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote throughput baseline -> {args.write}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
