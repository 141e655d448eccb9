"""Run the repository benchmark.

    python3 bench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
    python3 bench/run.py [--seed S] [--seconds T] [--trace 0|1]

With ``--workload`` it runs that workload in this process and prints,
as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Without it, it runs every workload, each in
a fresh subprocess, and exits nonzero if any of them does.

The load is a closed loop: one serial client repeats a workload's pass
until its passes have taken ``--seconds`` (at least two passes). Every
pass runs the same work from an empty compile cache, so passes are
samples of one cost, never summed: ``wall_s`` is the fastest pass and
the item percentiles are taken over each item's fastest time, which
keeps out the bursts of slowdown a shared host adds. Outputs are
checked outside the timed region; any mismatch makes ``correct`` false
and the exit code 1.

``--trace 1`` reports the per-layer metrics instead: after the untraced
passes it makes one pass with every layer timer of ``bench/trace.py``
installed, then one pass with the blockspec engine in place of the
fast one. The traced pass is also written out as a Chrome trace.

Nothing is read or written outside the checkout: ``CRISP_CACHE_DIR`` is
dropped, so the compile cache stays in memory, and results, traces and
the fuzz corpus go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: fresh-interpreter set-ups timed per run; setup_s is their median
SETUP_REPEATS = 5

#: every run measures at least this many untraced passes, so each
#: best-of statistic has more than one sample
MIN_PASSES = 3

SETUP_CODE = ("import sys\n"
              "from bench.workloads import WORKLOADS\n"
              "WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))\n")


def checkout_env() -> dict[str, str]:
    """This checkout's source, no on-disk compile cache."""
    env = {key: value for key, value in os.environ.items()
           if key != "CRISP_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


# ---- host fingerprint ------------------------------------------------------


def calibration_score(rounds: int = 5, loops: int = 200_000) -> float:
    """Iterations per second of a fixed pure-Python loop (best of
    ``rounds``), to normalize numbers taken on different hosts."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return loops / best


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def host_fingerprint(seed: int) -> dict[str, Any]:
    return {"python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "git_sha": git_sha(),
            "seed": seed,
            "calibration_loops_per_s": calibration_score()}


# ---- passes ----------------------------------------------------------------


@dataclass
class Pass:
    """One measured pass: its wall time and the timer that watched it."""

    wall_s: float
    timer: Any
    root_self_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    completed: bool = True  #: False if the pass raised

    @property
    def item_s(self) -> list[float]:
        return [seconds for seconds, _ok in self.timer.items]

    def rate(self, layer: str, cycles: str) -> float:
        """Simulated cycles per second spent inside ``layer``."""
        spent = self.timer.layer(layer).total_s
        return self.timer.counts[cycles] / spent if spent else 0.0


def run_pass(workload, inputs, tmp: str, layers, *,
             spans: bool = False, blockspec: bool = False):
    """Run one pass under a fresh timer; return (Pass, output or None)."""
    from bench import trace
    from repro.sim.blockspec import clear_compiled_traces
    from repro.sim.progcache import default_cache

    timer = trace.LayerTimer(spans=spans)
    if spans:
        timer.calibrate()
    default_cache().clear()
    clear_compiled_traces()
    trace.install(timer, layers, workload.item_targets, workload.item_ok)
    if blockspec:
        trace.install_blockspec(timer)
    try:
        wall, root_self, output = timer.measure(
            lambda: workload.run_pass(inputs, tmp))
    except Exception:
        return Pass(0.0, timer, completed=False, problems=[
            f"pass raised:\n{traceback.format_exc()}"]), None
    finally:
        timer.restore()
    cache = default_cache()
    timer.counts["sim.progcache.hits"] = cache.hits
    timer.counts["sim.progcache.misses"] = cache.misses
    return Pass(wall, timer, root_self), output


def checked(workload, inputs, record: Pass, output, first,
            programs) -> None:
    """Check a pass's output (outside the timed region)."""
    if output is None:
        return
    try:
        record.problems += workload.check(inputs, output, first, programs)
    except Exception:
        record.problems.append(f"check raised:\n{traceback.format_exc()}")


def time_setup(name: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import the workload's call
    path and build its inputs."""
    start = time.perf_counter()
    # no timeout: waiting with one polls every 50 ms, which would
    # quantize the measurement
    subprocess.run([sys.executable, "-c", SETUP_CODE, name, str(seed)],
                   env=checkout_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


# ---- metrics ---------------------------------------------------------------


def decile(values: list[float], k: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def best_items(passes: list[Pass]) -> list[float]:
    """Each item's best time over the passes, which all run the same
    items in the same order."""
    return [min(times) for times in zip(*(p.item_s for p in passes))]


def end_to_end(setup: list[float], passes: list[Pass]) -> dict[str, tuple]:
    items = [seconds * 1000 for seconds in best_items(passes)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (min(p.wall_s for p in passes), "s"),
        "item_ms.p50": (decile(items, 5), "ms"),
        "item_ms.p90": (decile(items, 9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(passes: list[Pass], traced: Pass,
              blockspec: Pass) -> dict[str, tuple]:
    from bench.trace import ITEM, LAYERS

    timer = traced.timer
    wall = traced.wall_s
    counts = timer.counts
    # one traced and one blockspec sample against the typical pass
    untraced = statistics.median(p.wall_s for p in passes)
    metrics: dict[str, tuple] = {
        "trace.pass_s": (wall, "s"),
        "trace.overhead_frac": (wall / untraced - 1, "frac"),
        "trace.root_self_frac": (_frac(traced.root_self_s, wall), "frac"),
        "trace.timer_frac": (_frac(timer.timer_s(), wall), "frac"),
    }
    shares = {}
    for name in (ITEM, *LAYERS):
        shares[name] = _frac(timer.layer(name).self_s, wall)
        metrics[f"{name}.self_frac"] = (shares[name], "frac")

    def share(*prefixes: str) -> float:
        return sum(value for name, value in shares.items()
                   if name.startswith(prefixes))

    decode = timer.layer("sim.pdu.decode").calls
    hits = counts["sim.progcache.hits"]
    lookups = hits + counts["sim.progcache.misses"]
    blockspec_cycles = blockspec.timer.counts["sim.cycles"]
    metrics.update({
        "share.kernel_frac": (share("sim.cpu.", "sim.pdu.", "sim.eu.",
                                    "sim.icache."), "frac"),
        "share.compile_frac": (share("lang.", "asm."), "frac"),
        "share.verify_frac": (share("sim.reference", "verify.",
                                    "obs."), "frac"),
        "sim.cycles": (counts["sim.cycles"], "count"),
        "sim.cycles_per_s": (statistics.median(
            p.rate("sim.cpu.run", "sim.cycles") for p in passes), "1/s"),
        "sim.icache.miss_cycle_frac": (
            _frac(counts["sim.icache_miss_cycles"], counts["sim.cycles"]),
            "frac"),
        "sim.cpu.step.calls": (timer.layer("sim.cpu.step").calls, "count"),
        "sim.pdu.decode.calls": (decode, "count"),
        "sim.pdu.decode.distinct": (len(timer.decoded), "count"),
        "sim.pdu.redecode_ratio": (_frac(decode, len(timer.decoded)),
                                   "ratio"),
        "sim.reference.cycles_per_s": (statistics.median(
            p.rate("sim.reference", "sim.reference.cycles")
            for p in passes), "1/s"),
        "sim.progcache.hits": (hits, "count"),
        "sim.progcache.misses": (counts["sim.progcache.misses"], "count"),
        "sim.progcache.hit_ratio": (_frac(hits, lookups), "frac"),
        "lang.tokens": (counts["lang.tokens"], "count"),
        "asm.parcels": (counts["asm.parcels"], "count"),
        "sim.blockspec.speedup": (untraced / blockspec.wall_s, "x"),
        "sim.blockspec.cycles_per_s": (
            blockspec.rate("sim.cpu.run", "sim.cycles"), "1/s"),
        "sim.blockspec.trace_cycle_frac": (
            _frac(blockspec.timer.counts["sim.blockspec.trace_cycles"],
                  blockspec_cycles), "frac"),
    })
    return metrics


# ---- one workload ----------------------------------------------------------


def run_workload(workload, seed: int, seconds: float, traced_run: bool,
                 scratch: Path) -> tuple[dict, list[str], dict, Any]:
    """Measure one workload; return (metrics, problems, result document,
    traced pass's timer or None). ``scratch`` holds the fuzz corpus and
    the programs already verified in this checkout."""
    from bench import trace
    from bench.workloads import ProgramCheck

    fingerprint = host_fingerprint(seed)
    verified_path = scratch / "verified-programs.json"
    try:
        verified = json.loads(verified_path.read_text())
    except (OSError, ValueError):
        verified = {}
    if not isinstance(verified, dict):
        verified = {}
    programs = ProgramCheck(verified)
    setup = [time_setup(workload.name, seed) for _ in range(SETUP_REPEATS)]
    inputs = workload.setup(seed)
    passes: list[Pass] = []
    first = None
    # a traced run leaves half its time to the traced and blockspec passes
    budget = seconds / 2 if traced_run else seconds
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        while True:
            record, output = run_pass(workload, inputs, tmp,
                                      trace.KERNEL_LAYERS)
            checked(workload, inputs, record, output, first, programs)
            if first is None:
                first = output
            passes.append(record)
            if not record.completed:
                break
            spent = sum(p.wall_s for p in passes)
            typical = statistics.median(p.wall_s for p in passes)
            if len(passes) >= MIN_PASSES and spent + typical / 2 >= budget:
                break
        extra: list[Pass] = []
        if traced_run:
            traced = (trace.LAYERS, {"spans": True})
            blockspec = (trace.KERNEL_LAYERS, {"blockspec": True})
            for layers, options in (traced, blockspec):
                record, output = run_pass(workload, inputs, tmp, layers,
                                          **options)
                checked(workload, inputs, record, output, first, programs)
                extra.append(record)
    verified_path.write_text(json.dumps(verified))
    measured = passes + extra
    problems = [problem for p in measured for problem in p.problems]
    completed = [p for p in passes if p.completed]
    if not completed or not all(p.completed for p in extra):
        metrics = {}  # nothing to measure; the problems say why
    elif traced_run:
        metrics = per_layer(completed, *extra)
    else:
        metrics = end_to_end(setup, completed)
    document = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(traced_run), "host": fingerprint,
        "passes": [p.wall_s for p in completed],
        "item_s": [p.item_s for p in completed],
        "items": sum(len(p.timer.items) for p in measured),
        "failed_items": sum(not ok for p in measured
                            for _s, ok in p.timer.items),
        "problems": problems,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return metrics, problems, document, extra[0].timer if extra else None


def report(name: str, seed: int, seconds: float, traced_run: bool) -> int:
    """Run one workload, print its metrics and write its documents."""
    from bench.workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    metrics, problems, document, timer = run_workload(
        WORKLOADS[name], seed, seconds, traced_run, OUT)
    host = document["host"]
    print(f"host: {host['python']}, nproc {host['nproc']}, "
          f"{host['platform']}, git {host['git_sha']}, seed {seed}, "
          f"calibration {host['calibration_loops_per_s']:.0f} loops/s")
    print(f"workload {name}: {len(document['passes'])} untraced passes, "
          f"{document['items']} items, {document['failed_items']} failed")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    stem = f"{name}-seed{seed}-trace{int(traced_run)}"
    (OUT / f"{stem}.json").write_text(json.dumps(document, indent=2) + "\n")
    if timer is not None:
        (OUT / f"{stem}.chrome.json").write_text(
            json.dumps(timer.chrome_trace(host)))
    attempted = document["items"]
    failed = min(attempted, document["failed_items"] + len(problems))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": document["metrics"]}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh subprocess."""
    from bench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=checkout_env(), cwd=ROOT, timeout=600)
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: {SRC / 'repro'} is missing; run from a full "
              "checkout", file=sys.stderr)
        return 2
    os.environ.pop("CRISP_CACHE_DIR", None)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench.workloads import WORKLOADS
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    return report(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    # the script's own directory would shadow the stdlib ``trace``
    if Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        del sys.path[0]
    sys.exit(main())
