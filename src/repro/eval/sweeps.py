"""Design-space sweep framework.

Runs a grid of (workload × machine configuration) on the cycle-accurate
simulator and collects one row per point — the engine behind the
ablation benches and the design-space example. Compiled programs go
through the content-hash cache (:mod:`repro.sim.progcache`), so a sweep
recompiles nothing — neither within one grid nor across grids in the
same process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.policy import FoldPolicy
from repro.lang import CompilerOptions
from repro.sim.cpu import CpuConfig
from repro.sim.progcache import compile_cached
from repro.sim.stats import PipelineStats


@dataclass(frozen=True)
class SweepPoint:
    """One (workload, configuration) measurement."""

    workload: str
    label: str
    config: CpuConfig
    stats: PipelineStats

    @property
    def cycles(self) -> int:
        return self.stats.cycles


@dataclass
class Sweep:
    """A collection of sweep points with simple query helpers."""

    points: list[SweepPoint] = field(default_factory=list)

    def for_workload(self, name: str) -> list[SweepPoint]:
        return [p for p in self.points if p.workload == name]

    def by_label(self, label: str) -> list[SweepPoint]:
        return [p for p in self.points if p.label == label]

    def cycles_table(self) -> dict[str, dict[str, int]]:
        """{workload: {label: cycles}}."""
        table: dict[str, dict[str, int]] = {}
        for point in self.points:
            table.setdefault(point.workload, {})[point.label] = point.cycles
        return table

    def format(self) -> str:
        labels = sorted({p.label for p in self.points})
        width = max(len(label) for label in labels) + 2
        lines = ["workload".ljust(12)
                 + "".join(label.rjust(width) for label in labels)]
        for workload, row in sorted(self.cycles_table().items()):
            lines.append(workload.ljust(12) + "".join(
                str(row.get(label, "-")).rjust(width) for label in labels))
        return "\n".join(lines)


def _compiled(workload: str, spreading: bool, seed: int | None = None):
    from repro.workloads import resolve_source
    return compile_cached(resolve_source(workload, seed),
                          CompilerOptions(spreading=spreading))


def run_grid(workloads: Iterable[str],
             configs: dict[str, CpuConfig],
             spreading: bool = True,
             jobs: int | None = None,
             seed: int | None = None) -> Sweep:
    """Run every workload under every named configuration.

    ``jobs`` fans the points out over worker processes (see
    :mod:`repro.eval.parallel`); results are merged in task order, so
    the sweep is identical to a serial run point for point. ``seed``
    feeds synthetic (``gen_*``) workload generation — carried inside
    each task, so parallel workers regenerate the exact programs the
    serial path compiles.
    """
    from repro.eval.parallel import SweepTask, run_sweep_tasks
    tasks = [SweepTask(workload, label, config, spreading, seed)
             for workload in workloads
             for label, config in configs.items()]
    return Sweep(points=run_sweep_tasks(tasks, jobs))


def icache_sweep(workloads: Iterable[str],
                 sizes: Iterable[int] = (8, 16, 32, 64, 128),
                 jobs: int | None = None) -> Sweep:
    """Decoded-instruction-cache size sweep (paper shipped 32 entries)."""
    return run_grid(workloads, {
        f"i{size}": CpuConfig(icache_entries=size) for size in sizes},
        jobs=jobs)


def latency_sweep(workloads: Iterable[str],
                  latencies: Iterable[int] = (1, 2, 4, 8),
                  jobs: int | None = None) -> Sweep:
    """Main-memory latency sweep (the decoded cache decouples the EU)."""
    return run_grid(workloads, {
        f"m{latency}": CpuConfig(mem_latency=latency)
        for latency in latencies}, jobs=jobs)


def fold_policy_sweep(workloads: Iterable[str],
                      jobs: int | None = None) -> Sweep:
    """The three fold policies over a set of workloads."""
    return run_grid(workloads, {
        "none": CpuConfig(fold_policy=FoldPolicy.none()),
        "crisp": CpuConfig(fold_policy=FoldPolicy.crisp()),
        "all": CpuConfig(fold_policy=FoldPolicy.fold_all()),
    }, jobs=jobs)
