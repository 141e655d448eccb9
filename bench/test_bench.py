"""Tests for the benchmark harness. Run them with ``pytest bench/``."""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import pytest

from bench.run import ROOT, SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from bench import run, trace  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: each workload on an input small enough for a test
SHRINK = {
    "table4": lambda inputs: inputs,
    "suite-sweep": lambda inputs: {**inputs,
                                   "programs": ("figure3", "gen_branchy2")},
    "fuzz": lambda inputs: {**inputs, "programs": 3},
    "compile": lambda items: items[:4],
}


def reduced(name: str):
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload, setup=lambda seed: SHRINK[name](workload.setup(seed)))


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_emits_exactly_the_declared_metrics(name, traced, tmp_path):
    metrics, problems, document, _timer = run.run_workload(
        reduced(name), seed=0, seconds=0, traced_run=traced,
        scratch=tmp_path)
    assert problems == []
    assert document["items"] > 0 and document["failed_items"] == 0
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert {key: unit for key, (_value, unit) in metrics.items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    if not traced:
        assert all(value > 0 for value, _unit in metrics.values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_reconcile_on_nested_calls():
    timer = trace.LayerTimer(spans=True)
    timer.inner, timer.outer = 2e-6, 3e-6
    leaf = timer.wrap("leaf", lambda: _busy(0.002))

    def middle():
        _busy(0.001)
        leaf()
        leaf()
    middle = timer.wrap("middle", middle, span=True)

    def root():
        middle()
        _busy(0.001)
    elapsed, root_self, _ = timer.measure(root)

    layers = timer.layers
    assert layers["leaf"].calls == 2 and layers["middle"].calls == 1
    assert sum(layer.self_s for layer in layers.values()) + root_self \
        + timer.timer_s() == pytest.approx(elapsed, abs=1e-9)
    assert layers["middle"].self_s == pytest.approx(
        layers["middle"].total_s - layers["leaf"].total_s
        - 2 * timer.outer - timer.inner, abs=1e-9)
    assert root_self >= 0.001 - timer.outer
    assert [name for name, _start, _s in timer.spans] == ["middle"]


def test_restore_puts_every_original_back():
    targets = [target for spec in trace.LAYERS.values()
               for target in spec.targets]
    targets += ["repro.sim.cpu:CrispCpu.__init__",
                "repro.sim.blockspec:BlockSpecEngine._run",
                "repro.sim.progcache:ProgramCache.get_or_build",
                *WORKLOADS["fuzz"].item_targets]
    before = {target: getattr(*trace.resolve(target))
              for target in targets}
    timer = trace.LayerTimer()
    trace.install(timer, trace.LAYERS, WORKLOADS["fuzz"].item_targets,
                  WORKLOADS["fuzz"].item_ok)
    trace.install_blockspec(timer)
    assert any(getattr(*trace.resolve(target)) is not original
               for target, original in before.items())
    timer.restore()
    assert all(getattr(*trace.resolve(target)) is original
               for target, original in before.items())


def test_seed_changes_fuzz_and_generated_inputs_only(tmp_path):
    from repro.verify import runner

    generated = {}
    original = runner.generate_source
    for seed in (0, 1):
        sources = generated[seed] = []

        def record(task_seed, profile, sources=sources):
            sources.append(original(task_seed, profile))
            return sources[-1]
        runner.generate_source = record
        try:
            WORKLOADS["fuzz"].run_pass({"seed": seed, "programs": 2},
                                       str(tmp_path))
        finally:
            runner.generate_source = original
    assert generated[0] != generated[1]

    items = {seed: {label: source
                    for label, source, _ in WORKLOADS["compile"].setup(seed)}
             for seed in (0, 1)}
    changed = {label for label in items[0]
               if items[0][label] != items[1][label]}
    assert changed and all(label.startswith("gen_") for label in changed)
    assert all(label in changed for label in items[0]
               if label.startswith("gen_"))

    assert WORKLOADS["table4"].setup(0) == WORKLOADS["table4"].setup(1)
