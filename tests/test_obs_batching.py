"""Sink-less probe publishing: a run with no sink listening counts its
events in the machine's own counters and publishes each probe once, when
the cycle loop returns. These tests pin that the batched totals equal
the totals of publishing every event as it happens (a sink attached)."""

import json
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.eval.table4 import (
    CASE_DEFINITIONS,
    case_program_config,
    dynfold_case_config,
)
from repro.obs.events import EventBus, MemorySink
from repro.obs.manifest import baseline_labels
from repro.sim.cpu import CpuConfig, CrispCpu
from repro.workloads import get_workload

BASELINE = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_obs_baseline.json")
    .read_text(encoding="utf-8"))
#: recorded with an attribution sink attached: every event published
#: one by one
BASELINE_PROBES = {case["extra"]["case"]: case["probes"]
                   for case in BASELINE["cases"]}


class CountingSink:
    """A sink that keeps nothing, for long runs."""

    def __init__(self) -> None:
        self.events = 0

    def handle(self, _event) -> None:
        self.events += 1


def _case(label):
    name, _, variant = label.partition("/")
    case = next(c for c in CASE_DEFINITIONS if c.name == name)
    if variant:
        return dynfold_case_config(case, int(variant.removeprefix("dyn")))
    return case_program_config(case)


@pytest.mark.parametrize("label", baseline_labels())
def test_default_bus_matches_committed_per_event_probes(label):
    program, config = _case(label)
    cpu = CrispCpu(program, config)
    cpu.run()
    assert json.loads(json.dumps(cpu.obs.snapshot())) == \
        BASELINE_PROBES[label]


INTERRUPTED = """
        .entry main
        .word count, 0
        .word ticks, 0
        .word saved_acc, 0

handler:
        mov saved_acc, Accum
        add ticks, $1
        mov Accum, saved_acc
        reti

main:
loop:   add count, $1
        cmp.s< count, $50
        iftjmpy loop
        halt
"""


def _stepped(sink):
    """Drive the machine by step(), with an interrupt at cycle 40."""
    program = assemble(INTERRUPTED)
    obs = EventBus()
    if sink is not None:
        obs.attach(sink)
    cpu = CrispCpu(program, obs=obs)
    cycle = 0
    while not cpu.halted:
        if cycle == 40:
            cpu.interrupt(program.symbols["handler"])
        cpu.step()
        cycle += 1
    return cpu


def test_stepped_run_with_interrupt_matches_per_event():
    batched = _stepped(None)
    sink = MemorySink()
    published = _stepped(sink)
    assert batched.interrupts_taken == published.interrupts_taken == 1
    assert sink.events
    stats = batched.stats
    counters = batched.obs.counters()
    # the interrupt squashed work in flight, and counted it once
    assert counters["squash.slots"] == stats.squashed_slots > 0
    assert counters["branch.executed"] == stats.execution.branches
    assert counters["cc.interlock"] > 0
    assert batched.obs.snapshot() == published.obs.snapshot()


def test_interrupt_squash_counts_once_in_both_modes():
    """take_interrupt's squashes reach squash.slots through the stats."""
    for sink in (None, MemorySink()):
        cpu = _stepped(sink)
        assert (cpu.obs.counters()["squash.slots"]
                == cpu.stats.squashed_slots)


def test_pdu_and_cache_counters_match_per_event_under_evictions():
    program = get_workload("dhry_like").compiled()
    config = CpuConfig(icache_entries=8)
    batched = CrispCpu(program, config)
    batched.run()
    obs = EventBus()
    sink = CountingSink()
    obs.attach(sink)
    published = CrispCpu(program, config, obs=obs)
    published.run()
    counters = batched.obs.counters()
    assert counters["icache.conflict_evictions"] > 0
    assert counters["fold.decoded"] > 0
    assert counters["pdu.decoded"] == batched.pdu.decoded_entries
    assert (counters["pdu.memory_accesses"]
            == batched.pdu.memory_accesses)
    assert sink.events > counters["icache.fills"]
    assert batched.obs.snapshot() == obs.snapshot()


def test_probes_exact_after_every_step():
    """Each step() publishes what its cycle counted, so a reader between
    steps sees the stats it reconciles with."""
    program, config = _case("C")
    cpu = CrispCpu(program, config)
    for _ in range(3000):
        cpu.step()
        counters = cpu.obs.counters()
        stats = cpu.stats
        assert counters["mispredict.count"] == stats.mispredictions
        assert counters["squash.slots"] == stats.squashed_slots
        assert counters["icache.demand_miss"] == stats.icache_misses
        assert counters["icache.demand_hit"] == stats.icache_hits
        assert counters["pdu.decoded"] == cpu.pdu.decoded_entries
    assert counters["fold.succeeded"] == stats.folded_branches > 0
