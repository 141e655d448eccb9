"""The fast kernel's shape executors and its one cycle loop.

The fast EU executes an entry body through an executor generated for the
body's shape (opcode + operand addressing modes, see
:mod:`repro.sim.semantics`), and :class:`~repro.sim.cpu.CrispCpu` runs
its cycles through one fused loop. These tests pin what must not move:
every shape computes what ``BODY_EXECUTORS`` computes, a wrong shape is
caught by the fast-vs-reference differential, ``run()`` equals stepping,
executors are shared and never pickled, and a machine that halts on the
last budgeted cycle is not reported as hung.
"""

import itertools
import pickle
import random
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.eval.table4 import (
    CASE_DEFINITIONS,
    case_program_config,
    dynfold_case_config,
)
from repro.isa import Instruction, Opcode
from repro.isa.opcodes import OPCODE_INDEX, OpClass, opcode_class
from repro.isa.operands import AddrMode, Operand
from repro.obs.events import EventBus, MemorySink
from repro.sim import semantics
from repro.sim.cpu import CpuConfig, CrispCpu
from repro.sim.memory import Memory
from repro.sim.progcache import default_cache, predecode_cached
from repro.sim.reference import ReferenceCpu
from repro.sim.semantics import (
    BODY_EXECUTORS,
    MachineState,
    SimulationError,
    SimulationHungError,
    shape_executor,
)
from repro.verify.runner import run_differential

CORPUS = Path(__file__).parent / "corpus"

#: operand values per mode that reach the interesting edges: sign
#: bits, wraparound at the top of the address space, zero divisors
VALUES = {
    AddrMode.IMM: (0, 1, -1, 7, -8, 31, 32, 0x7FFFFFFF, -0x80000000,
                   0xFFFFFFFF, 0x12345678),
    AddrMode.ABS: (0x8000, 0xFFFFFFFE, 0xFFFFFFFF, 0),
    AddrMode.SP_OFF: (0, 4, 36, 0x100, 0xFFFFFFFC),
    AddrMode.ACC: (0,),
    AddrMode.ACC_IND: (0,),
}
WORDS = (0, 1, 2, 31, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xDEADBEEF)


def _body_opcodes():
    return [opcode for opcode in Opcode
            if BODY_EXECUTORS[OPCODE_INDEX[opcode]] is not None]


def _operand_modes(opcode):
    cls = opcode_class(opcode)
    if cls in (OpClass.ALU2, OpClass.ALU3, OpClass.CMP):
        destinations = ([mode for mode in AddrMode if mode is not AddrMode.IMM]
                        if cls is OpClass.ALU2 else list(AddrMode))
        return list(itertools.product(destinations, AddrMode))
    if cls is OpClass.FRAME:
        return [(AddrMode.IMM,)]
    return [()]


def _state(seed, sp, accum):
    """A machine state with random words at the addresses that these
    registers and the ``VALUES`` operands reach."""
    rng = random.Random(seed)
    state = MachineState(Memory(), pc=0x1000, sp=sp, accum=accum,
                         flag=rng.random() < 0.5)
    for address in (sp, sp + 4, sp + 36, sp + 0x100, sp + 0xFFFFFFFC,
                    accum, 0, 0x8000, 0xFFFFFFFC, 0xFFFFFFFE):
        state.memory.write_word(address & 0xFFFFFFFF, rng.choice(WORDS))
    return state


def _outcome(run, state):
    """(halted, or the exception raised; the state afterwards)."""
    try:
        result = bool(run(state))
    except (ZeroDivisionError, SimulationError) as exc:
        result = (type(exc), str(exc))
    return (result, state.accum, state.sp, state.flag, state.halted,
            state.memory.snapshot())


class TestEveryShapeMatchesBodyExecutors:
    """Each shape against the opcode's ``BODY_EXECUTORS`` handler (the
    functional simulator's and the oracle's), on edge-value states."""

    @pytest.mark.parametrize("opcode", _body_opcodes(),
                             ids=lambda opcode: opcode.value)
    def test_shapes_of_opcode(self, opcode):
        rng = random.Random(opcode.value)
        handler = BODY_EXECUTORS[OPCODE_INDEX[opcode]]
        for modes in _operand_modes(opcode):
            for values in itertools.product(*(VALUES[m] for m in modes)):
                if opcode is Opcode.ENTER or opcode is Opcode.SPADD:
                    values = (abs(values[0]),)
                operands = tuple(Operand(mode, value)
                                 for mode, value in zip(modes, values))
                instruction = Instruction(opcode, operands)
                run = shape_executor(instruction)
                for _ in range(3):
                    sp = rng.choice((0x10000, 0xFFFFFFF8, 0))
                    accum = rng.choice((0x8000, 0xFFFFFFFE) + WORDS)
                    seed = rng.random()
                    expected = _outcome(
                        lambda state: handler(state, instruction),
                        _state(seed, sp, accum))
                    got = _outcome(
                        lambda state: run(state, state.memory._bytes,
                                          operands),
                        _state(seed, sp, accum))
                    assert got == expected, (str(instruction), sp, accum)

    def test_one_executor_per_shape(self):
        first = Instruction(Opcode.ADD, (Operand(AddrMode.SP_OFF, 4),
                                         Operand(AddrMode.IMM, 1)))
        same = Instruction(Opcode.ADD, (Operand(AddrMode.SP_OFF, 36),
                                        Operand(AddrMode.IMM, 99)))
        other = Instruction(Opcode.ADD, (Operand(AddrMode.ABS, 0x8000),
                                         Operand(AddrMode.IMM, 1)))
        assert shape_executor(first) is shape_executor(same)
        assert shape_executor(first) is not shape_executor(other)


class TestExecutorBinding:
    def test_bound_lazily_by_the_fast_eu_only(self):
        default_cache().clear()
        program = assemble((CORPUS / "branch_hot_loop.s").read_text())
        policy = CpuConfig().fold_policy
        entries = predecode_cached(program, policy)
        reference = ReferenceCpu(program)
        reference.warm_cache()
        reference.run()
        assert all(entry._executor is None for entry in entries)

        cpu = CrispCpu(program)
        cpu.warm_cache()
        cpu.run()
        bound = [entry for entry in entries if entry._executor is not None]
        assert bound and all(entry.body is not None for entry in bound)
        for entry in bound:
            assert entry._executor is shape_executor(entry.body)
        default_cache().clear()

    def test_executor_is_not_pickled(self):
        default_cache().clear()
        program = assemble((CORPUS / "branch_hot_loop.s").read_text())
        cpu = CrispCpu(program)
        cpu.warm_cache()
        cpu.run()
        entries = predecode_cached(program, cpu.config.fold_policy)
        assert any(entry._executor is not None for entry in entries)
        loaded = pickle.loads(pickle.dumps(entries))
        assert loaded == entries
        assert all(entry._executor is None for entry in loaded)
        assert all(vars(entry).keys() == vars(original).keys()
                   for entry, original in zip(loaded, entries))
        default_cache().clear()


def _plus_one(state, data, operands):
    """A planted wrong ``add``: destination += source + 1."""
    destination, source = operands
    state.write_operand(destination, state.read_operand(destination)
                        + state.read_operand(source) + 1)


class TestWrongShapeIsCaught:
    """No fast path without an arm that can catch it: the reference
    kernel keeps its own if-chain, so a wrong shape executor shows up
    as a fast-vs-reference mismatch."""

    def test_planted_add_shape_fails_the_differential(self, monkeypatch):
        for destination in AddrMode:
            key = (OPCODE_INDEX[Opcode.ADD], destination, AddrMode.IMM)
            monkeypatch.setitem(semantics._SHAPES, key, _plus_one)
        default_cache().clear()  # no entry keeps a good executor bound
        try:
            program = assemble((CORPUS / "branch_hot_loop.s").read_text())
            mismatches, _oracle = run_differential(program)
        finally:
            default_cache().clear()  # nor the planted one
        assert any(line.startswith("ideal memory: fast != reference")
                   for line in mismatches), mismatches


def _machine(setup, sink):
    case = CASE_DEFINITIONS[3]  # D: folding, prediction and spreading
    if setup == "table4":
        program, config = case_program_config(case)
    else:
        program, config = dynfold_case_config(case, 2)
    bus = EventBus()
    events = None
    if sink:
        events = MemorySink()
        bus.attach(events)
    return CrispCpu(program, config, obs=bus), bus, events


class TestRunEqualsStepping:
    """``run()`` and ``while not halted: step()`` are one loop: every
    statistic, memory byte, cache counter and probe (and, with a sink
    attached, every published event) must agree."""

    @pytest.mark.parametrize("sink", [False, True],
                             ids=["default-bus", "memory-sink"])
    @pytest.mark.parametrize("setup", ["table4", "dynfold"])
    def test_run_equals_stepping(self, setup, sink):
        ran, ran_bus, ran_events = _machine(setup, sink)
        ran.run()
        stepped, stepped_bus, stepped_events = _machine(setup, sink)
        while not stepped.halted:
            stepped.step()
        assert ran.stats.as_dict() == stepped.stats.as_dict()
        assert ran.memory.snapshot() == stepped.memory.snapshot()
        assert (ran.icache.hits, ran.icache.misses) == \
            (stepped.icache.hits, stepped.icache.misses)
        assert ran_bus.snapshot() == stepped_bus.snapshot()
        if sink:
            assert ran_events.events == stepped_events.events
            assert ran_events.events
        # and both equal the reference kernel, counters included
        reference = ReferenceCpu(ran.program, ran.config)
        reference.run()
        assert ran.stats.as_dict() == reference.stats.as_dict()
        assert (ran.icache.hits, ran.icache.misses) == \
            (ran.stats.icache_hits, ran.stats.icache_misses)
        assert ran_bus.counters()["icache.demand_hit"] == \
            ran.stats.icache_hits


def _fast(program, limit):
    return CrispCpu(program).run(limit)


def _blockspec(program, limit):
    return CrispCpu(program, CpuConfig(engine="blockspec")).run(limit)


def _reference(program, limit):
    return ReferenceCpu(program).run(limit)


class TestHaltOnLastBudgetedCycle:
    """A machine that halts in exactly N cycles finishes under
    ``run(N)``; ``run(N - 1)`` still trips the watchdog."""

    @pytest.mark.parametrize("run", [_fast, _blockspec, _reference],
                             ids=["fast", "blockspec", "reference"])
    def test_halting_on_the_last_cycle_returns(self, run):
        program = assemble((CORPUS / "branch_hot_loop.s").read_text())
        cycles = CrispCpu(program).run().cycles
        assert run(program, cycles).cycles == cycles
        with pytest.raises(SimulationHungError):
            run(program, cycles - 1)
