"""Differential execution: every engine tier vs the reference kernel vs
the analytic oracle.

Each finished run — the fast kernel, the reference kernel, every other
engine tier of the task's matrix (:data:`ENGINE_MATRIX`, built from
:data:`repro.sim.cpu.ENGINES`) and the oracle — is reduced to one
:class:`RunOutcome`, and one comparator reports every difference
between two outcomes. Two regimes are run per program. In each, the
fast kernel runs first; then every other *arm* (the reference kernel,
then each further engine of the matrix) runs under the same
configuration and must equal it bitwise, and the fast kernel is checked
against the oracle. Adding or removing a tier is one entry in
``ENGINES``; the arms follow.

**Ideal mode** — every arm gets a conflict-free, pre-warmed
decoded cache (:func:`ideal_config`), which makes the pipeline's timing
exactly the analytic model the oracle computes. Here the oracle's
cycle/issue/fold/mispredict/stall counters, ``ExecutionStats`` and full
architectural state (every memory byte, accumulator, flag, SP) must
match the fast kernel *exactly*; ``zero_cost_overrides`` is checked as
a lower bound, because the kernels legitimately count additional
overrides on wrong-path and post-halt fetches the correct-path oracle
never sees. Those wrong-path-dependent counters (overrides, squashed
slots, cache hit/miss traffic) are instead reconciled fast-vs-reference
bit for bit, as is the entire ``PipelineStats`` dict.

**Stress mode** — a cold 16-entry cache forces miss traffic, conflict
evictions and wrong-path demand fetches. Timing is no longer analytic,
so the oracle only checks timing-independent facts (architectural
state, ``ExecutionStats``, issued/executed/folded counts — these are
address-deterministic regardless of cache behaviour), while the
arms must again agree bitwise.

On top of both, the runner validates the decode layer itself:

* every decoded-cache entry matches the oracle's independently derived
  fold structure, and its Next-PC / Alternate-Next-PC fields match a
  from-scratch recomputation out of the branch specifier (target =
  branch's own PC + displacement, resp. absolute/indirect rules);
* the per-site attribution table reconciles exactly with the aggregate
  pipeline counters on an instrumented run, on every engine of the
  matrix, and every engine builds the fast kernel's table.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.asm.assembler import AssemblyError, assemble
from repro.asm.program import Program
from repro.core.policy import FoldPolicy
from repro.isa.instructions import BranchMode
from repro.isa.parcels import PARCEL_BYTES
from repro.obs.attrib import attribute_run
from repro.sim.cpu import ENGINES, CpuConfig, CrispCpu
from repro.sim.progcache import predecode_cached
from repro.sim.reference import ReferenceCpu
from repro.sim.semantics import SimulationError
from repro.verify.generator import generate_source
from repro.verify.oracle import BranchRecord, OracleError, OracleResult
from repro.verify.oracle import oracle_entries, run_oracle

_EXEC_ERRORS = (SimulationError, ZeroDivisionError)

#: the engine every other arm is compared against (the default tier)
FAST = ENGINES[0]

#: CLI/task ``engine`` choice -> the engines a differential runs: the
#: fast kernel alone, the fast kernel and one more tier, or every tier
#: in :data:`repro.sim.cpu.ENGINES`.
ENGINE_MATRIX: dict[str, tuple[str, ...]] = {
    engine: (FAST,) if engine == FAST else (FAST, engine)
    for engine in ENGINES}
ENGINE_MATRIX["all"] = ENGINES

#: counts the oracle fixes whatever the timing: cache misses and
#: injected recoveries may add cycles, never instructions
_COUNT_KEYS = ("issued_instructions", "executed_instructions",
               "folded_branches")


def program_parcels(program: Program) -> int:
    return (program.code_end - program.code_base) // PARCEL_BYTES


def _next_pow2(n: int) -> int:
    power = 1
    while power < n:
        power <<= 1
    return power


def ideal_config(program: Program,
                 policy: FoldPolicy | None = None,
                 inject: str | None = None) -> CpuConfig:
    """A conflict-free cache configuration for analytic-timing runs.

    The cache needs one line per code address plus margin for the
    PDU's prefetch overrunning the image (decode stops at the first
    unmapped parcel, but may land a stray entry first).
    """
    span = program_parcels(program)
    return CpuConfig(
        fold_policy=policy if policy is not None else FoldPolicy.crisp(),
        icache_entries=_next_pow2(span + 64), inject=inject)


def stress_config(policy: FoldPolicy | None = None,
                  inject: str | None = None) -> CpuConfig:
    """A deliberately tiny cache: misses, conflicts, wrong-path fetches."""
    return CpuConfig(
        fold_policy=policy if policy is not None else FoldPolicy.crisp(),
        icache_entries=16, inject=inject)


# ---- invariant checks ------------------------------------------------------


def check_nextpc_invariants(program: Program,
                            policy: FoldPolicy) -> list[str]:
    """Recompute every entry's Next-PC fields from the branch specifier.

    Independent of :mod:`repro.core.nextpc`: a taken static target is
    the branch instruction's *own* address plus its PC-relative
    displacement (fold adjust falls out of using the branch PC, not the
    entry PC), or the absolute specifier; indirect and return entries
    must have no static fields at all.
    """
    problems: list[str] = []
    mirror = oracle_entries(program, policy)
    entries = predecode_cached(program, policy)
    seen = set()
    for entry in entries:
        expect = mirror.get(entry.address)
        seen.add(entry.address)
        where = f"entry {entry.address:#x}"
        if expect is None:
            problems.append(f"{where}: decoder entry at non-instruction "
                            f"address")
            continue
        if (entry.body, entry.branch) != (expect.body, expect.branch) or \
                entry.length_bytes != expect.length_bytes:
            problems.append(f"{where}: fold structure differs from "
                            f"instruction-level mirror")
            continue
        sequential = entry.address + entry.length_bytes
        if entry.branch is None:
            want = (sequential, None)
        else:
            spec = entry.branch.branch
            if spec is None or spec.is_indirect:
                want = (None, None)
            else:
                branch_pc = (entry.address if entry.body is None
                             else entry.address + entry.body.length_bytes())
                if spec.mode is BranchMode.PC_RELATIVE:
                    target = branch_pc + spec.value
                else:
                    target = spec.value
                if not entry.branch.is_conditional_branch:
                    want = (target, None)
                elif entry.branch.predicted_taken:
                    want = (target, sequential)
                else:
                    want = (sequential, target)
        got = (entry.next_pc, entry.alt_pc)
        if got != want:
            problems.append(f"{where}: Next-PC/Alternate {got} != "
                            f"recomputed {want}")
    for address in mirror:
        if address not in seen:
            problems.append(f"entry {address:#x}: missing from decoder "
                            f"pre-decode")
    return problems


@dataclass(frozen=True)
class RunOutcome:
    """What one finished run leaves behind, in the shape every arm shares:
    a cycle kernel, an engine tier or the oracle."""

    stats: dict | None  #: the ``PipelineStats`` dict; None for the oracle
    execution: dict  #: the ``ExecutionStats`` dict
    accum: int
    flag: bool
    sp: int
    memory: dict[int, int]  #: final byte image (code + data + stack)

    @classmethod
    def of_machine(cls, cpu: CrispCpu | ReferenceCpu) -> RunOutcome:
        stats = cpu.stats.as_dict()
        return cls(stats, stats["execution"], cpu.state.accum,
                   cpu.state.flag, cpu.state.sp, cpu.memory.snapshot())


def _compare(label: str, left: RunOutcome, right: RunOutcome,
             names: tuple[str, str], out: list[str]) -> None:
    """Append one line per difference between two outcomes.

    Two machines compare their whole stats dicts (``ExecutionStats``
    included); against the oracle, which has none, ``ExecutionStats`` is
    compared on its own.
    """
    left_name, right_name = names
    if left.stats is not None and right.stats is not None:
        for key in sorted(left.stats.keys() | right.stats.keys()):
            a, b = left.stats.get(key), right.stats.get(key)
            if a != b:
                out.append(f"{label} stats.{key}: {left_name} {a} != "
                           f"{right_name} {b}")
    elif left.execution != right.execution:
        out.append(f"{label} ExecutionStats: {left_name} != {right_name}")
    if left.memory != right.memory:
        out.append(f"{label} memory: {left_name} != {right_name}")
    for attr in ("accum", "flag", "sp"):
        a, b = getattr(left, attr), getattr(right, attr)
        if a != b:
            out.append(f"{label} state.{attr}: {left_name} {a} != "
                       f"{right_name} {b}")


def _check_counts(label: str, stats: dict, timing: dict[str, int],
                  keys: Iterable[str], out: list[str]) -> None:
    """The kernel's ``keys`` counters must equal the oracle's."""
    for key in keys:
        if stats[key] != timing[key]:
            out.append(f"{label} {key}: kernel {stats[key]} != oracle "
                       f"{timing[key]}")


def _finish(program: Program, config: CpuConfig, arm: str,
            max_cycles: int, warm: bool) -> RunOutcome:
    """Run one arm to the end: the reference kernel or an engine tier."""
    if arm == "reference":
        cpu = ReferenceCpu(program, config)
    else:
        cpu = CrispCpu(program, dataclasses.replace(config, engine=arm))
    if warm:
        cpu.warm_cache()
    cpu.run(max_cycles)
    return RunOutcome.of_machine(cpu)


def _compare_arms(label: str, program: Program, config: CpuConfig,
                  fast: RunOutcome, arms: tuple[str, ...], max_cycles: int,
                  warm: bool, out: list[str]) -> None:
    """Run every arm under ``config``; each must equal the fast kernel."""
    for arm in arms:
        try:
            outcome = _finish(program, config, arm, max_cycles, warm)
        except _EXEC_ERRORS as exc:
            out.append(f"{label} {arm} kernel failed: {exc}")
        else:
            _compare(label, fast, outcome, (FAST, arm), out)


def _check_attribution(program: Program, config: CpuConfig,
                       engines: tuple[str, ...], max_cycles: int,
                       out: list[str]) -> None:
    """On every engine, the per-site table must reconcile with the
    aggregate counters and equal the fast kernel's table. A sink is
    attached, so a tier that batches cycles must fall back to per-cycle
    probes; equal tables pin that guard too."""
    tables = {}
    for engine in engines:
        cpu, tables[engine] = attribute_run(
            program, dataclasses.replace(config, engine=engine),
            max_cycles=max_cycles)
        prefix = "attribution" if engine == FAST else f"{engine} attribution"
        out.extend(f"{prefix}: {problem}"
                   for problem in tables[engine].reconcile(cpu.stats))
    for engine in engines:
        if engine != FAST and \
                tables[engine].as_dict() != tables[FAST].as_dict():
            out.append(f"attribution table: {FAST} != {engine}")


def run_differential(program: Program,
                     policy: FoldPolicy | None = None,
                     *,
                     stress: bool = True,
                     check_attribution: bool = True,
                     max_cycles: int = 5_000_000,
                     inject: str | None = None,
                     engines: tuple[str, ...] = ENGINE_MATRIX[FAST],
                     ) -> tuple[list[str], OracleResult | None]:
    """Run every arm and the oracle; return (mismatches, oracle result).

    An empty mismatch list means full agreement. If the oracle *and* the
    fast kernel fail to complete (non-terminating or faulting program —
    possible for shrinker candidates, never for generated programs),
    that counts as agreement and returns ``([], None)``.

    ``inject`` (e.g. ``"always-wrong"``) turns on misprediction fault
    injection in every cycle kernel. The oracle does not model injected
    faults, so exact timing checks are skipped in that regime; the
    kernels must still agree bitwise, architectural state must still
    match the oracle, and the timing-independent counts (issued /
    executed / folded) must still be oracle-exact — injected recoveries
    refetch the verified-correct path, so they may only add cycles,
    never instructions.

    ``engines`` is an :data:`ENGINE_MATRIX` value. Every engine in it
    besides the fast kernel is one more arm, run under the same ideal
    and stress configurations as the reference kernel and compared
    bitwise against the fast kernel — full ``PipelineStats``, every
    memory byte, and the attribution table.
    """
    if policy is None:
        policy = FoldPolicy.crisp()

    oracle: OracleResult | None = None
    oracle_error: Exception | None = None
    try:
        oracle = run_oracle(program, policy)
    except (OracleError, *_EXEC_ERRORS) as exc:
        oracle_error = exc

    config = ideal_config(program, policy, inject=inject)
    try:
        fast = _finish(program, config, FAST, max_cycles, warm=True)
    except _EXEC_ERRORS as exc:
        if oracle_error is not None:
            return [], None  # all implementations agree the program is bad
        return [f"ideal {FAST} kernel failed but oracle halted: {exc}"], \
            oracle
    if oracle_error is not None:
        return [f"ideal {FAST} kernel halted but oracle failed: "
                f"{oracle_error}"], None
    assert oracle is not None
    expected = RunOutcome(None, oracle.execution.as_dict(), oracle.accum,
                          oracle.flag, oracle.sp, oracle.memory)
    timing = oracle.timing_dict()
    arms = ("reference", *(engine for engine in engines if engine != FAST))
    mismatches: list[str] = []

    _compare_arms("ideal", program, config, fast, arms, max_cycles,
                  True, mismatches)
    if inject is None:
        _check_counts("ideal", fast.stats, timing, timing, mismatches)
    else:
        _check_counts("ideal(inject)", fast.stats, timing, _COUNT_KEYS,
                      mismatches)
    _compare("ideal", fast, expected, ("kernel", "oracle"), mismatches)
    # the kernels also count these on wrong-path fetches the oracle
    # never sees, so the oracle's correct-path count is a lower bound
    for key in ("zero_cost_overrides",) if inject else \
            ("dynamic_folds", "zero_cost_overrides"):
        got, floor = fast.stats[key], getattr(oracle, key)
        if got < floor:
            mismatches.append(f"ideal {key}: kernel {got} below oracle "
                              f"correct-path count {floor}")

    mismatches.extend(check_nextpc_invariants(program, policy))
    if check_attribution:
        _check_attribution(program, config, engines, max_cycles, mismatches)

    if stress:
        sconfig = stress_config(policy, inject=inject)
        try:
            sfast = _finish(program, sconfig, FAST, max_cycles, warm=False)
        except _EXEC_ERRORS as exc:
            mismatches.append(f"stress {FAST} kernel failed: {exc}")
        else:
            _compare_arms("stress", program, sconfig, sfast, arms,
                          max_cycles, False, mismatches)
            _check_counts("stress", sfast.stats, timing, _COUNT_KEYS,
                          mismatches)
            _compare("stress", sfast, expected, ("kernel", "oracle"),
                     mismatches)

    return mismatches, oracle


# ---- picklable fuzz tasks for repro.eval.parallel --------------------------


@dataclass(frozen=True)
class FuzzTask:
    """One generated program to run through the differential check."""

    seed: int
    profile: str
    stress: bool = True
    #: run under ``FoldPolicy.dynamic(confidence)`` instead of the
    #: static CRISP policy when set
    dyn_confidence: int | None = None
    inject: str | None = None  #: misprediction fault-injection mode
    #: :data:`ENGINE_MATRIX` key: the engines checked besides the
    #: reference kernel and the oracle
    engine: str = FAST


def confidence_policy(confidence: int | None) -> FoldPolicy | None:
    """``FoldPolicy.dynamic(confidence)``, or None (the default static
    policy) for no confidence."""
    if confidence is None:
        return None
    return FoldPolicy.dynamic(confidence=confidence)


@dataclass
class ProgramReport:
    """Worker result: verdict plus the coverage records to merge."""

    seed: int
    profile: str
    ok: bool
    mismatches: list[str] = field(default_factory=list)
    parcels: int = 0
    dyn_confidence: int | None = None  #: regime the task ran under
    inject: str | None = None
    engine: str = FAST  #: engine matrix the task was checked under
    #: the oracle's records, as :meth:`CoverageMap.add_records` takes them
    branch_cells: list[BranchRecord] = field(default_factory=list)
    body_cells: list[tuple[str, bool]] = field(default_factory=list)
    source: str | None = None  #: carried only for disagreeing programs


def run_fuzz_task(task: FuzzTask) -> ProgramReport:
    """Module-level worker: pure function of the task (process-safe).

    The generate/assemble and differential phases are wrapped in
    :func:`repro.obs.spans.span` sub-spans — no-ops normally, rendered
    inside the task's slice on the worker track when the scheduler runs
    a campaign recording (``--campaign-out``).
    """
    from repro.obs.spans import span

    with span("generate", seed=task.seed, profile=task.profile):
        source = generate_source(task.seed, task.profile)
        try:
            program = assemble(source)
        except AssemblyError as exc:
            return ProgramReport(task.seed, task.profile, ok=False,
                                 mismatches=[f"assemble: {exc}"],
                                 source=source)
    with span("differential", seed=task.seed):
        mismatches, oracle = run_differential(
            program, confidence_policy(task.dyn_confidence),
            stress=task.stress, inject=task.inject,
            engines=ENGINE_MATRIX[task.engine])
    report = ProgramReport(task.seed, task.profile, ok=not mismatches,
                           mismatches=mismatches,
                           parcels=program_parcels(program),
                           dyn_confidence=task.dyn_confidence,
                           inject=task.inject, engine=task.engine)
    if oracle is not None:
        report.branch_cells = oracle.branches
        report.body_cells = oracle.body_records
    if mismatches:
        report.source = source
    return report
