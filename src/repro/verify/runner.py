"""Differential execution: fast kernel vs reference vs oracle — and,
with ``engines=("fast", "blockspec")``, a fourth arm running the
trace-compiled blockspec tier (see :mod:`repro.sim.blockspec`), which
must be bitwise identical to the fast kernel in every regime.

Two comparison regimes are run per program:

**Ideal mode** — both cycle kernels get a conflict-free, pre-warmed
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
address-deterministic regardless of cache behaviour), while the two
kernels must again agree bitwise.

On top of both, the runner validates the decode layer itself:

* every decoded-cache entry matches the oracle's independently derived
  fold structure, and its Next-PC / Alternate-Next-PC fields match a
  from-scratch recomputation out of the branch specifier (target =
  branch's own PC + displacement, resp. absolute/indirect rules);
* the per-site attribution table reconciles exactly with the aggregate
  pipeline counters on an instrumented run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.asm.assembler import AssemblyError, assemble
from repro.asm.program import Program
from repro.core.policy import FoldPolicy
from repro.isa.instructions import BranchMode
from repro.isa.parcels import PARCEL_BYTES
from repro.obs.attrib import attribute_run
from repro.sim.cpu import CpuConfig, CrispCpu
from repro.sim.progcache import predecode_cached
from repro.sim.reference import ReferenceCpu
from repro.sim.semantics import SimulationError
from repro.verify.generator import generate_source
from repro.verify.oracle import OracleError, OracleResult, run_oracle
from repro.verify.oracle import oracle_entries

_EXEC_ERRORS = (SimulationError, ZeroDivisionError)

#: CLI/task ``engine`` choice -> the engine arms a differential runs.
#: Every non-fast arm is compared *against* the fast kernel, so "fast"
#: is always present; "all" is the full 4-way matrix.
ENGINE_MATRIX: dict[str, tuple[str, ...]] = {
    "fast": ("fast",),
    "blockspec": ("fast", "blockspec"),
    "all": ("fast", "blockspec"),
}


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


def _compare_runs(label: str, fast: CrispCpu,
                  other: CrispCpu | ReferenceCpu, name: str,
                  out: list[str]) -> None:
    """Bitwise fast-vs-``name`` comparison: full stats + arch state."""
    fast_stats = fast.stats.as_dict()
    other_stats = other.stats.as_dict()
    if fast_stats != other_stats:
        for key in sorted(set(fast_stats) | set(other_stats)):
            a, b = fast_stats.get(key), other_stats.get(key)
            if a != b:
                out.append(f"{label} stats.{key}: fast {a} != {name} {b}")
    if fast.memory.snapshot() != other.memory.snapshot():
        out.append(f"{label} memory: fast != {name}")
    for attr in ("accum", "flag", "sp"):
        a, b = getattr(fast.state, attr), getattr(other.state, attr)
        if a != b:
            out.append(f"{label} state.{attr}: fast {a} != {name} {b}")


def _compare_arch(label: str, fast: CrispCpu,
                  oracle: OracleResult, out: list[str]) -> None:
    if fast.memory.snapshot() != oracle.memory:
        out.append(f"{label} memory: kernel != oracle")
    for attr in ("accum", "flag", "sp"):
        a, b = getattr(fast.state, attr), getattr(oracle, attr)
        if a != b:
            out.append(f"{label} state.{attr}: kernel {a} != oracle {b}")
    if fast.stats.execution.as_dict() != oracle.execution.as_dict():
        out.append(f"{label} ExecutionStats: kernel != oracle")


def run_differential(program: Program,
                     policy: FoldPolicy | None = None,
                     *,
                     stress: bool = True,
                     check_attribution: bool = True,
                     max_cycles: int = 5_000_000,
                     inject: str | None = None,
                     engines: tuple[str, ...] = ("fast",),
                     ) -> tuple[list[str], OracleResult | None]:
    """Run all three implementations; return (mismatches, oracle result).

    An empty mismatch list means full 3-way agreement. If the oracle
    *and* both kernels fail to complete (non-terminating or faulting
    program — possible for shrinker candidates, never for generated
    programs), that counts as agreement and returns ``([], None)``.

    ``inject`` (e.g. ``"always-wrong"``) turns on misprediction fault
    injection in both cycle kernels. The oracle does not model injected
    faults, so exact timing checks are skipped in that regime; the two
    kernels must still agree bitwise, architectural state must still
    match the oracle, and the timing-independent counts (issued /
    executed / folded) must still be oracle-exact — injected recoveries
    refetch the verified-correct path, so they may only add cycles,
    never instructions.

    ``engines`` widens the matrix: with ``"blockspec"`` included, a
    fourth arm runs the trace-compiled tier under the same ideal and
    stress configurations and must be bitwise identical to the fast
    kernel — full ``PipelineStats``, attribution table, every memory
    byte. (Under dynamic-fold policies the blockspec engine falls back
    to the per-cycle loop, so the check is exercised across the whole
    policy mix either way.)
    """
    if policy is None:
        policy = FoldPolicy.crisp()
    blockspec = "blockspec" in engines
    mismatches: list[str] = []

    oracle: OracleResult | None = None
    oracle_error: Exception | None = None
    try:
        oracle = run_oracle(program, policy)
    except (OracleError, *_EXEC_ERRORS) as exc:
        oracle_error = exc

    config = ideal_config(program, policy, inject=inject)
    fast = CrispCpu(program, config)
    fast.warm_cache()
    try:
        fast.run(max_cycles)
    except _EXEC_ERRORS as exc:
        if oracle_error is not None:
            return [], None  # all implementations agree the program is bad
        return [f"ideal fast kernel failed but oracle halted: {exc}"], oracle
    if oracle_error is not None:
        return [f"ideal fast kernel halted but oracle failed: "
                f"{oracle_error}"], None
    assert oracle is not None

    ref = ReferenceCpu(program, config)
    ref.warm_cache()
    try:
        ref.run(max_cycles)
    except _EXEC_ERRORS as exc:
        return [f"ideal reference kernel failed: {exc}"], oracle

    _compare_runs("ideal", fast, ref, "reference", mismatches)
    fast_stats = fast.stats.as_dict()
    if inject is None:
        for key, want in oracle.timing_dict().items():
            got = fast_stats[key]
            if got != want:
                mismatches.append(
                    f"ideal {key}: kernel {got} != oracle {want}")
        if fast.stats.dynamic_folds < oracle.dynamic_folds:
            mismatches.append(
                f"ideal dynamic_folds: kernel {fast.stats.dynamic_folds} "
                f"below oracle correct-path count {oracle.dynamic_folds}")
    else:
        # injected recoveries change timing but never instruction counts
        for key in ("issued_instructions", "executed_instructions",
                    "folded_branches"):
            got, want = fast_stats[key], oracle.timing_dict()[key]
            if got != want:
                mismatches.append(
                    f"ideal(inject) {key}: kernel {got} != oracle {want}")
    _compare_arch("ideal", fast, oracle, mismatches)
    if fast.stats.zero_cost_overrides < oracle.zero_cost_overrides:
        mismatches.append(
            f"ideal zero_cost_overrides: kernel "
            f"{fast.stats.zero_cost_overrides} below oracle correct-path "
            f"count {oracle.zero_cost_overrides}")

    if blockspec:
        bconfig = dataclasses.replace(config, engine="blockspec")
        bcpu = CrispCpu(program, bconfig)
        bcpu.warm_cache()
        try:
            bcpu.run(max_cycles)
        except _EXEC_ERRORS as exc:
            mismatches.append(f"ideal blockspec kernel failed: {exc}")
        else:
            _compare_runs("ideal", fast, bcpu, "blockspec", mismatches)

    mismatches.extend(check_nextpc_invariants(program, policy))

    if check_attribution:
        cpu, table = attribute_run(program, config, max_cycles=max_cycles)
        mismatches.extend(
            f"attribution: {problem}"
            for problem in table.reconcile(cpu.stats))
        if blockspec:
            # with an attribution sink attached the blockspec engine
            # deoptimizes every cycle, so the table must come out
            # identical — this pins the sink guard itself
            bcpu2, btable = attribute_run(
                program, dataclasses.replace(config, engine="blockspec"),
                max_cycles=max_cycles)
            mismatches.extend(
                f"blockspec attribution: {problem}"
                for problem in btable.reconcile(bcpu2.stats))
            if btable.as_dict() != table.as_dict():
                mismatches.append(
                    "attribution table: fast != blockspec")

    if stress:
        sconfig = stress_config(policy, inject=inject)
        sfast = CrispCpu(program, sconfig)
        sref = ReferenceCpu(program, sconfig)
        try:
            sfast.run(max_cycles)
            sref.run(max_cycles)
        except _EXEC_ERRORS as exc:
            mismatches.append(f"stress kernel failed: {exc}")
        else:
            _compare_runs("stress", sfast, sref, "reference", mismatches)
            sstats = sfast.stats.as_dict()
            for key in ("issued_instructions", "executed_instructions",
                        "folded_branches"):
                got, want = sstats[key], oracle.timing_dict()[key]
                if got != want:
                    mismatches.append(
                        f"stress {key}: kernel {got} != oracle {want}")
            _compare_arch("stress", sfast, oracle, mismatches)
            if blockspec:
                sbcpu = CrispCpu(
                    program, dataclasses.replace(sconfig,
                                                 engine="blockspec"))
                try:
                    sbcpu.run(max_cycles)
                except _EXEC_ERRORS as exc:
                    mismatches.append(
                        f"stress blockspec kernel failed: {exc}")
                else:
                    _compare_runs("stress", sfast, sbcpu, "blockspec",
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
    #: :data:`ENGINE_MATRIX` key: "fast" = the 3-way check,
    #: "blockspec"/"all" add that tier as a fourth bitwise arm
    engine: str = "fast"


def task_policy(task: FuzzTask) -> FoldPolicy | None:
    """The fold policy a task runs under (None = default static)."""
    if task.dyn_confidence is None:
        return None
    return FoldPolicy.dynamic(confidence=task.dyn_confidence)


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
    engine: str = "fast"  #: engine matrix the task was checked under
    branch_cells: list[tuple[str, bool, str, str, str]] = \
        field(default_factory=list)
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
    engines = ENGINE_MATRIX[task.engine]
    with span("differential", seed=task.seed):
        mismatches, oracle = run_differential(
            program, task_policy(task), stress=task.stress,
            inject=task.inject, engines=engines)
    return _task_report(task, program, source, mismatches, oracle)


def _task_report(task: FuzzTask, program: Program, source: str,
                 mismatches: list[str], oracle) -> ProgramReport:
    report = ProgramReport(task.seed, task.profile, ok=not mismatches,
                           mismatches=mismatches,
                           parcels=program_parcels(program),
                           dyn_confidence=task.dyn_confidence,
                           inject=task.inject, engine=task.engine)
    if oracle is not None:
        report.branch_cells = [
            (record.opcode, record.folded, record.outcome, record.interlock,
             record.fold_verify)
            for record in oracle.branches]
        report.body_cells = list(oracle.body_records)
    if mismatches:
        report.source = source
    return report
