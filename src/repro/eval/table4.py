"""Table 4: execution statistics for cases A–E.

The paper's headline experiment: the Figure-3 program run five ways,
selectively enabling Branch Folding (hardware), Branch Prediction
(the compiler's bit setting) and Branch Spreading (compiler code
motion). Case D — everything on — reaches 1.01 cycles per *issued*
instruction while appearing to execute 1.35 instructions per clock,
i.e. all branches run in zero time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policy import FoldPolicy
from repro.lang import CompilerOptions, PredictionMode
from repro.sim.cpu import CpuConfig, run_cycle_accurate
from repro.sim.progcache import compile_cached
from repro.sim.stats import PipelineStats
from repro.workloads import FIGURE3


@dataclass(frozen=True)
class CaseDefinition:
    """One Table-4 row's configuration."""

    name: str
    folding: bool
    prediction: bool  #: False = case A's all-not-taken bit setting
    spreading: bool


CASE_DEFINITIONS = (
    CaseDefinition("A", folding=False, prediction=False, spreading=False),
    CaseDefinition("B", folding=False, prediction=True, spreading=False),
    CaseDefinition("C", folding=True, prediction=True, spreading=False),
    CaseDefinition("D", folding=True, prediction=True, spreading=True),
    CaseDefinition("E", folding=False, prediction=True, spreading=True),
)

PAPER_TABLE4 = {
    "A": (14422, 9734, 1.0, 1.48, 1.48),
    "B": (11359, 9734, 1.3, 1.16, 1.16),
    "C": (8789, 7174, 1.6, 1.22, 0.90),
    "D": (7250, 7174, 2.0, 1.01, 0.74),
    "E": (9815, 9734, 1.5, 1.01, 1.01),
}
"""Paper rows: (cycles, issued, relative perf, issued CPI, apparent CPI)."""


@dataclass
class Table4Row:
    """One measured case."""

    case: CaseDefinition
    stats: PipelineStats
    relative_performance: float = 0.0

    @property
    def cycles(self) -> int:
        return self.stats.cycles


def case_program_config(case: CaseDefinition, source: str = FIGURE3):
    """Compile ``source`` for one Table-4 configuration.

    Returns ``(program, config)`` so callers can choose how to run it
    (plain, traced, or with per-site attribution attached). Compilation
    goes through :mod:`repro.sim.progcache`, so running all five cases
    compiles each distinct (source, options) pair once.
    """
    options = CompilerOptions(
        spreading=case.spreading,
        prediction=(PredictionMode.HEURISTIC if case.prediction
                    else PredictionMode.NOT_TAKEN))
    program = compile_cached(source, options)
    config = CpuConfig(fold_policy=(FoldPolicy.crisp() if case.folding
                                    else FoldPolicy.none()))
    return program, config


def run_case(case: CaseDefinition, source: str = FIGURE3) -> PipelineStats:
    """Run one Table-4 configuration on the cycle-accurate machine."""
    program, config = case_program_config(case, source)
    return run_cycle_accurate(program, config).stats


def run_table4(source: str = FIGURE3,
               jobs: int | None = None,
               recorder=None) -> list[Table4Row]:
    """Regenerate Table 4 (case A is the performance reference).

    ``jobs`` runs the five cases in worker processes (ordered merge,
    byte-identical rows — see :mod:`repro.eval.parallel`). ``recorder``
    (a :class:`~repro.obs.campaign.CampaignRecorder`) collects
    out-of-band per-case telemetry without touching the rows.
    """
    from repro.eval.parallel import map_ordered, run_table4_case
    stats_list = map_ordered(run_table4_case,
                             [(case.name, source)
                              for case in CASE_DEFINITIONS], jobs,
                             recorder=recorder,
                             labeler=lambda task: f"table4/{task[0]}")
    rows = [Table4Row(case, stats)
            for case, stats in zip(CASE_DEFINITIONS, stats_list)]
    reference = rows[0].stats.cycles
    for row in rows:
        row.relative_performance = reference / row.stats.cycles
    return rows


DYNFOLD_VARIANTS: tuple[tuple[str, int | None], ...] = (
    ("static", None),
    ("dyn-conf1", 1),
    ("dyn-conf2", 2),
    ("dyn-conf3", 3),
)
"""Per-case hardware variants for the dynfold exhibit: the case's own
static policy, then dynamic-confidence conditional folding at each
engagement threshold."""


@dataclass
class DynfoldRow:
    """One dynfold-exhibit point: a Table-4 case under one fold policy.

    ``static`` keeps the case's own hardware (CRISP folding for C/D,
    none for A/B/E); ``dyn-confN`` swaps in
    :meth:`FoldPolicy.dynamic(confidence=N) <FoldPolicy.dynamic>` —
    which implies the CRISP fold classes — on the *same compiled
    program*, so within a case the rows isolate what
    dynamic-confidence folding buys over that case's software setting.
    """

    case: CaseDefinition
    label: str
    confidence: int | None  #: ``None`` = the case's own static policy
    stats: PipelineStats
    relative_performance: float = 0.0  #: vs the case's static row


def dynfold_case_config(case: CaseDefinition, confidence: int | None,
                        source: str = FIGURE3):
    """Compile one Table-4 case and pick the variant's fold policy."""
    program, config = case_program_config(case, source)
    if confidence is None:
        return program, config
    return program, CpuConfig(
        fold_policy=FoldPolicy.dynamic(confidence=confidence))


def run_dynfold_point(task: tuple[str, str, int | None, str]):
    """Worker for one dynfold point: ``(case, label, confidence, src)``."""
    case_name, _label, confidence, source = task
    case = next(c for c in CASE_DEFINITIONS if c.name == case_name)
    program, config = dynfold_case_config(case, confidence, source)
    return run_cycle_accurate(program, config).stats


def run_dynfold(source: str = FIGURE3,
                jobs: int | None = None,
                recorder=None) -> list[DynfoldRow]:
    """Run the dynamic-fold exhibit over every Table-4 case."""
    from repro.eval.parallel import map_ordered
    grid = [(case, label, confidence)
            for case in CASE_DEFINITIONS
            for label, confidence in DYNFOLD_VARIANTS]
    stats_list = map_ordered(
        run_dynfold_point,
        [(case.name, label, confidence, source)
         for case, label, confidence in grid], jobs,
        recorder=recorder,
        labeler=lambda task: f"dynfold/{task[0]}/{task[1]}")
    rows = [DynfoldRow(case, label, confidence, stats)
            for (case, label, confidence), stats in zip(grid, stats_list)]
    reference = {row.case.name: row.stats.cycles
                 for row in rows if row.confidence is None}
    for row in rows:
        row.relative_performance = reference[row.case.name] \
            / row.stats.cycles
    return rows


def format_dynfold(rows: list[DynfoldRow]) -> str:
    lines = [
        f"{'Case':<5}{'Variant':<11}{'Conf':<6}{'Cycles':>8}{'iCPI':>7}"
        f"{'DynFold':>9}{'Mispred':>9}{'RecCyc':>8}{'RelPerf':>9}",
    ]
    for row in rows:
        stats = row.stats
        lines.append(
            f"{row.case.name:<5}{row.label:<11}"
            f"{'-' if row.confidence is None else row.confidence:<6}"
            f"{stats.cycles:>8}{stats.issued_cpi:>7.2f}"
            f"{stats.dynamic_folds:>9}{stats.folded_mispredicts:>9}"
            f"{stats.recovery_flush_cycles:>8}"
            f"{row.relative_performance:>9.2f}")
    return "\n".join(lines)


def format_table4(rows: list[Table4Row]) -> str:
    lines = [
        f"{'Case':<5}{'Fold':<6}{'Pred':<6}{'Sprd':<6}{'Cycles':>8}"
        f"{'Issued':>8}{'RelPerf':>9}{'iCPI':>7}{'aCPI':>7}   paper",
    ]
    for row in rows:
        case, stats = row.case, row.stats
        paper = PAPER_TABLE4[case.name]
        lines.append(
            f"{case.name:<5}"
            f"{'yes' if case.folding else 'no':<6}"
            f"{'yes' if case.prediction else 'no':<6}"
            f"{'yes' if case.spreading else 'no':<6}"
            f"{stats.cycles:>8}{stats.issued_instructions:>8}"
            f"{row.relative_performance:>9.2f}"
            f"{stats.issued_cpi:>7.2f}{stats.apparent_cpi:>7.2f}"
            f"   {paper}")
    return "\n".join(lines)
