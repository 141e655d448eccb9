"""Differential conformance and coverage-guided fuzzing (``crisp-verify``).

The repo carries two cycle-accurate kernels (:mod:`repro.sim` fast path
and :mod:`repro.sim.reference`); this package adds the third leg of the
tripod and the machinery to exercise all three adversarially:

* :mod:`repro.verify.oracle` — a pipeline-free ISA-level interpreter
  that executes assembled programs directly *and* derives analytic
  branch-cost ground truth (folds, prediction outcomes, CC-interlock
  penalties, total cycles) from the dynamic trace alone;
* :mod:`repro.verify.generator` — a seeded, pure constraint-shaped
  assembly program generator with coverage-oriented profiles;
* :mod:`repro.verify.runner` — the differential check (the reference
  kernel and every further engine tier vs. the fast kernel, and the
  fast kernel vs. the oracle) over architectural state,
  ``ExecutionStats``/``PipelineStats``, attribution totals and the
  Next-PC / Alternate-Next-PC invariants;
* :mod:`repro.verify.coverage` — the opcode × fold-class ×
  prediction-outcome × interlock coverage map driving generation;
* :mod:`repro.verify.shrink` — minimizes any disagreeing program to a
  small ``.s`` repro.

See ``docs/validation.md`` ("Differential verification") for usage.
"""

from repro.verify.coverage import CoverageMap, reachable_cells
from repro.verify.generator import PROFILES, generate_source
from repro.verify.oracle import OracleError, OracleResult, run_oracle
from repro.verify.runner import (
    FuzzTask,
    ProgramReport,
    ideal_config,
    run_differential,
    run_fuzz_task,
)
from repro.verify.shrink import shrink_source

__all__ = [
    "CoverageMap",
    "FuzzTask",
    "OracleError",
    "OracleResult",
    "PROFILES",
    "ProgramReport",
    "generate_source",
    "ideal_config",
    "reachable_cells",
    "run_differential",
    "run_fuzz_task",
    "run_oracle",
    "shrink_source",
]
