"""The benchmark's four workloads.

Each workload is one public call path, run as repeated *passes*. A pass
is made of *items* (a Table-4 case, a sweep point, a fuzz verdict, a
compile), timed where the workload's caller looks them up. Every
workload runs the default (``fast``) engine, serially, as its CLI does.

``table4``
    The paper's exhibit: ``run_table4()`` then ``run_dynfold()``. Almost
    all of its time is the cycle kernel in steady state; fewer than 1 %
    of its cycles miss the decoded cache, so a change to the PDU's
    decode path should not move it.
``suite-sweep``
    ``run_grid`` over programs whose working sets run from
    cache-resident (``fib``, ``gen_branchy2``) to two or three times the
    32-entry decoded cache (``dhry_like``, ``gen_workset24``), under the
    non-folding and the CRISP policy. Demand misses and PDU decodes do
    most of the work here. ``puzzle``, ``queens``, ``sort`` and
    ``cwhet_int`` take more than 2.5 s each and are left out.
``fuzz``
    ``crisp-verify fuzz`` on 100 generated programs: generator,
    assembler, oracle, reference kernel, attribution and the stress
    arms. The fast kernel's share is small, so a verifier change shows
    here and a kernel change mostly does not.
``compile``
    crispcc over Figure 3, the workload suite and the synthetic suite
    under four option sets. Compiler passes and the assembler do the
    work; nothing is simulated.

Each workload also checks its outputs. The first pass is checked
against an independent result; later passes must repeat it exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass
from typing import Any, Callable

#: Table-4 cycles of cases A-E, as committed in BENCH_obs_baseline.json.
TABLE4_CYCLES = [14375, 11307, 8745, 7209, 9773]

SWEEP_PROGRAMS = ("figure3", "dhry_like", "strings", "collatz", "sieve",
                  "matrix", "fib", "alternating", "gen_branchy2",
                  "gen_branchy8", "gen_biased5", "gen_alternating",
                  "gen_workset24")

#: 100 rather than the CLI's default 200: shorter passes give each run
#: more samples, and the fastest of them is steadier on a noisy host
FUZZ_PROGRAMS = 100

#: functional-check budget: almost 4x the longest checked program
#: (``queens``, 269k instructions), so a miscompiled loop fails fast
CHECK_INSTRUCTIONS = 1_000_000

#: a check stops at this many problems; the run has failed already
MAX_PROBLEMS = 3


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its inputs, run a pass and check it."""

    name: str
    #: ``module:attr`` names of the calls that are this workload's items
    item_targets: tuple[str, ...]
    setup: Callable[[int], Any]  #: seed -> inputs
    run_pass: Callable[[Any, str], Any]  #: (inputs, scratch dir) -> output
    #: (inputs, output, first output or None, ProgramCheck) -> problems;
    #: runs outside the timed region, on every pass
    check: Callable[[Any, Any, Any, "ProgramCheck"], list[str]]
    item_ok: Callable[[Any], bool] = lambda result: True


class ProgramCheck:
    """Checks compiled programs: run on the functional simulator, each
    must return what the VAX-model interpreter computes from its source.

    ``verified`` maps the content key of every program that passed to
    its instruction count. The harness keeps it between the runs of one
    checkout, so a byte-identical program is simulated once, not on
    every run.
    """

    def __init__(self, verified: dict[str, int]) -> None:
        self.verified = verified
        self._expected: dict[str, int] = {}  #: source -> interpreter result

    def __call__(self, label: str, source: str,
                 program) -> tuple[list[str], int]:
        """Return (problems, functional instruction count)."""
        from repro.baselines.vax import run_vax_model
        from repro.isa.parcels import to_s32
        from repro.sim.functional import run_program
        from repro.sim.semantics import SimulationError

        key = hashlib.sha256(repr((
            source, program.entry, sorted(program.parcel_image().items()),
            sorted(program.data_image().items()))).encode()).hexdigest()
        if key in self.verified:
            return [], self.verified[key]
        if source not in self._expected:
            self._expected[source] = to_s32(
                run_vax_model(source).return_value)
        try:
            simulator = run_program(program, CHECK_INSTRUCTIONS)
        except SimulationError as exc:
            return [f"{label}: functional run failed: {exc}"], 0
        got = to_s32(simulator.state.accum)
        expected = self._expected[source]
        instructions = simulator.stats.instructions
        if got != expected:
            return [f"{label}: functional result {got} != interpreter "
                    f"{expected}"], instructions
        self.verified[key] = instructions
        return [], instructions


# ---- table4 --------------------------------------------------------------


def _table4_setup(_seed: int) -> None:
    import repro.eval.table4  # noqa: F401  (the pass's call path)


def _table4_pass(_inputs, _tmp: str):
    from repro.eval.table4 import run_dynfold, run_table4
    return run_table4(), run_dynfold()


def _table4_check(_inputs, output, first, _programs) -> list[str]:
    rows, dynfold = output
    cycles = [row.cycles for row in rows]
    problems = []
    if cycles != TABLE4_CYCLES:
        problems.append(f"table4 cycles {cycles} != {TABLE4_CYCLES}")
    static = [row.stats.cycles for row in dynfold if row.confidence is None]
    if static != cycles:
        problems.append(f"dynfold static cycles {static} != {cycles}")
    if first is not None and [row.stats for row in dynfold] \
            != [row.stats for row in first[1]]:
        problems.append("dynfold stats differ from the first pass")
    return problems


# ---- suite-sweep ---------------------------------------------------------


def _sweep_setup(seed: int) -> dict:
    from repro.core.policy import FoldPolicy
    from repro.eval.sweeps import run_grid  # noqa: F401
    from repro.sim.cpu import CpuConfig
    return {"seed": seed, "programs": SWEEP_PROGRAMS,
            "configs": {"none": CpuConfig(fold_policy=FoldPolicy.none()),
                        "crisp": CpuConfig(fold_policy=FoldPolicy.crisp())}}


def _sweep_pass(inputs: dict, _tmp: str):
    from repro.eval.sweeps import run_grid
    return run_grid(inputs["programs"], inputs["configs"],
                    seed=inputs["seed"])


def _sweep_check(inputs: dict, sweep, first,
                 programs: ProgramCheck) -> list[str]:
    from repro.eval.parallel import TaskFailure
    from repro.lang import CompilerOptions
    from repro.sim.progcache import compile_cached
    from repro.workloads import resolve_source

    lost = [point for point in sweep.points
            if isinstance(point, TaskFailure)]
    if lost:
        return [f"sweep point lost: {point.error}" for point in lost]
    if first is not None:
        if [p.stats for p in sweep.points] != \
                [p.stats for p in first.points]:
            return ["sweep stats differ from the first pass"]
        return []
    problems: list[str] = []
    for name in inputs["programs"]:
        source = resolve_source(name, inputs["seed"])
        # run_grid's own options, so this is the program it simulated
        program = compile_cached(source, CompilerOptions(spreading=True))
        found, instructions = programs(name, source, program)
        problems += found
        if len(problems) >= MAX_PROBLEMS:
            break
        for point in sweep.for_workload(name):
            executed = point.stats.executed_instructions
            if executed != instructions:
                problems.append(f"{name}/{point.label}: executed "
                                f"{executed} != functional {instructions}")
    return problems


# ---- fuzz ----------------------------------------------------------------


def _fuzz_setup(seed: int) -> dict:
    import repro.verify.cli  # noqa: F401
    return {"seed": seed, "programs": FUZZ_PROGRAMS}


def _fuzz_pass(inputs: dict, tmp: str) -> tuple[int, str]:
    from repro.verify.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["fuzz", "--seed", str(inputs["seed"]),
                     "--programs", str(inputs["programs"]),
                     "--no-heartbeat", "--corpus-dir", tmp])
    return code, out.getvalue()


def _fuzz_check(inputs: dict, output, first, _programs) -> list[str]:
    if first is not None:
        return [] if output == first else \
            ["fuzz report differs from the first pass"]
    code, text = output
    agreements = re.search(r"^agreements: (\d+)$", text, re.MULTILINE)
    if code != 0 or agreements is None \
            or int(agreements.group(1)) != inputs["programs"]:
        return [f"fuzz exited {code}: " + " / ".join(text.splitlines()[:4])]
    return []


# ---- compile -------------------------------------------------------------


def _compile_setup(seed: int) -> list[tuple[str, str, Any]]:
    from repro.lang import CompilerOptions, PredictionMode
    from repro.workloads import FIGURE3, SUITE, synthetic_suite

    sources = {"figure3": FIGURE3}
    sources.update((name, program.source)
                   for name, program in SUITE.items())
    sources.update((name, program.source)
                   for name, program in synthetic_suite(seed).items())
    options = {
        "default": CompilerOptions(),
        "spreading": CompilerOptions(spreading=True),
        "spreading+simplify": CompilerOptions(spreading=True, simplify=True),
        "not-taken": CompilerOptions(prediction=PredictionMode.NOT_TAKEN),
    }
    return [(f"{name}/{label}", source, option)
            for name, source in sources.items()
            for label, option in options.items()]


def _compile_pass(items, _tmp: str) -> list:
    # looked up on the module, where the item timer is installed
    from repro.lang import compiler
    return [compiler.compile_source(source, options)
            for _label, source, options in items]


def _compile_check(items, output, first,
                   programs: ProgramCheck) -> list[str]:
    if first is not None:
        return [] if output == first else \
            ["compiled programs differ from the first pass"]
    problems: list[str] = []
    for (label, source, _options), program in zip(items, output):
        problems += programs(label, source, program)[0]
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


WORKLOADS: dict[str, Workload] = {workload.name: workload for workload in (
    Workload("table4",
             ("repro.eval.parallel:run_table4_case",
              "repro.eval.table4:run_dynfold_point"),
             _table4_setup, _table4_pass, _table4_check),
    Workload("suite-sweep",
             ("repro.eval.parallel:run_sweep_task",),
             _sweep_setup, _sweep_pass, _sweep_check),
    Workload("fuzz",
             ("repro.verify.cli:run_fuzz_task",),
             _fuzz_setup, _fuzz_pass, _fuzz_check,
             item_ok=lambda report: report.ok),
    Workload("compile",
             ("repro.lang.compiler:compile_source",),
             _compile_setup, _compile_pass, _compile_check),
)}
