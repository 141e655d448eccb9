"""End-to-end differential fuzzing: agreement, determinism, bug capture.

The decisive test injects a real kernel bug — mutating the fast
kernel's per-stage interlock penalty table — and requires the fuzzer to
(a) catch the divergence against the untouched reference kernel and
oracle, and (b) shrink the offender to a ≤20-parcel repro that still
fails under the bug and passes without it.
"""

import json
import re
from pathlib import Path

import pytest

import repro.sim.eu as eu
from repro.asm.assembler import assemble
from repro.eval.parallel import map_ordered
from repro.sim.cpu import ENGINES, CrispCpu
from repro.sim.reference import ReferenceCpu
from repro.sim.semantics import SimulationError
from repro.verify.cli import main
from repro.verify.generator import PROFILES
from repro.verify.runner import (
    ENGINE_MATRIX,
    FuzzTask,
    program_parcels,
    run_differential,
    run_fuzz_task,
)
from repro.verify.shrink import shrink_source


def _tasks(count, stress=True):
    return [FuzzTask(seed=seed, profile=PROFILES[seed % len(PROFILES)],
                     stress=stress)
            for seed in range(count)]


class TestAgreement:
    def test_three_way_agreement_on_sample(self):
        for task in _tasks(6):
            report = run_fuzz_task(task)
            assert report.ok, (task, report.mismatches)
            assert report.branch_cells  # coverage records flow back

    def test_parallel_results_identical_to_serial(self):
        tasks = _tasks(4, stress=False)
        serial = map_ordered(run_fuzz_task, tasks, jobs=1)
        pooled = map_ordered(run_fuzz_task, tasks, jobs=2)
        assert serial == pooled


class TestInjectedBug:
    def test_penalty_mutation_is_caught_and_shrunk(self, monkeypatch):
        # scratch-branch mutation: OR-stage interlock penalty 2 -> 3 in
        # the fast kernel only (the reference inlines its own table and
        # the oracle derives penalties analytically)
        monkeypatch.setattr(eu, "_PENALTY_BY_STAGE",
                            {"RR": 3, "OR": 3, "IR": 1})
        caught = None
        for task in _tasks(10, stress=False):
            report = run_fuzz_task(task)
            if not report.ok:
                caught = report
                break
        assert caught is not None, "injected bug survived 10 programs"
        assert caught.source is not None

        def still_failing(source):
            try:
                program = assemble(source)
            except Exception:
                return False
            mismatches, _ = run_differential(
                program, stress=False, check_attribution=False,
                max_cycles=200_000)
            return bool(mismatches)

        minimal = shrink_source(caught.source, still_failing,
                                max_checks=400)
        program = assemble(minimal)
        assert program_parcels(program) <= 20
        assert still_failing(minimal)

        # with the bug reverted, the shrunk repro is clean again
        monkeypatch.setattr(eu, "_PENALTY_BY_STAGE",
                            {"RR": 3, "OR": 2, "IR": 1})
        mismatches, _ = run_differential(program)
        assert mismatches == []


class TestEveryArmCanFail:
    """Each arm of the full matrix catches a divergence of its own: a
    fast path whose verification arm never fires is no check at all."""

    ARMS = ("reference", *ENGINES[1:])

    @staticmethod
    def _patch_arm(monkeypatch, arm, after):
        """Run ``after(cpu)`` once ``arm``'s machine finishes, only there."""
        machine = ReferenceCpu if arm == "reference" else CrispCpu
        original = machine.run

        def run(cpu, *args, **kwargs):
            stats = original(cpu, *args, **kwargs)
            if machine is ReferenceCpu or cpu.config.engine == arm:
                after(cpu)
            return stats
        monkeypatch.setattr(machine, "run", run)

    @staticmethod
    def _differential(**options):
        corpus = Path(__file__).parent / "corpus"
        program = assemble((corpus / "fold_d0_loop.s").read_text())
        return run_differential(program, engines=ENGINE_MATRIX["all"],
                                **options)

    @pytest.mark.parametrize("arm", ARMS)
    def test_one_cycle_late_arm_is_reported(self, arm, monkeypatch):
        def late(cpu):
            cpu.stats.cycles += 1
        self._patch_arm(monkeypatch, arm, late)
        mismatches, oracle = self._differential()
        cycles = oracle.cycles
        assert (f"ideal stats.cycles: fast {cycles} != {arm} {cycles + 1}"
                in mismatches)
        stress = [re.fullmatch(rf"stress stats\.cycles: fast (\d+) != "
                               rf"{arm} (\d+)", line)
                  for line in mismatches]
        fast, late_arm = next(map(int, match.groups())
                              for match in stress if match)
        assert late_arm == fast + 1
        assert all(arm in line for line in mismatches), mismatches

    @pytest.mark.parametrize("arm", ARMS)
    def test_failing_arm_is_named(self, arm, monkeypatch):
        def fail(_cpu):
            raise SimulationError("injected")
        self._patch_arm(monkeypatch, arm, fail)
        # attribute_run builds the patched machine too, and its error
        # would propagate out of the differential
        mismatches, _ = self._differential(check_attribution=False)
        for regime in ("ideal", "stress"):
            assert f"{regime} {arm} kernel failed: injected" in mismatches


class TestCli:
    def test_fuzz_smoke_writes_coverage(self, tmp_path, capsys):
        out = tmp_path / "coverage.json"
        status = main(["fuzz", "--seed", "11", "--programs", "3",
                       "--no-stress", "--coverage-out", str(out),
                       "--corpus-dir", str(tmp_path / "corpus")])
        assert status == 0
        captured = capsys.readouterr().out
        assert "agreements: 3" in captured
        payload = json.loads(out.read_text())
        assert payload["hit"] >= 1
        assert payload["reachable"] == 58

    def test_fuzz_budget_mode_runs_batches(self, tmp_path, capsys):
        status = main(["fuzz", "--seed", "12", "--budget", "0.01",
                       "--max-programs", "1", "--no-stress",
                       "--corpus-dir", str(tmp_path)])
        assert status == 0
        assert "programs: 1" in capsys.readouterr().out

    def test_replay_corpus_file(self, capsys):
        status = main(["replay", "tests/corpus/fold_d0_loop.s"])
        assert status == 0
        assert "agree" in capsys.readouterr().out

    def test_replay_disagreement_exit_code(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setattr(eu, "_PENALTY_BY_STAGE",
                            {"RR": 3, "OR": 3, "IR": 1})
        path = tmp_path / "repro.s"
        path.write_text(
            "start:\n    cmp.s< $5, $3\n    nop\n    iffjmpn L1\nL1:\n"
            "    halt\n")
        status = main(["replay", str(path), "--no-stress"])
        assert status == 1
        assert "DISAGREE" in capsys.readouterr().out

    def test_coverage_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cells.json"
        status = main(["coverage", "--seed", "3", "--programs", "5",
                       "--json", str(out)])
        assert status == 0
        assert "coverage:" in capsys.readouterr().out
        assert out.exists()

    def test_profile_filter_rejected_for_unknown(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--profile", "bogus"])
