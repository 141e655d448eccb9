"""Hang watchdogs, fault-injection wiring and parallel-runner retry.

Three robustness layers added alongside the dynamic_fold mode:

* both cycle kernels carry a cycle-budget watchdog that raises a
  diagnostic :class:`SimulationHungError` (PC ring, per-site fold/flush
  tallies) instead of spinning forever — the m2sim2 failure mode;
* the CLIs turn a hung simulation into a non-zero exit instead of a
  traceback (``crisp-eval``) or a silent pass (``crisp-verify``);
* the parallel sweep runner retries a crashed worker task once in a
  fresh pool and marks persistent failures in the merged output instead
  of aborting the whole campaign.

``CpuConfig`` also refuses configs the machine cannot run, naming the
field, and the CLIs turn that into ``error: ...`` and exit 2.
"""

import os
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.policy import FoldPolicy
from repro.eval.parallel import TaskFailure, map_ordered
from repro.sim.cpu import WATCHDOG_RING, CpuConfig, CrispCpu
from repro.sim.reference import ReferenceCpu
from repro.sim.semantics import SimulationError, SimulationHungError

INFINITE_LOOP = """
    .entry start
    .word counter, 0
start:
loop:
    add counter, $1
    cmp.u> counter, $0
    iftjmpy loop
    halt
"""

DYNAMIC = CpuConfig(fold_policy=FoldPolicy.dynamic(confidence=1))


class TestWatchdog:
    @pytest.mark.parametrize("cpu_class", (CrispCpu, ReferenceCpu))
    def test_raises_instead_of_spinning(self, cpu_class):
        cpu = cpu_class(assemble(INFINITE_LOOP), DYNAMIC)
        with pytest.raises(SimulationHungError) as excinfo:
            cpu.run(max_cycles=2_000)
        error = excinfo.value
        assert error.max_cycles == 2_000
        assert 0 < len(error.pcs) <= WATCHDOG_RING

    @pytest.mark.parametrize("cpu_class", (CrispCpu, ReferenceCpu))
    def test_diagnostics_carry_hot_fold_sites(self, cpu_class):
        """The m2sim2 signature must be readable straight off the error:
        the looping PCs and the per-site fold/flush tallies."""
        program = assemble(INFINITE_LOOP)
        cpu = cpu_class(program, DYNAMIC)
        with pytest.raises(SimulationHungError) as excinfo:
            cpu.run(max_cycles=2_000)
        error = excinfo.value
        site = program.symbols["loop"]
        assert any(pc in error.pcs for pc in range(site, site + 16))
        assert error.fold_counts  # the dynamic folder was engaging
        message = str(error)
        assert "did not halt within 2000 cycles" in message
        assert "hot fold sites" in message
        assert "folds=" in message and "flushes=" in message

    def test_is_a_simulation_error(self):
        # callers that already catch SimulationError keep working
        assert issubclass(SimulationHungError, SimulationError)

    def test_config_budget_is_the_default(self):
        config = CpuConfig(fold_policy=FoldPolicy.crisp(), max_cycles=1_500)
        cpu = CrispCpu(assemble(INFINITE_LOOP), config)
        with pytest.raises(SimulationHungError) as excinfo:
            cpu.run()
        assert excinfo.value.max_cycles == 1_500

    def test_halting_program_never_trips(self):
        source = Path("tests/corpus/branch_hot_loop.s").read_text()
        cpu = CrispCpu(assemble(source),
                       CpuConfig(fold_policy=FoldPolicy.dynamic(
                           confidence=1), max_cycles=100_000))
        cpu.run()
        assert cpu.eu.halted


class TestControlLeavesProgram:
    """Both cycle kernels end a run whose control leaves the program's
    code in the functional simulator's error, once the pipeline has
    drained, instead of stalling on the demand miss until the watchdog."""

    @pytest.mark.parametrize("cpu_class", (CrispCpu, ReferenceCpu))
    @pytest.mark.parametrize("source, address, cycles", (
        ("", 0x1000, 0),  # the entry point itself
        ("nop", 0x1002, 8),
        ("mov Accum, $1\nadd Accum, $2", 0x1004, 9),  # runs off its end
        ("jmp far\nhalt\nfar: nop", 0x1006, 10),
    ), ids=("empty", "nop", "off-the-end", "after-jump"))
    def test_raises_at_the_address(self, cpu_class, source, address,
                                   cycles):
        cpu = cpu_class(assemble(source))
        with pytest.raises(SimulationError) as excinfo:
            cpu.run(max_cycles=100)
        assert type(excinfo.value) is SimulationError
        assert str(excinfo.value) == (
            f"control reached {address:#x}, not an instruction boundary")
        assert cpu.stats.cycles == cycles

    @pytest.mark.parametrize("cpu_class", (CrispCpu, ReferenceCpu))
    def test_halt_still_in_flight_keeps_running(self, cpu_class):
        """The EU demands past a final ``halt`` while the halt is still
        in IR/OR; the pipeline is not drained, so nothing is raised and
        the run keeps its stats, decoded-cache misses included."""
        cpu = cpu_class(assemble("mov Accum, $1\nhalt"))
        stats = cpu.run(max_cycles=100)
        assert (stats.cycles, stats.icache_misses, stats.icache_hits,
                stats.stall_cycles, stats.issued_instructions) == \
            (9, 7, 2, 7, 2)
        assert cpu.state.accum == 1

    @pytest.mark.parametrize("cpu_class", (CrispCpu, ReferenceCpu))
    def test_wrong_path_fetch_still_stalls(self, cpu_class):
        """A predicted-taken branch to an odd address in data fetches it
        while its compare is in flight; the misprediction recovers."""
        source = """
        cmp.= $1, $2
        iftjmpy 0x8001
        mov Accum, $5
        halt
        """
        cpu = cpu_class(assemble(source))
        stats = cpu.run(max_cycles=1_000)
        assert cpu.state.accum == 5
        assert stats.mispredictions == 1

    def test_crisp_sim_exits_on_an_empty_file(self, tmp_path):
        import subprocess
        import sys
        path = tmp_path / "empty.s"
        path.write_text("")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-m", "repro.sim.cli", str(path)],
            capture_output=True, text=True, timeout=30, env=env)
        assert result.returncode == 1
        assert result.stderr == ("error: control reached 0x1000, not an "
                                 "instruction boundary\n")
        assert result.stdout == ""


class TestConfigValidation:
    """A config the machine cannot run is refused up front, naming the
    field: zero latencies/depths used to spin at the entry point until
    the watchdog fired, a non-power-of-two cache raised from inside
    DecodedICache."""

    @pytest.mark.parametrize("field, value", (
        ("mem_latency", 0),
        ("decode_latency", 0),
        ("prefetch_depth", 0),
        ("max_cycles", 0),
        ("mem_latency", -1),
        ("decode_latency", 1.5),
        ("icache_entries", 12),
        ("icache_entries", 0),
        ("inject", "sometimes-wrong"),
        ("fold_policy", "crisp"),
        ("engine", "batched"),
    ))
    def test_bad_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            CpuConfig(**{field: value})

    @pytest.mark.parametrize("field, value", (
        ("mem_latency", 1),
        ("decode_latency", 1),
        ("prefetch_depth", 1),
        ("max_cycles", 1),
        ("icache_entries", 1),
        ("icache_entries", 64),
        ("inject", "always-wrong"),
    ))
    def test_edge_values_accepted(self, field, value):
        CpuConfig(**{field: value})

    def test_unit_latencies_still_halt(self):
        config = CpuConfig(mem_latency=1, decode_latency=1,
                           prefetch_depth=1, icache_entries=1,
                           max_cycles=200_000)
        cpu = CrispCpu(assemble(INFINITE_LOOP.replace(
            "cmp.u> counter, $0", "cmp.u< counter, $3")), config)
        cpu.run()
        assert cpu.halted


class TestCliWiring:
    @pytest.mark.parametrize("flags, field", (
        (["--mem-latency", "0"], "mem_latency"),
        (["--icache", "12"], "icache_entries"),
    ))
    def test_crisp_sim_rejects_bad_config(self, tmp_path, capsys,
                                          flags, field):
        from repro.sim.cli import main
        path = tmp_path / "loop.s"
        path.write_text(INFINITE_LOOP)
        assert main([str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_crisp_obs_rejects_bad_config(self, capsys):
        from repro.obs.cli import main
        assert main(["run", "--workload", "figure3", "--icache", "12"]) == 2
        assert "icache_entries" in capsys.readouterr().err

    def test_crisp_eval_exits_2_on_hang(self, monkeypatch, capsys):
        from repro.eval.cli import main

        def hang(*args, **kwargs):
            raise SimulationHungError(1_000, [0x1000, 0x1006],
                                      {0x1006: 321}, {0x1006: 0})

        monkeypatch.setattr("repro.eval.table4.run_table4", hang)
        assert main(["table4"]) == 2
        err = capsys.readouterr().err
        assert "did not halt" in err
        assert "0x1006(folds=321, flushes=0)" in err

    def test_crisp_verify_replay_flags_hung_kernel(self, tmp_path,
                                                   monkeypatch, capsys):
        """A kernel that hangs where the oracle halts is a disagreement
        (exit 1), not a crash — exactly the m2sim2 check."""
        from repro.verify.cli import main

        def hang(self, max_cycles=None):
            raise SimulationHungError(99, [0x1000])

        monkeypatch.setattr("repro.verify.runner.CrispCpu.run", hang)
        path = tmp_path / "loop.s"
        path.write_text(Path("tests/corpus/branch_hot_loop.s").read_text())
        status = main(["replay", str(path), "--no-stress",
                       "--dyn-confidence", "1"])
        assert status == 1
        out = capsys.readouterr().out
        assert "DISAGREE" in out


# ---- parallel retry (workers must be module-level for pickling) ------------


def _double(value):
    return value * 2


def _crash_once(task):
    """Die hard (no exception, the whole process) on the first dispatch."""
    marker, value, crash = task
    if crash and not os.path.exists(marker):
        Path(marker).write_text("first attempt")
        os._exit(17)
    return value * 2


def _raise_once(task):
    marker, value = task
    if not os.path.exists(marker):
        Path(marker).write_text("first attempt")
        raise RuntimeError("transient")
    return value * 2


def _always_fails(value):
    raise ValueError(f"persistent failure on {value}")


class TestParallelRetry:
    def test_crashed_worker_is_redispatched(self, tmp_path):
        """One task hard-kills its worker process on first dispatch
        (BrokenProcessPool poisons every outstanding future); the retry
        pool re-runs the poisoned tasks and the campaign completes."""
        tasks = [(str(tmp_path / f"m{k}"), k, k == 1) for k in range(4)]
        assert map_ordered(_crash_once, tasks, jobs=2) == [0, 2, 4, 6]

    def test_seed_preserving_redispatch(self, tmp_path):
        """The retried call sees the identical task object (the marker
        file written by attempt one proves the same task came back)."""
        task = (str(tmp_path / "marker"), 21)
        assert map_ordered(_raise_once, [task], jobs=2) == [42]
        assert Path(task[0]).read_text() == "first attempt"

    def test_serial_path_retries_too(self, tmp_path):
        task = (str(tmp_path / "marker"), 5)
        assert map_ordered(_raise_once, [task], jobs=1) == [10]

    def test_persistent_failure_is_marked_not_fatal(self):
        results = map_ordered(_always_fails, [1, 2, 3], jobs=2)
        assert all(isinstance(r, TaskFailure) for r in results)
        assert [r.task for r in results] == [1, 2, 3]
        assert all(r.attempts == 2 for r in results)
        assert "persistent failure on 2" in results[1].error

    def test_mixed_results_keep_task_order(self, tmp_path):
        def worker_input(k):
            return (str(tmp_path / f"x{k}"), k)

        # interleave healthy values with one persistent failure by
        # reusing the serial path (deterministic, no pool needed)
        results = map_ordered(_always_fails, [7], jobs=1) \
            + map_ordered(_double, [1, 2], jobs=1)
        assert isinstance(results[0], TaskFailure)
        assert results[1:] == [2, 4]

    def test_no_failure_output_matches_plain_map(self):
        assert map_ordered(_double, list(range(6)), jobs=2) \
            == [k * 2 for k in range(6)]
