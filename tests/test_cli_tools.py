"""Smoke tests for the four command-line tools."""

import pytest

from repro.asm.cli import main as asm_main
from repro.eval.cli import main as eval_main
from repro.lang.cli import main as cc_main
from repro.sim.cli import main as sim_main
from repro.sim.progcache import default_cache

ASSEMBLY = """
        .word i, 0
loop:   add i, $1
        cmp.s< i, $5
        iftjmpy loop
        halt
"""

C_SOURCE = """
int total;
int main() {
    for (int i = 0; i < 10; i++) total += i;
    return total;
}
"""


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(ASSEMBLY)
    return str(path)


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(C_SOURCE)
    return str(path)


class TestCrispAsm:
    def test_listing(self, asm_file, capsys):
        assert asm_main([asm_file]) == 0
        out = capsys.readouterr().out
        assert "loop:" in out and "iftjmpy" in out

    def test_error_reporting(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("jmp nowhere\n")
        assert asm_main([str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_custom_bases(self, asm_file, capsys):
        assert asm_main([asm_file, "--code-base", "0x2000"]) == 0
        assert "0x2000" in capsys.readouterr().out


class TestCrispCc:
    def test_emit_assembly(self, c_file, capsys):
        assert cc_main([c_file]) == 0
        out = capsys.readouterr().out
        assert ".entry __start" in out
        assert "cmp.s<" in out

    def test_spread_flag(self, c_file, capsys):
        assert cc_main([c_file, "--spread"]) == 0

    def test_run_flag(self, c_file, capsys):
        assert cc_main([c_file, "--run"]) == 0
        assert "instructions" in capsys.readouterr().out

    def test_cycles_flag(self, c_file, capsys):
        assert cc_main([c_file, "--cycles"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_prediction_modes(self, c_file):
        for mode in ("not_taken", "taken", "heuristic", "profile"):
            assert cc_main([c_file, "--predict", mode]) == 0

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main() { return nope; }")
        assert cc_main([str(bad), "--run"]) == 1
        assert "error" in capsys.readouterr().err


class TestCrispSim:
    def test_cycle_accurate_default(self, asm_file, capsys):
        assert sim_main([asm_file]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_functional_mode(self, asm_file, capsys):
        assert sim_main([asm_file, "--functional"]) == 0
        assert "instructions" in capsys.readouterr().out

    def test_no_fold(self, asm_file, capsys):
        assert sim_main([asm_file, "--no-fold"]) == 0
        assert "0 folded" in capsys.readouterr().out

    def test_print_symbols(self, asm_file, capsys):
        assert sim_main([asm_file, "--print-symbols"]) == 0
        assert "i = 5" in capsys.readouterr().out

    def test_config_knobs(self, asm_file):
        assert sim_main([asm_file, "--icache", "16",
                         "--mem-latency", "4"]) == 0

    def test_cache_stats_reports_decode_memo(self, asm_file, capsys):
        # decodes made by earlier machines in this process are hits
        default_cache().clear()
        assert sim_main([asm_file, "--icache", "2", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines()
                    if line.startswith("decode memo: "))
        fields = dict(item.split("=") for item in line.split()[2:])
        assert set(fields) == {"hits", "decodes"}
        assert int(fields["hits"]) > 0  # the loop outgrows 2 entries
        assert int(fields["decodes"]) > 0

    def test_cache_stats_functional_has_no_memo_line(self, asm_file,
                                                     capsys):
        assert sim_main([asm_file, "--functional", "--cache-stats"]) == 0
        assert "decode memo" not in capsys.readouterr().out


class TestCrispTrace:
    def test_capture_info_study(self, c_file, tmp_path, capsys):
        from repro.trace.cli import main as trace_main
        tape = str(tmp_path / "run.trace")
        assert trace_main(["capture", c_file, "-o", tape,
                           "--conditional-only"]) == 0
        assert trace_main(["info", tape]) == 0
        out = capsys.readouterr().out
        assert "dynamic branches" in out
        assert trace_main(["study", tape]) == 0
        assert "static-optimal" in capsys.readouterr().out

    def test_capture_assembly_source(self, asm_file, tmp_path):
        from repro.trace.cli import main as trace_main
        tape = str(tmp_path / "asm.trace")
        assert trace_main(["capture", asm_file, "-o", tape]) == 0

    def test_classify(self, c_file, tmp_path, capsys):
        from repro.trace.cli import main as trace_main
        tape = str(tmp_path / "cls.trace")
        assert trace_main(["capture", c_file, "-o", tape,
                           "--conditional-only"]) == 0
        assert trace_main(["classify", tape, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "class mixture" in out
        assert "hottest" in out

    def test_synthesize(self, tmp_path, capsys):
        from repro.trace.cli import main as trace_main
        tape = str(tmp_path / "troff.trace")
        assert trace_main(["synthesize", "troff", "-o", tape,
                           "--events", "2000"]) == 0
        assert "2000" in capsys.readouterr().out
        assert trace_main(["study", tape]) == 0


class TestCrispEval:
    def test_table3(self, capsys):
        assert eval_main(["table3"]) == 0
        assert "Branch Spreading" in capsys.readouterr().out

    def test_figures(self, capsys):
        assert eval_main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Execution Unit" in out
        assert "tpcmx" in out or "10-bit" in out

    def test_json_mode_single_exhibit(self, capsys):
        import json
        assert eval_main(["table3", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["exhibit"] == "table3"
        assert document["if_branch_spread_distance"] >= 3
        assert document["spread_gaps"]

    def test_json_mode_table4_matches_stats(self, capsys):
        import json
        from repro.eval.table4 import run_table4
        assert eval_main(["table4", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        rows = {row["case"]: row for row in document["rows"]}
        assert sorted(rows) == ["A", "B", "C", "D", "E"]
        measured = {row.case.name: row.stats for row in run_table4()}
        for name, row in rows.items():
            assert row["metrics"]["cycles"] == measured[name].cycles
            assert list(row["paper"])  # paper reference carried along

    def test_json_mode_figures(self, capsys):
        import json
        assert eval_main(["figures", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["exhibit"] == "figures"
        assert document["figure1_blocks"]
        assert document["figure2_nextpc_cases"]

    def test_json_mode_each_line_is_one_document(self, capsys):
        import json
        assert eval_main(["branch-stats", "--json"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["exhibit"] == "branch-stats"


class TestCrispObs:
    def test_trace_and_manifest(self, tmp_path, capsys):
        import json
        from repro.obs.cli import main as obs_main
        trace_path = tmp_path / "out.json"
        manifest_path = tmp_path / "run.json"
        assert obs_main(["--workload", "alternating",
                         "--trace", str(trace_path),
                         "--manifest", str(manifest_path),
                         "--window", "6"]) == 0
        out = capsys.readouterr().out
        assert "cycle breakdown" in out
        assert "RR" in out  # the pipeline-diagram window printed
        events = json.loads(trace_path.read_text())
        assert {"ph", "ts", "pid", "tid", "name"} <= set(events[-1])
        manifest = json.loads(manifest_path.read_text())
        assert manifest["workload"] == "alternating"
        assert manifest["sites"]  # run manifests carry attribution now

    def test_run_subcommand_is_the_flag_form(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main
        manifest_path = tmp_path / "run.json"
        assert obs_main(["run", "--workload", "alternating",
                         "--manifest", str(manifest_path)]) == 0
        assert manifest_path.exists()


class TestCrispObsExitCodes:
    """The documented contract: 0 success, 1 regression, 2 usage/IO."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        from repro.obs.cli import main as obs_main
        path = tmp_path_factory.mktemp("obs") / "run.json"
        assert obs_main(["run", "--workload", "figure3", "--spread",
                         "--manifest", str(path)]) == 0
        return path

    def test_annotate_ok(self, capsys):
        from repro.obs.cli import main as obs_main
        assert obs_main(["annotate", "--workload", "figure3",
                         "--spread"]) == 0
        out = capsys.readouterr().out
        assert "fold%" in out and "pred%" in out
        assert "; L" in out  # mini-C source lines interleaved
        assert "totals:" in out

    def test_annotate_no_source(self, capsys):
        from repro.obs.cli import main as obs_main
        assert obs_main(["annotate", "--workload", "figure3",
                         "--no-source"]) == 0
        assert "; L" not in capsys.readouterr().out

    def test_diff_self_is_all_zero(self, manifest, capsys):
        from repro.obs.cli import main as obs_main
        assert obs_main(["diff", str(manifest), str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "0 changed, 0 sites changed" in out

    def test_gate_self_passes(self, manifest, capsys):
        from repro.obs.cli import main as obs_main
        # a single-manifest document gates like a one-case baseline
        assert obs_main(["gate", "--baseline", str(manifest),
                         "--current", str(manifest)]) == 0
        assert "gate OK" in capsys.readouterr().out

    def test_gate_degraded_fails_with_1(self, manifest, tmp_path, capsys):
        import json
        from repro.obs.cli import main as obs_main
        degraded = json.loads(manifest.read_text())
        degraded["metrics"]["folded_branches"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(degraded))
        assert obs_main(["gate", "--baseline", str(manifest),
                         "--current", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "GATE FAILED" in out and "fold_rate fell" in out

    def test_missing_input_is_2(self, manifest, capsys):
        from repro.obs.cli import main as obs_main
        assert obs_main(["gate", "--baseline", "does-not-exist.json",
                         "--current", str(manifest)]) == 2
        assert obs_main(["diff", str(manifest),
                         "does-not-exist.json"]) == 2

    def test_usage_errors_are_2(self, manifest, capsys):
        from repro.obs.cli import main as obs_main
        assert obs_main(["diff", str(manifest)]) == 2  # missing operand
        assert obs_main(["gate", "--baseline", str(manifest),
                         "--current", str(manifest),
                         "--threshold", "150%"]) == 2
        assert obs_main(["run", "--workload", "no-such-workload"]) == 2
        assert obs_main(["annotate", "--workload", "nope"]) == 2

    def test_malformed_json_is_2(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main
        bad = tmp_path / "mangled.json"
        bad.write_text("{not json")
        assert obs_main(["diff", str(bad), str(bad)]) == 2


def _exit_code(main, argv):
    """The status a console script ends with, by return or SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _obs_main(argv):
    from repro.obs.cli import main
    return main(argv)


def _trace_main(argv):
    from repro.trace.cli import main
    return main(argv)


def _verify_main(argv):
    from repro.verify.cli import main
    return main(argv)


class TestBadArgumentsExit2:
    """Bad input ends in an ``error:`` line and exit 2, not a traceback."""

    @pytest.mark.parametrize("main, argv", (
        (eval_main, ["table4"]),
        (_obs_main, ["run", "--table4-baseline", "unused.json"]),
        (_verify_main, ["fuzz", "--programs", "1"]),
    ), ids=("crisp-eval", "crisp-obs", "crisp-verify"))
    def test_negative_jobs(self, main, argv, capsys):
        assert _exit_code(main, argv + ["--jobs", "-1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--jobs" in err

    @pytest.mark.parametrize("main, argv", (
        (asm_main, []),
        (cc_main, []),
        (sim_main, []),
        (_trace_main, ["info"]),
        (_verify_main, ["replay"]),
    ), ids=("crisp-asm", "crisp-cc", "crisp-sim", "crisp-trace",
            "crisp-verify"))
    def test_missing_input_file(self, main, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing.s")
        assert _exit_code(main, argv + [missing]) == 2
        assert f"error: cannot read {missing}: " in capsys.readouterr().err


class TestBadProgramsExit1:
    """A program that does not assemble or cannot run ends in one error
    line and exit 1, not a traceback."""

    @pytest.mark.parametrize("main, argv, stream, prefix", (
        (asm_main, [], "err", "error: "),
        (sim_main, [], "err", "error: "),
        (_verify_main, ["replay"], "out", "{path}: ASSEMBLY ERROR: "),
    ), ids=("crisp-asm", "crisp-sim", "crisp-verify-replay"))
    def test_syntax_error(self, main, argv, stream, prefix, tmp_path,
                          capsys):
        path = tmp_path / "bad.s"
        path.write_text("add 1 2 3\n")
        assert main(argv + [str(path)]) == 1
        captured = capsys.readouterr()
        lines = getattr(captured, stream).splitlines()
        assert lines == [prefix.format(path=path)
                         + "line 1: bad operand '1 2 3': 'add 1 2 3'"]
        assert "Traceback" not in captured.out + captured.err

    def test_functional_run_of_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.s"
        path.write_text("")
        assert sim_main([str(path), "--functional"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: control reached 0x1000, not an "
                                "instruction boundary\n")
        assert captured.out == ""


#: one-line sources that used to escape the assembler as a bare
#: ValueError, or to assemble into something the ISA cannot encode
MALFORMED_ASSEMBLY = {
    "jmp *foo": "bad absolute target '*foo': 'jmp *foo'",
    "jmp (*foo)": "bad indirect target '(*foo)': 'jmp (*foo)'",
    ".equ N, abc": "bad directive argument",
    ".reserve buf, x": "bad directive argument",
    "add *0x1ffffffff, 1": "absolute address out of 32-bit range",
    "mov 4(sp), 0x1ffffffff1": "immediate out of 32-bit range",
    "enter 99999999999": "immediate out of 32-bit range",
    "add 99999999999(sp), 1": "stack offset out of 32-bit range",
    ".reserve buf, -3": ".reserve buf: negative word count -3",
    ".reserve buf, 0x4000000000000000":
        "data symbol 'buf' at 0x8000 (4611686018427387904 words) runs "
        "past 0xFFFFFFFF",
}


class TestMalformedAssemblyExit1:
    """Every tool that assembles reports a malformed line as one error
    line naming it, and exits 1; nothing escapes as a traceback."""

    @pytest.mark.parametrize("main, argv, stream, prefix", (
        (asm_main, [], "err", "error: "),
        (sim_main, [], "err", "error: "),
        (_verify_main, ["replay"], "out", "{path}: ASSEMBLY ERROR: "),
    ), ids=("crisp-asm", "crisp-sim", "crisp-verify-replay"))
    @pytest.mark.parametrize("source", MALFORMED_ASSEMBLY)
    def test_malformed_line(self, source, main, argv, stream, prefix,
                            tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text(source + "\n")
        assert main(argv + [str(path)]) == 1
        captured = capsys.readouterr()
        assert getattr(captured, stream).splitlines() == [
            prefix.format(path=path) + "line 1: "
            + MALFORMED_ASSEMBLY[source]]
        assert "Traceback" not in captured.out + captured.err


#: origins outside the 32-bit address space, and code that runs past it
BAD_ORIGINS = {
    ".org 0xFFFFFFFE\nnop\nnop\nhalt":
        "line 3: code at 0x100000000 runs past 0xFFFFFFFF",
    ".org 0xFFFFFFFC\nnop\nadd *0x10, 1\nhalt":
        "line 3: code at 0xfffffffe runs past 0xFFFFFFFF",
    ".org -8\nnop\nhalt": "line 1: .org -8 out of 32-bit range",
    "nop\n.org 0x100000000\nhalt":
        "line 2: .org 0x100000000 out of 32-bit range",
    ".dataorg -4\n.word x, 1\nhalt":
        "line 1: .dataorg -4 out of 32-bit range",
    ".dataorg 0x100000000\nhalt":
        "line 1: .dataorg 0x100000000 out of 32-bit range",
    ".stack -4\nhalt": "line 1: .stack -4 out of 32-bit range",
    ".stack 0x100000000\nhalt":
        "line 1: .stack 0x100000000 out of 32-bit range",
}


class TestOriginsOutsideAddressSpaceExit1:
    """``.org``, ``.dataorg`` and ``.stack`` take an address in
    0..0xFFFFFFFF, and code may not run past 0xFFFFFFFF, as data may
    not; every tool that assembles names the line and exits 1."""

    @pytest.mark.parametrize("main, argv, stream, prefix", (
        (asm_main, [], "err", "error: "),
        (sim_main, [], "err", "error: "),
        (_verify_main, ["replay"], "out", "{path}: ASSEMBLY ERROR: "),
    ), ids=("crisp-asm", "crisp-sim", "crisp-verify-replay"))
    @pytest.mark.parametrize("source", BAD_ORIGINS)
    def test_rejected(self, source, main, argv, stream, prefix, tmp_path,
                      capsys):
        path = tmp_path / "origin.s"
        path.write_text(source + "\n")
        assert main(argv + [str(path)]) == 1
        captured = capsys.readouterr()
        assert getattr(captured, stream).splitlines() == [
            prefix.format(path=path) + BAD_ORIGINS[source]]
        assert "Traceback" not in captured.out + captured.err

    def test_code_may_end_at_the_top(self):
        from repro.asm import assemble
        program = assemble(".org 0xFFFFFFFC\nnop\nhalt\n")
        assert program.addresses == [0xFFFFFFFC, 0xFFFFFFFE]


class TestCrispCcReportsEveryToolchainError:
    @pytest.mark.parametrize("flags", ([], ["--run"], ["--cycles"]),
                             ids=("emit", "run", "cycles"))
    def test_out_of_range_literal(self, flags, tmp_path, capsys):
        path = tmp_path / "big.c"
        path.write_text("int main() { return 99999999999; }\n")
        assert cc_main([str(path)] + flags) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: line 1: integer literal "
                                "99999999999 out of 32-bit range\n")
        assert captured.out == ""

    def test_assembly_error(self, tmp_path, capsys):
        """An array the data segment cannot hold is found by the
        assembler, before any of its words is built."""
        path = tmp_path / "huge.c"
        path.write_text("int g[0x40000000];\n"
                        "int main() { return 0; }\n")
        assert cc_main([str(path), "--run"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: line 2: data symbol 'g' at 0x8000 "
                                "(1073741824 words) runs past 0xFFFFFFFF\n")
        assert captured.out == ""
