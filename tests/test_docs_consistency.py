"""Documentation consistency: the reference docs must not drift from the
code they document."""

import re
from pathlib import Path

import pytest

from repro.isa.opcodes import Opcode
from repro.workloads import SUITE

ROOT = Path(__file__).resolve().parent.parent


def read(relative):
    return (ROOT / relative).read_text(encoding="utf-8")


class TestIsaDoc:
    def test_every_opcode_documented(self):
        text = read("docs/isa.md")
        documented = set(re.findall(r"`([a-z][a-z0-9.<>=!]*)`", text))
        for opcode in Opcode:
            mnemonic = opcode.value
            base = mnemonic.split(".")[0]
            assert mnemonic in text or base in documented, (
                f"opcode {mnemonic!r} missing from docs/isa.md")

    def test_documented_ranges_match_code(self):
        from repro.isa.parcels import SHORT_BRANCH_MAX, SHORT_BRANCH_MIN
        text = read("docs/isa.md")
        assert str(SHORT_BRANCH_MIN) in text
        assert f"+{SHORT_BRANCH_MAX}" in text or str(SHORT_BRANCH_MAX) in text

    def test_documented_defaults_match_code(self):
        from repro.asm.program import (
            DEFAULT_CODE_BASE,
            DEFAULT_DATA_BASE,
            DEFAULT_STACK_TOP,
        )
        text = read("docs/isa.md")
        for value in (DEFAULT_CODE_BASE, DEFAULT_DATA_BASE,
                      DEFAULT_STACK_TOP):
            assert f"{value:#x}" in text


class TestPipelineDoc:
    def test_penalty_table_matches_model(self):
        text = read("docs/pipeline.md")
        for penalty in ("**3**", "**2**", "**1**", "**0**"):
            assert penalty in text

    def test_defaults_mentioned(self):
        from repro.sim.cpu import CpuConfig
        config = CpuConfig()
        text = read("docs/pipeline.md")
        assert f"default {config.mem_latency}" in text
        assert str(config.icache_entries) in text

    def test_engine_tier_table_matches_registry(self):
        from repro.sim.cpu import ENGINES
        section = read("docs/pipeline.md").split("## Engine tiers")[1]
        section = section.split("\n## ")[0]
        tiers = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        assert sorted(tiers) == sorted((*ENGINES, "reference"))


class TestReadme:
    def test_examples_listed_exist(self):
        text = read("README.md")
        for match in re.findall(r"examples/(\w+)\.py", text):
            assert (ROOT / "examples" / f"{match}.py").exists(), match

    def test_console_scripts_exist(self):
        import tomllib
        config = tomllib.loads(read("pyproject.toml"))
        scripts = config["project"]["scripts"]
        for name, target in scripts.items():
            module, function = target.split(":")
            imported = __import__(module, fromlist=[function])
            assert callable(getattr(imported, function)), name


class TestDesignInventory:
    def test_every_bench_file_listed_in_design(self):
        text = read("DESIGN.md") + read("EXPERIMENTS.md")
        for bench in (ROOT / "benchmarks").glob("bench_*.py"):
            assert bench.name in text, (
                f"{bench.name} missing from DESIGN.md/EXPERIMENTS.md")

    def test_workload_suite_documented(self):
        text = read("DESIGN.md")
        # the suite size is stated in the layout section
        assert f"{len(SUITE)}-program suite" in text
