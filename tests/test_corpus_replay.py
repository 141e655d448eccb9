"""Replay every ``tests/corpus/*.s`` through the 3-way differential check.

The corpus holds hand-written regression programs plus shrinker-minimized
repros from past (or injected) kernel bugs; each must keep assembling and
keep all three implementations — fast kernel, reference kernel,
architectural oracle — in full agreement, in both the ideal-cache and
cold-cache stress regimes. The hot-loop program is also replayed under
fault injection with the blockspec arm added to the engine matrix.
"""

from pathlib import Path

import pytest

from repro.asm.assembler import assemble
from repro.verify.runner import program_parcels, run_differential

CORPUS = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.s"))


def test_corpus_is_seeded():
    assert len(CORPUS_FILES) >= 5


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[p.stem for p in CORPUS_FILES])
def test_three_way_agreement(path):
    program = assemble(path.read_text())
    mismatches, oracle = run_differential(program)
    assert mismatches == []
    assert oracle is not None and oracle.halted


def test_hot_loop_injection_through_blockspec_arm():
    """``branch_hot_loop.s`` under forced mispredictions: every
    recovery is a blockspec deopt point, and the run must still agree
    bitwise with the fast kernel."""
    program = assemble((CORPUS / "branch_hot_loop.s").read_text())
    mismatches, _ = run_differential(program, inject="always-wrong",
                                     engines=("fast", "blockspec"))
    assert mismatches == []


def test_shrunk_repros_stay_minimal():
    """Shrinker output committed to the corpus must stay small enough to
    eyeball — the whole point of minimizing before committing."""
    for path in CORPUS_FILES:
        if path.stem.startswith("shrunk"):
            program = assemble(path.read_text())
            assert program_parcels(program) <= 20, path.name
