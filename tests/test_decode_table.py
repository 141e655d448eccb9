"""The process-wide decode table: one per fold policy, shared by every
fast-kernel machine and by ``predecode_cached``, revalidated on every hit.

Each test here fails on a table that hands out a record without checking
its parcels, or that keeps records it should have dropped.
"""

import pytest

from repro.asm import assemble
from repro.core import FoldPolicy
from repro.core.folder import BranchFolder
from repro.sim import CpuConfig, CrispCpu
from repro.sim.progcache import default_cache, predecode_cached, \
    reset_default
from repro.sim.reference import ReferenceCpu
from repro.verify.runner import run_differential

# an 8-entry cache cannot hold the loop, so every iteration decodes
# every entry again (through the table, on the fast kernel)
LOOP = """
        .entry start
        .word x, 0
        .word n, 0
start:
loop:   add x, $1
        add x, $2
        add x, $3
        add x, $4
        {follower}
next:   add x, ${step}
        add x, $6
        add x, $7
        add x, $8
        add x, $9
        add x, $10
        add n, $1
        cmp.s< n, $40
        iftjmpy loop
        halt
"""

FIRST = LOOP.format(follower="jmp next", step=5)
#: same layout, one parcel different: the fifth add's immediate ...
SECOND = LOOP.format(follower="jmp next", step=6)
#: ... or the parcel after the fourth add, which then no longer folds
UNFOLDED = LOOP.format(follower="nop", step=5)

PAIRS = ((FIRST, SECOND), (SECOND, FIRST), (FIRST, UNFOLDED),
         (UNFOLDED, FIRST))

CONFIG = CpuConfig(icache_entries=8)


@pytest.fixture(autouse=True)
def _empty_tables():
    default_cache().clear()
    yield
    default_cache().clear()


def _records() -> int:
    cache = default_cache()
    return sum(len(cache.decode_table(policy)) for policy in (
        FoldPolicy.crisp(), FoldPolicy.none(), FoldPolicy.fold_all()))


@pytest.mark.parametrize("pair", PAIRS[::2])
def test_programs_differ_in_one_parcel_at_one_pc(pair):
    first, second = (assemble(source).parcel_image() for source in pair)
    assert first.keys() == second.keys()
    assert sum(first[address] != second[address] for address in first) == 1


@pytest.mark.parametrize("pair", PAIRS)
def test_back_to_back_programs_match_the_reference_kernel(pair):
    """Two programs with different parcels at the same pc, one after the
    other in one process: each fast run equals a reference run."""
    results = []
    for source in pair:
        program = assemble(source)
        fast = CrispCpu(program, CONFIG)
        fast.run()
        slow = ReferenceCpu(program, CONFIG)
        slow.run()
        assert fast.stats.as_dict() == slow.stats.as_dict()
        assert fast.memory.snapshot() == slow.memory.snapshot()
        assert fast.pdu.decode_memo_hits > 0
        results.append((fast.stats.as_dict(), fast.read_symbol("x")))
    assert results[0] != results[1]  # the changed parcel changed the run


def test_second_machine_reuses_the_first_machines_decodes():
    program = assemble(FIRST)
    first = CrispCpu(program, CONFIG)
    first.run()
    second = CrispCpu(program, CONFIG)
    second.run()
    assert second.pdu.decode_memo_hits == second.pdu.decoded_entries
    assert second.stats.as_dict() == first.stats.as_dict()


def test_predecode_and_machines_share_one_table():
    program = assemble(FIRST)
    policy = CONFIG.fold_policy
    entries = predecode_cached(program, policy)
    table = default_cache().decode_table(policy)
    assert {entry.address for entry in entries} <= table.keys()
    cpu = CrispCpu(program, CONFIG)
    assert cpu.pdu._memo is table
    cpu.run()
    by_address = {entry.address: entry for entry in entries}
    # a machine's hit returns the very entry the predecode recorded
    for pc, (_parcels, _needed, entry) in table.items():
        if pc in by_address:
            assert entry is by_address[pc]


def test_clear_and_reset_default_leave_no_record():
    program = assemble(FIRST)
    CrispCpu(program, CONFIG).run()
    predecode_cached(program, FoldPolicy.none())
    table = default_cache().decode_table(CONFIG.fold_policy)
    assert table and _records() > len(table)

    default_cache().clear()
    assert not table and _records() == 0

    CrispCpu(program, CONFIG).run()
    assert _records() > 0
    reset_default()
    assert _records() == 0
    cpu = CrispCpu(program, CONFIG)
    cpu.run()
    assert cpu.pdu._memo is default_cache().decode_table(CONFIG.fold_policy)


def test_reference_kernel_reads_and_writes_no_table(monkeypatch):
    program = assemble(FIRST)
    ReferenceCpu(program, CONFIG).run()
    assert _records() == 0  # wrote nothing

    CrispCpu(program, CONFIG).run()
    table = default_cache().decode_table(CONFIG.fold_policy)
    before = dict(table)
    decodes = []
    original = BranchFolder.decode

    def counted(folder, pc):
        decodes.append(pc)
        return original(folder, pc)

    monkeypatch.setattr(BranchFolder, "decode", counted)
    slow = ReferenceCpu(program, CONFIG)
    slow.run()
    # read nothing: every entry was decoded afresh, none was recorded
    assert len(decodes) == slow.pdu.decoded_entries > 0
    assert table == before
    assert all(table[pc][2] is entry[2] for pc, entry in before.items())


def test_differential_catches_a_table_that_skips_revalidation(monkeypatch):
    """The m2sim2 rule: no fast path without an arm that catches it. A
    table that hands out a record without comparing its parcels serves
    the first program's entry to the second; the reference kernel, which
    decodes afresh, must disagree."""
    def unchecked(folder, table, pc):
        return table.get(pc)

    first, second = assemble(FIRST), assemble(SECOND)
    assert run_differential(second)[0] == []
    default_cache().clear()
    monkeypatch.setattr(BranchFolder, "lookup", unchecked)
    assert run_differential(first)[0] == []
    mismatches, _ = run_differential(second)
    assert any("fast" in line and "!= reference" in line
               for line in mismatches), mismatches
