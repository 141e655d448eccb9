"""Unit tests for the workload compile cache (repro.sim.progcache)."""

import pickle

import pytest

from repro.core.policy import FoldPolicy
from repro.lang import CompilerOptions
from repro.sim.cpu import CrispCpu
from repro.sim.progcache import (
    ProgramCache,
    cache_key,
    compile_cached,
    default_cache,
    options_key,
    policy_key,
    predecode_cached,
    reset_default,
)
from repro.workloads import get_workload

SOURCE = "int main() { int i, s; s = 0; for (i = 0; i < 4; i++) s += i; return s; }"


@pytest.fixture(autouse=True)
def _fresh_default(monkeypatch):
    """Isolate the process-wide cache (and its env knob) per test."""
    monkeypatch.delenv("CRISP_CACHE_DIR", raising=False)
    reset_default()
    yield
    reset_default()


class TestCacheKey:
    def test_stable_across_calls(self):
        assert cache_key("compile", "a", "b") == cache_key("compile", "a", "b")

    def test_part_boundaries_matter(self):
        assert cache_key("k", "ab", "c") != cache_key("k", "a", "bc")

    def test_kind_matters(self):
        assert cache_key("compile", "x") != cache_key("predecode", "x")

    def test_options_key_changes_with_options(self):
        base = options_key(CompilerOptions())
        assert options_key(CompilerOptions(spreading=True)) != base
        assert options_key(CompilerOptions()) == base

    def test_policy_key_deterministic_and_distinct(self):
        assert policy_key(FoldPolicy.crisp()) == policy_key(FoldPolicy.crisp())
        distinct = {policy_key(p) for p in (
            FoldPolicy.crisp(), FoldPolicy.none(),
            FoldPolicy.fold_all(), FoldPolicy.no_next_address())}
        assert len(distinct) == 4


class TestLru:
    def test_hit_returns_same_object(self):
        cache = ProgramCache(capacity=4)
        built = []

        def build():
            built.append(object())
            return built[-1]

        first = cache.get_or_build("k", build)
        second = cache.get_or_build("k", build)
        assert first is second
        assert len(built) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = ProgramCache(capacity=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")   # refresh a; b is now LRU
        cache.get_or_build("c", lambda: "C")   # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_clear_resets(self):
        cache = ProgramCache(capacity=2)
        cache.get_or_build("a", lambda: "A")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ProgramCache(capacity=0)


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        writer = ProgramCache(disk_dir=str(tmp_path))
        program = compile_cached(SOURCE, cache=writer)
        # a second cache sharing the directory loads from disk, not build
        reader = ProgramCache(disk_dir=str(tmp_path))
        again = reader.get_or_build(
            cache_key("compile", SOURCE, options_key(CompilerOptions())),
            lambda: pytest.fail("should have hit the disk store"))
        assert reader.disk_hits == 1
        assert again.entry == program.entry
        assert again.parcel_image() == program.parcel_image()
        assert [i.opcode for i in again.instructions] \
            == [i.opcode for i in program.instructions]

    def test_corrupt_entry_rebuilds_without_double_count(self, tmp_path):
        """A quarantined entry is counted once, by ``quarantined`` —
        not also as a miss (the two counters partition rebuild causes)."""
        cache = ProgramCache(disk_dir=str(tmp_path))
        key = cache_key("compile", "junk")
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.get_or_build(key, lambda: "rebuilt") == "rebuilt"
        assert cache.disk_hits == 0
        assert cache.quarantined == 1
        assert cache.misses == 0
        # and the rebuild replaced the corrupt file
        fresh = ProgramCache(disk_dir=str(tmp_path))
        assert fresh.get_or_build(key, lambda: "no") == "rebuilt"

    def test_flipped_payload_byte_quarantines_and_recompiles(self, tmp_path):
        """Bit rot inside a digest-valid-looking file must never be
        simulated from: flipping any payload byte fails verification,
        quarantines the file and rebuilds."""
        from repro.obs.events import EventBus

        writer = ProgramCache(disk_dir=str(tmp_path))
        key = cache_key("compile", "victim")
        writer.get_or_build(key, lambda: {"image": [1, 2, 3]})
        path = tmp_path / f"{key}.pkl"
        blob = bytearray(path.read_bytes())
        digest_end = blob.index(b"\n")
        blob[digest_end + 10] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))

        obs = EventBus()
        reader = ProgramCache(disk_dir=str(tmp_path), obs=obs)
        rebuilt = reader.get_or_build(key, lambda: {"image": [1, 2, 3]})
        assert rebuilt == {"image": [1, 2, 3]}
        assert reader.disk_hits == 0
        assert reader.quarantined == 1
        assert obs.counters().get("progcache.quarantined") == 1
        # the corrupt blob is preserved for forensics, not deleted
        assert (tmp_path / f"{key}.pkl.corrupt").exists()
        # and the rebuild rewrote a loadable entry in its place
        fresh = ProgramCache(disk_dir=str(tmp_path))
        assert fresh.get_or_build(
            key, lambda: pytest.fail("should hit disk")) \
            == {"image": [1, 2, 3]}
        assert fresh.disk_hits == 1

    def test_truncated_entry_quarantined(self, tmp_path):
        writer = ProgramCache(disk_dir=str(tmp_path))
        key = cache_key("compile", "torn")
        writer.get_or_build(key, lambda: list(range(100)))
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:-7])  # torn write
        reader = ProgramCache(disk_dir=str(tmp_path))
        assert reader.get_or_build(key, lambda: "rebuilt") == "rebuilt"
        assert reader.quarantined == 1

    def test_clear_disk(self, tmp_path):
        cache = ProgramCache(disk_dir=str(tmp_path))
        cache.get_or_build("k", lambda: 1)
        assert list(tmp_path.glob("*.pkl"))
        cache.clear(disk=True)
        assert not list(tmp_path.glob("*.pkl"))

    def test_env_var_enables_disk_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRISP_CACHE_DIR", str(tmp_path))
        reset_default()
        compile_cached(SOURCE)
        assert list(tmp_path.glob("*.pkl"))


class TestCachedBuilds:
    def test_compile_cached_matches_direct_compile(self):
        from repro.lang import compile_source
        direct = compile_source(SOURCE, CompilerOptions())
        cached = compile_cached(SOURCE)
        assert cached.parcel_image() == direct.parcel_image()
        assert cached.entry == direct.entry

    def test_compiled_program_survives_pickle(self):
        program = compile_cached(SOURCE)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.parcel_image() == program.parcel_image()
        # cached instruction attributes survive the round-trip
        first = clone.instructions[0]
        assert first.op_class is program.instructions[0].op_class
        assert first.length_parcels() == program.instructions[0].length_parcels()

    def test_predecode_cached_shared_between_cpus(self):
        program = get_workload("sieve").compiled()
        cpu = CrispCpu(program)
        entries = predecode_cached(program, cpu.config.fold_policy)
        assert predecode_cached(program, cpu.config.fold_policy) is entries
        assert [e.address for e in entries] == list(program.addresses)

    def test_predecode_matches_pdu_folder(self):
        program = get_workload("alternating").compiled()
        cpu = CrispCpu(program)
        entries = predecode_cached(program, cpu.config.fold_policy)
        for entry in entries:
            assert entry == cpu.pdu.folder.decode(entry.address)

    def test_warm_cache_uses_predecoded_entries(self):
        program = get_workload("fib").compiled()
        cache = default_cache()
        CrispCpu(program).warm_cache()
        misses = cache.stats()["misses"]
        CrispCpu(program).warm_cache()
        assert cache.stats()["misses"] == misses  # second warm is a pure hit


class TestCrossProcessAndDifferential:
    """Disk-tier entries must survive process boundaries, and a cache
    hit must be *bit-identical* to a cold compile under the 3-way
    differential runner — a poisoned or stale cache entry would
    otherwise mask (or fake) kernel bugs during fuzzing."""

    def test_disk_entries_round_trip_across_processes(self, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(os.environ, CRISP_CACHE_DIR=str(tmp_path))
        script = (
            "from repro.sim.progcache import compile_cached\n"
            f"program = compile_cached({SOURCE!r})\n"
            "print(sorted(program.parcel_image().items()))\n")
        first = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True)
        assert list(tmp_path.glob("*.pkl"))
        # a second process must load the same image from disk, not rebuild
        probe = script + "print(__import__('repro.sim.progcache', fromlist=['default_cache']).default_cache().disk_hits)\n"
        second = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        lines = second.stdout.splitlines()
        assert lines[0] == first.stdout.splitlines()[0]
        assert int(lines[1]) >= 1

    def test_executed_entries_predecode_to_disk_across_processes(
            self, tmp_path, monkeypatch):
        """Entries a machine has executed carry a shape executor; the
        predecode tuple built from them must still reach the disk tier,
        and another process must load it back equal."""
        import os
        import subprocess
        import sys

        monkeypatch.setenv("CRISP_CACHE_DIR", str(tmp_path))
        reset_default()
        policy = FoldPolicy.crisp()
        program = compile_cached(SOURCE)
        CrispCpu(program).run()
        entries = predecode_cached(program, policy)
        assert any(entry._executor is not None for entry in entries)

        script = (
            "from repro.core.policy import FoldPolicy\n"
            "from repro.sim.progcache import (compile_cached,\n"
            "                                 default_cache,\n"
            "                                 predecode_cached)\n"
            f"program = compile_cached({SOURCE!r})\n"
            "entries = predecode_cached(program, FoldPolicy.crisp())\n"
            "cache = default_cache()\n"
            "print(cache.disk_hits, cache.misses)\n"
            "print(repr(entries))\n")
        loaded = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, CRISP_CACHE_DIR=str(tmp_path)),
            capture_output=True, text=True, check=True)
        counts, listing = loaded.stdout.splitlines()
        assert counts == "2 0"  # the program and its predecode, from disk
        assert listing == repr(entries)

    def test_cache_hit_bit_identical_under_differential_runner(
            self, tmp_path, monkeypatch):
        from repro.lang import compile_source
        from repro.verify.runner import ideal_config, run_differential

        monkeypatch.setenv("CRISP_CACHE_DIR", str(tmp_path))
        reset_default()
        cold = compile_source(SOURCE, CompilerOptions())
        warm = compile_cached(SOURCE)   # populates memory + disk tiers
        reset_default()                 # drop memory tier
        hit = compile_cached(SOURCE)    # served from the disk tier
        assert default_cache().disk_hits == 1
        assert hit.parcel_image() == cold.parcel_image() \
            == warm.parcel_image()

        results = []
        for program in (cold, hit):
            mismatches, oracle = run_differential(program)
            assert mismatches == []
            assert oracle is not None
            config = ideal_config(program)
            cpu = CrispCpu(program, config)
            cpu.warm_cache()
            cpu.run()
            results.append(cpu.stats.as_dict())
        assert results[0] == results[1]
