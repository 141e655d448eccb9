"""Workload compile cache: content-hash-keyed memoization of build steps.

The evaluation layer recompiles the same handful of mini-C sources dozens
of times per run — every Table-4 case, every sweep point, every parallel
worker. The compiler is deterministic, so all of that is wasted work.
This module memoizes the expensive build steps behind a content hash:

* :func:`compile_cached` — source text + compiler options → ``Program``;
* :func:`predecode_cached` — program image + fold policy → the tuple of
  :class:`~repro.core.decoded.DecodedEntry` records ``warm_cache`` wants.

Beside the LRU, a cache keeps one *decode table* per fold policy
(:meth:`ProgramCache.decode_table`): pc → the latest decode there, with
the parcels it read. ``predecode_cached`` and every
:class:`~repro.sim.cpu.CrispCpu`'s PDU decode through the default
cache's table, so an instruction is decoded once per process rather
than once per machine. A record is reused only after each of its
parcels is compared against the caller's own parcels (machine memory,
or the program's parcel image), so a different program at the same pc,
or self-modifying code, decodes afresh. The reference kernel reads and
writes no table, which keeps the fast-vs-reference differential a check
on it.

Keys are SHA-256 digests over the *content* of the inputs (source text,
option fields, parcel image, policy fields), never over object identities,
so a cache hit is exactly as good as a rebuild: two processes computing
the same key are guaranteed to want the same artifact. That property is
what lets the parallel sweep runner (:mod:`repro.eval.parallel`) recompile
in worker processes without ever diverging from the serial path.

Storage is a small in-memory LRU (:class:`ProgramCache`), optionally
backed by an on-disk pickle store so repeated CLI invocations skip
compilation entirely. The disk store is opt-in: pass ``disk_dir=`` or set
the ``CRISP_CACHE_DIR`` environment variable (conventionally
``.crisp-cache/``). Every disk entry is prefixed with a SHA-256 digest of
its pickle payload, verified on load; corrupt or truncated entries are
*quarantined* (renamed to ``<key>.pkl.corrupt``, counted by the
``progcache.quarantined`` probe and the ``quarantined`` stat) and rebuilt
— the store is a pure accelerator, never a source of truth.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Any, Callable

from repro.core.folder import BranchFolder, DecodeTable

#: default in-memory capacity; sweeps touch far fewer distinct artifacts
DEFAULT_CAPACITY = 128

#: environment variable naming the on-disk store directory (opt-in)
CACHE_DIR_ENV = "CRISP_CACHE_DIR"

#: conventional on-disk store location relative to the working directory
DEFAULT_DISK_DIR = ".crisp-cache"


def cache_key(kind: str, *parts: str) -> str:
    """SHA-256 digest over ``kind`` and the content parts.

    Parts are joined with NUL separators so distinct part lists can never
    collide by concatenation (``("ab", "c")`` vs ``("a", "bc")``).
    """
    hasher = hashlib.sha256()
    hasher.update(kind.encode())
    for part in parts:
        hasher.update(b"\x00")
        hasher.update(part.encode())
    return hasher.hexdigest()


class ProgramCache:
    """Content-addressed LRU cache with an optional on-disk pickle store.

    The in-memory tier is an :class:`~collections.OrderedDict` used as an
    LRU: hits move to the back, inserts evict from the front once
    ``capacity`` is exceeded. The disk tier (when ``disk_dir`` is set)
    stores one pickle file per key, written atomically (temp file +
    ``os.replace``) so concurrent writers — parallel sweep workers —
    can only ever observe complete files.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 disk_dir: str | None = None, obs: Any = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.disk_dir = disk_dir
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.quarantined = 0
        #: blockspec trace-compiler telemetry (see repro.sim.blockspec)
        self.blocks_compiled = 0
        self.generated_bytes = 0
        #: policy_key -> that policy's decode table (see decode_table)
        self._decode_tables: dict[str, DecodeTable] = {}
        self._p_quarantined = (obs.counter("progcache.quarantined")
                               if obs is not None else None)

    def get_or_build(self, key: str, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            pass
        else:
            self._entries.move_to_end(key)
            self.hits += 1
            return value
        value = self._disk_load(key)
        if value is _MISSING or value is _QUARANTINED:
            # a quarantined entry is already counted by `quarantined`;
            # counting it as a miss too would double-book the rebuild
            if value is _MISSING:
                self.misses += 1
            value = build()
            self._disk_store(key, value)
        else:
            self.disk_hits += 1
        self._insert(key, value)
        return value

    def _insert(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def decode_table(self, policy: Any) -> DecodeTable:
        """The decode table for fold ``policy`` (created on first use).

        Every caller with an equal policy gets the same table; see
        :meth:`BranchFolder.lookup <repro.core.folder.BranchFolder.lookup>`
        for how a record is revalidated. The table keeps one record per
        pc, so it grows with the code addresses decoded, not with the
        number of programs.
        """
        key = policy_key(policy)
        table = self._decode_tables.get(key)
        if table is None:
            table = self._decode_tables[key] = {}
        return table

    def clear(self, disk: bool = False) -> None:
        """Drop the in-memory tier and every decode record (and the disk
        tier when ``disk``)."""
        self._entries.clear()
        for table in self._decode_tables.values():
            table.clear()
        self.hits = self.misses = self.disk_hits = self.evictions = 0
        self.blocks_compiled = self.generated_bytes = 0
        if disk and self.disk_dir and os.path.isdir(self.disk_dir):
            for name in os.listdir(self.disk_dir):
                if name.endswith(".pkl"):
                    try:
                        os.unlink(os.path.join(self.disk_dir, name))
                    except OSError:
                        pass

    def stats(self) -> dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "blocks_compiled": self.blocks_compiled,
                "generated_bytes": self.generated_bytes}

    # ---- disk tier ---------------------------------------------------------
    #
    # On-disk format: one line holding the SHA-256 hex digest of the
    # pickle payload, then the payload itself. The digest is verified on
    # every load; a mismatch (bit rot, torn write from a crashed worker,
    # a file from before this format existed) quarantines the entry and
    # reports a miss, so the caller recompiles instead of crashing or —
    # worse — simulating from a silently corrupted artifact.

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"{key}.pkl")

    def _quarantine(self, key: str) -> None:
        self.quarantined += 1
        if self._p_quarantined is not None:
            self._p_quarantined.add()
        path = self._disk_path(key)
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass  # racing worker already handled it

    def _disk_load(self, key: str) -> Any:
        if not self.disk_dir:
            return _MISSING
        try:
            with open(self._disk_path(key), "rb") as fh:
                blob = fh.read()
        except OSError:
            return _MISSING  # not cached yet: a plain miss
        digest, sep, payload = blob.partition(b"\n")
        if (not sep or len(digest) != 64
                or hashlib.sha256(payload).hexdigest().encode() != digest):
            self._quarantine(key)
            return _QUARANTINED
        try:
            return pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # digest-valid but unreadable: written by an incompatible
            # version. Not corruption — just a miss (the rebuild
            # overwrites it with the current format).
            return _MISSING

    def _disk_store(self, key: str, value: Any) -> None:
        if not self.disk_dir:
            return
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            os.makedirs(self.disk_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(hashlib.sha256(payload).hexdigest().encode())
                    fh.write(b"\n")
                    fh.write(payload)
                os.replace(tmp, self._disk_path(key))
            except BaseException:
                os.unlink(tmp)
                raise
        except (OSError, pickle.PicklingError):
            pass  # read-only filesystem etc.: caching is best-effort


class _Missing:
    __slots__ = ()


_MISSING = _Missing()

#: distinct from a plain miss so quarantined loads are not *also*
#: counted as misses (the rebuild still happens either way)
_QUARANTINED = _Missing()

_default: ProgramCache | None = None


def default_cache() -> ProgramCache:
    """The process-wide cache (created on first use).

    Honours ``CRISP_CACHE_DIR`` at creation time; call :func:`reset_default`
    after changing the environment to pick up a new directory.
    """
    global _default
    if _default is None:
        _default = ProgramCache(disk_dir=os.environ.get(CACHE_DIR_ENV) or None)
    return _default


def reset_default() -> None:
    """Drop the process-wide cache (tests, env-var changes)."""
    global _default
    _default = None


# ---- cached build steps ----------------------------------------------------


def options_key(options: Any) -> str:
    """Deterministic text form of a ``CompilerOptions``.

    The dataclass repr is stable for the field types involved (bools,
    ints, strings, enums) and changes whenever any option changes, which
    is exactly the invalidation we want.
    """
    return repr(options)


def policy_key(policy: Any) -> str:
    """Deterministic text form of a ``FoldPolicy``.

    Spelled out field by field (frozensets sorted) rather than via repr so
    set iteration order can never leak into the key.
    """
    return (f"enabled={policy.enabled};"
            f"body={sorted(policy.body_lengths)};"
            f"branch={sorted(policy.branch_lengths)};"
            f"calls={policy.fold_calls};"
            f"nextpc={policy.next_address_fields};"
            f"dynfold={policy.dynamic_fold};"
            f"dynconf={policy.dyn_confidence};"
            f"dynpred={policy.dyn_predictor}")


def compile_cached(source: str, options: Any = None, *,
                   cache: ProgramCache | None = None) -> Any:
    """Compile ``source`` with ``options``, memoized by content hash.

    The returned :class:`~repro.asm.program.Program` may be shared between
    callers; programs are treated as immutable everywhere downstream
    (simulators copy the image into their own :class:`Memory`).
    """
    from repro.lang import CompilerOptions, compile_source
    if options is None:
        options = CompilerOptions()
    if cache is None:
        cache = default_cache()
    key = cache_key("compile", source, options_key(options))
    return cache.get_or_build(key, lambda: compile_source(source, options))


def predecode_cached(program: Any, policy: Any, *,
                     cache: ProgramCache | None = None) -> tuple:
    """Decode every instruction of ``program`` under ``policy``, memoized.

    Returns the tuple of :class:`~repro.core.decoded.DecodedEntry` records
    in program order — what :meth:`CrispCpu.warm_cache` fills the Decoded
    Instruction Cache with. Entries are frozen, so sharing one tuple
    between many CPU instances is safe.

    The key hashes the *rendered parcel image*, not the Program object,
    so two structurally identical programs (e.g. compiled in different
    worker processes) hit the same entry. A miss decodes through the
    cache's decode table for ``policy``, revalidated against the image.
    """
    if cache is None:
        cache = default_cache()
    image = program.parcel_image()
    image_part = ",".join(
        f"{addr:x}:{parcel:x}" for addr, parcel in sorted(image.items()))
    addr_part = ",".join(f"{addr:x}" for addr in program.addresses)
    key = cache_key("predecode", image_part, addr_part, policy_key(policy))

    def build() -> tuple:
        folder = BranchFolder(
            lambda address: image.get(address & 0xFFFFFFFF, 0), policy)
        table = cache.decode_table(policy)
        entries = []
        for address in program.addresses:
            record = folder.lookup(table, address)
            entries.append(
                record[2] if record is not None else folder.decode_into(
                    table, address, folder.parcels_needed(address)))
        return tuple(entries)

    return cache.get_or_build(key, build)
