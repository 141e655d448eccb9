"""The Decoded Instruction Cache.

Thirty-two entries of canonical decoded instructions sit between the
prefetch/decode unit and the execution unit — the architectural centrepiece
of Branch Folding. The cache is direct-mapped: "the low five bits [of the
IR Next-PC register] are used to address the Decoded Instruction Cache",
i.e. the index is the low bits of the *parcel-aligned* address, with the
full PC kept as the tag.

Entries carry the Next-PC and Alternate Next-PC fields (the 64 extra bits
that, on the die, "turned out not to cost any area ... since the pitch of
the datapath was the constraining factor").
"""

from __future__ import annotations

from repro.core.decoded import DecodedEntry
from repro.isa.parcels import PARCEL_BYTES
from repro.obs.events import EventBus, NULL_BUS


class DecodedICache:
    """Direct-mapped cache of :class:`~repro.core.decoded.DecodedEntry`."""

    def __init__(self, entries: int = 32, *,
                 obs: EventBus = NULL_BUS) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("cache size must be a positive power of two")
        self.size = entries
        self._lines: list[DecodedEntry | None] = [None] * entries
        self.hits = 0
        self.misses = 0
        #: bumped on every content change; lets the blockspec engine
        #: skip line-by-line residency revalidation between fills
        self.generation = 0
        self._obs_on = obs.enabled  #: skip probe updates on a disabled bus
        self._obs_sinks = obs.sinks_ref()  #: publish each fill if truthy
        self._p_fills = obs.counter("icache.fills")
        self._p_evictions = obs.counter("icache.conflict_evictions")
        #: fills and conflict evictions not yet added to their probes
        self._n_fills = 0
        self._n_evictions = 0

    def index_of(self, address: int) -> int:
        """Cache index: low bits of the parcel-aligned address."""
        return (address // PARCEL_BYTES) % self.size

    def lookup(self, address: int) -> DecodedEntry | None:
        """Return the entry tagged with ``address``, or None on a miss."""
        entry = self._lines[self.index_of(address)]
        if entry is not None and entry.address == address:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def probe(self, address: int) -> bool:
        """Hit test without disturbing the statistics (used by prefetch)."""
        entry = self._lines[self.index_of(address)]
        return entry is not None and entry.address == address

    def fill(self, entry: DecodedEntry) -> None:
        """Write a decoded entry (replacing any conflicting line)."""
        index = self.index_of(entry.address)
        if self._obs_on:
            previous = self._lines[index]
            evicts = (previous is not None
                      and previous.address != entry.address)
            if self._obs_sinks:
                if evicts:
                    self._p_evictions.add()
                self._p_fills.add()
            else:
                self._n_evictions += evicts
                self._n_fills += 1
        self._lines[index] = entry
        self.generation += 1

    def publish_probes(self) -> None:
        """Add the fills and evictions counted while no sink listened to
        their probes; the cycle loops call this when they return."""
        if self._n_fills:
            self._p_fills.add(self._n_fills)
            self._n_fills = 0
            if self._n_evictions:
                self._p_evictions.add(self._n_evictions)
                self._n_evictions = 0

    def invalidate(self) -> None:
        """Clear every line (machine reset)."""
        self._lines = [None] * self.size
        self.generation += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
