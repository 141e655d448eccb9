"""The Prefetch and Decode Unit (PDU).

Three pipelined stages fetch parcels from main memory into an eight-parcel
instruction queue, decode them — folding branches per the
:class:`~repro.core.policy.FoldPolicy` — and write canonical
:class:`~repro.core.decoded.DecodedEntry` records into the Decoded
Instruction Cache. The cache decouples the PDU from the execution unit:
"if the PDU has to wait for memory, this does not necessarily stall the
EU".

Timing model:

* Memory delivers four parcels (the queue's four inputs) per access after
  ``mem_latency`` cycles; the queue holds eight parcels.
* An instruction decodes once the queue holds all its parcels *plus* the
  one-parcel fold lookahead when the policy may fold
  (:meth:`~repro.core.folder.BranchFolder.parcels_needed` — the QA..QE
  window).
* A decoded entry spends ``decode_latency`` cycles in the PDR/PIR stages
  before its cache fill; one entry enters decode per cycle.
* After decoding an entry the PDU continues along the entry's Next-PC
  (prefetching down the *predicted* path), resetting the queue whenever
  the path leaves the sequential stream, and pausing ``prefetch_depth``
  entries past the last execution-unit demand.

Every decode is timed as a fresh one, but the host-side work is memoized
in a decode table: an address whose parcels are unchanged since its last
decode under the same fold policy reuses that decode's entry (see
:meth:`PrefetchDecodeUnit._decode`). A PDU built directly keeps a
private table; :class:`~repro.sim.cpu.CrispCpu` hands it the process's
table for its policy (:meth:`~repro.sim.progcache.ProgramCache.decode_table`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decoded import DecodedEntry
from repro.core.folder import BranchFolder, DecodeTable
from repro.core.policy import FoldPolicy
from repro.isa.encoding import EncodingError
from repro.isa.parcels import PARCEL_BYTES
from repro.obs.events import EventBus, NULL_BUS
from repro.sim.icache import DecodedICache
from repro.sim.memory import Memory


@dataclass
class _InFlight:
    """A decoded entry moving through the PDR/PIR stages."""

    entry: DecodedEntry
    cycles_left: int


class PrefetchDecodeUnit:
    """Cycle-level model of CRISP's three-stage prefetch/decode pipeline."""

    QUEUE_PARCELS = 8
    FETCH_PARCELS = 4

    def __init__(self, memory: Memory, icache: DecodedICache,
                 policy: FoldPolicy, *, mem_latency: int = 2,
                 decode_latency: int = 2, prefetch_depth: int = 16,
                 obs: EventBus = NULL_BUS, dyn=None,
                 decode_table: DecodeTable | None = None) -> None:
        self.memory = memory
        self.icache = icache
        self.folder = BranchFolder(memory.read_parcel, policy)
        #: dynamic-fold unit shared with the EU; the PDU only *queries*
        #: it (a pure read of predictor state) to steer prefetch down
        #: the predicted-taken path of a dynamically foldable entry
        self._dyn = dyn
        self.mem_latency = mem_latency
        self.decode_latency = decode_latency
        self.prefetch_depth = prefetch_depth
        self.obs = obs
        self._obs_on = obs.enabled  #: skip probe updates on a disabled bus
        #: with a sink listening, each counter event is published as it
        #: happens; without one it is counted below and published by
        #: :meth:`publish_probes`
        self._obs_sinks = obs.sinks_ref()
        self._p_decoded = obs.counter("pdu.decoded")
        self._p_fold_attempted = obs.counter("fold.attempted")
        self._p_fold_decoded = obs.counter("fold.decoded")
        self._p_accesses = obs.counter("pdu.memory_accesses")
        self._p_queue_depth = obs.gauge("pdu.queue.depth")
        self._p_ahead = obs.gauge("pdu.prefetch.ahead")
        self._n_decoded = 0
        self._n_fold_attempted = 0
        self._n_fold_decoded = 0
        self._n_accesses = 0

        self.decode_pc: int | None = None  #: next address to decode
        self.queue_base = 0  #: byte address of the first buffered parcel
        self.queue_parcels = 0  #: contiguous parcels buffered from queue_base
        self.fetch_countdown = 0  #: cycles until the outstanding access lands
        self.inflight: list[_InFlight] = []
        self.entries_ahead = 0  #: entries decoded since the last demand
        self.memory_accesses = 0
        self.decoded_entries = 0
        #: decoded entries served from the decode table (counted in
        #: decoded_entries too; only the host-side decode work is skipped)
        self.decode_memo_hits = 0
        #: decode table for this PDU's policy, private unless passed in;
        #: see _decode
        self._memo: DecodeTable = {} if decode_table is None else decode_table
        self._starved = False  #: decoder waiting on parcels this cycle

    # ---- execution-unit interface -----------------------------------------

    def demand(self, address: int) -> None:
        """The EU missed the cache at ``address``: redirect decoding there.

        If the entry is already in the PDR/PIR stages the PDU lets it
        arrive; otherwise the queue and decode pipeline restart at the
        demanded address.
        """
        self.entries_ahead = 0
        if any(flight.entry.address == address for flight in self.inflight):
            return
        if self.decode_pc == address and (
                self._parcels_buffered(address) > 0 or self.fetch_countdown > 0):
            return  # already being fetched/decoded
        self.decode_pc = address
        self.queue_base = address
        self.queue_parcels = 0
        self.fetch_countdown = 0
        self.inflight = []

    # ---- per-cycle behaviour -------------------------------------------------

    def tick(self) -> None:
        """Advance the PDU by one clock."""
        self._advance_decode_pipeline()
        self._advance_memory()
        self._starved = False
        self._maybe_decode()
        self._maybe_start_fetch()

    def _advance_decode_pipeline(self) -> None:
        for flight in self.inflight:
            flight.cycles_left -= 1
        while self.inflight and self.inflight[0].cycles_left <= 0:
            self.icache.fill(self.inflight.pop(0).entry)

    def _advance_memory(self) -> None:
        if self.fetch_countdown > 0:
            self.fetch_countdown -= 1
            if self.fetch_countdown == 0:
                self.queue_parcels += self.FETCH_PARCELS
                if self._obs_on:
                    self._p_queue_depth.set_fast(self.queue_parcels)

    def _parcels_buffered(self, address: int) -> int:
        """How many buffered parcels are available from ``address`` on."""
        offset = (address - self.queue_base) // PARCEL_BYTES
        if offset < 0 or offset > self.queue_parcels:
            return 0
        return self.queue_parcels - offset

    def _maybe_decode(self) -> None:
        if self.decode_pc is None:
            return
        if self.entries_ahead >= self.prefetch_depth:
            return
        if len(self.inflight) >= self.decode_latency:
            return  # PDR stage occupied
        available = self._parcels_buffered(self.decode_pc)
        if available <= 0:
            return
        try:
            entry = self._decode(self.decode_pc, available)
        except EncodingError:
            # prefetch ran past the program into undecodable bytes — stop
            # until the EU demands a real address
            self.decode_pc = None
            return
        if entry is None:
            self._starved = True
            return
        self.inflight.append(_InFlight(entry, self.decode_latency))
        self.decoded_entries += 1
        self.entries_ahead += 1
        if self._obs_on:
            detail = self._obs_sinks
            if detail:
                self._p_decoded.inc(site=entry.address)
            else:
                self._n_decoded += 1
            self._p_ahead.set_fast(self.entries_ahead)
            if entry.is_folded:
                if detail:
                    self._p_fold_attempted.inc(site=entry._branch_pc)
                    self._p_fold_decoded.inc(site=entry._branch_pc)
                else:
                    self._n_fold_attempted += 1
                    self._n_fold_decoded += 1
            elif (entry.body is not None
                  and self.folder.policy.enabled
                  and entry.body.length_parcels()
                  in self.folder.policy.body_lengths):
                # peeked at a follower, no fold
                if detail:
                    self._p_fold_attempted.inc(site=entry.address)
                else:
                    self._n_fold_attempted += 1

        sequential = entry.sequential
        follow = entry.next_pc
        if (self._dyn is not None and entry.dyn_foldable
                and self._dyn.decide(entry._branch_pc)):
            # dynamic fold engaged: prefetch continues down the
            # predicted-taken path instead of the static-bit path
            follow = (entry.next_pc if entry._predicted_taken
                      else entry.alt_pc)
        if follow is None:
            self.decode_pc = None  # dynamic target: wait for a demand
        elif follow == sequential:
            self.decode_pc = sequential
        else:
            # predicted-path prefetch leaves the sequential stream: the
            # queue contents past this point are the wrong path
            self.decode_pc = follow
            self.queue_base = follow
            self.queue_parcels = 0
            self.fetch_countdown = 0
        if entry.halts:
            self.decode_pc = None

    def _decode(self, pc: int, available: int) -> DecodedEntry | None:
        """The entry at ``pc``, or None while its QA..QE window is not
        all buffered in the ``available`` parcels.

        A table record whose parcels still match memory returns the
        recorded entry object; a miss or a changed parcel decodes afresh
        and records the decode. Raises :class:`EncodingError` (never
        recorded) on undecodable bytes.
        """
        folder = self.folder
        record = folder.lookup(self._memo, pc)
        if record is not None:
            if available < record[1]:
                return None
            self.decode_memo_hits += 1
            return record[2]
        needed = folder.parcels_needed(pc)
        if available < needed:
            return None
        return folder.decode_into(self._memo, pc, needed)

    def _maybe_start_fetch(self) -> None:
        if self.fetch_countdown > 0 or self.decode_pc is None:
            return
        if self.entries_ahead >= self.prefetch_depth:
            return
        if self.queue_parcels + self.FETCH_PARCELS > self.QUEUE_PARCELS:
            # drop parcels the decoder has moved past to make room
            consumed = (self.decode_pc - self.queue_base) // PARCEL_BYTES
            if consumed > 0:
                drop = min(consumed, self.queue_parcels)
                self.queue_base += drop * PARCEL_BYTES
                self.queue_parcels -= drop
            if self.queue_parcels + self.FETCH_PARCELS > self.QUEUE_PARCELS \
                    and not self._starved:
                # full — unless the decoder is starved for parcels (a
                # window wider than the queue, only possible under the
                # fold-everything ablation), in which case overfetch into
                # a skid rather than deadlock
                return
        self.fetch_countdown = self.mem_latency
        self.memory_accesses += 1
        if self._obs_on:
            if self._obs_sinks:
                self._p_accesses.add()
            else:
                self._n_accesses += 1

    def publish_probes(self) -> None:
        """Add the counter events counted while no sink listened to their
        probes; the cycle loops call this when they return. The gauges
        are set as they move, once per fetch or decode."""
        if self._n_accesses:
            self._p_accesses.add(self._n_accesses)
            self._n_accesses = 0
        if self._n_decoded:
            self._p_decoded.add(self._n_decoded)
            self._n_decoded = 0
        if self._n_fold_attempted:
            self._p_fold_attempted.add(self._n_fold_attempted)
            self._n_fold_attempted = 0
        if self._n_fold_decoded:
            self._p_fold_decoded.add(self._n_fold_decoded)
            self._n_fold_decoded = 0
